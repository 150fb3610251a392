"""Reference gradients for the Monte-Carlo estimator, by sampling and enumeration.

``raw_gradient_estimate`` is the unadjusted score-function estimator and
``exact_gradient_oracle`` the exact gradient over a small decision space;
``tests/test_estimator.py`` checks them against each other and against
finite differences.  ``gridtvc.estimator.estimate_gradient`` is the
variance-reduced estimator that training uses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gridtvc import policy
from gridtvc.h2mg import (
    D_BINARY, D_CONTINUOUS, SCHEMA, Decision, H2MGContext, H2MGError, SurrogateDecision)
from gridtvc.policy import PolicyConfig

import policy_reference

#: The references score one decision per call, where ``estimate_gradient``
#: takes a batch oracle.
DecisionOracle = Callable[[H2MGContext, Decision], object]


def _zeros(z: SurrogateDecision) -> dict[str, np.ndarray]:
    return {c: np.zeros_like(a) for c, a in z.items()}


def raw_gradient_estimate(x: H2MGContext, z: SurrogateDecision, beta: float,
                          n_samples: int, oracle: DecisionOracle,
                          rng: np.random.Generator,
                          policy_cfg: PolicyConfig = PolicyConfig(),
                          prohibitive_cost: float = 100.0,
                          ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Unadjusted score-function estimator: joint sampling, raw scores.

    Returns (gradient, per-coordinate standard error of the expectation
    term); a failing oracle call scores ``prohibitive_cost``.
    """
    sums = _zeros(z)
    sq_sums = _zeros(z)
    for _ in range(n_samples):
        y_i = {c: np.array([policy_reference.sample(c, row, rng, policy_cfg)
                            for row in rows])
               for c, rows in z.items()}
        try:
            f_i = float(oracle(x, y_i).total)
        except H2MGError:
            raise
        except Exception:
            f_i = prohibitive_cost
        for cname, rows in z.items():
            term = f_i * policy.log_prob_grad(cname, y_i[cname], rows, policy_cfg)
            sums[cname] += term
            sq_sums[cname] += term * term
    grads = _zeros(z)
    stderr = _zeros(z)
    for cname, rows in z.items():
        mean = sums[cname] / n_samples
        var = np.maximum(sq_sums[cname] / n_samples - mean ** 2, 0.0)
        grads[cname] = -policy.entropy_grad(cname, rows) + beta * mean
        stderr[cname] = beta * np.sqrt(var / n_samples)
    return grads, stderr


@dataclass(frozen=True)
class OracleGradient:
    grads: dict[str, np.ndarray]
    z_beta: float
    kl: float
    expected_cost: float


def exact_gradient_oracle(x: H2MGContext, z: SurrogateDecision, beta: float,
                          oracle: DecisionOracle,
                          policy_cfg: PolicyConfig = PolicyConfig(),
                          max_space: int = 4096) -> OracleGradient:
    """Exact gradient of the surrogate objective by full enumeration.

    Discrete controllers enumerate their joint decision space; continuous
    (svr) controllers are held at their mode, where their score gradient
    and entropy gradient both vanish.  Also returns the Boltzmann partition
    value and the exact divergence over the enumerated space.
    """
    discrete: list[tuple[str, int, list]] = []
    fixed: dict[str, np.ndarray] = {}
    for cname, rows in z.items():
        if SCHEMA[cname].decision_kind == D_CONTINUOUS:
            fixed[cname] = rows[:, 0].copy()
            continue
        domain = [0, 1] if SCHEMA[cname].decision_kind == D_BINARY else list(range(4))
        discrete.extend((cname, row, domain) for row in range(len(rows)))
    space = 1
    for _, _, domain in discrete:
        space *= len(domain)
        if space > max_space:
            raise ValueError(f"decision space exceeds {max_space}")

    grads = _zeros(z)
    z_beta = 0.0
    kl_h = 0.0
    expected_cost = 0.0
    for combo in itertools.product(*[d for _, _, d in discrete]) \
            if discrete else [()]:
        values = {**fixed, **{c: np.zeros(len(z[c]), dtype=int)
                              for c, _, _ in discrete}}
        logp = 0.0
        for (cname, row, _), val in zip(discrete, combo):
            values[cname][row] = val
            logp += policy_reference.log_prob(cname, val, z[cname][row],
                                              policy_cfg)
        y = values
        p = math.exp(logp)
        f = float(oracle(x, y).total)
        z_beta += math.exp(-beta * f)
        kl_h += p * logp
        expected_cost += p * f
        for (cname, row, _), val in zip(discrete, combo):
            grads[cname][row] += beta * p * f * policy_reference.log_prob_grad(
                cname, val, z[cname][row], policy_cfg)
    for cname, rows in z.items():
        grads[cname] -= policy.entropy_grad(cname, rows)
    kl = kl_h + beta * expected_cost + math.log(z_beta) if discrete else 0.0
    return OracleGradient(grads, z_beta, kl, expected_cost)
