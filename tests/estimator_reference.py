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

import numpy as np

from gridtvc import policy
from gridtvc.estimator import Oracle, _zero_grads
from gridtvc.h2mg import (
    D_BINARY, D_CONTINUOUS, SCHEMA, Decision, H2MGContext, H2MGError, SurrogateDecision)
from gridtvc.policy import PolicyConfig


def raw_gradient_estimate(x: H2MGContext, z: SurrogateDecision, beta: float,
                          n_samples: int, oracle: Oracle,
                          rng: np.random.Generator,
                          policy_cfg: PolicyConfig = PolicyConfig(),
                          prohibitive_cost: float = 100.0,
                          ) -> tuple[dict[str, dict[str, np.ndarray]],
                                     dict[str, dict[str, np.ndarray]]]:
    """Unadjusted score-function estimator: joint sampling, raw scores.

    Returns (gradient, per-coordinate standard error of the expectation
    term); a failing oracle call scores ``prohibitive_cost``.
    """
    classes = [(c, sorted(per)) for c, per in z.values.items()]
    sums = _zero_grads(z)
    sq_sums = _zero_grads(z)
    for _ in range(n_samples):
        y_i = {}
        for cname, ids in classes:
            y_i[cname] = {eid: policy.sample(cname, z.get(cname, eid), rng,
                                             policy_cfg)
                          for eid in ids}
        y_dec = Decision(y_i)
        try:
            f_i = float(oracle(x, y_dec).total)
        except H2MGError:
            raise
        except Exception:
            f_i = prohibitive_cost
        for cname, ids in classes:
            for eid in ids:
                term = f_i * policy.log_prob_grad(cname, y_i[cname][eid],
                                                  z.get(cname, eid), policy_cfg)
                sums[cname][eid] += term
                sq_sums[cname][eid] += term * term
    grads = _zero_grads(z)
    stderr = _zero_grads(z)
    for cname, ids in classes:
        for eid in ids:
            mean = sums[cname][eid] / n_samples
            var = np.maximum(sq_sums[cname][eid] / n_samples - mean ** 2, 0.0)
            grads[cname][eid] = (-policy.entropy_grad(cname, z.get(cname, eid),
                                                      policy_cfg)
                                 + beta * mean)
            stderr[cname][eid] = beta * np.sqrt(var / n_samples)
    return grads, stderr


@dataclass(frozen=True)
class OracleGradient:
    grads: dict[str, dict[str, np.ndarray]]
    z_beta: float
    kl: float
    expected_cost: float


def exact_gradient_oracle(x: H2MGContext, z: SurrogateDecision, beta: float,
                          oracle: Oracle,
                          policy_cfg: PolicyConfig = PolicyConfig(),
                          max_space: int = 4096) -> OracleGradient:
    """Exact gradient of the surrogate objective by full enumeration.

    Discrete controllers enumerate their joint decision space; continuous
    (svr) controllers are held at their mode, where their score gradient
    and entropy gradient both vanish.  Also returns the Boltzmann partition
    value and the exact divergence over the enumerated space.
    """
    discrete: list[tuple[str, str, list]] = []
    fixed: dict[str, dict[str, float]] = {}
    for cname, per_edge in z.values.items():
        if SCHEMA[cname].decision_kind == D_CONTINUOUS:
            fixed[cname] = {eid: float(v[0]) for eid, v in per_edge.items()}
            continue
        for eid in sorted(per_edge):
            domain = [0, 1] if SCHEMA[cname].decision_kind == D_BINARY \
                else list(range(4))
            discrete.append((cname, eid, domain))
    space = 1
    for _, _, domain in discrete:
        space *= len(domain)
        if space > max_space:
            raise ValueError(f"decision space exceeds {max_space}")

    grads = _zero_grads(z)
    z_beta = 0.0
    kl_h = 0.0
    expected_cost = 0.0
    for combo in itertools.product(*[d for _, _, d in discrete]) \
            if discrete else [()]:
        values: dict[str, dict] = {c: dict(v) for c, v in fixed.items()}
        logp = 0.0
        for (cname, eid, _), val in zip(discrete, combo):
            values.setdefault(cname, {})[eid] = val
            logp += policy.log_prob(cname, val, z.get(cname, eid), policy_cfg)
        y = Decision(values)
        p = math.exp(logp)
        f = float(oracle(x, y).total)
        z_beta += math.exp(-beta * f)
        kl_h += p * logp
        expected_cost += p * f
        for (cname, eid, _), val in zip(discrete, combo):
            grads[cname][eid] += beta * p * f * policy.log_prob_grad(
                cname, val, z.get(cname, eid), policy_cfg)
    for cname, per_edge in z.values.items():
        for eid, z_e in per_edge.items():
            grads[cname][eid] -= policy.entropy_grad(cname, z_e, policy_cfg)
    kl = kl_h + beta * expected_cost + math.log(z_beta) if discrete else 0.0
    return OracleGradient(grads, z_beta, kl, expected_cost)
