"""Monte-Carlo surrogate-gradient estimation with variance reduction.

The adjusted estimator decomposes by controller class (other classes held
at the policy mode), clips scores through a tanh around the mode's cost,
and for discrete classes samples only unary modifications of the mode.
Each estimate also counts how its distinct samples' oracle calls ended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .h2mg import (
    CONTROLLER_CLASSES,
    D_CONTINUOUS,
    Decision,
    H2MGContext,
    H2MGError,
    SCHEMA,
    SurrogateDecision,
)
from . import policy
from .policy import PolicyConfig
from .powerflow import SOLVE_STATUSES

DEFAULT_SAMPLES: dict[str, int] = {
    "line_controller": 8,
    "rtc_controller": 8,
    "shunt_controller": 16,
    "svr_controller": 16,
}

#: An oracle maps (context, decision) to an object with .total and .status
#: (one of ``SOLVE_STATUSES``).  An oracle must be a pure function of
#: (context, decision), raising or not alike on every call:
#: :func:`estimate_gradient` scores a sample decision drawn twice once.
Oracle = Callable[[H2MGContext, Decision], object]

#: How an oracle call ended: a solve status, or "error" when the oracle raised.
ESTIMATE_STATUSES = (*SOLVE_STATUSES, "error")


@dataclass(frozen=True)
class EstimatorConfig:
    beta: float = 1e-4
    tau: float = 0.1
    samples: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_SAMPLES))
    prohibitive_cost: float = 100.0

    def __post_init__(self):
        # beta 0 switches the score term off entirely (entropy-only descent)
        if self.beta < 0 or self.tau <= 0:
            raise ValueError("beta must be nonnegative and tau positive")
        # a class left out keeps 8 samples
        for cname, n in self.samples.items():
            if cname not in CONTROLLER_CLASSES:
                raise ValueError(f"samples: {cname!r} is not a controller class")
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError(f"samples: {cname!r} count {n!r} is not a positive integer")


@dataclass
class GradEstimate:
    """Surrogate gradient, shaped exactly like the paired SurrogateDecision.

    ``sample_status`` counts, per ``ESTIMATE_STATUSES`` value, how the
    oracle calls of the distinct sample decisions ended, and
    ``prohibitive_share`` is the share of those samples scored at or above
    the prohibitive cost (0.0 when none was scored).
    """

    grads: dict[str, dict[str, np.ndarray]]
    f_ref: float
    converged: bool
    status: str             # the mode decision's, one of ESTIMATE_STATUSES
    sample_status: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(ESTIMATE_STATUSES, 0))
    prohibitive_share: float = 0.0

    def norm(self, class_name: str) -> float:
        per_edge = self.grads.get(class_name, {})
        if not per_edge:
            return 0.0
        return float(math.sqrt(sum(float(g @ g) for g in per_edge.values())))


def clip_score(f_i: float, f_ref: float, tau: float) -> float:
    """Squash a score difference into (-1, 1); saturates on prohibitive costs."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return math.tanh((f_i - f_ref) / tau)


def _zero_grads(z: SurrogateDecision) -> dict[str, dict[str, np.ndarray]]:
    return {c: {e: np.zeros_like(v) for e, v in per.items()}
            for c, per in z.values.items()}


def _score(oracle: Oracle, x: H2MGContext, y: Decision,
           prohibitive: float) -> tuple[float, str]:
    """Oracle score and status; failures never abort the estimate.

    A failing call costs the maximum and reports the status "error".

    Structural errors (mispaired decisions, broken contexts) are caller
    bugs and do propagate.
    """
    try:
        res = oracle(x, y)
    except H2MGError:
        raise
    except Exception:
        return prohibitive, "error"
    return float(res.total), res.status


def estimate_gradient(x: H2MGContext, z: SurrogateDecision, cfg: EstimatorConfig,
                      oracle: Oracle, rng: np.random.Generator,
                      policy_cfg: PolicyConfig = PolicyConfig()) -> GradEstimate:
    """Adjusted Monte-Carlo estimate of the surrogate objective gradient.

    When the mode decision itself does not converge no improvement
    direction is defined and the estimate is exactly zero, flagged.
    """
    y_mp = policy.most_probable(z)
    f_ref, status = _score(oracle, x, y_mp, cfg.prohibitive_cost)
    if status != "converged":
        return GradEstimate(_zero_grads(z), f_ref, False, status)

    # One pass per class in canonical order: draw its samples, score each
    # distinct one once, accumulate its gradient.  The oracle never touches
    # the stream, so the draws do not depend on oracle behavior.  A discrete
    # sample is keyed by the one controller it changes and the value it
    # takes; continuous samples are all distinct, keyed by their position.
    grads = _zero_grads(z)
    scored: dict[tuple, tuple[float, str]] = {}
    for cname in CONTROLLER_CLASSES:
        per_edge = z.values.get(cname)
        if not per_edge:
            continue
        n = int(cfg.samples.get(cname, 8))
        ids = sorted(per_edge)
        samples: list[tuple[tuple, Decision]] = []
        if SCHEMA[cname].decision_kind == D_CONTINUOUS:
            for k in range(n):
                y_i = y_mp
                for eid in ids:
                    y_i = y_i.replace(cname, eid,
                                      policy.sample(cname, per_edge[eid], rng,
                                                    policy_cfg))
                samples.append(((cname, k), y_i))
        else:
            neighbors = [(eid, alt) for eid in ids
                         for alt in policy.unary_neighbors(
                             cname, y_mp.get(cname, eid))]
            for k in rng.integers(0, len(neighbors), size=n):
                eid, alt = neighbors[int(k)]
                samples.append(((cname, eid, alt), y_mp.replace(cname, eid, alt)))
        for key, y_i in samples:
            if key not in scored:
                scored[key] = _score(oracle, x, y_i, cfg.prohibitive_cost)
        for eid, z_e in per_edge.items():
            acc = np.zeros_like(z_e)
            for key, y_i in samples:
                f_clip = clip_score(scored[key][0], f_ref, cfg.tau)
                acc += f_clip * policy.log_prob_grad(
                    cname, y_i.get(cname, eid), z_e, policy_cfg)
            grads[cname][eid] = (-policy.entropy_grad(cname, z_e, policy_cfg)
                                 + cfg.beta / n * acc)

    sample_status = dict.fromkeys(ESTIMATE_STATUSES, 0)
    for _, outcome in scored.values():
        sample_status[outcome] += 1
    prohibitive = sum(f >= cfg.prohibitive_cost for f, _ in scored.values())
    return GradEstimate(grads, f_ref, True, status, sample_status,
                        prohibitive / len(scored) if scored else 0.0)

