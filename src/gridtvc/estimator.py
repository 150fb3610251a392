"""Monte-Carlo surrogate-gradient estimation with variance reduction.

The adjusted estimator decomposes by controller class (other classes held
at the policy mode), clips scores through a tanh around the mode's cost,
and for discrete classes samples only unary modifications of the mode.
Decisions, surrogate values and gradients are one array per controller
class, rows in the context's edge order.  The oracle scores a batch of
decisions on one context per call (:data:`Oracle`): an estimate makes one
call for the mode decision and one for all its distinct samples.  Each
estimate also counts how its distinct samples' solves ended, and keeps
each class's norm of its score term and of its entropy term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

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
from .config import require_finite, require_integer
from .policy import PolicyConfig
from .powerflow import PROHIBITIVE_COST, SOLVE_STATUSES

DEFAULT_SAMPLES: dict[str, int] = {
    "line_controller": 8,
    "rtc_controller": 8,
    "shunt_controller": 16,
    "svr_controller": 16,
}

#: A batch oracle maps (context, decisions) to one result per decision, in
#: order, each with .total and .status (one of ``SOLVE_STATUSES``), as
#: :func:`~gridtvc.powerflow.evaluate_objectives` does.  A decision's
#: result must not depend on the others in its call, and an oracle must
#: be a pure function of its arguments, raising or not alike on every
#: call: :func:`estimate_gradient` scores a sample decision drawn twice
#: once.
Oracle = Callable[[H2MGContext, list[Decision]], Sequence[object]]

#: How a decision's scoring ended: a solve status, or "error" when the
#: oracle call that scored it raised.
ESTIMATE_STATUSES = (*SOLVE_STATUSES, "error")


@dataclass(frozen=True)
class EstimatorConfig:
    beta: float = 1e-4
    tau: float = 0.1
    samples: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_SAMPLES))

    def __post_init__(self):
        require_finite(self, "beta", "tau")
        # beta 0 switches the score term off entirely (entropy-only descent)
        if self.beta < 0 or self.tau <= 0:
            raise ValueError("beta must be nonnegative and tau positive")
        # a class left out keeps its DEFAULT_SAMPLES count
        for cname, n in self.samples.items():
            if cname not in CONTROLLER_CLASSES:
                raise ValueError(f"samples: {cname!r} is not a controller class")
            require_integer(f"samples: {cname!r} count", n, 1)


def _norm(g: np.ndarray) -> float:
    """L2 norm of a class's gradient, summed row by row in row order."""
    return math.sqrt(sum(float(r @ r) for r in g))


@dataclass
class GradEstimate:
    """Surrogate gradient: one array per class, shaped exactly like the
    surrogate decision it was estimated at: a :func:`~gridtvc.model.vjp`
    output cotangent.

    ``grad_norm`` holds each class's L2 norm of its gradient, and
    ``score_norm`` and ``entropy_norm`` those of the two terms the gradient
    adds, ``beta / n`` times the clipped score sum and the negated entropy
    gradient (all three empty when the mode failed).
    ``sample_status`` counts, per ``ESTIMATE_STATUSES`` value, how the
    oracle scored each distinct sample decision, and
    ``prohibitive`` counts those scored at or above the prohibitive cost.
    """

    grads: dict[str, np.ndarray]
    f_ref: float
    converged: bool
    status: str             # the mode decision's, one of ESTIMATE_STATUSES
    sample_status: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(ESTIMATE_STATUSES, 0))
    prohibitive: int = 0
    grad_norm: dict[str, float] = field(default_factory=dict)
    score_norm: dict[str, float] = field(default_factory=dict)
    entropy_norm: dict[str, float] = field(default_factory=dict)


def clip_score(f_i: float, f_ref: float, tau: float) -> float:
    """Squash a score difference into (-1, 1); saturates on prohibitive costs."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return math.tanh((f_i - f_ref) / tau)


def _replace(y: Decision, class_name: str, row: int, value) -> Decision:
    """A copy of ``y`` with one controller's value changed; only its
    class's array is copied."""
    arr = y[class_name].copy()
    arr[row] = value
    return {**y, class_name: arr}


def _score(oracle: Oracle, x: H2MGContext, ys: list[Decision]) -> list[tuple[float, str]]:
    """Oracle score and status of each decision of ``ys``, by one oracle
    call; failures never abort the estimate, and no decisions make no call.

    A call that raises costs :data:`~gridtvc.powerflow.PROHIBITIVE_COST`
    for every decision in it, each with the status "error".

    Structural errors (mispaired decisions, broken contexts) are caller
    bugs and do propagate, as does a warning that the caller's warnings
    filter turned into an exception.
    """
    if not ys:
        return []
    try:
        results = oracle(x, ys)
    except (H2MGError, Warning):
        raise
    except Exception:
        return [(PROHIBITIVE_COST, "error")] * len(ys)
    return [(float(res.total), res.status) for res in results]


def estimate_gradient(x: H2MGContext, z: SurrogateDecision, cfg: EstimatorConfig,
                      oracle: Oracle, rng: np.random.Generator,
                      policy_cfg: PolicyConfig = PolicyConfig()) -> GradEstimate:
    """Adjusted Monte-Carlo estimate of the surrogate objective gradient.

    ``z``, the decisions passed to ``oracle`` and the gradient are plain
    dicts of one array per controller class, the gradient shaped like ``z``.
    The oracle is called at most twice: once for the mode decision, then
    once for every distinct sample decision, in draw order.  When the mode
    decision itself does not converge no improvement direction is defined,
    nothing is sampled, and the estimate is exactly zero, flagged.
    """
    y_mp = policy.most_probable(z)
    [(f_ref, status)] = _score(oracle, x, [y_mp])
    if status != "converged":
        return GradEstimate({c: np.zeros_like(a) for c, a in z.items()},
                            f_ref, False, status)

    # Draw every class's samples, in canonical class order, then score the
    # distinct ones in one oracle call.  The oracle never touches the
    # stream, so the draws do not depend on oracle behavior.  The svr
    # class draws all its samples as one (n, controllers) array, each row a
    # sample; a discrete sample changes one controller's row to one value
    # and is keyed by (class, row, value).
    drawn = []
    distinct: dict[tuple, Decision] = {}
    for cname in CONTROLLER_CLASSES:
        z_c = z.get(cname)
        if z_c is None:
            continue
        n = int(cfg.samples.get(cname, DEFAULT_SAMPLES[cname]))
        if SCHEMA[cname].decision_kind == D_CONTINUOUS:
            draws = policy.sample(z_c, n, rng, policy_cfg)
            samples = [((cname, k), {**y_mp, cname: draw}) for k, draw in enumerate(draws)]
        else:
            neighbors = [(row, alt) for row, value in enumerate(y_mp[cname])
                         for alt in policy.unary_neighbors(cname, value)]
            picks = [neighbors[k] for k in rng.integers(0, len(neighbors), size=n)]
            samples = [((cname, row, alt), _replace(y_mp, cname, row, alt))
                       for row, alt in picks]
        drawn.append((cname, z_c, n, samples))
        for key, y_i in samples:
            distinct.setdefault(key, y_i)
    scored = dict(zip(distinct, _score(oracle, x, list(distinct.values())), strict=True))

    grads: dict[str, np.ndarray] = {}
    grad_norm: dict[str, float] = {}
    score_norm: dict[str, float] = {}
    entropy_norm: dict[str, float] = {}
    for cname, z_c, n, samples in drawn:
        # sample by sample, so each element sums in sample order
        acc = np.zeros_like(z_c)
        for key, y_i in samples:
            acc += clip_score(scored[key][0], f_ref, cfg.tau) * policy.log_prob_grad(
                cname, y_i[cname], z_c, policy_cfg)
        entropy_term = -policy.entropy_grad(cname, z_c)
        score_term = cfg.beta / n * acc
        grads[cname] = entropy_term + score_term
        grad_norm[cname], score_norm[cname], entropy_norm[cname] = map(
            _norm, (grads[cname], score_term, entropy_term))

    sample_status = dict.fromkeys(ESTIMATE_STATUSES, 0)
    for _, outcome in scored.values():
        sample_status[outcome] += 1
    prohibitive = sum(f >= PROHIBITIVE_COST for f, _ in scored.values())
    return GradEstimate(grads, f_ref, True, status, sample_status, prohibitive,
                        grad_norm, score_norm, entropy_norm)
