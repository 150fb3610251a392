"""Factorized stochastic policy over controller decisions.

Per controller class the distribution is Bernoulli-with-logit (line and
shunt controllers), Gaussian with fixed width (svr controllers), or
softmax-categorical (rtc controllers).  All densities, gradients, and
entropies are closed forms, written in log-sum-exp style so logits up to
several hundred stay finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .baseline import init_baseline
from .h2mg import (
    D_BINARY,
    D_CONTINUOUS,
    D_ONE_HOT,
    Decision,
    H2MGContext,
    RTC_CATEGORIES,
    SCHEMA,
    SurrogateDecision,
)

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PolicyConfig:
    sigma: float = 0.0025            # Gaussian width, p.u.
    binary_offset: float = -2.0      # shifts line/shunt logits toward inaction
    rtc_offset_scale: float = 2.0    # weight of the baseline category logit
    svr_offset: float = 0.0          # uniform baseline setpoint offset, p.u.

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _kind(class_name: str) -> str:
    kind = SCHEMA[class_name].decision_kind
    if kind not in (D_BINARY, D_CONTINUOUS, D_ONE_HOT):
        raise ValueError(f"{class_name} is not a controller class")
    return kind


def _softplus(z: float) -> float:
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z)
    e = np.exp(shifted)
    return e / e.sum()


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z)
    return shifted - math.log(np.exp(shifted).sum())


def log_prob(class_name: str, y, z: np.ndarray, cfg: PolicyConfig) -> float:
    """Log density (mass) of one controller decision under its policy."""
    kind = _kind(class_name)
    z = np.asarray(z, dtype=float).reshape(-1)
    if kind == D_BINARY:
        if y not in (0, 1):
            raise ValueError(f"binary decision must be 0 or 1, got {y!r}")
        return float(y) * z[0] - _softplus(z[0])
    if kind == D_CONTINUOUS:
        resid = (float(y) - z[0]) / cfg.sigma
        return -math.log(cfg.sigma) - 0.5 * LOG_2PI - 0.5 * resid * resid
    if not 0 <= int(y) < RTC_CATEGORIES:
        raise ValueError(f"category must be 0..{RTC_CATEGORIES - 1}, got {y!r}")
    return float(_log_softmax(z)[int(y)])


def sample(class_name: str, z: np.ndarray, rng: np.random.Generator,
           cfg: PolicyConfig):
    """Draw one decision value for a controller of the given class."""
    kind = _kind(class_name)
    z = np.asarray(z, dtype=float).reshape(-1)
    if kind == D_BINARY:
        return int(rng.random() < _sigmoid(z[0]))
    if kind == D_CONTINUOUS:
        return float(z[0] + cfg.sigma * rng.standard_normal())
    # inverse CDF on Python floats: numpy's per-call cost dominates at 4 entries
    scores = z.tolist()
    weights = [math.exp(s - max(scores)) for s in scores]
    u = rng.random()
    cdf = itertools.accumulate(w / sum(weights) for w in weights)
    return next((k for k, c in enumerate(cdf) if u < c), RTC_CATEGORIES - 1)


def most_probable(z: SurrogateDecision) -> Decision:
    """Component-wise mode of the factorized policy.

    Ties break toward inaction: a zero logit maps to 0 and equal category
    scores map to the lowest index.
    """
    values: dict[str, dict[str, float | int]] = {}
    for cname, per_edge in z.values.items():
        kind = _kind(cname)
        out: dict[str, float | int] = {}
        for eid, vec in per_edge.items():
            if kind == D_BINARY:
                out[eid] = int(vec[0] > 0.0)
            elif kind == D_CONTINUOUS:
                out[eid] = float(vec[0])
            else:
                out[eid] = int(np.argmax(vec))
        values[cname] = out
    return Decision(values)


def entropy(class_name: str, z: np.ndarray, cfg: PolicyConfig) -> float:
    kind = _kind(class_name)
    z = np.asarray(z, dtype=float).reshape(-1)
    if kind == D_BINARY:
        return _softplus(z[0]) - z[0] * _sigmoid(z[0])
    if kind == D_CONTINUOUS:
        return math.log(cfg.sigma) + 0.5 * (LOG_2PI + 1.0)
    logp = _log_softmax(z)
    return float(-(np.exp(logp) * logp).sum())


def entropy_grad(class_name: str, z: np.ndarray, cfg: PolicyConfig) -> np.ndarray:
    """Gradient of the policy entropy in the surrogate parameters."""
    kind = _kind(class_name)
    z = np.asarray(z, dtype=float).reshape(-1)
    if kind == D_BINARY:
        s = _sigmoid(z[0])
        return np.array([-z[0] * s * (1.0 - s)])
    if kind == D_CONTINUOUS:
        return np.zeros(1)
    p = _softmax(z)
    logp = _log_softmax(z)
    h = float(-(p * logp).sum())
    return -p * (logp + h)


def log_prob_grad(class_name: str, y, z: np.ndarray, cfg: PolicyConfig) -> np.ndarray:
    """Score function: gradient of log density in the surrogate parameters."""
    kind = _kind(class_name)
    z = np.asarray(z, dtype=float).reshape(-1)
    if kind == D_BINARY:
        if y not in (0, 1):
            raise ValueError(f"binary decision must be 0 or 1, got {y!r}")
        return np.array([float(y) - _sigmoid(z[0])])
    if kind == D_CONTINUOUS:
        return np.array([(float(y) - z[0]) / cfg.sigma ** 2])
    k = int(y)
    if not 0 <= k < RTC_CATEGORIES:
        raise ValueError(f"category must be 0..{RTC_CATEGORIES - 1}, got {y!r}")
    grad = -_softmax(z)
    grad[k] += 1.0
    return grad


def total_log_prob(y: Decision, z: SurrogateDecision, cfg: PolicyConfig) -> float:
    """Joint log probability: sum of per-controller terms (factorization)."""
    total = 0.0
    for cname, per_edge in z.values.items():
        for eid, vec in per_edge.items():
            total += log_prob(cname, y.get(cname, eid), vec, cfg)
    return total


def unary_neighbors(class_name: str, y_value) -> list:
    """Decision values differing from ``y_value`` in this one controller."""
    kind = _kind(class_name)
    if kind == D_BINARY:
        return [1 - int(y_value)]
    if kind == D_ONE_HOT:
        return [k for k in range(RTC_CATEGORIES) if k != int(y_value)]
    raise ValueError("unary neighbors are defined for binary and categorical "
                     "classes only")


def apply_offsets(z_raw: SurrogateDecision, x: H2MGContext,
                  cfg: PolicyConfig) -> SurrogateDecision:
    """Shift raw network outputs so a zero output reproduces the baseline.

    Line and shunt logits shift by a negative constant (inaction becomes
    the mode), svr outputs shift by the baseline setpoint delta, and rtc
    scores gain a scaled one-hot of the baseline category.
    """
    y0 = init_baseline(x, cfg.svr_offset)
    values: dict[str, dict[str, np.ndarray]] = {}
    for cname, per_edge in z_raw.values.items():
        kind = _kind(cname)
        out: dict[str, np.ndarray] = {}
        for eid, vec in per_edge.items():
            if kind == D_BINARY:
                out[eid] = vec + cfg.binary_offset
            elif kind == D_CONTINUOUS:
                out[eid] = vec + float(y0.get(cname, eid))
            else:
                onehot = np.zeros(RTC_CATEGORIES)
                onehot[int(y0.get(cname, eid))] = 1.0
                out[eid] = vec + cfg.rtc_offset_scale * onehot
        values[cname] = out
    return SurrogateDecision(values)
