"""Factorized stochastic policy over controller decisions.

Per controller class the distribution is Bernoulli-with-logit (line and
shunt controllers), Gaussian with fixed width (svr controllers), or
softmax-categorical (rtc controllers).  Every function acts on one class's
whole array: surrogate values ``(controllers, decision_dim)`` and decision
values ``(controllers,)``, rows in the context's canonical edge order.  The
gradients and the mode are numpy closed forms, written in log-sum-exp
style so logits up to several hundred stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import init_baseline
from .config import require_finite
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


@dataclass(frozen=True)
class PolicyConfig:
    sigma: float = 0.0025            # Gaussian width, p.u.
    binary_offset: float = -2.0      # shifts line/shunt logits toward inaction
    rtc_offset_scale: float = 2.0    # weight of the baseline category logit
    svr_offset: float = 0.0          # uniform baseline setpoint offset, p.u.

    def __post_init__(self):
        require_finite(self, "sigma", "binary_offset", "rtc_offset_scale", "svr_offset")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _kind(class_name: str) -> str:
    kind = SCHEMA[class_name].decision_kind
    if kind not in (D_BINARY, D_CONTINUOUS, D_ONE_HOT):
        raise ValueError(f"{class_name} is not a controller class")
    return kind


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a ``(rows, categories)`` array."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def sample(z: np.ndarray, n: int, rng: np.random.Generator,
           cfg: PolicyConfig) -> np.ndarray:
    """``n`` joint draws of a Gaussian (svr) class's decisions: an
    ``(n, controllers)`` array, one row per draw, read from the stream row
    by row as ``n * controllers`` scalar draws would be."""
    return z[:, 0] + cfg.sigma * rng.standard_normal((n, len(z)))


def most_probable(z: SurrogateDecision) -> Decision:
    """Component-wise mode of the factorized policy.

    Ties break toward inaction: a zero logit maps to 0 and equal category
    scores map to the lowest index.
    """
    values: dict[str, np.ndarray] = {}
    for cname, arr in z.items():
        kind = _kind(cname)
        if kind == D_BINARY:
            values[cname] = (arr[:, 0] > 0.0).astype(int)
        elif kind == D_CONTINUOUS:
            values[cname] = arr[:, 0].copy()
        else:
            values[cname] = arr.argmax(axis=1)
    return values


def entropy_grad(class_name: str, z: np.ndarray) -> np.ndarray:
    """Gradient of each controller's policy entropy in its surrogate row."""
    kind = _kind(class_name)
    if kind == D_BINARY:
        s = _sigmoid(z)
        return -z * s * (1.0 - s)
    if kind == D_CONTINUOUS:
        return np.zeros_like(z)
    p = _softmax(z)
    logp = _log_softmax(z)
    h = -(p * logp).sum(axis=1, keepdims=True)
    return -p * (logp + h)


def log_prob_grad(class_name: str, y: np.ndarray, z: np.ndarray,
                  cfg: PolicyConfig) -> np.ndarray:
    """Score function: gradient of each controller's log density of its
    decision ``y`` in its surrogate row."""
    kind = _kind(class_name)
    y = np.asarray(y)
    if kind == D_CONTINUOUS:
        return (y[:, None] - z) / cfg.sigma ** 2
    domain = 2 if kind == D_BINARY else RTC_CATEGORIES
    if not set(y.tolist()) <= set(range(domain)):
        raise ValueError(f"{class_name} decisions must be in 0..{domain - 1}, got {y!r}")
    if kind == D_BINARY:
        return y[:, None] - _sigmoid(z)
    grad = -_softmax(z)
    grad[np.arange(len(y)), y.astype(int)] += 1.0
    return grad


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
    values: dict[str, np.ndarray] = {}
    for cname, arr in z_raw.items():
        kind = _kind(cname)
        if kind == D_BINARY:
            values[cname] = arr + cfg.binary_offset
        elif kind == D_CONTINUOUS:
            values[cname] = arr + y0[cname][:, None]
        else:
            values[cname] = arr + cfg.rtc_offset_scale * np.eye(RTC_CATEGORIES)[y0[cname]]
    return values
