"""Scalar reference forms of the policy, one controller at a time.

``gridtvc.policy`` acts on whole class arrays.  These are the
per-controller closed forms on Python floats and ``math`` that it was
written from, plus the log density, the entropy and the joint log
probability, which only tests need: the estimator uses their gradients,
never their values.  ``sample`` draws one decision of any class.
``tests/test_policy.py`` checks the array forms against these, and these
against finite differences.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gridtvc.h2mg import (
    D_BINARY, D_CONTINUOUS, RTC_CATEGORIES, Decision, SurrogateDecision)
from gridtvc.policy import PolicyConfig, _kind

LOG_2PI = math.log(2.0 * math.pi)


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


def entropy(class_name: str, z: np.ndarray, cfg: PolicyConfig) -> float:
    kind = _kind(class_name)
    z = np.asarray(z, dtype=float).reshape(-1)
    if kind == D_BINARY:
        return _softplus(z[0]) - z[0] * _sigmoid(z[0])
    if kind == D_CONTINUOUS:
        return math.log(cfg.sigma) + 0.5 * (LOG_2PI + 1.0)
    logp = _log_softmax(z)
    return float(-(np.exp(logp) * logp).sum())


def total_log_prob(y: Decision, z: SurrogateDecision, cfg: PolicyConfig) -> float:
    """Joint log probability: sum of per-controller terms (factorization)."""
    return sum(log_prob(cname, v, row, cfg)
               for cname, rows in z.items()
               for v, row in zip(y[cname].tolist(), rows))


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


def mode(class_name: str, z: np.ndarray):
    """One controller's most probable decision; ties toward inaction."""
    kind = _kind(class_name)
    if kind == D_BINARY:
        return int(z[0] > 0.0)
    if kind == D_CONTINUOUS:
        return float(z[0])
    return int(np.argmax(z))


def entropy_grad(class_name: str, z: np.ndarray, cfg: PolicyConfig) -> np.ndarray:
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
    kind = _kind(class_name)
    z = np.asarray(z, dtype=float).reshape(-1)
    if kind == D_BINARY:
        return np.array([float(y) - _sigmoid(z[0])])
    if kind == D_CONTINUOUS:
        return np.array([(float(y) - z[0]) / cfg.sigma ** 2])
    grad = -_softmax(z)
    grad[int(y)] += 1.0
    return grad


def offset(class_name: str, z: np.ndarray, y0, cfg: PolicyConfig) -> np.ndarray:
    """One controller's surrogate row shifted toward its baseline value ``y0``."""
    kind = _kind(class_name)
    if kind == D_BINARY:
        return z + cfg.binary_offset
    if kind == D_CONTINUOUS:
        return z + float(y0)
    onehot = np.zeros(RTC_CATEGORIES)
    onehot[int(y0)] = 1.0
    return z + cfg.rtc_offset_scale * onehot
