"""The functional Adam step that ``trainer.adam_step`` replaced, kept as a reference.

It builds new ``params``, ``m`` and ``v`` dicts from whole-array
expressions and leaves its inputs alone.  ``tests/test_trainer.py``
checks that the in-place step computes the same bits.
"""

from __future__ import annotations

import numpy as np

from gridtvc.model import ModelParams
from gridtvc.trainer import AdamState, TrainConfig


def adam_step(params: ModelParams, grad: ModelParams, state: AdamState,
              cfg: TrainConfig) -> tuple[ModelParams, AdamState, bool]:
    """Bias-corrected moment update; a non-finite gradient rejects the step."""
    for k in sorted(grad.values):
        if not np.all(np.isfinite(grad.values[k])):
            return params, state, False
    t = state.t + 1
    new_m, new_v, new_p = {}, {}, {}
    c1 = 1.0 - cfg.beta1 ** t
    c2 = 1.0 - cfg.beta2 ** t
    for k in params.values:
        g = grad.values[k]
        m = cfg.beta1 * state.m[k] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[k] + (1.0 - cfg.beta2) * g * g
        new_m[k], new_v[k] = m, v
        new_p[k] = params.values[k] - cfg.learning_rate * (m / c1) / (
            np.sqrt(v / c2) + cfg.eps)
    return (ModelParams(params.config, new_p), AdamState(new_m, new_v, t), True)
