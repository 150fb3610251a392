"""The sample decisions of default training estimates, solved one by one and batched.

The estimates are ``estimate_gradient``'s at its default configuration
on the contexts ``generate_context(GridFamilySpec(), stream(0, "train",
i))`` for ``i`` below ``contexts`` (16 by default), at the initial
parameters ``init_params(ModelConfig(), stream(0, "init"))`` and the
normalizer fit on those contexts, each with the estimator stream that
training at seed 0 gives it in iteration 0.  A context whose mode
decision does not converge samples nothing.  The distinct sample
decisions of every other context are solved first one at a time with
``evaluate_objective``, then each context's in one ``evaluate_objectives``
call.  It prints one JSON line: the contexts, the decisions replayed
(``calls``), their statuses, the seconds of each replay and whether every
record has the same bits both ways (``identical``)::

    PYTHONPATH=src python tests/oracle_replay.py [contexts]
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from gridtvc import policy
from gridtvc.estimator import EstimatorConfig, estimate_gradient
from gridtvc.gridgen import GridFamilySpec, fit_normalizer, generate_context, normalize
from gridtvc.model import ModelConfig, forward, init_params
from gridtvc.powerflow import evaluate_objective, evaluate_objectives
from gridtvc.rng import stream

from oracle_digest import _canon


def sample_calls(contexts: int = 16) -> list[tuple]:
    """``(context, decisions)`` of each estimate's sample oracle call."""
    xs = [generate_context(GridFamilySpec(), stream(0, "train", i), origin=f"train-{i:03d}")
          for i in range(contexts)]
    norm = fit_normalizer(xs)
    params = init_params(ModelConfig(), stream(0, "init"))
    calls = []
    for x in xs:
        z = policy.apply_offsets(forward(params, normalize(x, norm)), x, policy.PolicyConfig())
        made = []

        def recording(xc, ys):
            made.append((xc, ys))
            return evaluate_objectives(xc, ys)

        estimate_gradient(x, z, EstimatorConfig(), recording,
                          stream(0, "est", 0, x.metadata["origin"]))
        calls += made[1:]
    return calls


def replay(contexts: int = 16) -> dict:
    calls = sample_calls(contexts)
    t0 = time.perf_counter()
    solo = [[evaluate_objective(x, y) for y in ys] for x, ys in calls]
    t1 = time.perf_counter()
    batched = [evaluate_objectives(x, ys) for x, ys in calls]
    t2 = time.perf_counter()
    solo = [r for rs in solo for r in rs]
    batched = [r for rs in batched for r in rs]
    return {"contexts": contexts, "calls": len(solo),
            "statuses": dict(Counter(r.status for r in solo)),
            "solo_s": round(t1 - t0, 3), "batched_s": round(t2 - t1, 3),
            "identical": _canon(solo) == _canon(batched)}


if __name__ == "__main__":
    print(json.dumps(replay(*(int(a) for a in sys.argv[1:])), sort_keys=True))
