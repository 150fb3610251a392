"""The offset search that ``tune_baseline_offset`` replaced, kept as a reference.

``pruned_chain_search`` walks the offsets in canonical order, smaller
magnitude first and then the positive one, and drops an offset once its
running cost sum passes the best mean times the dataset size by a
relative 1e-9 (after some evaluation has converged).  It picks what the
exhaustive search picks.  ``tests/test_baseline.py`` checks the
best-first search against it: the same offset, and never more solves.

It looks ``init_baseline`` and ``evaluate_objective`` up on
``gridtvc.baseline`` at each call, so a test that replaces them there
counts this search's solves too.
"""

from __future__ import annotations

import numpy as np

from gridtvc import baseline
from gridtvc.h2mg import H2MGError
from gridtvc.powerflow import SolverOptions


def pruned_chain_search(dataset, opts=SolverOptions(), grid=None) -> float:
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if grid is None:
        grid = np.round(np.arange(-0.03, 0.0301, 0.005), 10)
    best_offset, best_cost = None, None
    order = sorted(grid.tolist(), key=lambda o: (abs(o), -o))
    any_converged = False
    for offset in order:
        costs = []
        bound = None if best_cost is None else len(dataset) * best_cost * (1 + 1e-9)
        running = 0.0
        for x in dataset:
            res = baseline.evaluate_objective(x, baseline.init_baseline(x, offset), opts)
            any_converged |= res.converged
            costs.append(res.total)
            running += res.total
            if bound is not None and any_converged and running > bound:
                break
        else:
            mean_cost = float(np.mean(costs))
            if best_cost is None or mean_cost < best_cost - 1e-12:
                best_offset, best_cost = offset, mean_cost
    if not any_converged:
        raise H2MGError("baseline evaluation never converged; cannot tune offset")
    return float(best_offset)
