"""The no-learning reference policy and its single tuned scalar.

Topology is left untouched, every SVR setpoint becomes the initially
solved regulated-bus voltage plus one uniform offset, and continuous tap
changer setpoints are projected onto the discrete ladder.

The offset is the grid offset with the lowest mean objective over a
dataset, as an exhaustive search over every (offset, context) pair picks
it.  :func:`tune_baseline_offset` reaches that pick best-first: it always
solves the next context of the offset whose running cost sum is lowest,
and stops extending an offset once that sum shows it cannot win.  Only
which pairs get solved differs from the exhaustive search; every solve
and the pick are the same.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from .h2mg import (
    RTC_SETPOINT_LADDER, Decision, H2MGContext, H2MGError, paired_decision, required)
from .powerflow import SolverOptions, evaluate_objective


def project_rtc_category(setpoint: float, v_nom: float) -> int:
    """Nearest ladder category to a continuous setpoint; ties take the lower."""
    ratio = setpoint / v_nom
    dist = np.round(np.abs(np.asarray(RTC_SETPOINT_LADDER) - ratio), 12)
    return int(np.argmin(dist))


def init_baseline(x: H2MGContext, offset: float = 0.0) -> Decision:
    """Reference decision: keep topology, shift SVR targets, snap RTC targets;
    the zone and rtc_controller features it reads are :func:`~gridtvc.h2mg.required`."""
    values = {c: [0] * len(x.edges_of(c)) for c in ("line_controller", "shunt_controller")}
    values["svr_controller"] = [
        (required(zone, "v") + offset) - required(zone, "v_target")
        for zone in map(x.device, x.edges_of("svr_controller"))]
    values["rtc_controller"] = [
        project_rtc_category(required(e, "v_target"), required(e, "v_nom"))
        for e in x.edges_of("rtc_controller")]
    return paired_decision(x, values)


def tune_baseline_offset(dataset: list[H2MGContext],
                         opts: SolverOptions = SolverOptions(),
                         grid: Sequence[float] | np.ndarray | None = None) -> float:
    """Pick the uniform SVR offset minimizing the mean objective.

    Non-convergent evaluations score the prohibitive cost.  The pick is
    that of the exhaustive search: offsets are visited in canonical order,
    smaller magnitude first and then the positive one, and a later offset
    replaces the best one only when its mean is lower by more than 1e-12.
    A duplicated grid offset is searched once.

    The search is best-first.  Each offset keeps the running sum of its
    costs over its first k contexts, in dataset order, and the next solve
    always extends the offset whose sum is lowest, ties going to the
    canonical order.  Costs are non-negative, so a running sum never
    exceeds the full one, and the first offset to complete (mean ``m``)
    has the lowest full sum.  After it, only offsets whose running sum is
    still at most ``N * (m * (1 + 1e-9) + 1e-10)`` are completed.  Every
    offset left incomplete thus has a mean at least 1e-10 above ``m``,
    far more than the ~13 * 1e-12 a chain of near-ties can span, and the
    canonical 1e-12 rule over the completed offsets picks exactly what it
    picks over all of them.  The absolute 1e-10 keeps that gap when
    ``m < 1e-3``, where the relative one is below 1e-12.  Until some
    evaluation converges nothing is skipped, so a grid that never
    converges is solved in full before the error is raised.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if grid is None:
        grid = np.round(np.arange(-0.03, 0.0301, 0.005), 10)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D sequence of offsets")
    if not np.isfinite(grid).all():
        raise ValueError("grid offsets must be finite")
    order = sorted(dict.fromkeys(grid.tolist()), key=lambda o: (abs(o), -o))
    n = len(dataset)
    costs: list[list[float]] = [[] for _ in order]
    heap = [(0.0, rank) for rank in range(len(order))]  # (running sum, rank)
    bound, complete, any_converged = math.inf, [], False
    while heap:
        running, rank = heapq.heappop(heap)
        if any_converged and running > bound:
            break
        done = costs[rank]
        if len(done) == n:
            if not complete:
                bound = n * (float(np.mean(done)) * (1 + 1e-9) + 1e-10)
            complete.append(rank)
            continue
        x = dataset[len(done)]
        res = evaluate_objective(x, init_baseline(x, order[rank]), opts)
        any_converged |= res.converged
        done.append(res.total)
        heapq.heappush(heap, (running + res.total, rank))
    if not any_converged:
        raise H2MGError("baseline evaluation never converged; cannot tune offset")
    best_offset, best_cost = None, None
    for rank in sorted(complete):
        mean_cost = float(np.mean(costs[rank]))
        if best_cost is None or mean_cost < best_cost - 1e-12:
            best_offset, best_cost = order[rank], mean_cost
    return float(best_offset)
