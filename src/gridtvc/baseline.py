"""The no-learning reference policy and its single tuned scalar.

Topology is left untouched, every SVR setpoint becomes the initially
solved regulated-bus voltage plus one uniform offset, and continuous tap
changer setpoints are projected onto the discrete ladder.
"""

from __future__ import annotations

import numpy as np

from .h2mg import Decision, H2MGContext, H2MGError
from .powerflow import RTC_SETPOINT_LADDER, SolverOptions, evaluate_objective


def project_rtc_category(setpoint: float, v_nom: float) -> int:
    """Nearest ladder category to a continuous setpoint; ties take the lower."""
    ratio = setpoint / v_nom
    dist = np.round(np.abs(np.asarray(RTC_SETPOINT_LADDER) - ratio), 12)
    return int(np.argmin(dist))


def init_baseline(x: H2MGContext, offset: float = 0.0) -> Decision:
    """Reference decision: keep topology, shift SVR targets, snap RTC targets."""
    values: dict[str, dict] = {}
    ids = x.controller_ids()
    if "line_controller" in ids:
        values["line_controller"] = {eid: 0 for eid in ids["line_controller"]}
    if "shunt_controller" in ids:
        values["shunt_controller"] = {eid: 0 for eid in ids["shunt_controller"]}
    if "svr_controller" in ids:
        out = {}
        zones = {z.ports["zone"]: z for z in x.edges_of("svr_zone")}
        for e in x.edges_of("svr_controller"):
            zone = zones.get(e.ports["zone"])
            if zone is None:
                raise H2MGError(f"svr_controller {e.id!r} anchors to no zone")
            v_init, v_target = zone.features["v"], zone.features["v_target"]
            if v_init is None or v_target is None:
                raise H2MGError(
                    f"svr_zone {zone.id!r} lacks the initial state for a baseline")
            out[e.id] = (v_init + offset) - v_target
        values["svr_controller"] = out
    if "rtc_controller" in ids:
        out = {}
        for e in x.edges_of("rtc_controller"):
            setpoint, v_nom = e.features["v_target"], e.features["v_nom"]
            if setpoint is None or v_nom is None:
                raise H2MGError(
                    f"rtc_controller {e.id!r} lacks the initial setpoint")
            out[e.id] = project_rtc_category(setpoint, v_nom)
        values["rtc_controller"] = out
    return Decision.paired(x, values)


def tune_baseline_offset(dataset: list[H2MGContext],
                         opts: SolverOptions = SolverOptions(),
                         grid: np.ndarray | None = None) -> float:
    """Pick the uniform SVR offset minimizing the mean objective.

    Non-convergent evaluations score the prohibitive cost; ties between
    offsets resolve toward the smaller magnitude (then toward the positive
    one, for determinism), and a later offset replaces the best one only
    when its mean is lower by more than 1e-12.  Offsets are evaluated in
    that order.  Objective costs are non-negative, so once some evaluation
    has converged and an offset's running cost sum exceeds the best mean
    times the dataset size by a relative 1e-9, far above the rounding of
    either sum, that offset cannot win and its remaining contexts are not
    solved.  The result is the offset the exhaustive search picks.
    """
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
            res = evaluate_objective(x, init_baseline(x, offset), opts)
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
