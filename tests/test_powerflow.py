import dataclasses
import json

import numpy as np
import pytest

from gridtvc.baseline import init_baseline
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.h2mg import (
    CONTROLLER_CLASSES,
    Decision,
    H2MGContext,
    H2MGError,
    deserialize,
    serialize,
)
from gridtvc.powerflow import (
    PROHIBITIVE_COST,
    RTC_SETPOINT_LADDER,
    SolverOptions,
    apply_decision,
    count_metrics,
    evaluate_objective,
    solve_ac,
)
from gridtvc.rng import stream

from gridfixtures import (
    binary_controller_grid,
    bus,
    edge,
    edge_by_id,
    gen,
    line,
    load,
    scipy_three_bus_solution,
    scipy_two_bus_solution,
    shunt,
    shunt_overvoltage_grid,
    three_bus,
    two_bus,
    two_bus_noload,
)


def empty_decision(x):
    return Decision.paired(x, {c: [0] * len(x.edges_of(c)) for c in CONTROLLER_CLASSES})


# -- solve_ac -----------------------------------------------------------------

def test_flat_no_load_exact():
    sol = solve_ac(two_bus_noload(r=0.0, x=0.1))
    assert sol.converged
    assert sol.bus_v == {"bus_0": 1.0, "bus_1": 1.0}
    assert sol.bus_theta == {"bus_0": 0.0, "bus_1": 0.0}
    f = sol.branch_flows[("line", "line_0")]
    assert f.p1 == 0.0 and f.p2 == 0.0 and f.i1 == 0.0


def test_two_bus_matches_independent_root_solve():
    sol = solve_ac(two_bus(0.5, 0.2, 0.01, 0.1))
    v2, th2, ok = scipy_two_bus_solution(0.5, 0.2, 0.01, 0.1)
    assert ok and sol.converged
    assert abs(sol.bus_v["bus_1"] - v2) < 1e-8
    assert abs(sol.bus_theta["bus_1"] - th2) < 1e-8


def test_two_bus_with_charging_matches_oracle():
    sol = solve_ac(two_bus(0.3, 0.1, 0.02, 0.15, charging=0.2))
    v2, th2, ok = scipy_two_bus_solution(0.3, 0.1, 0.02, 0.15, charging=0.2)
    assert ok and sol.converged
    assert abs(sol.bus_v["bus_1"] - v2) < 1e-8
    assert abs(sol.bus_theta["bus_1"] - th2) < 1e-8


def test_three_bus_matches_independent_root_solve():
    sol = solve_ac(three_bus(0.4, 1.02, 0.9, 0.3))
    (th1, th2, v2), ok = scipy_three_bus_solution(0.4, 1.02, 0.9, 0.3)
    assert ok and sol.converged
    assert abs(sol.bus_v["bus_1"] - 1.02) < 1e-12
    assert abs(sol.bus_theta["bus_1"] - th1) < 1e-8
    assert abs(sol.bus_v["bus_2"] - v2) < 1e-8
    assert abs(sol.bus_theta["bus_2"] - th2) < 1e-8


def test_residual_property_and_flow_consistency():
    sol = solve_ac(three_bus())
    assert sol.converged
    # recompute branch equations from (V, theta) directly
    v = {b: sol.bus_v[b] * np.exp(1j * sol.bus_theta[b]) for b in sol.bus_v}
    x = three_bus()
    for e in x.edges_of("line"):
        ys = 1.0 / complex(e.features["r"], e.features["x"])
        b1 = f"bus_{e.ports['bus1']}"
        b2 = f"bus_{e.ports['bus2']}"
        i1 = ys * (v[b1] - v[b2])
        s1 = v[b1] * np.conj(i1)
        f = sol.branch_flows[("line", e.id)]
        assert abs(s1.real - f.p1) < 1e-10
        assert abs(s1.imag - f.q1) < 1e-10
        assert abs(abs(i1) - f.i1) < 1e-10


def test_nose_point_overload_non_convergence():
    # continuation with the independent solver locates the loadability limit
    base_p, base_q = 0.5, 0.2
    k, last_ok = 1.0, 1.0
    while k < 40.0:
        v2, _, ok = scipy_two_bus_solution(k * base_p, k * base_q, 0.01, 0.1)
        if not ok or v2 < 0.4:  # past the nose the solve fails or drops branches
            break
        last_ok = k
        k *= 1.1
    sol_below = solve_ac(two_bus(last_ok * 0.8 * base_p, last_ok * 0.8 * base_q,
                                 0.01, 0.1))
    assert sol_below.converged
    overload = two_bus(last_ok * 1.6 * base_p, last_ok * 1.6 * base_q, 0.01, 0.1)
    assert not solve_ac(overload).converged
    res = evaluate_objective(overload, Decision({}))
    assert res.total == 100.0 and not res.converged


def test_islanded_bus_with_load_is_non_convergence_not_crash():
    x = two_bus()
    # sever the only line
    severed = x.replace_features({("line", "line_0"): {"status": 0.0}})
    sol = solve_ac(severed)
    assert not sol.converged


def test_no_slack_raises():
    x = two_bus()
    edited = x.replace_features({("generator", "gen_0"): {"slack": 0.0}})
    with pytest.raises(H2MGError):
        solve_ac(edited)


def test_a_battery_is_refused_as_an_unknown_class():
    x = two_bus()
    with pytest.raises(H2MGError, match="unknown class 'battery'"):
        H2MGContext(x.address_count, {**dict(x.edges), "battery": ()})
    # a record complete as battery's schema row once was, so that only
    # its class can be refused
    doc = json.loads(serialize(x))
    doc["classes"]["battery"] = [{
        "id": "bat_0", "ports": {"bus": 1},
        "features": dict.fromkeys(
            ["p", "q", "i", "p_target", "q_target", "v_target", "p_max", "p_min",
             "q_max", "q_min", "regulation_mode"], "absent")}]
    with pytest.raises(H2MGError, match="unknown class 'battery'"):
        deserialize(json.dumps(doc).encode())


# -- apply_decision -----------------------------------------------------------

def test_identity_decision_is_electrically_identical():
    x = shunt_overvoltage_grid()
    y = empty_decision(x)
    applied = apply_decision(x, y)
    s1, s2 = solve_ac(x), solve_ac(applied)
    assert s1.bus_v == s2.bus_v


def test_shunt_switch_disconnects_connected_shunt():
    x = shunt_overvoltage_grid()
    y = empty_decision(x).replace("shunt_controller", 0, 1)
    applied = apply_decision(x, y)
    assert edge_by_id(applied, "shunt", "shunt_0").features["status"] == 0.0
    # switching twice restores
    again = apply_decision(applied, y)
    assert edge_by_id(again, "shunt", "shunt_0").features["status"] == 1.0


def test_line_disconnect_request():
    x = binary_controller_grid()
    lc = edge("lc_0", "line_controller", {"line": 2})
    x = H2MGContext(x.address_count, {**dict(x.edges), "line_controller": (lc,)})
    y = empty_decision(x).replace("line_controller", 0, 1)
    applied = apply_decision(x, y)
    assert edge_by_id(applied, "line", "line_0").features["status"] == 0.0
    y0 = empty_decision(x)
    applied = apply_decision(x, y0)
    assert edge_by_id(applied, "line", "line_0").features["status"] == 1.0


def test_rtc_category_sets_ladder_target():
    x = _rtc_fixture()
    y = empty_decision(x).replace("rtc_controller", 0, 1)
    applied = apply_decision(x, y)
    assert edge_by_id(applied, "rtc_controller", "rc_0").features["v_target"] == 1.02
    for cat, frac in enumerate(RTC_SETPOINT_LADDER):
        yk = empty_decision(x).replace("rtc_controller", 0, cat)
        applied = apply_decision(x, yk)
        assert edge_by_id(applied, "rtc_controller", "rc_0").features["v_target"] == \
            pytest.approx(frac)


def test_svr_delta_shifts_zone_target():
    x = _svr_fixture()
    y = empty_decision(x).replace("svr_controller", 0, 0.013)
    applied = apply_decision(x, y)
    assert edge_by_id(applied, "svr_zone", "zone_0").features["v_target"] == \
        pytest.approx(1.0 + 0.013)


def test_decision_pairing_rejected_across_contexts():
    x1 = binary_controller_grid(2)
    x2 = binary_controller_grid(3)
    y2 = empty_decision(x2)
    with pytest.raises(H2MGError):
        apply_decision(x1, y2)


# -- objective ----------------------------------------------------------------

def test_objective_hand_values_upper_limit_bus():
    # v_e = 1.0 exactly at the upper limit: contribution max(0, -0.95, 0.05)^2
    opts = SolverOptions()
    pen = max(0.0, opts.eps_v - 1.0, 1.0 - 1.0 + opts.eps_v) ** 2
    assert pen == pytest.approx(0.0025)
    # and an interior bus contributes nothing
    assert max(0.0, opts.eps_v - 0.5, 0.5 - 1.0 + opts.eps_v) == 0.0


def test_objective_joule_hand_value():
    # branch with P1=0.10, P2=-0.098 at lambda_J=0.1 contributes 0.0002
    assert 0.1 * abs(0.10 + (-0.098)) == pytest.approx(0.0002)


def test_objective_on_flat_grid_is_zero():
    x = two_bus_noload(r=0.0, x=0.1)
    res = evaluate_objective(x, Decision({}))
    assert res.converged
    assert res.total == 0.0 and res.f_v == 0.0 and res.f_i == 0.0 and res.f_j == 0.0


def test_objective_nonnegative_and_additive():
    x = shunt_overvoltage_grid()
    res = evaluate_objective(x, empty_decision(x))
    assert res.converged
    assert res.f_v >= 0 and res.f_i >= 0 and res.f_j >= 0
    assert res.total == pytest.approx(res.f_v + res.f_i + res.f_j)


def test_objective_pure_function():
    x = shunt_overvoltage_grid()
    y = empty_decision(x)
    r1 = evaluate_objective(x, y)
    r2 = evaluate_objective(x, y)
    for f in dataclasses.fields(r1):
        a, b = getattr(r1, f.name), getattr(r2, f.name)
        assert a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b, f.name


def test_monotone_voltage_penalty():
    opts = SolverOptions()
    pens = []
    for ve in (1.0, 1.05, 1.2, 1.5):
        pens.append(max(0.0, opts.eps_v - ve, ve - 1.0 + opts.eps_v) ** 2)
    assert all(b > a for a, b in zip(pens, pens[1:]))


def test_switching_shunt_removes_overvoltage_and_reduces_objective():
    x = shunt_overvoltage_grid()
    y0 = empty_decision(x)
    y1 = y0.replace("shunt_controller", 0, 1)
    m0 = evaluate_objective(x, y0)
    m1 = evaluate_objective(x, y1)
    assert m0.converged and m1.converged
    assert m0.over_voltages >= 1 and m1.violations == 0
    assert m1.total < m0.total
    for m in (m0, m1):
        assert m.violations == m.over_voltages + m.under_voltages
        assert m.f_j == SolverOptions().lambda_j * m.joule_losses


# -- metrics ------------------------------------------------------------------

def test_metrics_flat_grid_zero_violations():
    x = two_bus_noload(r=0.0, x=0.1)
    m = evaluate_objective(x, Decision({}))
    assert m.converged and m.violations == 0 and m.overflows == 0
    assert m.joule_losses == 0.0


def test_metrics_overvoltage_definitional():
    # a bus just above its upper limit counts exactly once
    x = two_bus(0.0, -1.3, 0.005, 0.05)  # capacitive load raises the far bus
    m = evaluate_objective(x, Decision({}))
    sol = solve_ac(x)
    v = sol.bus_v["bus_1"]
    expected = int(v > 1.05)
    assert m.converged
    assert m.over_voltages == expected
    assert expected == 1


def test_metrics_normalized_voltage_partition():
    x = shunt_overvoltage_grid()
    m = evaluate_objective(x, empty_decision(x))
    assert len(m.normalized_voltages) == len(x.edges_of("bus"))


def test_metrics_invalid_on_divergence():
    x = two_bus(20.0, 8.0, 0.01, 0.1)
    m = evaluate_objective(x, Decision({}))
    assert not m.converged and not m.valid and m.status == "newton_failed"
    assert (m.f_v, m.f_i, m.f_j, m.total) == (0.0, 0.0, 0.0, PROHIBITIVE_COST)
    assert (m.over_voltages, m.under_voltages, m.violations, m.overflows,
            m.joule_losses) == (0, 0, 0, 0, 0.0)
    assert m.normalized_voltages.shape == m.normalized_currents.shape == (0,)


def test_count_metrics_is_the_scoring_function_under_its_old_name():
    # the benchmark calls count_metrics; a wrapper would trace two oracle spans
    assert count_metrics is evaluate_objective
    m = evaluate_objective(two_bus_noload(r=0.0, x=0.1), Decision({}))
    assert m.valid is m.converged is True


# -- helpers ------------------------------------------------------------------

def _rtc_fixture() -> H2MGContext:
    buses = (bus(0, 0), bus(1, 1))
    twt = edge("twt_0", "twt", {"twt": 2, "bus1": 0, "bus2": 1},
               r=0.005, x=0.08, g=0.0, b=0.0, ratio=1.0, phase_shift=0.0, opt=1.0)
    rtc = edge("rtc_0", "rtc", {"twt": 2, "regulated_bus": 1})
    ctrl = edge("rc_0", "rtc_controller", {"twt": 2}, v_target=1.0, v_nom=1.0)
    return H2MGContext(5, {
        "bus": buses,
        "twt": (twt,),
        "rtc": (rtc,),
        "rtc_controller": (ctrl,),
        "generator": (gen(0, 3, 0, slack=1.0),),
        "load": (load(0, 1, 0.2, 0.05),),
    })


def _svr_fixture() -> H2MGContext:
    buses = (bus(0, 0), bus(1, 1), bus(2, 2))
    lines = (line(0, 3, 0, 1, 0.01, 0.08), line(1, 4, 1, 2, 0.01, 0.08))
    zone = edge("zone_0", "svr_zone", {"zone": 5, "regulated_bus": 1},
                v=1.0, theta=0.0, v_nom=1.0, v_target=1.0)
    unit = edge("unit_0", "svr_unit", {"gen": 7, "zone": 5}, participate=1.0)
    ctrl = edge("vc_0", "svr_controller", {"zone": 5})
    return H2MGContext(8, {
        "bus": buses,
        "line": lines,
        "svr_zone": (zone,),
        "svr_unit": (unit,),
        "svr_controller": (ctrl,),
        "generator": (gen(0, 6, 0, slack=1.0),
                      gen(1, 7, 2, p=0.1, qmin=-1.0, qmax=1.0, mode=0.0)),
        "load": (load(0, 2, 0.3, 0.1),),
    })


def test_rtc_regulation_steps_toward_target():
    x = _rtc_fixture()
    # target 105% of nominal: taps must move to raise the regulated bus
    y = Decision.paired(x, {"rtc_controller": [2]})
    applied = apply_decision(x, y)
    sol = solve_ac(applied)
    assert sol.converged
    assert abs(sol.bus_v["bus_1"] - 1.05) <= 0.006  # within a tap deadband
    assert sol.rtc_ratio["rtc_0"] < 1.0  # lowered ratio raises the bus2 side


def test_svr_holds_regulated_bus_at_target():
    x = _svr_fixture()
    y = Decision.paired(x, {"svr_controller": [0.02]})
    applied = apply_decision(x, y)
    sol = solve_ac(applied)
    assert sol.converged
    assert abs(sol.bus_v["bus_1"] - 1.02) < 1e-4
    # the unit supplied the reactive power, within its limits
    assert -1.0 <= sol.gen_q["gen_1"] <= 1.0


def test_svr_saturates_and_bus_floats():
    x = _svr_fixture()
    y = Decision.paired(x, {"svr_controller": [0.12]})  # unreachable
    applied = apply_decision(x, y)
    sol = solve_ac(applied)
    assert sol.converged
    assert sol.gen_q["gen_1"] == pytest.approx(1.0, abs=1e-9)
    assert sol.bus_v["bus_1"] < 1.12


def test_gen_q_limit_switching():
    # PV generator with a tight limit gets pinned and the bus deviates
    x = three_bus(0.4, 1.06, 0.9, 0.6)
    tight = x.replace_features({("generator", "gen_1"): {"q_max": 0.05,
                                                         "q_min": -0.05}})
    sol = solve_ac(tight)
    assert sol.converged
    assert abs(sol.gen_q["gen_1"]) <= 0.05 + 1e-9
    assert abs(sol.bus_v["bus_1"] - 1.06) > 1e-4
    loose = solve_ac(x)
    assert abs(loose.bus_v["bus_1"] - 1.06) < 1e-12


# -- solve status -------------------------------------------------------------

def test_status_converged_on_flat_grid():
    sol = solve_ac(two_bus_noload(r=0.0, x=0.1))
    assert sol.converged and sol.status == "converged"


def test_status_newton_failed_past_the_nose_point():
    sol = solve_ac(two_bus(20.0, 8.0, 0.01, 0.1))
    assert not sol.converged and sol.status == "newton_failed"
    assert sol.outer_iterations == 0


def test_status_singular_jacobian_on_islanded_load():
    severed = two_bus().replace_features({("line", "line_0"): {"status": 0.0}})
    sol = solve_ac(severed)
    assert not sol.converged and sol.status == "singular_jacobian"


def test_status_outer_cap_on_pinned_generated_context():
    # The baseline decision on this context drives the SVR dispatch into a
    # limit cycle across zones; in the last rounds only it still moves.
    x = generate_context(GridFamilySpec(), stream(0, "val", 2), origin="val-002")
    opts = SolverOptions()
    sol = solve_ac(apply_decision(x, init_baseline(x, 0.0)), opts)
    assert not sol.converged and sol.status == "outer_cap"
    assert sol.outer_iterations == opts.max_outer
    assert solve_ac(x, opts).status == "converged"  # the base case solves


def test_solution_names_the_loops_still_moving_and_the_restarts():
    # The outer-cap solve of the pinned context ends on rounds in which
    # only the SVR dispatch changes; no Newton call there needs a restart.
    x = generate_context(GridFamilySpec(), stream(0, "val", 2), origin="val-002")
    sol = solve_ac(apply_decision(x, init_baseline(x, 0.0)))
    assert sol.status == "outer_cap"
    assert sol.moving == ("svr",) and sol.restarts == 0
    base = solve_ac(x)
    assert base.converged and base.moving == () and base.restarts == 0
    # Past the nose point the warm start and the flat-start retry both fail
    # before any outer round.
    failed = solve_ac(two_bus(20.0, 8.0, 0.01, 0.1))
    assert failed.status == "newton_failed"
    assert failed.moving == () and failed.restarts == 1


@pytest.mark.parametrize("index, status", [(2, "outer_cap"), (0, "converged")])
def test_objective_carries_the_solve_counts(index, status):
    # val-002's baseline is the pinned outer-cap solve; val-000's converges.
    x = generate_context(GridFamilySpec(), stream(0, "val", index),
                         origin=f"val-{index:03d}")
    y = init_baseline(x, 0.0)
    res = evaluate_objective(x, y)
    sol = solve_ac(apply_decision(x, y))
    assert res.status == sol.status == status
    counts = (sol.inner_iterations, sol.outer_iterations, sol.restarts, sol.moving)
    assert (res.inner, res.outer, res.restarts, res.moving) == counts
    assert res.inner > 0 and res.outer > 0


def test_objective_carries_the_restart_of_a_failed_solve():
    x = two_bus(20.0, 8.0, 0.01, 0.1)
    res = evaluate_objective(x, empty_decision(x))
    assert (res.status, res.inner, res.outer, res.restarts, res.moving) == (
        "newton_failed", solve_ac(x).inner_iterations, 0, 1, ())
