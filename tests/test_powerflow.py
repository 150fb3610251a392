import dataclasses
import json

import numpy as np
import pytest

import gridtvc.powerflow as pf
from gridtvc.baseline import init_baseline
from gridtvc.estimator import _replace
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.h2mg import (
    CONTROLLER_CLASSES,
    H2MGContext,
    H2MGError,
    deserialize,
    paired_decision,
    serialize,
    validate_context,
)
from gridtvc.powerflow import (
    PROHIBITIVE_COST,
    RTC_SETPOINT_LADDER,
    TAP_MULTIPLIERS,
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
    meshed_grid,
    scipy_three_bus_solution,
    scipy_two_bus_solution,
    shunt,
    shunt_overvoltage_grid,
    three_bus,
    two_bus,
    two_bus_noload,
)


def empty_decision(x):
    return paired_decision(x, {c: [0] * len(x.edges_of(c)) for c in CONTROLLER_CLASSES})


def solved(sol, cname, feature):
    """One feature of a class in a converged solve's context, keyed by edge id."""
    return {e.id: e.features[feature] for e in sol.context.edges_of(cname)}


# -- solve_ac -----------------------------------------------------------------

def test_flat_no_load_exact():
    sol = solve_ac(two_bus_noload(r=0.0, x=0.1))
    assert sol.converged
    assert solved(sol, "bus", "v") == {"bus_0": 1.0, "bus_1": 1.0}
    assert solved(sol, "bus", "theta") == {"bus_0": 0.0, "bus_1": 0.0}
    f = edge_by_id(sol.context, "line", "line_0").features
    assert f["p1"] == 0.0 and f["p2"] == 0.0 and f["i1"] == 0.0


def test_two_bus_matches_independent_root_solve():
    sol = solve_ac(two_bus(0.5, 0.2, 0.01, 0.1))
    v2, th2, ok = scipy_two_bus_solution(0.5, 0.2, 0.01, 0.1)
    assert ok and sol.converged
    assert abs(solved(sol, "bus", "v")["bus_1"] - v2) < 1e-8
    assert abs(solved(sol, "bus", "theta")["bus_1"] - th2) < 1e-8


def test_two_bus_with_charging_matches_oracle():
    sol = solve_ac(two_bus(0.3, 0.1, 0.02, 0.15, charging=0.2))
    v2, th2, ok = scipy_two_bus_solution(0.3, 0.1, 0.02, 0.15, charging=0.2)
    assert ok and sol.converged
    assert abs(solved(sol, "bus", "v")["bus_1"] - v2) < 1e-8
    assert abs(solved(sol, "bus", "theta")["bus_1"] - th2) < 1e-8


def test_three_bus_matches_independent_root_solve():
    sol = solve_ac(three_bus(0.4, 1.02, 0.9, 0.3))
    (th1, th2, v2), ok = scipy_three_bus_solution(0.4, 1.02, 0.9, 0.3)
    assert ok and sol.converged
    assert abs(solved(sol, "bus", "v")["bus_1"] - 1.02) < 1e-12
    assert abs(solved(sol, "bus", "theta")["bus_1"] - th1) < 1e-8
    assert abs(solved(sol, "bus", "v")["bus_2"] - v2) < 1e-8
    assert abs(solved(sol, "bus", "theta")["bus_2"] - th2) < 1e-8


def test_residual_property_and_flow_consistency():
    sol = solve_ac(three_bus())
    assert sol.converged
    # recompute branch equations from (V, theta) directly
    vm, va = solved(sol, "bus", "v"), solved(sol, "bus", "theta")
    v = {b: vm[b] * np.exp(1j * va[b]) for b in vm}
    x = three_bus()
    for e in x.edges_of("line"):
        ys = 1.0 / complex(e.features["r"], e.features["x"])
        b1 = f"bus_{e.ports['bus1']}"
        b2 = f"bus_{e.ports['bus2']}"
        i1 = ys * (v[b1] - v[b2])
        s1 = v[b1] * np.conj(i1)
        f = edge_by_id(sol.context, "line", e.id).features
        assert abs(s1.real - f["p1"]) < 1e-10
        assert abs(s1.imag - f["q1"]) < 1e-10
        assert abs(abs(i1) - f["i1"]) < 1e-10


FLOWS = ("p1", "q1", "i1", "p2", "q2", "i2")
#: The features a converged solve writes, per class; the twt of each tap
#: changer also gets its ratio.
SOLVED = {"bus": ("v", "theta"), "line": FLOWS, "twt": FLOWS,
          "generator": ("p", "q", "i"), "load": ("p", "q", "i"),
          "shunt": ("p", "q", "i"), "svr_zone": ("v", "theta")}


def test_a_converged_solve_writes_every_solved_feature():
    # Blank what the solve owns; every other feature is the solve's input.
    x = generate_context(GridFamilySpec(), stream(0, "val", 0), origin="val-000")
    blank = x.replace_features({(c, e.id): dict.fromkeys(names)
                                for c, names in SOLVED.items() for e in x.edges_of(c)})
    sol = solve_ac(blank)
    assert sol.converged and sol.context.metadata == x.metadata
    tapped = {rtc.ports["twt"] for rtc in x.edges_of("rtc")}
    for cname, names in SOLVED.items():
        assert sol.context.edges_of(cname)
        for e, before in zip(sol.context.edges_of(cname), blank.edges_of(cname)):
            owned = (*names, "ratio") if cname == "twt" and e.ports["twt"] in tapped \
                else names
            assert all(isinstance(e.features[f], float) and np.isfinite(e.features[f])
                       for f in owned), (cname, e.id)
            assert e.ports == before.ports
            assert {f: v for f, v in e.features.items() if f not in owned} == \
                {f: v for f, v in before.features.items() if f not in owned}
    # the twt of each tap changer holds a ratio on the tap ladder
    v_nom = {e.ports["bus"]: e.features["v_nom"] for e in x.edges_of("bus")}
    for rtc in x.edges_of("rtc"):
        (twt,) = sol.context.anchored("twt", "twt", rtc.ports["twt"])
        mult = twt.features["ratio"] * v_nom[twt.ports["bus2"]] / v_nom[twt.ports["bus1"]]
        assert np.abs(mult - TAP_MULTIPLIERS).min() < 1e-12


def test_an_open_line_carries_no_flow_in_the_solved_context():
    x = generate_context(GridFamilySpec(), stream(0, "val", 0), origin="val-000")
    y = _replace(init_baseline(x, -0.02), "line_controller", 0, 1)
    opened = x.device(x.edges_of("line_controller")[0]).id
    assert edge_by_id(x, "line", opened).features["i1"] > 0.1
    sol = solve_ac(apply_decision(x, y))
    assert sol.converged
    assert [edge_by_id(sol.context, "line", opened).features[f] for f in FLOWS] == [0.0] * 6


@pytest.mark.parametrize("status", [None, 0.7])
def test_a_shunt_in_service_injects_what_the_solve_counted(status):
    # An absent status, or one of at least 0.5, leaves a shunt in service.
    x = generate_context(GridFamilySpec(), stream(0, "val", 0), origin="val-000")
    controlled = {x.device(c).id for c in x.edges_of("shunt_controller")}
    shunt = next(e for e in x.edges_of("shunt") if e.id not in controlled)
    assert shunt.features["status"] == 1.0
    variant = x.replace_features({("shunt", shunt.id): {"status": status}})
    assert validate_context(variant) == []
    solved_at = [edge_by_id(solve_ac(c).context, "shunt", shunt.id).features
                 for c in (x, variant)]
    on, got = ({f: s[f] for f in ("p", "q", "i")} for s in solved_at)
    assert on["q"] < -0.1 and got == on
    y = init_baseline(x)
    assert evaluate_objective(variant, y) == evaluate_objective(x, y)


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
    res = evaluate_objective(overload, {})
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
    assert solved(s1, "bus", "v") == solved(s2, "bus", "v")


def test_shunt_switch_disconnects_connected_shunt():
    x = shunt_overvoltage_grid()
    y = _replace(empty_decision(x), "shunt_controller", 0, 1)
    applied = apply_decision(x, y)
    assert edge_by_id(applied, "shunt", "shunt_0").features["status"] == 0.0
    # switching twice restores
    again = apply_decision(applied, y)
    assert edge_by_id(again, "shunt", "shunt_0").features["status"] == 1.0


def test_line_disconnect_request():
    x = binary_controller_grid()
    lc = edge("lc_0", "line_controller", {"line": 2})
    x = H2MGContext(x.address_count, {**dict(x.edges), "line_controller": (lc,)})
    y = _replace(empty_decision(x), "line_controller", 0, 1)
    applied = apply_decision(x, y)
    assert edge_by_id(applied, "line", "line_0").features["status"] == 0.0
    y0 = empty_decision(x)
    applied = apply_decision(x, y0)
    assert edge_by_id(applied, "line", "line_0").features["status"] == 1.0


def test_rtc_category_sets_ladder_target():
    x = _rtc_fixture()
    y = _replace(empty_decision(x), "rtc_controller", 0, 1)
    applied = apply_decision(x, y)
    assert edge_by_id(applied, "rtc_controller", "rc_0").features["v_target"] == 1.02
    for cat, frac in enumerate(RTC_SETPOINT_LADDER):
        yk = _replace(empty_decision(x), "rtc_controller", 0, cat)
        applied = apply_decision(x, yk)
        assert edge_by_id(applied, "rtc_controller", "rc_0").features["v_target"] == \
            pytest.approx(frac)


def test_svr_delta_shifts_zone_target():
    x = _svr_fixture()
    y = _replace(empty_decision(x), "svr_controller", 0, 0.013)
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
    res = evaluate_objective(x, {})
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
    assert r1.converged and evaluate_objective(x, y) == r1
    flipped = evaluate_objective(x, _replace(y, "shunt_controller", 0, 1))
    assert flipped.converged and flipped != r1
    shifted = r1.normalized_voltages + 1.0
    assert dataclasses.replace(r1, normalized_voltages=shifted) != r1
    with pytest.raises(TypeError):
        hash(r1)


def test_monotone_voltage_penalty():
    opts = SolverOptions()
    pens = []
    for ve in (1.0, 1.05, 1.2, 1.5):
        pens.append(max(0.0, opts.eps_v - ve, ve - 1.0 + opts.eps_v) ** 2)
    assert all(b > a for a, b in zip(pens, pens[1:]))


def test_switching_shunt_removes_overvoltage_and_reduces_objective():
    x = shunt_overvoltage_grid()
    y0 = empty_decision(x)
    y1 = _replace(y0, "shunt_controller", 0, 1)
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
    m = evaluate_objective(x, {})
    assert m.converged and m.violations == 0 and m.overflows == 0
    assert m.joule_losses == 0.0


def test_metrics_overvoltage_definitional():
    # a bus just above its upper limit counts exactly once
    x = two_bus(0.0, -1.3, 0.005, 0.05)  # capacitive load raises the far bus
    m = evaluate_objective(x, {})
    sol = solve_ac(x)
    v = solved(sol, "bus", "v")["bus_1"]
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
    m = evaluate_objective(x, {})
    assert not m.converged and not m.valid and m.status == "newton_failed"
    assert (m.f_v, m.f_i, m.f_j, m.total) == (0.0, 0.0, 0.0, PROHIBITIVE_COST)
    assert (m.over_voltages, m.under_voltages, m.violations, m.overflows,
            m.joule_losses) == (0, 0, 0, 0, 0.0)
    assert m.normalized_voltages.shape == m.normalized_currents.shape == (0,)


def test_count_metrics_is_the_scoring_function_under_its_old_name():
    # the benchmark calls count_metrics; a wrapper would trace two oracle spans
    assert count_metrics is evaluate_objective
    m = evaluate_objective(two_bus_noload(r=0.0, x=0.1), {})
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
    y = paired_decision(x, {"rtc_controller": [2]})
    applied = apply_decision(x, y)
    sol = solve_ac(applied)
    assert sol.converged
    assert abs(solved(sol, "bus", "v")["bus_1"] - 1.05) <= 0.006  # within a tap deadband
    assert solved(sol, "twt", "ratio")["twt_0"] < 1.0  # lowered ratio raises the bus2 side


def test_svr_holds_regulated_bus_at_target():
    x = _svr_fixture()
    y = paired_decision(x, {"svr_controller": [0.02]})
    applied = apply_decision(x, y)
    sol = solve_ac(applied)
    assert sol.converged
    assert abs(solved(sol, "bus", "v")["bus_1"] - 1.02) < 1e-4
    # the unit supplied the reactive power, within its limits
    assert -1.0 <= solved(sol, "generator", "q")["gen_1"] <= 1.0


def test_svr_saturates_and_bus_floats():
    x = _svr_fixture()
    y = paired_decision(x, {"svr_controller": [0.12]})  # unreachable
    applied = apply_decision(x, y)
    sol = solve_ac(applied)
    assert sol.converged
    assert solved(sol, "generator", "q")["gen_1"] == pytest.approx(1.0, abs=1e-9)
    assert solved(sol, "bus", "v")["bus_1"] < 1.12


def test_an_svr_zone_is_one_level_from_its_summed_starting_output():
    # gen_2 (range 1) starts at 0.7 of its range and gen_3 (range 2) at
    # 0.4: the zone starts at the fraction its summed output reaches, 1.5
    # of 3, and every solve leaves both units at one fraction.
    x = meshed_grid().replace_features({
        ("generator", "gen_2"): {"q": 0.2},
        ("generator", "gen_3"): {"q": -0.2, "q_min": -1.0, "q_max": 1.0}})
    assert pf._GridModel(x, SolverOptions()).level.tolist() == [0.5]
    limits = {"gen_2": (-0.5, 0.5), "gen_3": (-1.0, 1.0)}

    def outputs(delta):
        y = paired_decision(x, {**empty_decision(x), "svr_controller": [delta]})
        sol = solve_ac(apply_decision(x, y))
        assert sol.converged
        q = solved(sol, "generator", "q")
        return [q[g] for g in limits]

    (a, b), ((lo_a, hi_a), (lo_b, hi_b)) = outputs(0.0), limits.values()
    fraction = (a - lo_a) / (hi_a - lo_a)
    assert 0.5 < fraction < 0.6
    assert (b - lo_b) / (hi_b - lo_b) == pytest.approx(fraction, abs=1e-15)
    # an unreachable target saturates the zone: each unit on its limit exactly
    assert outputs(0.3) == [hi_a, hi_b]
    assert outputs(-0.3) == [lo_a, lo_b]


def test_an_svr_unit_without_finite_reactive_limits_is_refused():
    # a zone's level is a fraction of its units' ranges, so an unbounded
    # unit has no output to run at
    base = meshed_grid()
    assert evaluate_objective(base, empty_decision(base)).converged
    x = base.replace_features({("generator", "gen_2"): {"q_max": None}})
    with pytest.raises(H2MGError, match="svr_unit 'unit_0' drives a generator without "
                                        "finite q_min <= q_max"):
        evaluate_objective(x, empty_decision(x))


def test_gen_q_limit_switching():
    # PV generator with a tight limit gets pinned and the bus deviates
    x = three_bus(0.4, 1.06, 0.9, 0.6)
    tight = x.replace_features({("generator", "gen_1"): {"q_max": 0.05,
                                                         "q_min": -0.05}})
    sol = solve_ac(tight)
    assert sol.converged
    assert abs(solved(sol, "generator", "q")["gen_1"]) <= 0.05 + 1e-9
    assert abs(solved(sol, "bus", "v")["bus_1"] - 1.06) > 1e-4
    loose = solve_ac(x)
    assert abs(solved(loose, "bus", "v")["bus_1"] - 1.06) < 1e-12


# -- solve status -------------------------------------------------------------

def test_status_converged_on_flat_grid():
    sol = solve_ac(two_bus_noload(r=0.0, x=0.1))
    assert sol.converged and sol.status == "converged"


def test_status_newton_failed_past_the_nose_point():
    sol = solve_ac(two_bus(20.0, 8.0, 0.01, 0.1))
    assert not sol.converged and sol.status == "newton_failed"
    assert sol.outer_iterations == 0 and sol.context is None


def test_status_singular_jacobian_on_islanded_load():
    severed = two_bus().replace_features({("line", "line_0"): {"status": 0.0}})
    sol = solve_ac(severed)
    assert not sol.converged and sol.status == "singular_jacobian"
    assert sol.context is None


def test_status_outer_cap_on_pinned_generated_context():
    # The baseline decision on this context leaves the SVR dispatch moving
    # until the cap, through its joint steps too; in the last rounds only it
    # still moves.
    x = generate_context(GridFamilySpec(), stream(0, "val", 7), origin="val-007")
    opts = SolverOptions()
    sol = solve_ac(apply_decision(x, init_baseline(x, 0.0)), opts)
    assert not sol.converged and sol.status == "outer_cap"
    assert sol.outer_iterations == opts.max_outer
    assert solve_ac(x, opts).status == "converged"  # the base case solves


def test_solution_names_the_loops_still_moving_and_the_restarts():
    # The outer-cap solve of the pinned context ends on rounds in which
    # only the SVR dispatch changes; no Newton call there needs a restart.
    x = generate_context(GridFamilySpec(), stream(0, "val", 7), origin="val-007")
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


@pytest.mark.parametrize("index, status", [(7, "outer_cap"), (0, "converged")])
def test_objective_carries_the_solve_counts(index, status):
    # val-007's baseline is the pinned outer-cap solve; val-000's converges.
    x = generate_context(GridFamilySpec(), stream(0, "val", index),
                         origin=f"val-{index:03d}")
    y = init_baseline(x, 0.0)
    res = evaluate_objective(x, y)
    sol = solve_ac(apply_decision(x, y))
    assert res.status == sol.status == status
    counts = (sol.inner_iterations, sol.outer_iterations, sol.restarts, sol.moving)
    assert (res.inner, res.outer, res.restarts, res.moving) == counts
    assert res.inner > 0 and res.outer > 0


@pytest.mark.parametrize("split, index, offset, total, inner, outer, status", [
    ("val", 0, 0.005, "0x1.0de232d5f6eeap+0", 41, 14, "converged"),
    ("val", 0, 0.01, "0x1.2d18e612f8e69p+1", 26, 9, "converged"),
    ("val", 4, -0.03, "0x1.6d485b26b9446p+0", 53, 18, "converged"),
    ("val", 13, -0.015, "0x1.ab8df9804f755p-1", 54, 20, "converged"),
    ("train", 15, 0.02, "0x1.9000000000000p+6", 46, 4, "newton_failed"),
])
def test_a_solve_within_the_per_zone_rounds_keeps_its_bits(
        split, index, offset, total, inner, outer, status):
    # Values of the per-zone-only dispatch, which every solve took before
    # the joint step: one that ends by round 20 (JOINT_FROM_ROUND) never
    # takes a joint step, so it keeps them exactly.
    assert outer <= 20
    x = generate_context(GridFamilySpec(), stream(0, split, index))
    res = evaluate_objective(x, init_baseline(x, offset))
    assert (res.total.hex(), res.inner, res.outer, res.status) == (total, inner, outer, status)


def test_joint_steps_settle_a_dispatch_the_per_zone_rule_leaves_drifting():
    # Per-zone steps alone drift on val-002's offset-0 baseline until the
    # cap; the joint steps after round JOINT_FROM_ROUND settle it.
    x = generate_context(GridFamilySpec(), stream(0, "val", 2), origin="val-002")
    sol = solve_ac(apply_decision(x, init_baseline(x, 0.0)))
    assert sol.status == "converged" and sol.outer_iterations > pf.JOINT_FROM_ROUND
    assert sol.moving == ()


def test_a_settled_joint_step_writes_nothing():
    # val-002's offset -0.02 baseline settles on a joint step with two
    # pilots still outside their deadband: no dispatch meets them all.
    x = generate_context(GridFamilySpec(), stream(0, "val", 2), origin="val-002")
    opts = SolverOptions()
    [(m, st)] = pf._solve_all([apply_decision(x, init_baseline(x, -0.02))], opts)
    assert st.status == "converged" and st.outer > pf.JOINT_FROM_ROUND
    off = [abs(z["target"] - st.vm[z["bus"]]) > opts.svr_deadband for z in m.zones]
    assert sum(off) >= 2
    level, before = st.level, st.level.copy()
    assert pf._svr_dispatch(m, st, opts) is False
    assert st.level is level and np.array_equal(level, before)


def test_a_grid_with_only_a_slack_bus_converges_at_once():
    # No unknowns: Newton converges at iteration 0, and the slack machine
    # takes the load and the shunt's injection at its set-point voltage.
    x = H2MGContext(3, {"bus": (bus(0, 0),), "generator": (gen(0, 1, 0, slack=1.0, v=1.02),),
                        "load": (load(0, 0, 0.5, 0.2),), "shunt": (shunt(0, 2, 0, b=0.1),)})
    sol = solve_ac(x)
    assert (sol.status, sol.inner_iterations, sol.outer_iterations) == ("converged", 0, 1)
    [g] = sol.context.edges_of("generator")
    assert g.features["p"] == 0.5
    assert g.features["q"] == pytest.approx(0.2 - 0.1 * 1.02 ** 2, abs=1e-15)
    assert evaluate_objective(x, empty_decision(x)).status == "converged"


def test_objective_carries_the_restart_of_a_failed_solve():
    x = two_bus(20.0, 8.0, 0.01, 0.1)
    res = evaluate_objective(x, empty_decision(x))
    assert (res.status, res.inner, res.outer, res.restarts, res.moving) == (
        "newton_failed", solve_ac(x).inner_iterations, 0, 1, ())


@pytest.mark.parametrize("field, value, problem", [
    ("rtc_deadband", -1.0, "rtc_deadband must not be negative"),
    ("svr_deadband", -1e-6, "svr_deadband must not be negative"),
    ("lambda_v", -1.0, "lambda_v must not be negative"),
    ("lambda_i", -0.5, "lambda_i must not be negative"),
    ("lambda_j", -50.0, "lambda_j must not be negative"),
    ("target_clamp", (2.0, 0.5), "target_clamp must not have its low end above its high end"),
    *[(name, np.nan, f"{name} must not be negative or NaN")
      for name in ("rtc_deadband", "svr_deadband", "lambda_v", "lambda_i", "lambda_j",
                   "eps_v", "eps_i")],
    ("eps_v", -1.0, "eps_v must not be negative"),
    ("eps_i", -0.01, "eps_i must not be negative"),
    ("tolerance", np.nan, "tolerance must be positive"),
    ("target_clamp", (np.nan, 3.0), "target_clamp must not have a NaN end"),
    ("target_clamp", (0.0, np.nan), "target_clamp must not have a NaN end"),
    *[(name, np.inf, f"{name} must be finite")
      for name in ("tolerance", "rtc_deadband", "svr_deadband", "lambda_v", "lambda_i",
                   "lambda_j", "eps_v", "eps_i")],
])
def test_solver_options_refuse_a_bad_value(field, value, problem):
    # the boundary value is accepted
    SolverOptions(**{field: {"tolerance": 1e-12, "target_clamp": (1.0, 1.0)}.get(field, 0.0)})
    with pytest.raises(ValueError, match=problem):
        SolverOptions(**{field: value})


@pytest.mark.parametrize("field", ["max_inner", "max_outer"])
@pytest.mark.parametrize("value", [np.nan, 2.5, 3.0, True, 0, -1])
def test_solver_options_refuse_a_cap_that_is_not_a_positive_integer(field, value):
    # A NaN max_outer scored every solve outer_cap at round 0, 2.5 ran
    # three rounds and True one; a fractional or NaN max_inner raised
    # inside the solve.
    SolverOptions(**{field: 1})
    with pytest.raises(ValueError, match=f"{field} must be an integer of at least 1"):
        SolverOptions(**{field: value})
