"""The array-native solver against the dense reference in powerflow_reference."""

import copy

import numpy as np
import pytest

import gridtvc.powerflow as pf
from gridtvc.baseline import init_baseline
from gridtvc.estimator import _replace
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.rng import stream

import powerflow_reference as ref

OPTS = pf.SolverOptions()


@pytest.fixture(scope="module")
def contexts():
    spec = GridFamilySpec()
    return [generate_context(spec, stream(0, "val", i), origin=f"val-{i:03d}")
            for i in range(3)]


@pytest.fixture(scope="module")
def capped():
    """val-007, whose offset-0 baseline still hits the outer cap."""
    return generate_context(GridFamilySpec(), stream(0, "val", 7), origin="val-007")


def _states(x):
    """(model, state) pairs: the context's own operating point, the same
    point with one PV bus pinned at its Q limit, and a converged solve."""
    m = pf._GridModel(pf.apply_decision(x, init_baseline(x, 0.0)), OPTS)
    initial = pf._State(m)
    pinned = pf._State(m)
    b = int(np.flatnonzero(m.is_pv)[0])
    pinned.pinned[b], pinned.pinned_q[b] = +1, m.reg_qmax[b]
    pinned.va = pinned.va + 0.01 * np.sin(np.arange(m.n))
    solved = pf._State(m)
    [(failure, _)] = pf._newtons([(m, solved)], OPTS)
    assert failure is None
    return m, (initial, pinned, solved)


def _jacobians(m, st):
    pv, pq, pvpq = ref.bus_types(m, st)
    v = st.vm * np.exp(1j * st.va)
    ybus = m.ybus
    ibus = ybus @ v
    return _jacobian(m, ybus, v, ibus, pvpq, pq), ref.jacobian(ybus, v, ibus, pvpq, pq), (
        pv, pq, pvpq)


def _jacobian(m, ybus, v, ibus, pvpq, pq):
    """The solver's Jacobian of one state, as a stack of one."""
    index = pf._jacobian_index(m.n, pvpq, pq)
    return pf._jacobians(ybus[None], v[None], ibus[None], index,
                         pf._jacobian_layout(m.coupled, index))[0]


def test_jacobian_matches_dense_reference(contexts):
    for x in contexts:
        m, states = _states(x)
        pq_sizes = []
        for st in states:
            new, want, (_, pq, _) = _jacobians(m, st)
            assert new.shape == want.shape
            assert np.max(np.abs(new - want)) <= 1e-12 * np.max(np.abs(want))
            pq_sizes.append(len(pq))
        # the pinned bus left the PV set for the PQ set
        assert pq_sizes[1] == pq_sizes[0] + 1


def test_jacobian_matches_finite_differences(contexts):
    m, (_, pinned, _) = _states(contexts[0])
    jac, _, (pv, pq, pvpq) = _jacobians(m, pinned)
    ybus = m.ybus

    def injections(x):
        va, vm = pinned.va.copy(), pinned.vm.copy()
        va[pvpq] = x[:len(pvpq)]
        vm[pq] = x[len(pvpq):]
        v = vm * np.exp(1j * va)
        s = v * np.conj(ybus @ v)
        return np.concatenate([s.real[pvpq], s.imag[pq]])

    x0 = np.concatenate([pinned.va[pvpq], pinned.vm[pq]])
    h = 1e-6
    fd = np.empty_like(jac)
    for k in range(len(x0)):
        step = np.zeros_like(x0)
        step[k] = h
        fd[:, k] = (injections(x0 + step) - injections(x0 - step)) / (2 * h)
    assert np.max(np.abs(fd - jac)) <= 1e-7 * np.max(np.abs(jac))


def test_batched_sensitivities_match_per_zone_solves(contexts):
    checked = 0
    for x in contexts:
        m, (_, _, solved) = _states(x)
        pq = solved.jac_index[1]
        zones = [z for z in m.zones if z["bus"] in pq]
        w = pf._svr_sensitivities(solved, np.array([z["bus"] for z in zones]))
        pq_pos = {b: k for k, b in enumerate(pq)}
        for k, zone in enumerate(zones):
            want = ref.svr_sensitivity(m, solved, zone)
            got = np.array([w[pq_pos[b], k] if b in pq_pos else 0.0
                            for b in m.gen_bus[zone["units"]]])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            checked += 1
    assert checked >= len(contexts)


def _pinned_pairs(contexts, capped):
    pairs = [(x, init_baseline(x, off)) for x in contexts
             for off in (-0.02, 0.0, 0.02)]
    pairs.append((capped, init_baseline(capped, 0.0)))
    y0 = init_baseline(contexts[0], 0.0)
    for cname in ("line_controller", "shunt_controller"):
        for row in range(2):
            pairs.append((contexts[0], _replace(y0, cname, row, 1)))
    return pairs


def _solve(x, y, monkeypatch):
    """evaluate_objective's result and the solver state behind it."""
    raws = []
    solve_all = pf._solve_all

    def keep(*args):
        raws.extend(solve_all(*args))
        return raws

    with monkeypatch.context() as mp:
        mp.setattr(pf, "_solve_all", keep)
        res = pf.evaluate_objective(x, y, OPTS)
    [(_, st)] = raws
    return res, st


def test_oracle_matches_reference_on_pinned_pairs(contexts, capped, monkeypatch):
    # val-002's offset-0 baseline takes joint dispatch steps and converges
    # past round 20; val-007's still hits the cap.
    pairs = _pinned_pairs(contexts, capped)
    new = [_solve(x, y, monkeypatch) for x, y in pairs]
    ref.swap_in(monkeypatch)
    want = [_solve(x, y, monkeypatch) for x, y in pairs]
    assert [r.converged for r, _ in new] == [r.converged for r, _ in want]
    converged = 0
    for (res, raw), (res_ref, raw_ref) in zip(new, want):
        if not res_ref.converged:
            continue
        converged += 1
        assert (raw.inner, raw.outer) == (raw_ref.inner, raw_ref.outer)
        assert res.total == pytest.approx(res_ref.total, rel=1e-9, abs=0.0)
    assert 0 < converged < len(pairs)


def test_ybus_rebuilt_after_tap_move(contexts):
    m = pf._GridModel(contexts[0], OPTS)
    st = pf._State(m)
    before = st.ybus.copy()
    r = m.rtcs[0]
    r["target"] = st.vm[r["bus"]] + 0.05
    assert pf._rtc_step(m, st, OPTS)
    assert not np.array_equal(st.ybus, before)
    assert np.array_equal(st.ybus, m.assemble_ybus(st.ratio))


def test_reused_newton_setup_matches_a_fresh_build(contexts, capped, monkeypatch):
    # Every Newton call reads the split and gather index kept on the state,
    # and takes its first Jacobian from the previous round when no tap,
    # pin or voltage has changed since.  Both must equal a fresh build.
    newtons, rtc_step, q_limit_switch = pf._newtons, pf._rtc_step, pf._q_limit_switch
    seen = {"reused": 0, "taps": 0, "flips": 0, "moved": False}

    def checked_newtons(pairs, opts):
        # solve_ac solves one context, so each call holds its one state
        [(m, st)] = pairs
        pv, pq, pvpq = ref.bus_types(m, st)
        for kept, fresh in zip(st.jac_index, (pv, pq, pvpq)):
            assert np.array_equal(kept, fresh)
        index = pf._jacobian_index(m.n, pvpq, pq)
        assert np.array_equal(st.index, index)
        for kept, fresh in zip(st.layout, pf._jacobian_layout(m.coupled, index)):
            assert np.array_equal(kept, fresh)
        pq_pos = np.full(m.n, -1)
        pq_pos[pq] = np.arange(len(pq))
        assert np.array_equal(st.pq_pos, pq_pos)
        if st.jac_current:
            assert not seen["moved"]
            seen["reused"] += 1
            # the voltages the first iteration will see, set as Newton sets them
            vm, va = st.vm.copy(), st.va.copy()
            vm[m.slack_bus], va[m.slack_bus] = m.vset[m.slack_bus], 0.0
            vm[pv] = m.vset[pv]
            assert np.array_equal(vm, st.vm) and np.array_equal(va, st.va)
            ybus = m.assemble_ybus(st.ratio)
            v = vm * np.exp(1j * va)
            assert np.array_equal(st.jac, _jacobian(m, ybus, v, ybus @ v, pvpq, pq))
            # and the complex injections the Q-limit check reads from it
            assert np.array_equal(st.s, v * np.conj(ybus @ v))
        seen["moved"] = False
        return newtons(pairs, opts)

    def counted_rtc_step(m, st, opts):
        moved = rtc_step(m, st, opts)
        seen["taps"] += moved
        seen["moved"] |= moved
        return moved

    def counted_q_limit_switch(m, st, opts):
        flipped = q_limit_switch(m, st, opts)
        seen["flips"] += flipped
        seen["moved"] |= flipped
        return flipped

    monkeypatch.setattr(pf, "_newtons", checked_newtons)
    monkeypatch.setattr(pf, "_rtc_step", counted_rtc_step)
    monkeypatch.setattr(pf, "_q_limit_switch", counted_q_limit_switch)
    # val-007's baseline moves taps, then runs all outer rounds on the SVR
    # dispatch alone; val-000's moves taps and flips a Q-limit pin.
    sol = pf.solve_ac(pf.apply_decision(capped, init_baseline(capped, 0.0)))
    assert sol.status == "outer_cap"
    assert seen["taps"] > 0 and seen["reused"] > 0.9 * OPTS.max_outer
    seen.update(taps=0, reused=0)
    sol = pf.solve_ac(pf.apply_decision(contexts[0], init_baseline(contexts[0], 0.0)))
    assert sol.converged and seen["taps"] > 0 and seen["flips"] > 0


def _same(a, b):
    """Equal values; arrays of the same dtype, element by element, NaN
    equal to NaN."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(
            a, b, equal_nan=a.dtype.kind in "fc")
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_a_solve_leaves_its_model_alone(contexts, monkeypatch):
    # val-000's baseline moves taps and flips a Q-limit pin, so a solve
    # that kept its taps, Ybus or pins on the model would show here.
    x = contexts[0]
    y = init_baseline(x, 0.0)
    m = pf._GridModel(pf.apply_decision(x, y), OPTS)
    before = copy.deepcopy(vars(m))
    monkeypatch.setattr(pf, "_GridModel", lambda *_: m)
    first = pf.evaluate_objective(x, y, OPTS)
    assert pf.evaluate_objective(x, y, OPTS) == first
    assert vars(m).keys() == before.keys()
    for name, value in before.items():
        assert _same(vars(m)[name], value), name
