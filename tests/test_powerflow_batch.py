"""Decisions scored together by ``evaluate_objectives`` keep the bits they get alone."""

import dataclasses

import numpy as np
import pytest

import gridtvc.powerflow as pf
from gridtvc.baseline import init_baseline
from gridtvc.estimator import _replace
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.h2mg import H2MGContext, paired_decision
from gridtvc.powerflow import SOLVE_STATUSES, evaluate_objective, evaluate_objectives
from gridtvc.rng import stream

from gridfixtures import bus, edge, gen, line, load


def _spelled(res):
    """Every field of a record, floats by ``float.hex`` and arrays by dtype,
    shape and bytes, so equal spellings mean equal bits."""
    def spell(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, np.ndarray):
            return str(value.dtype), value.shape, value.tobytes()
        return value
    return {f.name: spell(getattr(res, f.name)) for f in dataclasses.fields(res)}


def _val7_decisions():
    """val-007 and decisions on it: the offset-0 baseline, which hits the
    outer cap; offset -0.3, whose Newton fails after a flat-start retry;
    offset +0.3, which moves taps and pins two PV buses; each of its four
    lines opened; and its first and fourth shunts switched."""
    x = generate_context(GridFamilySpec(), stream(0, "val", 7), origin="val-007")
    y0 = init_baseline(x, 0.0)
    ys = [y0, init_baseline(x, -0.3), init_baseline(x, 0.3)]
    ys += [_replace(y0, "line_controller", row, 1) for row in range(4)]
    ys += [_replace(y0, "shunt_controller", row, 1) for row in (0, 3)]
    return x, ys


def _severable_grid():
    """A slack bus feeding one load through a line that a controller can
    open, which leaves the load islanded: the Jacobian is singular."""
    return H2MGContext(5, {
        "bus": (bus(0, 0), bus(1, 1)),
        "line": (line(0, 2, 0, 1, 0.01, 0.1),),
        "line_controller": (edge("lc_0", "line_controller", {"line": 2}),),
        "generator": (gen(0, 3, 0, slack=1.0),),
        "load": (load(0, 1, 0.5, 0.2),),
    })


@pytest.fixture(scope="module")
def cases():
    x, ys = _val7_decisions()
    grid = _severable_grid()
    return [(x, ys, [evaluate_objective(x, y) for y in ys]),
            (grid, [paired_decision(grid, {"line_controller": [k]}) for k in (1, 0, 1)],
             None)]


def test_the_cases_cover_every_status(cases):
    (x, ys, alone), (grid, grid_ys, _) = cases
    statuses = [r.status for r in alone] + [r.status for r in evaluate_objectives(grid, grid_ys)]
    assert set(statuses) == set(SOLVE_STATUSES)
    # the flat-start retry, and solves whose PV/PQ split changes mid-batch
    assert any(r.restarts for r in alone)
    [(m, st)] = pf._solve_all([pf.apply_decision(x, ys[2])], pf.SolverOptions())
    assert (st.pinned != 0).any() and st.tap != [r["tap"] for r in m.rtcs]


@pytest.mark.parametrize("order", ["as drawn", "reversed", "in two halves"])
def test_a_decision_scores_the_same_bits_in_any_batch(cases, order):
    for x, ys, alone in cases:
        if alone is None:
            alone = [evaluate_objective(x, y) for y in ys]
        idx = list(range(len(ys)))
        if order == "reversed":
            idx.reverse()
        batches = [idx[:len(idx) // 2], idx[len(idx) // 2:]] if order == "in two halves" \
            else [idx]
        for batch in batches:
            together = evaluate_objectives(x, [ys[k] for k in batch])
            assert len(together) == len(batch)
            for k, res in zip(batch, together):
                assert _spelled(res) == _spelled(alone[k]), k


def test_a_solve_leaves_the_batch_when_it_ends(cases, monkeypatch):
    # Four solves hit the outer cap at round 100; the others end sooner, and
    # later Newton calls stack only the solves still running.  A round
    # whose Newton fails for some state makes one more call, the flat-start
    # retry of those states.
    x, ys, alone = cases[0]
    calls = []
    newtons = pf._newtons

    def counted(pairs, opts):
        calls.append([(st, st.restarts) for _, st in pairs])
        return newtons(pairs, opts)

    monkeypatch.setattr(pf, "_newtons", counted)
    evaluate_objectives(x, ys)
    assert all(calls)
    # a retry call holds only states that have restarted since their last call
    rounds, retries, last = [], 0, {}
    for call in calls:
        if all(id(st) in last and n > last[id(st)] for st, n in call):
            retries += 1
        else:
            rounds.append(len(call))
        last.update((id(st), n) for st, n in call)
    capped = sum(r.status == "outer_cap" for r in alone)
    assert rounds[0] == len(ys) and rounds[-1] == capped == 4
    assert rounds == sorted(rounds, reverse=True)
    # one call per round of the longest solve: a solve that did not converge
    # also ran Newton after its last round of control loops
    assert len(rounds) == max(r.outer + (r.status != "converged") for r in alone)
    assert 1 <= retries <= sum(r.restarts for r in alone)


def test_an_empty_batch_scores_nothing():
    x, _ = _val7_decisions()
    assert evaluate_objectives(x, []) == []


def test_a_state_keeps_its_own_injections_when_another_stops_beside_it():
    # Both states share a split, so their Newton solves stack; the first
    # stops at iteration 0 on a non-finite mismatch, the second converges
    # there, after the stack dropped the first row.
    x = generate_context(GridFamilySpec(), stream(0, "val", 0), origin="val-000")
    opts = pf.SolverOptions()
    m = pf._GridModel(pf.apply_decision(x, init_baseline(x, 0.0)), opts)
    converged, broken = pf._State(m), pf._State(m)
    pf._newtons([(m, converged)], opts)
    broken.va = np.full(m.n, np.nan)
    with np.errstate(invalid="ignore"):
        got = pf._newtons([(m, broken), (m, converged)], opts)
    assert got == [("newton_failed", 0), (None, 0)]
    v = converged.vm * np.exp(1j * converged.va)
    assert np.array_equal(converged.s, v * np.conj(converged.ybus @ v))


@pytest.mark.parametrize("max_outer", [1, 2, pf.JOINT_FROM_ROUND + 1])
def test_the_round_loop_stops_a_moving_solve_at_the_outer_cap(cases, max_outer):
    x, ys, uncapped = cases[0]
    opts = pf.SolverOptions(max_outer=max_outer)
    alone = [evaluate_objective(x, y, opts) for y in ys]
    together = evaluate_objectives(x, ys, opts)
    assert [_spelled(r) for r in together] == [_spelled(r) for r in alone]
    for res, full in zip(together, uncapped):
        assert res.outer <= max_outer
        if full.outer <= max_outer:
            # a solve that ends within the cap ends as it does under the default one
            assert _spelled(res) == _spelled(full)
        else:
            assert (res.status, res.outer) == ("outer_cap", max_outer) and res.moving
    assert any(r.status == "outer_cap" for r in together)
