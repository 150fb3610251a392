"""tune_baseline_offset's best-first search against the exhaustive and reference searches."""

from types import SimpleNamespace

import numpy as np
import pytest

from baseline_reference import pruned_chain_search
from gridtvc import baseline
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.h2mg import H2MGError
from gridtvc.rng import stream

GRID = np.round(np.arange(-0.03, 0.0301, 0.005), 10)
PROHIBITIVE = 100.0


def exhaustive(table, converged):
    """The offset search that evaluates every offset on every context."""
    best_offset, best_cost = None, None
    for offset in sorted(GRID.tolist(), key=lambda o: (abs(o), -o)):
        mean_cost = float(np.mean(table[offset]))
        if best_cost is None or mean_cost < best_cost - 1e-12:
            best_offset, best_cost = offset, mean_cost
    if not any(any(row) for row in converged.values()):
        raise H2MGError("baseline evaluation never converged; cannot tune offset")
    return best_offset


def tables(seed, n):
    """Seeded (cost, converged) tables over the offset grid and n contexts.

    Failed evaluations cost the prohibitive value; some offsets fail on
    every context, and some repeat another offset's costs exactly (ties).
    """
    rng = np.random.default_rng(seed)
    table, converged = {}, {}
    offsets = GRID.tolist()
    for k, offset in enumerate(offsets):
        kind = rng.integers(0, 4)
        if kind == 0:                                   # fails everywhere
            ok = np.zeros(n, dtype=bool)
        else:
            ok = rng.random(n) < rng.uniform(0.3, 1.0)
        costs = np.where(ok, rng.exponential(rng.choice([0.01, 1.0, 30.0]), n),
                         PROHIBITIVE)
        if kind == 1 and k > 0:                         # ties an earlier offset
            prev = offsets[rng.integers(0, k)]
            costs, ok = table[prev].copy(), converged[prev].copy()
        table[offset], converged[offset] = costs, ok
    return table, converged


def run_pruned(monkeypatch, table, converged, search=None, grid=GRID):
    calls = []

    def evaluate_objective(x, offset, opts):
        calls.append((offset, x))
        return SimpleNamespace(total=float(table[offset][x]),
                               converged=bool(converged[offset][x]))

    monkeypatch.setattr(baseline, "init_baseline", lambda x, offset: offset)
    monkeypatch.setattr(baseline, "evaluate_objective", evaluate_objective)
    n = len(next(iter(table.values())))
    search = search or baseline.tune_baseline_offset
    return search(list(range(n)), grid=grid), calls


def test_pruned_search_returns_the_exhaustive_offset(monkeypatch):
    pruned = 0
    for seed in range(40):
        n = 3 + seed % 18
        table, converged = tables(seed, n)
        got, calls = run_pruned(monkeypatch, table, converged)
        assert got == exhaustive(table, converged), seed
        assert len(set(calls)) == len(calls) <= len(GRID) * n
        pruned += len(calls) < len(GRID) * n
    assert pruned > 20


def test_pruning_skips_offsets_that_cannot_win(monkeypatch):
    n = 10
    table = {o: np.full(n, 1.0 + abs(o)) for o in GRID.tolist()}
    table[0.0] = np.full(n, 0.5)                       # evaluated first, best
    converged = {o: np.ones(n, dtype=bool) for o in GRID.tolist()}
    got, calls = run_pruned(monkeypatch, table, converged)
    assert got == 0.0
    # every later offset stops once its sum passes 10 * 0.5: after 5 contexts
    assert len(calls) == n + (len(GRID) - 1) * 5


def test_exact_ties_keep_the_smaller_magnitude(monkeypatch):
    n = 7
    table = {o: np.full(n, 2.0) for o in GRID.tolist()}
    for o in (0.01, -0.01, -0.02):
        table[o] = np.full(n, 0.25)
    converged = {o: np.ones(n, dtype=bool) for o in GRID.tolist()}
    got, _ = run_pruned(monkeypatch, table, converged)
    assert got == exhaustive(table, converged) == 0.01


def test_nothing_converging_raises_like_the_exhaustive_search(monkeypatch):
    n = 6
    table = {o: np.full(n, PROHIBITIVE) for o in GRID.tolist()}
    converged = {o: np.zeros(n, dtype=bool) for o in GRID.tolist()}
    with pytest.raises(H2MGError, match="never converged"):
        exhaustive(table, converged)
    with pytest.raises(H2MGError, match="never converged"):
        run_pruned(monkeypatch, table, converged)


def test_best_first_matches_the_reference_with_no_more_solves(monkeypatch):
    ours, theirs = 0, 0
    for seed in range(40):
        n = 3 + seed % 18
        table, converged = tables(seed, n)
        got, calls = run_pruned(monkeypatch, table, converged)
        ref, ref_calls = run_pruned(monkeypatch, table, converged, pruned_chain_search)
        assert got == ref == exhaustive(table, converged), seed
        assert len(calls) <= len(ref_calls), seed
        ours, theirs = ours + len(calls), theirs + len(ref_calls)
    assert ours < theirs


@pytest.mark.parametrize("converging", [(0.0, 0), (0.03, 3)])
@pytest.mark.parametrize("steps, winner", [((0.6e-12, 1.2e-12), -0.03),
                                           ((0.6e-12, 0.9e-12), 0.0)])
def test_a_non_transitive_near_tie_chain_keeps_the_exhaustive_pick(
        monkeypatch, converging, steps, winner):
    # Means below 1e-3; canonical order visits 0.0, then -0.02, then -0.03
    # (last of all).  -0.02 sits 0.6e-12 below 0.0 and never replaces it.
    # -0.03 sits 1.2e-12 below 0.0 and wins, or 0.9e-12 below: then 0.0
    # wins although -0.03 has the lowest mean, by more than a relative 1e-9.
    # One pair in the whole grid converges, on the first or on a losing
    # offset's last context.
    n = 4
    table = {o: np.full(n, 9e-4) for o in GRID.tolist()}
    table[0.0] = np.full(n, 5e-4)
    table[-0.02] = np.full(n, 5e-4 - steps[0])
    table[-0.03] = np.full(n, 5e-4 - steps[1])
    converged = {o: np.zeros(n, dtype=bool) for o in GRID.tolist()}
    offset, k = converging
    converged[offset][k] = True
    got, calls = run_pruned(monkeypatch, table, converged)
    ref, _ = run_pruned(monkeypatch, table, converged, pruned_chain_search)
    assert got == ref == exhaustive(table, converged) == winner
    assert (offset, k) in calls


def test_a_list_or_tuple_grid_is_read_as_an_array(monkeypatch):
    table, converged = tables(7, 5)
    want = run_pruned(monkeypatch, table, converged)
    for grid in (GRID.tolist(), tuple(GRID.tolist())):
        assert run_pruned(monkeypatch, table, converged, grid=grid) == want


@pytest.mark.parametrize("grid", [[], np.array([]), 0.01, [[0.0, 0.01]]])
def test_an_empty_or_non_1d_grid_raises_value_error(monkeypatch, grid):
    table, converged = tables(7, 5)
    with pytest.raises(ValueError, match="grid"):
        run_pruned(monkeypatch, table, converged, grid=grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_offset_raises_value_error(monkeypatch, bad):
    table, converged = tables(7, 5)
    with pytest.raises(ValueError, match="finite"):
        run_pruned(monkeypatch, table, converged, grid=[0.0, bad])


def test_a_duplicated_offset_is_searched_once(monkeypatch):
    n = 6
    table, converged = tables(11, n)
    want, calls = run_pruned(monkeypatch, table, converged)
    twice = np.concatenate([GRID[::-1], GRID])
    got, dup_calls = run_pruned(monkeypatch, table, converged, grid=twice)
    assert got == want
    assert dup_calls == calls


def test_real_oracle_picks_the_reference_offset_with_fewer_solves(monkeypatch):
    xs = [generate_context(GridFamilySpec(), stream(0, "val", i))
          for i in range(6)]
    solves = []
    solve = baseline.evaluate_objective

    def counting(x, y, opts):
        solves.append(x)
        return solve(x, y, opts)

    monkeypatch.setattr(baseline, "evaluate_objective", counting)
    got = baseline.tune_baseline_offset(xs)
    ours = len(solves)
    solves.clear()
    assert got == pruned_chain_search(xs)
    assert ours < len(solves)
