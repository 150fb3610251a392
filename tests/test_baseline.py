"""tune_baseline_offset's early stop against the exhaustive search."""

from types import SimpleNamespace

import numpy as np
import pytest

from gridtvc import baseline
from gridtvc.h2mg import H2MGError

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


def run_pruned(monkeypatch, table, converged):
    calls = []

    def evaluate_objective(x, offset, opts):
        calls.append((offset, x))
        return SimpleNamespace(total=float(table[offset][x]),
                               converged=bool(converged[offset][x]))

    monkeypatch.setattr(baseline, "init_baseline", lambda x, offset: offset)
    monkeypatch.setattr(baseline, "evaluate_objective", evaluate_objective)
    n = len(next(iter(table.values())))
    return baseline.tune_baseline_offset(list(range(n)), grid=GRID), calls


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
