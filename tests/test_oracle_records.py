import json

import pytest

from gridtvc.baseline import init_baseline
from gridtvc.powerflow import SOLVE_STATUSES, evaluate_objective

from oracle_digest import OFFSETS, context_set
from oracle_records import census, compare, read, records


def test_records_hold_every_census_solve(tmp_path):
    got = records(1)
    assert [(r["origin"], r["offset"]) for r in got] == [
        (origin, offset) for offset in OFFSETS for origin in ("val-000", "g-000")]
    x = context_set(1)[1]
    r = evaluate_objective(x, init_baseline(x, OFFSETS[2]))
    assert got[5] == {"origin": "g-000", "offset": OFFSETS[2], "status": r.status,
                      "inner": r.inner, "outer": r.outer, "restarts": r.restarts,
                      "total": r.total.hex()}
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in got))
    assert read(path) == got
    assert compare(got, got) == {"solves": 6, "changed": 0, "max_rel_total": 0.0}


def test_compare_counts_changed_solves_and_the_largest_moved_total():
    def rec(origin, status="converged", outer=3, total=2.0):
        return {"origin": origin, "offset": 0.0, "status": status, "inner": 9,
                "outer": outer, "restarts": 0, "total": total.hex()}

    parent = [rec("a"), rec("b"), rec("c"), rec("d", "outer_cap", 100, 100.0)]
    change = [rec("a", total=2.0 * (1 + 1e-12)), rec("b", outer=4),
              rec("c", total=2.0 * (1 - 3e-13)), rec("d", "outer_cap", 100, 100.0),
              rec("e")]
    got = compare(parent, change)
    # b moved a count and e has no parent record; only a and c's totals count
    assert (got["solves"], got["changed"]) == (5, 2)
    assert got["max_rel_total"] == pytest.approx(1e-12, rel=1e-3)


def test_the_census_counts_every_baseline_solve_once():
    got = census(records(1))
    assert got["contexts"] == 2
    assert list(got["offsets"]) == ["0.0", "-0.02", "0.02"]
    for counts in got["offsets"].values():
        assert list(counts) == [*SOLVE_STATUSES, "outer_rounds"]
        assert sum(counts[s] for s in SOLVE_STATUSES) == 2
        assert counts["outer_rounds"] > 0
    assert census(records(1)) == got
