from gridtvc.powerflow import SOLVE_STATUSES

from convergence_census import census


def test_the_census_counts_every_baseline_solve_once():
    got = census(per_split=1)
    assert got["contexts"] == 2
    assert list(got["offsets"]) == ["0.0", "-0.02", "0.02"]
    for counts in got["offsets"].values():
        assert list(counts) == [*SOLVE_STATUSES, "outer_rounds"]
        assert sum(counts[s] for s in SOLVE_STATUSES) == 2
        assert counts["outer_rounds"] > 0
    assert census(per_split=1) == got
