from gridtvc.powerflow import SOLVE_STATUSES

from oracle_replay import replay


def test_the_replay_scores_every_sample_decision_the_same_both_ways():
    # train-000's mode decision does not converge, so it samples nothing
    got = replay(contexts=2)
    assert got["contexts"] == 2 and got["calls"] > 0
    assert got["identical"] is True
    assert set(got["statuses"]) <= set(SOLVE_STATUSES)
    assert sum(got["statuses"].values()) == got["calls"]
    assert got["solo_s"] > 0 and got["batched_s"] > 0
