import math
from types import SimpleNamespace

import numpy as np
import pytest

from gridtvc import policy
from gridtvc import rng as grng
from gridtvc.estimator import ESTIMATE_STATUSES, EstimatorConfig, clip_score, estimate_gradient
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.h2mg import SCHEMA, Decision, SurrogateDecision
from gridtvc.policy import PolicyConfig
from gridtvc.powerflow import SolverOptions, evaluate_objective

from estimator_reference import exact_gradient_oracle, raw_gradient_estimate
from gridfixtures import binary_controller_grid, shunt_overvoltage_grid, two_bus

PCFG = PolicyConfig()


def oracle(x, y):
    return evaluate_objective(x, y, SolverOptions())


def surrogate(x, values):
    return SurrogateDecision.paired(x, values)


# -- clip_score ---------------------------------------------------------------

def test_clip_score_values():
    assert clip_score(3.0, 3.0, 0.1) == 0.0
    assert clip_score(1.1, 1.0, 0.1) == pytest.approx(math.tanh(1.0))
    assert clip_score(1.1, 1.0, 0.1) == pytest.approx(0.761594, abs=1e-6)
    assert abs(clip_score(100.0, 1.0, 0.1) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        clip_score(0.0, 0.0, 0.0)


# -- estimate_gradient --------------------------------------------------------

def test_zero_controllers_empty_gradient_one_oracle_call():
    x = two_bus()
    calls = []

    def counting(xc, y):
        calls.append(y)
        return oracle(xc, y)

    z = SurrogateDecision({})
    est = estimate_gradient(x, z, EstimatorConfig(), counting,
                            grng.stream(0), PCFG)
    assert est.converged
    assert est.grads == {}
    assert len(calls) == 1  # the reference cost only


def test_improving_flip_gets_negative_gradient_sign():
    # disconnecting the capacitor removes the only over-voltage, so descent
    # must push the switch logit up: the estimate is negative at z=0 where
    # the entropy term vanishes.
    x = shunt_overvoltage_grid()
    z = surrogate(x, {"shunt_controller": {"sc_0": np.zeros(1)}})
    f_keep = oracle(x, Decision.paired(x, {"shunt_controller": {"sc_0": 0}})).total
    f_flip = oracle(x, Decision.paired(x, {"shunt_controller": {"sc_0": 1}})).total
    assert f_flip < f_keep
    negatives = 0
    for seed in range(200):
        est = estimate_gradient(x, z, EstimatorConfig(), oracle,
                                grng.stream("sign", seed), PCFG)
        assert est.converged
        negatives += est.grads["shunt_controller"]["sc_0"][0] < 0
    # one-sided binomial: 200 successes out of 200 is far below p=0.01
    assert negatives == 200


def test_entropy_only_gradient_when_beta_zero():
    x = shunt_overvoltage_grid()
    z = surrogate(x, {"shunt_controller": {"sc_0": np.array([0.7])}})
    cfg = EstimatorConfig(beta=0.0)
    est = estimate_gradient(x, z, cfg, oracle, grng.stream(1), PCFG)
    expected = -policy.entropy_grad("shunt_controller", np.array([0.7]), PCFG)
    assert est.grads["shunt_controller"]["sc_0"] == pytest.approx(expected)


def test_null_gradient_contract_on_divergent_mode():
    x = binary_controller_grid(n_shunts=2)
    heavy = x.replace_features({("load", "load_0"): {"p_target": 30.0,
                                                     "q_target": 10.0}})
    ids = heavy.controller_ids()["shunt_controller"]
    z = surrogate(heavy, {"shunt_controller": {i: np.array([0.3]) for i in ids}})
    est = estimate_gradient(heavy, z, EstimatorConfig(), oracle,
                            grng.stream(2), PCFG)
    assert not est.converged
    assert est.f_ref == 100.0
    for i in ids:
        assert np.all(est.grads["shunt_controller"][i] == 0.0)


def test_failing_oracle_sample_scored_prohibitive():
    x = shunt_overvoltage_grid()
    z = surrogate(x, {"shunt_controller": {"sc_0": np.zeros(1)}})

    def flaky(xc, y):
        if y.get("shunt_controller", "sc_0") == 1:
            raise RuntimeError("solver crashed")
        return oracle(xc, y)

    est = estimate_gradient(x, z, EstimatorConfig(), flaky, grng.stream(3), PCFG)
    assert est.converged  # the reference converged; samples were scored 100
    # all samples are the flip, all scored 100 -> clip saturates at +1
    f_ref = est.f_ref
    expected = (-policy.entropy_grad("shunt_controller", np.zeros(1), PCFG)
                + EstimatorConfig().beta
                * math.tanh((100.0 - f_ref) / 0.1)
                * policy.log_prob_grad("shunt_controller", 1, np.zeros(1), PCFG))
    assert est.grads["shunt_controller"]["sc_0"] == pytest.approx(expected)


def test_estimate_deterministic_per_stream():
    x = binary_controller_grid(3)
    ids = x.controller_ids()["shunt_controller"]
    z = surrogate(x, {"shunt_controller": {i: np.array([0.2]) for i in ids}})
    e1 = estimate_gradient(x, z, EstimatorConfig(), oracle, grng.stream(4), PCFG)
    e2 = estimate_gradient(x, z, EstimatorConfig(), oracle, grng.stream(4), PCFG)
    for i in ids:
        assert np.array_equal(e1.grads["shunt_controller"][i],
                              e2.grads["shunt_controller"][i])


@pytest.mark.parametrize("samples, named", [
    ({"line_controler": 4}, "line_controler"),
    ({"line_controller": 0}, "line_controller"),
    ({"shunt_controller": 2.5}, "shunt_controller"),
    ({"svr_controller": True}, "svr_controller"),
])
def test_config_rejects_unknown_classes_and_bad_counts(samples, named):
    with pytest.raises(ValueError, match=named):
        EstimatorConfig(samples=samples)


def test_svr_class_sampled_jointly_and_gradient_finite():
    from gridfixtures import bus, edge, gen, line, load
    from gridtvc.h2mg import H2MGContext
    zone = edge("zone_0", "svr_zone", {"zone": 5, "regulated_bus": 1},
                v=1.0, theta=0.0, v_nom=1.0, v_target=1.0)
    unit = edge("unit_0", "svr_unit", {"gen": 7, "zone": 5}, participate=1.0)
    ctrl = edge("vc_0", "svr_controller", {"zone": 5})
    x = H2MGContext(8, {
        "bus": (bus(0, 0), bus(1, 1), bus(2, 2)),
        "line": (line(0, 3, 0, 1, 0.01, 0.08), line(1, 4, 1, 2, 0.01, 0.08)),
        "svr_zone": (zone,), "svr_unit": (unit,), "svr_controller": (ctrl,),
        "generator": (gen(0, 6, 0, slack=1.0),
                      gen(1, 7, 2, p=0.1, qmin=-1.0, qmax=1.0, mode=0.0)),
        "load": (load(0, 2, 0.3, 0.1),),
    })
    z = surrogate(x, {"svr_controller": {"vc_0": np.array([0.01])}})
    est = estimate_gradient(x, z, EstimatorConfig(), oracle, grng.stream(5), PCFG)
    assert est.converged
    assert np.all(np.isfinite(est.grads["svr_controller"]["vc_0"]))


# -- exact oracle -------------------------------------------------------------

def constant_oracle(total=3.0):
    def f(x, y):
        return SimpleNamespace(total=total, converged=True)
    return f


def test_oracle_constant_cost_reduces_to_entropy_gradient():
    x = binary_controller_grid(2)
    ids = x.controller_ids()["shunt_controller"]
    rng = np.random.default_rng(0)
    z = surrogate(x, {"shunt_controller": {i: rng.uniform(-1, 1, 1)
                                           for i in ids}})
    res = exact_gradient_oracle(x, z, beta=0.5, oracle=constant_oracle(3.0),
                                policy_cfg=PCFG)
    for i in ids:
        expected = -policy.entropy_grad("shunt_controller",
                                        z.get("shunt_controller", i), PCFG)
        assert res.grads["shunt_controller"][i] == pytest.approx(expected,
                                                                 abs=1e-12)


def test_oracle_matches_finite_differences_of_enumerated_objective():
    x = binary_controller_grid(2)
    ids = sorted(x.controller_ids()["shunt_controller"])
    beta = 0.05
    z_vals = {ids[0]: np.array([0.4]), ids[1]: np.array([-0.3])}
    z = surrogate(x, {"shunt_controller": z_vals})

    # cache the 4 decisions once; both routes see the same costs
    cache = {}

    def cached(xc, y):
        key = tuple(y.get("shunt_controller", i) for i in ids)
        if key not in cache:
            cache[key] = oracle(xc, y)
        return cache[key]

    res = exact_gradient_oracle(x, z, beta, cached, PCFG)

    def phi(zmap):
        # independent enumeration of -H + beta * E[f]
        total_h = sum(policy.entropy("shunt_controller", zmap[i], PCFG)
                      for i in ids)
        exp_f = 0.0
        for y0 in (0, 1):
            for y1 in (0, 1):
                p = math.exp(
                    policy.log_prob("shunt_controller", y0, zmap[ids[0]], PCFG)
                    + policy.log_prob("shunt_controller", y1, zmap[ids[1]], PCFG))
                y = Decision.paired(x, {"shunt_controller": {ids[0]: y0,
                                                             ids[1]: y1}})
                exp_f += p * cached(x, y).total
        return -total_h + beta * exp_f

    eps = 1e-6
    for i in ids:
        zp = {k: v.copy() for k, v in z_vals.items()}
        zm = {k: v.copy() for k, v in z_vals.items()}
        zp[i][0] += eps
        zm[i][0] -= eps
        fd = (phi(zp) - phi(zm)) / (2 * eps)
        assert res.grads["shunt_controller"][i][0] == pytest.approx(fd, abs=1e-8)


def test_oracle_kl_nonnegative():
    x = binary_controller_grid(3)
    ids = x.controller_ids()["shunt_controller"]
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = surrogate(x, {"shunt_controller": {i: rng.uniform(-2, 2, 1)
                                               for i in ids}})
        res = exact_gradient_oracle(x, z, beta=0.1, oracle=oracle,
                                    policy_cfg=PCFG)
        assert res.kl >= -1e-12


def test_oracle_space_cap():
    x = binary_controller_grid(3)
    ids = x.controller_ids()["shunt_controller"]
    z = surrogate(x, {"shunt_controller": {i: np.zeros(1) for i in ids}})
    with pytest.raises(ValueError):
        exact_gradient_oracle(x, z, 0.1, oracle, PCFG, max_space=4)


# -- raw estimator ------------------------------------------------------------

def test_zero_mean_score_property():
    # with a constant cost, the expectation term has zero mean
    x = binary_controller_grid(2)
    ids = sorted(x.controller_ids()["shunt_controller"])
    z = surrogate(x, {"shunt_controller": {ids[0]: np.array([0.6]),
                                           ids[1]: np.array([-0.2])}})
    grads, stderr = raw_gradient_estimate(
        x, z, beta=1.0, n_samples=100_000, oracle=constant_oracle(2.0),
        rng=grng.stream("zeromean"), policy_cfg=PCFG)
    for i in ids:
        ent = -policy.entropy_grad("shunt_controller",
                                   z.get("shunt_controller", i), PCFG)
        resid = grads["shunt_controller"][i] - ent
        assert np.all(np.abs(resid) <= 3 * stderr["shunt_controller"][i] + 1e-12)


def test_raw_estimator_consistent_with_oracle_small():
    x = binary_controller_grid(2)
    ids = sorted(x.controller_ids()["shunt_controller"])
    z = surrogate(x, {"shunt_controller": {ids[0]: np.array([0.3]),
                                           ids[1]: np.array([-0.5])}})
    cache = {}

    def cached(xc, y):
        key = tuple(y.get("shunt_controller", i) for i in ids)
        if key not in cache:
            cache[key] = oracle(xc, y)
        return cache[key]

    exact = exact_gradient_oracle(x, z, beta=0.1, oracle=cached, policy_cfg=PCFG)
    grads, stderr = raw_gradient_estimate(
        x, z, beta=0.1, n_samples=40_000, oracle=cached,
        rng=grng.stream("mc"), policy_cfg=PCFG)
    for i in ids:
        diff = np.abs(grads["shunt_controller"][i]
                      - exact.grads["shunt_controller"][i])
        assert np.all(diff <= 3 * stderr["shunt_controller"][i] + 1e-12)


# -- mode status --------------------------------------------------------------

def test_estimate_reports_the_mode_decision_status():
    # A zero network output makes the baseline decision the mode; on this
    # context it hits the outer-loop cap.
    x = generate_context(GridFamilySpec(), grng.stream(0, "val", 2), origin="val-002")
    z = policy.apply_offsets(SurrogateDecision(
        {c: {eid: np.zeros(SCHEMA[c].decision_dim) for eid in ids}
         for c, ids in x.controller_ids().items()}), x, PCFG)
    assert oracle(x, policy.most_probable(z)).status == "outer_cap"
    est = estimate_gradient(x, z, EstimatorConfig(), oracle, grng.stream(6), PCFG)
    assert not est.converged and est.status == "outer_cap"

    def broken(xc, y):
        raise RuntimeError("solver crashed")

    est = estimate_gradient(x, z, EstimatorConfig(), broken, grng.stream(6), PCFG)
    assert not est.converged and est.status == "error"
    ok = shunt_overvoltage_grid()
    z_ok = surrogate(ok, {"shunt_controller": {"sc_0": np.zeros(1)}})
    est = estimate_gradient(ok, z_ok, EstimatorConfig(), oracle, grng.stream(6), PCFG)
    assert est.converged and est.status == "converged"


# -- one oracle call per distinct sample ---------------------------------------

class _RecordingRng:
    """A generator that keeps every batch of unary-neighbour picks it draws."""

    def __init__(self, rng):
        self.rng, self.picks = rng, []

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.picks.append(out.tolist())
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_each_distinct_sample_decision_is_scored_once():
    # A zero network output makes the baseline the mode; on val-000 it
    # converges, and every controller class is present.
    x = generate_context(GridFamilySpec(), grng.stream(0, "val", 0), origin="val-000")
    z = policy.apply_offsets(SurrogateDecision(
        {c: {eid: np.zeros(SCHEMA[c].decision_dim) for eid in ids}
         for c, ids in x.controller_ids().items()}), x, PCFG)
    calls = []

    def counting(xc, y):
        calls.append(y)
        return oracle(xc, y)

    cfg = EstimatorConfig()
    rng = _RecordingRng(grng.stream(7))
    est = estimate_gradient(x, z, cfg, counting, rng, PCFG)
    assert est.converged
    # each discrete class draws one batch of picks among distinct unary
    # neighbours; continuous (svr) samples are all distinct
    assert len(rng.picks) == 3
    distinct = sum(len(set(p)) for p in rng.picks) + cfg.samples["svr_controller"]
    assert sum(len(p) for p in rng.picks) > sum(len(set(p)) for p in rng.picks)
    assert len(calls) == 1 + distinct
    assert calls[0] == policy.most_probable(z)
    assert len({repr(sorted((c, sorted(v.items())) for c, v in y.values.items()))
                for y in calls}) == len(calls)
    again = estimate_gradient(x, z, cfg, oracle, grng.stream(7), PCFG)
    for c, per in est.grads.items():
        for eid, g in per.items():
            assert np.array_equal(g, again.grads[c][eid])


# -- sample statuses -----------------------------------------------------------

def test_sample_statuses_count_every_distinct_sample_call():
    x = generate_context(GridFamilySpec(), grng.stream(0, "val", 0), origin="val-000")
    z = policy.apply_offsets(SurrogateDecision(
        {c: {eid: np.zeros(SCHEMA[c].decision_dim) for eid in ids}
         for c, ids in x.controller_ids().items()}), x, PCFG)
    calls = []

    def counting(xc, y):
        calls.append(oracle(xc, y))
        return calls[-1]

    est = estimate_gradient(x, z, EstimatorConfig(), counting, grng.stream(8), PCFG)
    assert est.converged
    assert est.sample_status.keys() == set(ESTIMATE_STATUSES)
    # the first call scores the mode decision
    assert sum(est.sample_status.values()) == len(calls) - 1
    assert est.sample_status == {s: sum(r.status == s for r in calls[1:])
                                 for s in ESTIMATE_STATUSES}
    failed = sum(r.total >= EstimatorConfig().prohibitive_cost for r in calls[1:])
    assert est.prohibitive_share == failed / (len(calls) - 1)


def test_failing_oracle_samples_give_prohibitive_share_one():
    x = binary_controller_grid(3)
    ids = x.controller_ids()["shunt_controller"]
    z = surrogate(x, {"shunt_controller": {i: np.array([-0.2]) for i in ids}})
    mode = policy.most_probable(z)

    def failing(xc, y):
        if y != mode:
            raise RuntimeError("solver crashed")
        return oracle(xc, y)

    est = estimate_gradient(x, z, EstimatorConfig(), failing, grng.stream(9), PCFG)
    assert est.converged
    assert est.prohibitive_share == 1.0
    assert est.sample_status["error"] == sum(est.sample_status.values()) > 0
