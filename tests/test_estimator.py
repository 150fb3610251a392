import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gridtvc import policy
from gridtvc import rng as grng
from gridtvc.estimator import (
    DEFAULT_SAMPLES, ESTIMATE_STATUSES, EstimatorConfig, _replace, clip_score,
    estimate_gradient)
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.h2mg import CONTROLLER_CLASSES, SCHEMA, paired_decision
from gridtvc.policy import PolicyConfig
from gridtvc.powerflow import PROHIBITIVE_COST, SolverOptions, evaluate_objective

import policy_reference
from estimator_reference import exact_gradient_oracle, raw_gradient_estimate
from gridfixtures import binary_controller_grid, meshed_grid, shunt_overvoltage_grid, two_bus

PCFG = PolicyConfig()


def oracle(x, y):
    return evaluate_objective(x, y, SolverOptions())


def surrogate(values):
    """A surrogate decision: one float array per controller class."""
    return {c: np.asarray(v, dtype=float) for c, v in values.items()}


def zero_output(x):
    """The surrogate a zero network output gives: the baseline is its mode."""
    return policy.apply_offsets({
        c: np.zeros((len(x.edges_of(c)), SCHEMA[c].decision_dim))
        for c in CONTROLLER_CLASSES}, x, PCFG)


def entropy_term(cname, z):
    return -policy.entropy_grad(cname, np.asarray(z, dtype=float).reshape(-1, 1))


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

    z = {}
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
    z = surrogate({"shunt_controller": np.zeros((1, 1))})
    f_keep = oracle(x, paired_decision(x, {"shunt_controller": [0]})).total
    f_flip = oracle(x, paired_decision(x, {"shunt_controller": [1]})).total
    assert f_flip < f_keep
    negatives = 0
    for seed in range(200):
        est = estimate_gradient(x, z, EstimatorConfig(), oracle,
                                grng.stream("sign", seed), PCFG)
        assert est.converged
        negatives += est.grads["shunt_controller"][0, 0] < 0
    # one-sided binomial: 200 successes out of 200 is far below p=0.01
    assert negatives == 200


def test_entropy_only_gradient_when_beta_zero():
    x = shunt_overvoltage_grid()
    z = surrogate({"shunt_controller": [[0.7]]})
    cfg = EstimatorConfig(beta=0.0)
    est = estimate_gradient(x, z, cfg, oracle, grng.stream(1), PCFG)
    expected = entropy_term("shunt_controller", [0.7])
    assert np.array_equal(est.grads["shunt_controller"], expected)
    assert est.score_norm == {"shunt_controller": 0.0}
    assert est.entropy_norm == est.grad_norm == {"shunt_controller": abs(expected[0, 0])}
    assert est.grad_norm["shunt_controller"] > 0


def test_null_gradient_contract_on_divergent_mode():
    x = binary_controller_grid(n_shunts=2)
    heavy = x.replace_features({("load", "load_0"): {"p_target": 30.0,
                                                     "q_target": 10.0}})
    z = surrogate({"shunt_controller": np.full((2, 1), 0.3)})
    est = estimate_gradient(heavy, z, EstimatorConfig(), oracle,
                            grng.stream(2), PCFG)
    assert not est.converged
    assert est.f_ref == 100.0
    assert est.grads["shunt_controller"].shape == (2, 1)
    assert np.all(est.grads["shunt_controller"] == 0.0)
    assert est.grad_norm == est.score_norm == est.entropy_norm == {}


def test_failing_oracle_sample_scored_prohibitive():
    x = shunt_overvoltage_grid()
    z = surrogate({"shunt_controller": np.zeros((1, 1))})

    def flaky(xc, y):
        if y["shunt_controller"][0] == 1:
            raise RuntimeError("solver crashed")
        return oracle(xc, y)

    est = estimate_gradient(x, z, EstimatorConfig(), flaky, grng.stream(3), PCFG)
    assert est.converged  # the reference converged; samples were scored 100
    # all samples are the flip, all scored 100 -> clip saturates at +1
    f_ref = est.f_ref
    expected = (-policy_reference.entropy_grad("shunt_controller", np.zeros(1), PCFG)
                + EstimatorConfig().beta
                * math.tanh((100.0 - f_ref) / 0.1)
                * policy_reference.log_prob_grad("shunt_controller", 1, np.zeros(1), PCFG))
    assert est.grads["shunt_controller"][0] == pytest.approx(expected)


def test_estimate_deterministic_per_stream():
    x = binary_controller_grid(3)
    z = surrogate({"shunt_controller": np.full((3, 1), 0.2)})
    e1 = estimate_gradient(x, z, EstimatorConfig(), oracle, grng.stream(4), PCFG)
    e2 = estimate_gradient(x, z, EstimatorConfig(), oracle, grng.stream(4), PCFG)
    assert np.array_equal(e1.grads["shunt_controller"], e2.grads["shunt_controller"])


@pytest.mark.parametrize("samples, named", [
    ({"line_controler": 4}, "line_controler"),
    ({"line_controller": 0}, "line_controller"),
    ({"shunt_controller": 2.5}, "shunt_controller"),
    ({"svr_controller": True}, "svr_controller"),
])
def test_config_rejects_unknown_classes_and_bad_counts(samples, named):
    with pytest.raises(ValueError, match=named):
        EstimatorConfig(samples=samples)


def test_a_class_left_out_of_samples_keeps_its_default_count():
    # restating the line count alone must not change any other class's draws
    x = generate_context(GridFamilySpec(), grng.stream(0, "val", 0), origin="val-000")
    z = zero_output(x)

    def calls(cfg):
        made = []

        def counting(xc, y):
            made.append(y)
            return SimpleNamespace(total=1.0, status="converged")

        estimate_gradient(x, z, cfg, counting, grng.stream(9), PCFG)
        return len(made)

    partial = EstimatorConfig(samples={"line_controller": DEFAULT_SAMPLES["line_controller"]})
    assert calls(partial) == calls(EstimatorConfig())


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
    z = surrogate({"svr_controller": [[0.01]]})
    est = estimate_gradient(x, z, EstimatorConfig(), oracle, grng.stream(5), PCFG)
    assert est.converged
    assert np.all(np.isfinite(est.grads["svr_controller"]))


# -- exact oracle -------------------------------------------------------------

def constant_oracle(total=3.0):
    def f(x, y):
        return SimpleNamespace(total=total, converged=True)
    return f


def test_oracle_constant_cost_reduces_to_entropy_gradient():
    x = binary_controller_grid(2)
    rng = np.random.default_rng(0)
    z = surrogate({"shunt_controller": rng.uniform(-1, 1, (2, 1))})
    res = exact_gradient_oracle(x, z, beta=0.5, oracle=constant_oracle(3.0),
                                policy_cfg=PCFG)
    expected = entropy_term("shunt_controller", z["shunt_controller"])
    assert np.allclose(res.grads["shunt_controller"], expected, rtol=0, atol=1e-12)


def test_oracle_matches_finite_differences_of_enumerated_objective():
    x = binary_controller_grid(2)
    beta = 0.05
    z_vals = np.array([[0.4], [-0.3]])
    z = surrogate({"shunt_controller": z_vals})

    # cache the 4 decisions once; both routes see the same costs
    cache = {}

    def cached(xc, y):
        key = tuple(y["shunt_controller"].tolist())
        if key not in cache:
            cache[key] = oracle(xc, y)
        return cache[key]

    res = exact_gradient_oracle(x, z, beta, cached, PCFG)

    def phi(zs):
        # independent enumeration of -H + beta * E[f]
        total_h = sum(policy_reference.entropy("shunt_controller", row, PCFG)
                      for row in zs)
        exp_f = 0.0
        for y0 in (0, 1):
            for y1 in (0, 1):
                p = math.exp(
                    policy_reference.log_prob("shunt_controller", y0, zs[0], PCFG)
                    + policy_reference.log_prob("shunt_controller", y1, zs[1], PCFG))
                y = paired_decision(x, {"shunt_controller": [y0, y1]})
                exp_f += p * cached(x, y).total
        return -total_h + beta * exp_f

    eps = 1e-6
    for i in range(2):
        zp, zm = z_vals.copy(), z_vals.copy()
        zp[i, 0] += eps
        zm[i, 0] -= eps
        fd = (phi(zp) - phi(zm)) / (2 * eps)
        assert res.grads["shunt_controller"][i, 0] == pytest.approx(fd, abs=1e-8)


def test_oracle_kl_nonnegative():
    x = binary_controller_grid(3)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = surrogate({"shunt_controller": rng.uniform(-2, 2, (3, 1))})
        res = exact_gradient_oracle(x, z, beta=0.1, oracle=oracle,
                                    policy_cfg=PCFG)
        assert res.kl >= -1e-12


def test_oracle_space_cap():
    x = binary_controller_grid(3)
    z = surrogate({"shunt_controller": np.zeros((3, 1))})
    with pytest.raises(ValueError):
        exact_gradient_oracle(x, z, 0.1, oracle, PCFG, max_space=4)


# -- raw estimator ------------------------------------------------------------

def test_zero_mean_score_property():
    # with a constant cost, the expectation term has zero mean
    x = binary_controller_grid(2)
    z = surrogate({"shunt_controller": [[0.6], [-0.2]]})
    grads, stderr = raw_gradient_estimate(
        x, z, beta=1.0, n_samples=100_000, oracle=constant_oracle(2.0),
        rng=grng.stream("zeromean"), policy_cfg=PCFG)
    resid = grads["shunt_controller"] - entropy_term(
        "shunt_controller", z["shunt_controller"])
    assert np.all(np.abs(resid) <= 3 * stderr["shunt_controller"] + 1e-12)


def test_raw_estimator_consistent_with_oracle_small():
    x = binary_controller_grid(2)
    z = surrogate({"shunt_controller": [[0.3], [-0.5]]})
    cache = {}

    def cached(xc, y):
        key = tuple(y["shunt_controller"].tolist())
        if key not in cache:
            cache[key] = oracle(xc, y)
        return cache[key]

    exact = exact_gradient_oracle(x, z, beta=0.1, oracle=cached, policy_cfg=PCFG)
    grads, stderr = raw_gradient_estimate(
        x, z, beta=0.1, n_samples=40_000, oracle=cached,
        rng=grng.stream("mc"), policy_cfg=PCFG)
    diff = np.abs(grads["shunt_controller"] - exact.grads["shunt_controller"])
    assert np.all(diff <= 3 * stderr["shunt_controller"] + 1e-12)


# -- mode status --------------------------------------------------------------

def test_estimate_reports_the_mode_decision_status():
    # A zero network output makes the baseline decision the mode; on this
    # context it hits the outer-loop cap.
    x = generate_context(GridFamilySpec(), grng.stream(0, "val", 2), origin="val-002")
    z = zero_output(x)
    assert oracle(x, policy.most_probable(z)).status == "outer_cap"
    est = estimate_gradient(x, z, EstimatorConfig(), oracle, grng.stream(6), PCFG)
    assert not est.converged and est.status == "outer_cap"

    def broken(xc, y):
        raise RuntimeError("solver crashed")

    est = estimate_gradient(x, z, EstimatorConfig(), broken, grng.stream(6), PCFG)
    assert not est.converged and est.status == "error"
    ok = shunt_overvoltage_grid()
    z_ok = surrogate({"shunt_controller": np.zeros((1, 1))})
    est = estimate_gradient(ok, z_ok, EstimatorConfig(), oracle, grng.stream(6), PCFG)
    assert est.converged and est.status == "converged"


# -- one oracle call per distinct sample ---------------------------------------

def decision_key(y):
    return tuple(sorted((c, v.dtype.kind, tuple(v.tolist())) for c, v in y.items()))


def same_decision(a, b):
    return decision_key(a) == decision_key(b)


def test_decision_replace_copies_only_the_changed_class():
    x = meshed_grid()
    y = paired_decision(x, {"line_controller": [0, 0], "shunt_controller": [0],
                            "svr_controller": [0.01], "rtc_controller": [3]})
    flipped = _replace(y, "line_controller", 1, 1)
    assert flipped["line_controller"].tolist() == [0, 1]
    assert y["line_controller"].tolist() == [0, 0]
    for c in ("shunt_controller", "svr_controller", "rtc_controller"):
        assert flipped[c] is y[c]


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
    z = zero_output(x)
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
    assert same_decision(calls[0], policy.most_probable(z))
    assert len({decision_key(y) for y in calls}) == len(calls)
    again = estimate_gradient(x, z, cfg, oracle, grng.stream(7), PCFG)
    assert est.grads.keys() == again.grads.keys() == set(CONTROLLER_CLASSES)
    for c, g in est.grads.items():
        assert g.shape == z[c].shape
        assert np.array_equal(g, again.grads[c])


# -- sample statuses -----------------------------------------------------------

def test_sample_statuses_count_every_distinct_sample_call():
    x = generate_context(GridFamilySpec(), grng.stream(0, "val", 0), origin="val-000")
    z = zero_output(x)
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
    assert est.prohibitive == sum(r.total >= PROHIBITIVE_COST for r in calls[1:])


def test_failing_oracle_samples_give_prohibitive_share_one():
    x = binary_controller_grid(3)
    z = surrogate({"shunt_controller": np.full((3, 1), -0.2)})
    mode = policy.most_probable(z)

    def failing(xc, y):
        if not same_decision(y, mode):
            raise RuntimeError("solver crashed")
        return oracle(xc, y)

    est = estimate_gradient(x, z, EstimatorConfig(), failing, grng.stream(9), PCFG)
    assert est.converged
    assert est.prohibitive == est.sample_status["error"] == sum(
        est.sample_status.values()) > 0


def test_a_warning_made_an_error_by_the_filter_propagates():
    # a sample oracle that divides by zero warns; under an "error" filter
    # the warning is raised, and the estimate must not score it as "error"
    x = binary_controller_grid(3)
    z = surrogate({"shunt_controller": np.full((3, 1), -0.2)})
    mode = policy.most_probable(z)

    def dividing(xc, y):
        res = oracle(xc, y)
        if not same_decision(y, mode):
            np.float64(1.0) / np.float64(0.0)
        return res

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            estimate_gradient(x, z, EstimatorConfig(), dividing, grng.stream(9), PCFG)
