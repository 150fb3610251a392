import math

import numpy as np
import pytest

from gridtvc import policy
from gridtvc.h2mg import Decision, SurrogateDecision
from gridtvc.policy import PolicyConfig

from gridfixtures import binary_controller_grid

CFG = PolicyConfig()
CLASSES = ("line_controller", "shunt_controller", "svr_controller",
           "rtc_controller")


def _rand_z(cls, rng, scale=3.0):
    dim = 4 if cls == "rtc_controller" else 1
    return rng.uniform(-scale, scale, size=dim)


def _domain(cls):
    if cls in ("line_controller", "shunt_controller"):
        return [0, 1]
    if cls == "rtc_controller":
        return [0, 1, 2, 3]
    return None


# -- log_prob -----------------------------------------------------------------

def test_log_prob_binary_half():
    assert policy.log_prob("line_controller", 1, np.zeros(1), CFG) == \
        pytest.approx(math.log(0.5))
    assert policy.log_prob("shunt_controller", 0, np.zeros(1), CFG) == \
        pytest.approx(math.log(0.5))


def test_log_prob_gaussian_at_mode():
    z = np.array([0.013])
    expected = math.log(1.0 / (CFG.sigma * math.sqrt(2 * math.pi)))
    assert policy.log_prob("svr_controller", 0.013, z, CFG) == pytest.approx(expected)


def test_log_prob_categorical_uniform():
    for k in range(4):
        assert policy.log_prob("rtc_controller", k, np.zeros(4), CFG) == \
            pytest.approx(math.log(0.25))


def test_log_prob_stable_at_extreme_logits():
    assert np.isfinite(policy.log_prob("line_controller", 0, np.array([500.0]), CFG))
    assert np.isfinite(policy.log_prob("line_controller", 1, np.array([-500.0]), CFG))
    z = np.array([500.0, -500.0, 0.0, 250.0])
    for k in range(4):
        assert np.isfinite(policy.log_prob("rtc_controller", k, z, CFG))


def test_log_prob_invalid_category():
    with pytest.raises(ValueError):
        policy.log_prob("rtc_controller", 7, np.zeros(4), CFG)
    with pytest.raises(ValueError):
        policy.log_prob("line_controller", 2, np.zeros(1), CFG)


def test_normalization_binary_and_categorical():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = _rand_z("line_controller", rng, 5.0)
        mass = sum(math.exp(policy.log_prob("line_controller", y, z, CFG))
                   for y in (0, 1))
        assert abs(mass - 1.0) <= 1e-12
        z4 = _rand_z("rtc_controller", rng, 5.0)
        mass4 = sum(math.exp(policy.log_prob("rtc_controller", k, z4, CFG))
                    for k in range(4))
        assert abs(mass4 - 1.0) <= 1e-12


def test_gaussian_density_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = _rand_z("svr_controller", rng, 1.0)
        y = float(z[0] + CFG.sigma * rng.standard_normal())
        lhs = policy.log_prob("svr_controller", y, z, CFG)
        rhs = (-math.log(CFG.sigma * math.sqrt(2 * math.pi))
               - (y - z[0]) ** 2 / (2 * CFG.sigma ** 2))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- sampling -----------------------------------------------------------------

def test_sample_binary_fair_coin():
    rng = np.random.default_rng(2)
    n = 10 ** 6
    draws = sum(policy.sample("line_controller", np.zeros(1), rng, CFG)
                for _ in range(n))
    assert abs(draws / n - 0.5) < 0.002


def test_sample_categorical_frequencies():
    rng = np.random.default_rng(3)
    z = np.array([math.log(2.0), 0.0, 0.0, 0.0])  # softmax = (2,1,1,1)/5
    n = 10 ** 6
    hits = 0
    for _ in range(n):
        hits += policy.sample("rtc_controller", z, rng, CFG) == 0
    assert abs(hits / n - 0.4) < 0.002


def test_sample_gaussian_moments():
    rng = np.random.default_rng(4)
    z = np.array([1.02])
    n = 200_000
    draws = np.array([policy.sample("svr_controller", z, rng, CFG)
                      for _ in range(n)])
    se_mean = CFG.sigma / math.sqrt(n)
    assert abs(draws.mean() - 1.02) < 3 * se_mean
    assert abs(draws.std() - CFG.sigma) < 3 * CFG.sigma / math.sqrt(2 * n)


# -- mode ---------------------------------------------------------------------

def test_most_probable_componentwise():
    z = SurrogateDecision({
        "line_controller": {"lc_0": np.array([-2.0]), "lc_1": np.array([0.2])},
        "svr_controller": {"vc_0": np.array([0.013])},
        "rtc_controller": {"rc_0": np.zeros(4), "rc_1": np.array([0, 3, 1, 3.0])},
    })
    y = policy.most_probable(z)
    assert y.get("line_controller", "lc_0") == 0  # the default offset keeps lines
    assert y.get("line_controller", "lc_1") == 1
    assert y.get("svr_controller", "vc_0") == 0.013
    assert y.get("rtc_controller", "rc_0") == 0  # tie toward index 0
    assert y.get("rtc_controller", "rc_1") == 1  # first of the tied maxima


def test_mode_maximizes_log_prob_by_enumeration():
    rng = np.random.default_rng(5)
    for cls in ("line_controller", "rtc_controller"):
        for _ in range(200):
            z = _rand_z(cls, rng)
            zc = SurrogateDecision({cls: {"e": z}})
            y_mp = policy.most_probable(zc).get(cls, "e")
            best = max(_domain(cls),
                       key=lambda y: policy.log_prob(cls, y, z, CFG))
            assert policy.log_prob(cls, y_mp, z, CFG) == pytest.approx(
                policy.log_prob(cls, best, z, CFG))


# -- gradients ----------------------------------------------------------------

def _entropy_numeric(cls, z, cfg, eps=1e-5):
    grad = np.zeros_like(z)
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        hp = policy.entropy(cls, zp, cfg)
        hm = policy.entropy(cls, zm, cfg)
        grad[j] = (hp - hm) / (2 * eps)
    return grad


def _log_prob_numeric(cls, y, z, cfg, eps=1e-5):
    grad = np.zeros_like(z)
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        grad[j] = (policy.log_prob(cls, y, zp, cfg)
                   - policy.log_prob(cls, y, zm, cfg)) / (2 * eps)
    return grad


def test_entropy_grad_closed_forms():
    assert policy.entropy_grad("line_controller", np.zeros(1), CFG)[0] == 0.0
    assert np.all(policy.entropy_grad("svr_controller", np.array([7.7]), CFG) == 0.0)
    assert np.allclose(policy.entropy_grad("rtc_controller", np.zeros(4), CFG),
                       np.zeros(4), atol=1e-15)


def test_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    for cls in CLASSES:
        for _ in range(100):
            z = _rand_z(cls, rng)
            analytic = policy.entropy_grad(cls, z, CFG)
            numeric = _entropy_numeric(cls, z, CFG)
            assert np.allclose(analytic, numeric,
                               rtol=1e-6, atol=1e-9), (cls, z)


def test_binary_entropy_grad_equals_printed_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = float(rng.uniform(-6, 6))
        printed = -z * math.exp(z) / (1.0 + math.exp(z)) ** 2
        got = policy.entropy_grad("line_controller", np.array([z]), CFG)[0]
        assert got == pytest.approx(printed, rel=1e-12, abs=1e-15)


def test_log_prob_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    for cls in CLASSES:
        for _ in range(100):
            z = _rand_z(cls, rng)
            if cls == "svr_controller":
                y = float(z[0] + CFG.sigma * rng.standard_normal())
            else:
                y = int(rng.choice(_domain(cls)))
            analytic = policy.log_prob_grad(cls, y, z, CFG)
            numeric = _log_prob_numeric(cls, y, z, CFG)
            scale = np.maximum(np.abs(numeric), 1e-3)
            assert np.all(np.abs(analytic - numeric) / scale < 1e-5), (cls, y, z)


def test_log_prob_grad_hand_values():
    assert policy.log_prob_grad("line_controller", 1, np.zeros(1), CFG)[0] == \
        pytest.approx(0.5)
    z = np.array([0.0])
    got = policy.log_prob_grad("svr_controller", CFG.sigma, z, CFG)[0]
    assert got == pytest.approx(1.0 / CFG.sigma)  # 400 at the default width
    grad = policy.log_prob_grad("rtc_controller", 0, np.zeros(4), CFG)
    assert np.allclose(grad, [0.75, -0.25, -0.25, -0.25])


# -- factorization ------------------------------------------------------------

def test_total_log_prob_factorizes():
    x = binary_controller_grid(3)
    ids = x.controller_ids()["shunt_controller"]
    rng = np.random.default_rng(10)
    z = SurrogateDecision.paired(
        x, {"shunt_controller": {i: rng.uniform(-2, 2, 1) for i in ids}})
    y = Decision.paired(x, {"shunt_controller": {i: int(rng.integers(2))
                                                 for i in ids}})
    total = policy.total_log_prob(y, z, CFG)
    parts = sum(policy.log_prob("shunt_controller", y.get("shunt_controller", i),
                                z.get("shunt_controller", i), CFG) for i in ids)
    assert total == pytest.approx(parts, abs=1e-12)


# -- unary neighbors ----------------------------------------------------------

def test_unary_neighbors():
    assert policy.unary_neighbors("line_controller", 0) == [1]
    assert policy.unary_neighbors("shunt_controller", 1) == [0]
    assert policy.unary_neighbors("rtc_controller", 2) == [0, 1, 3]
    with pytest.raises(ValueError):
        policy.unary_neighbors("svr_controller", 0.0)


def test_unary_neighbor_involution_binary():
    for y in (0, 1):
        flips = policy.unary_neighbors("line_controller", y)
        assert policy.unary_neighbors("line_controller", flips[0]) == [y]


# -- offsets ------------------------------------------------------------------

def test_apply_offsets_binary_shift():
    x = binary_controller_grid(2)
    ids = x.controller_ids()["shunt_controller"]
    z_raw = SurrogateDecision.paired(
        x, {"shunt_controller": {i: np.zeros(1) for i in ids}})
    z = policy.apply_offsets(z_raw, x, CFG)
    for i in ids:
        assert z.get("shunt_controller", i)[0] == -2.0
    y = policy.most_probable(z)
    assert all(y.get("shunt_controller", i) == 0 for i in ids)


def test_apply_offsets_rtc_mode_probability():
    # a zero output with baseline category 0 puts softmax weight e^2/(e^2+3) on it
    z = np.array([2.0, 0.0, 0.0, 0.0])
    p0 = math.exp(2.0) / (math.exp(2.0) + 3.0)
    mass = np.exp(z - z.max())
    mass = mass / mass.sum()
    assert mass[0] == pytest.approx(p0)
    assert p0 == pytest.approx(0.7111, abs=5e-4)
