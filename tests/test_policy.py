import math

import numpy as np
import pytest

from gridtvc import policy
from gridtvc import rng as grng
from gridtvc.baseline import init_baseline
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.h2mg import CONTROLLER_CLASSES, SCHEMA, paired_decision
from gridtvc.policy import PolicyConfig

import policy_reference as ref
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
    assert ref.log_prob("line_controller", 1, np.zeros(1), CFG) == \
        pytest.approx(math.log(0.5))
    assert ref.log_prob("shunt_controller", 0, np.zeros(1), CFG) == \
        pytest.approx(math.log(0.5))


def test_log_prob_gaussian_at_mode():
    z = np.array([0.013])
    expected = math.log(1.0 / (CFG.sigma * math.sqrt(2 * math.pi)))
    assert ref.log_prob("svr_controller", 0.013, z, CFG) == pytest.approx(expected)


def test_log_prob_categorical_uniform():
    for k in range(4):
        assert ref.log_prob("rtc_controller", k, np.zeros(4), CFG) == \
            pytest.approx(math.log(0.25))


def test_log_prob_stable_at_extreme_logits():
    assert np.isfinite(ref.log_prob("line_controller", 0, np.array([500.0]), CFG))
    assert np.isfinite(ref.log_prob("line_controller", 1, np.array([-500.0]), CFG))
    z = np.array([500.0, -500.0, 0.0, 250.0])
    for k in range(4):
        assert np.isfinite(ref.log_prob("rtc_controller", k, z, CFG))


def test_log_prob_invalid_category():
    with pytest.raises(ValueError):
        ref.log_prob("rtc_controller", 7, np.zeros(4), CFG)
    with pytest.raises(ValueError):
        ref.log_prob("line_controller", 2, np.zeros(1), CFG)


def test_normalization_binary_and_categorical():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = _rand_z("line_controller", rng, 5.0)
        mass = sum(math.exp(ref.log_prob("line_controller", y, z, CFG))
                   for y in (0, 1))
        assert abs(mass - 1.0) <= 1e-12
        z4 = _rand_z("rtc_controller", rng, 5.0)
        mass4 = sum(math.exp(ref.log_prob("rtc_controller", k, z4, CFG))
                    for k in range(4))
        assert abs(mass4 - 1.0) <= 1e-12


def test_gaussian_density_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = _rand_z("svr_controller", rng, 1.0)
        y = float(z[0] + CFG.sigma * rng.standard_normal())
        lhs = ref.log_prob("svr_controller", y, z, CFG)
        rhs = (-math.log(CFG.sigma * math.sqrt(2 * math.pi))
               - (y - z[0]) ** 2 / (2 * CFG.sigma ** 2))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- sampling -----------------------------------------------------------------

def test_sample_binary_fair_coin():
    rng = np.random.default_rng(2)
    n = 10 ** 6
    draws = sum(ref.sample("line_controller", np.zeros(1), rng, CFG)
                for _ in range(n))
    assert abs(draws / n - 0.5) < 0.002


def test_sample_categorical_frequencies():
    rng = np.random.default_rng(3)
    z = np.array([math.log(2.0), 0.0, 0.0, 0.0])  # softmax = (2,1,1,1)/5
    n = 10 ** 6
    hits = 0
    for _ in range(n):
        hits += ref.sample("rtc_controller", z, rng, CFG) == 0
    assert abs(hits / n - 0.4) < 0.002


def test_sample_gaussian_moments():
    rng = np.random.default_rng(4)
    z = np.array([[1.02]])
    n = 200_000
    draws = policy.sample(z, n, rng, CFG)[:, 0]
    se_mean = CFG.sigma / math.sqrt(n)
    assert abs(draws.mean() - 1.02) < 3 * se_mean
    assert abs(draws.std() - CFG.sigma) < 3 * CFG.sigma / math.sqrt(2 * n)


# -- mode ---------------------------------------------------------------------

def test_most_probable_componentwise():
    z = {
        "line_controller": np.array([[-2.0], [0.2]]),
        "svr_controller": np.array([[0.013]]),
        "rtc_controller": np.array([np.zeros(4), [0, 3, 1, 3.0]]),
    }
    y = policy.most_probable(z)
    assert y["line_controller"].tolist() == [0, 1]  # the default offset keeps lines
    assert y["svr_controller"].tolist() == [0.013]
    assert y["rtc_controller"].tolist() == [0, 1]  # ties toward the lowest index


def test_mode_maximizes_log_prob_by_enumeration():
    rng = np.random.default_rng(5)
    for cls in ("line_controller", "rtc_controller"):
        z = np.array([_rand_z(cls, rng) for _ in range(200)])
        y_mp = policy.most_probable({cls: z})[cls]
        for y, row in zip(y_mp.tolist(), z):
            best = max(_domain(cls), key=lambda k: ref.log_prob(cls, k, row, CFG))
            assert ref.log_prob(cls, y, row, CFG) == pytest.approx(
                ref.log_prob(cls, best, row, CFG))


# -- gradients ----------------------------------------------------------------

def _entropy_numeric(cls, z, cfg, eps=1e-5):
    grad = np.zeros_like(z)
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        hp = ref.entropy(cls, zp, cfg)
        hm = ref.entropy(cls, zm, cfg)
        grad[j] = (hp - hm) / (2 * eps)
    return grad


def _log_prob_numeric(cls, y, z, cfg, eps=1e-5):
    grad = np.zeros_like(z)
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        grad[j] = (ref.log_prob(cls, y, zp, cfg)
                   - ref.log_prob(cls, y, zm, cfg)) / (2 * eps)
    return grad


def test_entropy_grad_closed_forms():
    assert policy.entropy_grad("line_controller", np.zeros((1, 1)))[0, 0] == 0.0
    assert np.all(policy.entropy_grad("svr_controller", np.array([[7.7]])) == 0.0)
    assert np.allclose(policy.entropy_grad("rtc_controller", np.zeros((1, 4))),
                       np.zeros(4), atol=1e-15)


def test_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    for cls in CLASSES:
        for _ in range(100):
            z = _rand_z(cls, rng)
            analytic = policy.entropy_grad(cls, z[None, :])[0]
            numeric = _entropy_numeric(cls, z, CFG)
            assert np.allclose(analytic, numeric,
                               rtol=1e-6, atol=1e-9), (cls, z)


def test_binary_entropy_grad_equals_printed_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = float(rng.uniform(-6, 6))
        printed = -z * math.exp(z) / (1.0 + math.exp(z)) ** 2
        got = policy.entropy_grad("line_controller", np.array([[z]]))[0, 0]
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
            analytic = policy.log_prob_grad(cls, np.array([y]), z[None, :], CFG)[0]
            numeric = _log_prob_numeric(cls, y, z, CFG)
            scale = np.maximum(np.abs(numeric), 1e-3)
            assert np.all(np.abs(analytic - numeric) / scale < 1e-5), (cls, y, z)


def test_log_prob_grad_hand_values():
    assert policy.log_prob_grad("line_controller", np.array([1]), np.zeros((1, 1)),
                                CFG)[0, 0] == pytest.approx(0.5)
    got = policy.log_prob_grad("svr_controller", np.array([CFG.sigma]),
                               np.zeros((1, 1)), CFG)[0, 0]
    assert got == pytest.approx(1.0 / CFG.sigma)  # 400 at the default width
    grad = policy.log_prob_grad("rtc_controller", np.array([0]), np.zeros((1, 4)), CFG)
    assert np.allclose(grad, [[0.75, -0.25, -0.25, -0.25]])
    with pytest.raises(ValueError):
        policy.log_prob_grad("rtc_controller", np.array([4]), np.zeros((1, 4)), CFG)
    with pytest.raises(ValueError):
        policy.log_prob_grad("line_controller", np.array([2]), np.zeros((1, 1)), CFG)


# -- factorization ------------------------------------------------------------

def test_total_log_prob_factorizes():
    x = binary_controller_grid(3)
    rng = np.random.default_rng(10)
    z = {"shunt_controller": rng.uniform(-2, 2, (3, 1))}
    y = paired_decision(x, {"shunt_controller": rng.integers(2, size=3)})
    total = ref.total_log_prob(y, z, CFG)
    parts = sum(ref.log_prob("shunt_controller", v, row, CFG)
                for v, row in zip(y["shunt_controller"].tolist(),
                                  z["shunt_controller"]))
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
    z_raw = {"shunt_controller": np.zeros((2, 1))}
    z = policy.apply_offsets(z_raw, x, CFG)
    assert z["shunt_controller"].tolist() == [[-2.0], [-2.0]]
    y = policy.most_probable(z)
    assert y["shunt_controller"].tolist() == [0, 0]


def test_apply_offsets_rtc_mode_probability():
    # a zero output with baseline category 0 puts softmax weight e^2/(e^2+3) on it
    z = np.array([2.0, 0.0, 0.0, 0.0])
    p0 = math.exp(2.0) / (math.exp(2.0) + 3.0)
    mass = np.exp(z - z.max())
    mass = mass / mass.sum()
    assert mass[0] == pytest.approx(p0)
    assert p0 == pytest.approx(0.7111, abs=5e-4)


# -- array forms against the scalar references ----------------------------------

def _logits(cls, rng, rows=60):
    """Random logits, with ±500 added to some entries."""
    z = np.array([_rand_z(cls, rng) for _ in range(rows)])
    return z + 500.0 * rng.choice([-1.0, 0.0, 0.0, 1.0], size=z.shape)


def _decisions(cls, z, rng):
    if cls == "svr_controller":
        return z[:, 0] + CFG.sigma * rng.standard_normal(len(z))
    return rng.integers(len(_domain(cls)), size=len(z))


def _assert_rows_close(got, want):
    assert got.shape == (len(want), len(want[0]))
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * max(np.max(np.abs(w)), 1e-300)


def test_array_closed_forms_match_the_scalar_references():
    rng = np.random.default_rng(13)
    for cls in CLASSES:
        z = _logits(cls, rng)
        y = _decisions(cls, z, rng)
        _assert_rows_close(policy.log_prob_grad(cls, y, z, CFG),
                           [ref.log_prob_grad(cls, v, row, CFG)
                            for v, row in zip(y.tolist(), z)])
        _assert_rows_close(policy.entropy_grad(cls, z),
                           [ref.entropy_grad(cls, row, CFG) for row in z])
        mode = policy.most_probable({cls: z})[cls]
        assert mode.tolist() == [ref.mode(cls, row) for row in z]


def test_apply_offsets_matches_the_scalar_reference_exactly():
    x = generate_context(GridFamilySpec(), grng.stream(0, "val", 0))
    rng = np.random.default_rng(14)
    cfg = PolicyConfig(svr_offset=-0.02)
    z_raw = {c: _logits(c, rng, len(x.edges_of(c))) for c in CONTROLLER_CLASSES}
    z = policy.apply_offsets(z_raw, x, cfg)
    y0 = init_baseline(x, cfg.svr_offset)
    assert z.keys() == set(CONTROLLER_CLASSES)
    for c in CONTROLLER_CLASSES:
        want = [ref.offset(c, row, v, cfg)
                for row, v in zip(z_raw[c], y0[c].tolist())]
        assert np.array_equal(z[c], want)
        assert z[c].shape == (len(x.edges_of(c)), SCHEMA[c].decision_dim)


def test_svr_draws_read_the_stream_as_scalar_draws_do():
    z = np.array([[0.01], [-0.02], [0.0]])
    draws = policy.sample(z, 5, grng.stream("draws"), CFG)
    rng = grng.stream("draws")
    scalar = [[ref.sample("svr_controller", row, rng, CFG) for row in z]
              for _ in range(5)]
    assert draws.shape == (5, 3)
    assert draws.tolist() == scalar


@pytest.mark.parametrize("name", ["sigma", "binary_offset", "rtc_offset_scale", "svr_offset"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_number(name, value):
    # NaN passes a check such as `sigma <= 0`
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PolicyConfig(**{name: value})
