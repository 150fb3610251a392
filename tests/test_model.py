import json
from dataclasses import replace

import numpy as np
import pytest

from gridtvc import rng as grng
from gridtvc.gridgen import GridFamilySpec, fit_normalizer, generate_context, normalize
from gridtvc.h2mg import D_CONTINUOUS, H2MGContext, SCHEMA, schema_hash
from gridtvc.model import (
    ModelConfig,
    ModelParams,
    _Engine,
    _leaky,
    _leaky_grad,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    vjp,
)
from gridtvc.policy import most_probable

from gridfixtures import bus, edge, gen, line, load, shunt

TINY = ModelConfig(latent_dim=8, encoder_out=8, encoder_hidden=(16,),
                   message_hidden=(16,), decoder_hidden=(16,), dt=0.05)


def five_address_context() -> H2MGContext:
    """Exactly 5 addresses: two buses, line, shunt (controlled), generator."""
    return H2MGContext(5, {
        "bus": (bus(0, 0), bus(1, 1)),
        "line": (line(0, 2, 0, 1, 0.01, 0.1),),
        "shunt": (shunt(0, 3, 1, b=0.2, status=1.0),),
        "shunt_controller": (edge("sc_0", "shunt_controller", {"shunt": 3}),),
        "generator": (gen(0, 4, 0, slack=1.0),),
        "load": (load(0, 1, 0.3, 0.1),),
    })


def fit_quietly(x):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_normalizer([x], knots=5)


def norm_context(x):
    return normalize(x, fit_quietly(x))


def jitter_biases(params, seed=99, scale=0.05):
    """Move biases off zero so no pre-activation sits exactly on the kink."""
    rng = np.random.default_rng(seed)
    for name in sorted(params.values):
        if name.endswith(".bias"):
            params.values[name] = params.values[name] + rng.uniform(
                -scale, scale, params.values[name].shape)
    return params


def random_cotangent(z, seed=0):
    rng = np.random.default_rng(seed)
    return {c: rng.standard_normal(v.shape) for c, v in z.items()}


def inner(cot, z):
    return sum(float((cot[c] * v).sum()) for c, v in z.items())


def vjp_one(params, x, cot):
    """The parameter cotangent of one context's forward, as a batch of one."""
    return vjp(forward(params, [x])[1], [cot])


# -- initialization -----------------------------------------------------------

def test_init_deterministic_per_seed():
    p1 = init_params(TINY, np.random.default_rng(7))
    p2 = init_params(TINY, np.random.default_rng(7))
    assert p1.values.keys() == p2.values.keys()
    for k in p1.values:
        assert np.array_equal(p1.values[k], p2.values[k])
    p3 = init_params(TINY, np.random.default_rng(8))
    assert any(not np.array_equal(p1.values[k], p3.values[k])
               for k in p1.values)


def expected_param_count(cfg: ModelConfig) -> int:
    def mlp(n_in, hidden, n_out):
        dims = [n_in, *hidden, n_out]
        return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))

    total = mlp(2 * cfg.latent_dim, (), cfg.latent_dim)  # dynamics
    for cname, cs in SCHEMA.items():
        total += mlp(len(cs.context_feature_names), cfg.encoder_hidden,
                     cfg.encoder_out)
        for _ in cs.port_names:
            total += mlp(len(cs.port_names) * cfg.latent_dim + cfg.encoder_out,
                         cfg.message_hidden, cfg.latent_dim)
        if cs.is_controller:
            total += mlp(cfg.encoder_out + len(cs.port_names) * cfg.latent_dim,
                         cfg.decoder_hidden, cs.decision_dim)
    return total


def test_parameter_count_closed_form():
    params = init_params(ModelConfig(), np.random.default_rng(0))
    # the default architecture's size, pinned from the layer-dimension formula
    assert params.count() == expected_param_count(ModelConfig()) == 1_561_351
    tiny = init_params(TINY, np.random.default_rng(0))
    assert tiny.count() == expected_param_count(TINY)


def test_every_parameter_gets_a_gradient():
    # a generated context reaches every encoder, message and decoder; biases
    # are jittered because a featureless encoder's weights get no gradient
    # at zero biases
    x = norm_context(generate_context(GridFamilySpec(), grng.stream(0, "val", 0)))
    params = jitter_biases(init_params(ModelConfig(), np.random.default_rng(0)))
    z = forward(params, x)
    g = vjp_one(params, x, {c: np.ones_like(v) for c, v in z.items()})
    dead = [n for n, v in g.values.items() if v.size and not np.any(v)]
    assert dead == []


def test_default_steps_and_shapes():
    cfg = ModelConfig()
    assert cfg.steps == 5
    assert TINY.steps == 20


@pytest.mark.parametrize("dt", [0.03, 0.3, -0.1, 0.0])
def test_config_rejects_a_step_that_does_not_end_at_unit_time(dt):
    with pytest.raises(ValueError):
        ModelConfig(dt=dt)


@pytest.mark.parametrize("dt, steps", [(0.005, 200), (0.02, 50), (0.05, 20),
                                       (0.1, 10), (0.25, 4)])
def test_config_accepts_the_steps_the_tests_use(dt, steps):
    assert ModelConfig(dt=dt).steps == steps


# -- forward ------------------------------------------------------------------

def test_zero_params_give_zero_outputs():
    x = norm_context(five_address_context())
    params = init_params(TINY).zeros_like()
    z = forward(params, x)
    assert set(z) == {"shunt_controller"}
    assert z["shunt_controller"].shape == (1, 1)
    assert np.all(z["shunt_controller"] == 0.0)


def test_constant_drive_integrates_exactly():
    # power-of-two step keeps the unit-interval Heun sum exact
    cfg = ModelConfig(latent_dim=4, encoder_out=4, encoder_hidden=(),
                      message_hidden=(), decoder_hidden=(), dt=0.25)
    params = init_params(cfg).zeros_like()
    c = 0.7
    params.values["dynamics.layer0.bias"] = np.full(4, c)
    x = norm_context(five_address_context())
    eng = _Engine(params, [x])
    h = eng.integrate()[-1]
    assert np.all(h == c)


def test_latent_starts_at_zero_and_isolated_address_gets_no_message():
    x = five_address_context()
    padded = normalize(H2MGContext(x.address_count + 3, dict(x.edges), dict(x.metadata)),
                       fit_quietly(x))
    params = init_params(TINY, np.random.default_rng(1))
    eng = _Engine(params, [padded])
    h = np.zeros((padded.address_count, TINY.latent_dim))
    rng = np.random.default_rng(2)
    h_rand = rng.standard_normal(h.shape)
    _, ((mt, _, _), _) = eng.step(h_rand, keep=True)
    assert np.all(mt[-3:] == 0.0)  # tanh of an empty message sum


@pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
def test_leaky_helpers_are_the_where_forms_bit_for_bit(slope):
    sub, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    z = np.array([0.0, -0.0, sub, -sub, 3 * sub, -3 * sub, 1e-310, -1e-310,
                  1.5, -1.5, 1e300, -1e300, big, -big])
    rng = np.random.default_rng(27)
    z = np.concatenate([z, rng.standard_normal(50)])
    dz = rng.permutation(z)
    act = _leaky(z.copy(), slope)
    assert act.tobytes() == np.where(z > 0, z, slope * z).tobytes()
    assert (_leaky_grad(dz.copy(), act, slope).tobytes()
            == (dz * np.where(z > 0, 1.0, slope)).tobytes())


def test_permutation_equivariance():
    x = generate_context(GridFamilySpec(bus_count_min=20, bus_count_max=20,
                                        twt_count=8, rtc_count=6,
                                        rtc_controller_count=4, shunt_count=6,
                                        shunt_controller_count=4,
                                        generator_count=7, svr_zone_count=2,
                                        svr_units_per_zone=2,
                                        svr_controller_count=2,
                                        line_controller_count=3,
                                        controllable_line_count=3),
                         grng.stream("perm", 0))
    norm = fit_quietly(x)
    params = init_params(TINY, np.random.default_rng(3))
    z_ref = forward(params, normalize(x, norm))

    rng = np.random.default_rng(4)
    perm = rng.permutation(x.address_count)
    remap = {a: int(perm[a]) for a in range(x.address_count)}
    shuffled = {}
    for cname, elist in x.edges.items():
        new = []
        for e in elist:
            new.append(type(e)(e.id, cname,
                               {p: remap[a] for p, a in e.ports.items()},
                               dict(e.features)))
        order = rng.permutation(len(new))
        shuffled[cname] = tuple(new[i] for i in order)
    x_perm = H2MGContext(x.address_count, shuffled, dict(x.metadata))
    z_perm = forward(params, normalize(x_perm, norm))

    assert z_perm.keys() == z_ref.keys()
    for cname, v in z_ref.items():
        assert np.max(np.abs(z_perm[cname] - v)) <= 1e-9


# -- vjp ----------------------------------------------------------------------

def test_vjp_zero_cotangent_gives_zero_gradient():
    x = norm_context(five_address_context())
    params = init_params(TINY, np.random.default_rng(5))
    z = forward(params, x)
    cot = {c: np.zeros_like(v) for c, v in z.items()}
    g = vjp_one(params, x, cot)
    assert all(np.all(v == 0.0) for v in g.values.values())


def test_vjp_linear_in_cotangent():
    x = norm_context(five_address_context())
    params = init_params(TINY, np.random.default_rng(6))
    z = forward(params, x)
    c1 = random_cotangent(z, 1)
    c2 = random_cotangent(z, 2)
    c12 = {c: c1[c] + c2[c] for c in z}
    g1 = vjp_one(params, x, c1)
    g2 = vjp_one(params, x, c2)
    g12 = vjp_one(params, x, c12)
    for k in g12.values:
        if g12.values[k].size:
            assert np.max(np.abs(g12.values[k] - g1.values[k]
                                 - g2.values[k])) <= 1e-10


def test_vjp_matches_finite_differences_per_group():
    x = norm_context(five_address_context())
    params = jitter_biases(init_params(TINY, np.random.default_rng(11)))
    z = forward(params, x)
    cot = random_cotangent(z, 3)
    g = vjp_one(params, x, cot)

    groups = sorted({name.rsplit(".layer", 1)[0] for name in params.values})
    rng = np.random.default_rng(12)
    eps = 1e-6
    for group in groups:
        names = [n for n in params.values if n.startswith(group + ".layer")]
        direction = {n: rng.standard_normal(params.values[n].shape) for n in names}
        analytic = sum(float((g.values[n] * direction[n]).sum()) for n in names)

        def shifted(sign):
            vals = dict(params.values)
            for n in names:
                vals[n] = params.values[n] + sign * eps * direction[n]
            return inner(cot, forward(ModelParams(params.config, vals), x))

        fd = (shifted(+1) - shifted(-1)) / (2 * eps)
        denom = max(abs(fd), 1e-10)
        assert abs(analytic - fd) / denom <= 1e-4, (group, analytic, fd)


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = init_params(TINY, np.random.default_rng(14))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, seed=14, extra={"iteration": 3})
    back, meta = load_checkpoint(path)
    assert back.config == params.config
    assert meta["seed"] == 14 and meta["iteration"] == 3
    assert meta["schema_hash"]
    for k in params.values:
        assert np.array_equal(back.values[k], params.values[k])


def _saved_with_meta(path, params, edit):
    """Save ``params`` to ``path``, then rewrite the meta through ``edit``."""
    save_checkpoint(path, params)
    with np.load(path) as blob:
        arrays = dict(blob)
    meta = json.loads(str(arrays["__meta__"]))
    edit(meta)
    arrays["__meta__"] = json.dumps(meta, sort_keys=True)
    np.savez(path, **arrays)


def test_checkpoint_naming_a_checkpoint_interval_is_refused(tmp_path):
    # The VJP once re-integrated segments between stored latents, and the
    # config of a checkpoint from then names the interval; no model config
    # has that field now.
    path = tmp_path / "ckpt.npz"
    _saved_with_meta(path, init_params(TINY, np.random.default_rng(15)),
                     lambda meta: meta["config"].update(checkpoint_every=20))
    with pytest.raises(ValueError, match=r"unknown ModelConfig fields: \['checkpoint_every'\]"):
        load_checkpoint(path)


def test_checkpoint_saved_with_another_step_loads_and_keeps_it(tmp_path):
    # The default step changed from 0.005 to 0.02, then to 0.2; older checkpoints say 0.005.
    assert ModelConfig().dt == 0.2
    params = init_params(replace(TINY, dt=0.005), np.random.default_rng(16))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    back, _ = load_checkpoint(path)
    assert back.config.steps == 200 and back.config == params.config


def test_checkpoint_saved_by_the_euler_engine_is_refused(tmp_path):
    # The explicit Euler engine wrote no integrator entry.
    def drop_integrator(meta):
        assert meta.pop("integrator") == "heun"

    path = tmp_path / "ckpt.npz"
    _saved_with_meta(path, init_params(TINY, np.random.default_rng(17)), drop_integrator)
    with pytest.raises(ValueError, match="integrator None, but the model integrates with 'heun'"):
        load_checkpoint(path)


def test_checkpoint_saved_for_another_schema_is_refused(tmp_path):
    def other_schema(meta):
        assert meta["schema_hash"] == schema_hash()
        meta["schema_hash"] = "0" * 16

    path = tmp_path / "ckpt.npz"
    _saved_with_meta(path, init_params(TINY, np.random.default_rng(18)), other_schema)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert "0" * 16 in str(err.value) and schema_hash() in str(err.value)


def _without_last_layer(arrays):
    # the decoder then reads one layer fewer, and forward still runs
    del arrays["param/decoder.line_controller.layer1.weight"]
    del arrays["param/decoder.line_controller.layer1.bias"]


def _with_an_extra_layer(arrays):
    arrays["param/decoder.line_controller.layer2.weight"] = np.zeros((1, 1))


def _with_a_wider_bias(arrays):
    arrays["param/encoder.bus.layer0.bias"] = np.zeros(17)


def _without_meta(arrays):
    del arrays["__meta__"]


def _without_config(arrays):
    meta = json.loads(str(arrays["__meta__"]))
    del meta["config"]
    arrays["__meta__"] = json.dumps(meta)


@pytest.mark.parametrize("edit, problem", [
    (_without_last_layer, r"'decoder.line_controller.layer1.bias' has shape \(missing\), "
                          r"but its config says \(1,\)"),
    (_with_an_extra_layer, r"'decoder.line_controller.layer2.weight' has shape \(1, 1\), "
                           r"but its config says \(no such parameter\)"),
    (_with_a_wider_bias, r"'encoder.bus.layer0.bias' has shape \(17,\), "
                         r"but its config says \(16,\)"),
    (_without_meta, r"ckpt\.npz carries no model config"),
    (_without_config, r"ckpt\.npz carries no model config"),
])
def test_checkpoint_whose_tensors_do_not_match_its_config_is_refused(tmp_path, edit, problem):
    # ``edit`` rewrites the saved file's arrays, meta included
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, init_params(TINY, np.random.default_rng(19)))
    with np.load(path) as blob:
        arrays = dict(blob)
    edit(arrays)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=problem):
        load_checkpoint(path)


# -- batches ------------------------------------------------------------------

SMALL_SPEC = GridFamilySpec(bus_count_min=12, bus_count_max=12, twt_count=4,
                            rtc_count=3, rtc_controller_count=2, shunt_count=3,
                            shunt_controller_count=2, generator_count=5,
                            svr_zone_count=2, svr_units_per_zone=2,
                            svr_controller_count=2, line_controller_count=2,
                            controllable_line_count=2)
BATCH_TOL = 1e-12


def tiny_batch():
    """Three contexts; the first has no line, rtc or svr controllers."""
    xs = [generate_context(SMALL_SPEC, grng.stream("batch", i)) for i in range(2)]
    return ([norm_context(five_address_context())]
            + [norm_context(x) for x in xs],
            jitter_biases(init_params(TINY, np.random.default_rng(31))))


def default_pair():
    xs = [generate_context(GridFamilySpec(), grng.stream(0, "train", i))
          for i in range(2)]
    return [norm_context(x) for x in xs], init_params(ModelConfig(),
                                                      np.random.default_rng(32))


def rel_err(a, b):
    return float(np.max(np.abs(a - b), initial=0.0)) / max(
        float(np.max(np.abs(b), initial=0.0)), 1e-300)


def assert_decisions_close(zs, zs_ref):
    assert len(zs) == len(zs_ref)
    for z, z_ref in zip(zs, zs_ref):
        assert z.keys() == z_ref.keys()
        for cname, v in z_ref.items():
            assert z[cname].shape == v.shape
            assert rel_err(z[cname], v) <= BATCH_TOL


def assert_grads_close(g, g_ref):
    assert list(g.values) == list(g_ref.values)
    for k, ref in g_ref.values.items():
        assert g.values[k].shape == ref.shape, k
        assert rel_err(g.values[k], ref) <= BATCH_TOL, k


def summed(grads):
    return ModelParams(grads[0].config, {k: sum(g.values[k] for g in grads)
                                         for k in grads[0].values})


@pytest.mark.parametrize("make", [tiny_batch, default_pair])
def test_batch_forward_and_vjp_match_per_context_calls(make):
    xs, params = make()
    zs, run = forward(params, xs)
    assert_decisions_close(zs, [forward(params, x) for x in xs])
    cots = [random_cotangent(z, 40 + i) for i, z in enumerate(zs)]
    assert_grads_close(vjp(run, cots),
                       summed([vjp_one(params, x, c) for x, c in zip(xs, cots)]))


@pytest.mark.parametrize("make", [tiny_batch, default_pair])
def test_subset_vjp_reuses_the_batch_checkpoints(make):
    xs, params = make()
    zs, run = forward(params, xs)
    cots = [random_cotangent(z, 50 + i) for i, z in enumerate(zs)]
    keep = [len(xs) - 1]
    if len(xs) > 2:
        keep = [0, len(xs) - 1]
    masked = [c if i in keep else None for i, c in enumerate(cots)]
    _, fresh = forward(params, [xs[i] for i in keep])
    assert_grads_close(vjp(run, masked),
                       vjp(fresh, [cots[i] for i in keep]))


def test_forward_keeps_the_latents_after_every_step():
    xs, params = tiny_batch()
    _, run = forward(params, xs)
    assert len(run.states) == TINY.steps + 1
    # a fresh integration of the same union ends on the same latents
    final = _Engine(params, xs).integrate()[-1]
    assert np.array_equal(run.states[-1], final)
    keep = [0, 2]
    sub = run.restrict(keep)
    rows = np.concatenate([run.engine.prep.spans[i] for i in keep])
    assert len(sub.states) == len(run.states)
    for h_sub, h in zip(sub.states, run.states):
        assert np.array_equal(h_sub, h[rows])


def test_batch_order_changes_nothing():
    xs, params = tiny_batch()
    zs, run = forward(params, xs)
    cots = [random_cotangent(z, 60 + i) for i, z in enumerate(zs)]
    order = [2, 0, 1]
    zs_perm, run_perm = forward(params, [xs[i] for i in order])
    assert_decisions_close(zs_perm, [zs[i] for i in order])
    assert_grads_close(vjp(run_perm, [cots[i] for i in order]),
                       vjp(run, cots))


def flat_outputs(z):
    return np.concatenate([z[c].reshape(-1) for c in sorted(z)])


def discrete_modes(z):
    y = most_probable(z)
    return {c: v.tolist() for c, v in y.items()
            if SCHEMA[c].decision_kind != D_CONTINUOUS}


@pytest.mark.parametrize("dynamics_scale, tol", [(1.0, 1e-3), (3.0, 3e-3)])
def test_default_step_agrees_with_200_steps(dynamics_scale, tol):
    # Heun's error is second order in dt: at initial parameters the 5-step
    # outputs differ from 200 steps' by ~2e-5 relative; tripled dynamics
    # weights make the drive stiffer and the error ~1.3e-3.
    xs, params = default_pair()
    values = dict(params.values)
    values["dynamics.layer0.weight"] = values["dynamics.layer0.weight"] * dynamics_scale
    zs, _ = forward(ModelParams(params.config, values), xs)
    zs_fine, _ = forward(ModelParams(replace(params.config, dt=0.005), values), xs)
    for z, z_fine in zip(zs, zs_fine):
        a, b = flat_outputs(z), flat_outputs(z_fine)
        assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b)
        assert discrete_modes(z) == discrete_modes(z_fine)


def test_default_scheme_is_second_order():
    # Halving a second-order scheme's step divides its error by about 4
    # (3.7-4.2 measured); a first-order one's by 2.
    xs, params = default_pair()
    fine, _ = forward(ModelParams(replace(params.config, dt=0.005), params.values), xs)

    def error(dt):
        zs, _ = forward(ModelParams(replace(params.config, dt=dt), params.values), xs)
        return np.linalg.norm(np.concatenate([flat_outputs(z) - flat_outputs(f)
                                              for z, f in zip(zs, fine)]))

    assert params.config.dt == 0.2
    assert error(0.2) >= 3.0 * error(0.1)


def test_batch_vjp_rejects_a_mismatched_integration():
    xs, params = tiny_batch()
    zs, run = forward(params, xs)
    cots = [random_cotangent(z) for z in zs]
    with pytest.raises(ValueError, match="2 cotangents for 3 contexts"):
        vjp(run, cots[:2])
