"""The fused graph-ODE step against the per-port reference loop."""

from dataclasses import replace

import numpy as np
import pytest

from gridtvc import rng as grng
from gridtvc.gridgen import GridFamilySpec, generate_context
from gridtvc.model import ModelConfig, _Engine, forward, init_params

from model_reference import reference_forward, reference_vjp
from test_model import (
    TINY, five_address_context, jitter_biases, norm_context, random_cotangent, vjp_one)

TOL = 1e-12


def rel_diff(a, b):
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def assert_matches_reference(params, x, seed=0):
    z = forward(params, x)
    z_ref = reference_forward(params, x)
    assert z.keys() == z_ref.keys()
    out = np.concatenate([z[c].reshape(-1) for c in z_ref])
    out_ref = np.concatenate([z_ref[c].reshape(-1) for c in z_ref])
    assert rel_diff(out, out_ref) <= TOL

    cot = random_cotangent(z_ref, seed)
    g = vjp_one(params, x, cot)
    g_ref = reference_vjp(params, x, cot)
    assert list(g.values) == list(g_ref.values)
    for k, ref in g_ref.values.items():
        assert g.values[k].shape == ref.shape, k
        if np.all(ref == 0.0):
            assert np.all(g.values[k] == 0.0), k
        else:
            assert rel_diff(g.values[k], ref) <= TOL, k


@pytest.mark.parametrize("message_hidden", [(), (16,), (16, 8)])
def test_tiny_matches_reference(message_hidden):
    cfg = replace(TINY, message_hidden=message_hidden)
    params = jitter_biases(init_params(cfg, np.random.default_rng(21)))
    assert_matches_reference(params, norm_context(five_address_context()))


@pytest.mark.parametrize("slope", [0.0, 1.0])
def test_slope_endpoints_match_reference(slope):
    cfg = replace(TINY, leaky_slope=slope)
    params = jitter_biases(init_params(cfg, np.random.default_rng(22)))
    assert_matches_reference(params, norm_context(five_address_context()), seed=1)


def test_default_config_generated_context_matches_reference():
    x = norm_context(generate_context(GridFamilySpec(), grng.stream(0, "val", 0)))
    params = init_params(ModelConfig(), np.random.default_rng(23))
    assert_matches_reference(params, x, seed=2)


@pytest.mark.parametrize("slope", [-0.01, 1.5])
def test_config_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ValueError):
        ModelConfig(leaky_slope=slope)


def test_kept_step_is_the_plain_step():
    x = norm_context(five_address_context())
    eng = _Engine(init_params(TINY, np.random.default_rng(24)), [x])
    h = np.random.default_rng(25).standard_normal((x.address_count, TINY.latent_dim))
    h_plain, _ = eng.step(h)
    h_kept, ((mt, _, _), _) = eng.step(h, keep=True)
    assert np.array_equal(h_plain, h_kept)
    assert mt.shape == h.shape


def test_message_gradients_share_one_stack_per_layer():
    x = norm_context(five_address_context())
    params = init_params(TINY, np.random.default_rng(26))
    z = forward(params, x)
    g = vjp_one(params, x, random_cotangent(z, 3))
    a = g.values["message.line.bus1.layer1.weight"]
    b = g.values["message.line.bus2.layer1.weight"]
    assert a.base is not None and a.base is b.base
