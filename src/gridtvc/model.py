"""Graph neural ODE over hyper-edge contexts, with exact reverse-mode VJPs.

The model reads a context in compiled form, the
:class:`~gridtvc.gridgen.CompiledContext` that ``gridgen.normalize``
returns: per class, the normalized feature matrix and an int port
matrix.  It never walks the context's edges itself.

Per-class encoders embed edge features; address latents then evolve from
zero over unit artificial time under a learned drive fed by tanh-squashed
sums of per-(class, port) messages; per-controller decoders read out the
surrogate decision.  Integration is fixed-step Heun (explicit trapezoid),
two drive evaluations per step.  The forward keeps the latents after every
step, and the backward sweep recomputes one step at a time from them,
keeping that step's two drive evaluations only while it pulls back through
them.  The VJP differentiates the discrete scheme that ran, so training
sees exactly the network that decides.

The default step is ``dt = 0.2``: 5 steps, 10 drive evaluations.  Heun's
error is second order in the step; halving it divides the error by 3.7-4.2.
Relative L2 error of the decoder outputs against 400 RK4 steps on two
default-config contexts, at initial parameters and with the dynamics
weights tripled (a stiffer drive):

    ==========  ===========  =======  =======
    scheme      evaluations  initial  x3
    ==========  ===========  =======  =======
    Euler, 50   50           1.4e-4   2.8e-3
    Heun, 5     10           2.3e-5   1.3e-3
    Heun, 10    20           5.6e-6   3.4e-4
    RK4, 3      12           1.3e-5   2.6e-4
    ==========  ===========  =======  =======

Every scheme there gives the same discrete modes, and
``tests/test_model.py`` gates the default against 200 steps and its order.
Cost is linear in drive evaluations: one default decision takes about
25 ms against 97 ms at 50 Euler steps (one BLAS thread, 2 vCPUs).
A checkpoint carries its ``ModelConfig`` and its training normalizer.  One
saved at another ``dt`` loads and integrates with its own step count; one
saved for another integrator is refused.

Parameters are one flat dict of MLP layers, ``{prefix}.layer{i}.weight``
and ``.bias``, as :func:`_param_shapes` lists them.  One leaky ReLU,
computed in place by :func:`_leaky`, follows every hidden layer and the
one-layer dynamics.  Encoders and decoders run once per call as
:class:`_MLP` views over the dict.  A drive evaluation runs on a stacked
per-class layout instead: a class's P message MLPs are stacked on a port
axis, so layer 0 is one matmul over the gathered port latents and every
later layer is one batched matmul.  Layer 0's
encoder-context term does not change over the integration and is computed
once per call.  All classes write their messages into one slot buffer (one
row per edge and port), which a single scatter per evaluation sums into the
addresses.  The VJP runs each evaluation's backward pass in the same layout
and accumulates weight gradients once per evaluation in a fixed order.

One batch run is one :class:`_Engine` over the disjoint union of its
contexts: each class lists its edges context by context, and every
context's ports are offset by the address count of the contexts before
it.  No message crosses between contexts, so the union is exact up to
BLAS rounding, and the decoders' rows split back into one decision per
context.  :func:`forward` is the one integration, for training and
decisions alike, and the engine keeps the latents before the first step
and after every step.  A batch ``forward`` returns the engine with its
decisions; ``vjp`` on that engine sweeps back from its latents over the
contexts that have a cotangent, without integrating again, and returns
their summed parameter cotangent.  Decisions drop the engine, whose
latents at the default config add about 0.2 MB to the peak of one
single-context ``forward``."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import config_from_json, config_to_json
from .gridgen import CompiledContext, Normalizer
from .h2mg import SCHEMA, SurrogateDecision, schema_hash


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and step of the graph ODE.

    A batch ``forward``'s engine keeps the union's latents after each of
    the ``steps`` steps for ``vjp``, so training memory grows linearly with
    the step count: forward plus ``vjp`` on 4 val contexts peaks at 32.5 MB
    under tracemalloc at ``dt=0.2`` and at 50.4 MB at ``dt=0.01``, about
    0.19 MB per step.
    """

    latent_dim: int = 64
    encoder_out: int = 64
    encoder_hidden: tuple[int, ...] = (128, 128)
    message_hidden: tuple[int, ...] = (128, 128)
    decoder_hidden: tuple[int, ...] = (128, 128)
    # 5 Heun steps over unit time (10 drive evaluations): 2.3e-5 relative
    # from a 400-step RK4 solution at initial parameters, where 50 Euler
    # steps gave 1.4e-4.  Checkpoints keep their own dt.
    dt: float = 0.2
    leaky_slope: float = 0.01

    def __post_init__(self):
        # the leaky ReLU is evaluated as max(z, slope * z)
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError("leaky_slope must lie in [0, 1]")
        # whole steps must end exactly at t = 1
        if not (self.dt > 0 and abs(self.steps * self.dt - 1.0) <= 1e-9):
            raise ValueError(f"dt must be positive and divide the unit time "
                             f"into whole steps, got {self.dt}")

    @property
    def steps(self) -> int:
        return round(1.0 / self.dt)


@dataclass
class ModelParams:
    """Flat name-to-array parameter store plus the architecture hyper-params."""

    config: ModelConfig
    values: dict[str, np.ndarray] = field(default_factory=dict)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.config,
                           {k: np.zeros_like(v) for k, v in self.values.items()})

    def count(self) -> int:
        return sum(v.size for v in self.values.values())


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order :func:`init_params`
    draws them: sorted by MLP, then layer, weight before bias.

    One MLP per encoder (class), message (class, port) and decoder
    (controller class), and the one-layer ``dynamics`` on ``[h | mt]``.
    """
    d, e = config.latent_dim, config.encoder_out
    dims = {"dynamics": [2 * d, d]}
    for cname, cs in SCHEMA.items():
        pd = len(cs.port_names) * d  # the gathered port latents
        dims[f"encoder.{cname}"] = [len(cs.context_feature_names),
                                    *config.encoder_hidden, e]
        for pname in cs.port_names:
            dims[f"message.{cname}.{pname}"] = [pd + e, *config.message_hidden, d]
        if cs.is_controller:
            dims[f"decoder.{cname}"] = [e + pd, *config.decoder_hidden, cs.decision_dim]
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix in sorted(dims):
        for layer, (n_in, n_out) in enumerate(zip(dims[prefix], dims[prefix][1:])):
            shapes[f"{prefix}.layer{layer}.weight"] = (n_out, n_in)
            shapes[f"{prefix}.layer{layer}.bias"] = (n_out,)
    return shapes


def init_params(config: ModelConfig = ModelConfig(),
                rng: np.random.Generator | None = None) -> ModelParams:
    """Fan-in-scaled uniform weights and zero biases, drawn in the order of
    :func:`_param_shapes`."""
    if rng is None:
        rng = np.random.default_rng(0)
    values: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        bound = 1.0 / np.sqrt(max(shape[-1], 1))  # a weight's fan-in; a bias is not drawn
        values[name] = rng.uniform(-bound, bound, size=shape) if len(shape) == 2 \
            else np.zeros(shape)
    return ModelParams(config, values)


def _gather(h: np.ndarray, ports: np.ndarray) -> np.ndarray:
    n_e, n_p = ports.shape
    return h[ports.reshape(-1)].reshape(n_e, n_p * h.shape[1])


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    """Leaky ReLU in place: ``where(z > 0, z, slope * z)`` bit for bit for slope
    in [0, 1], except that at slope 0 it maps ``+inf`` to nan (``0 * inf``)."""
    return np.maximum(z, slope * z, out=z)


def _leaky_grad(dz: np.ndarray, act: np.ndarray, slope: float) -> np.ndarray:
    """Scale a cotangent in place by the leaky-ReLU slope, read off its output.

    For slope in [0, 1] an output is positive exactly where its input is,
    so this is ``dz * where(z > 0, 1, slope)`` bit for bit, except at the
    ``+inf`` that :func:`_leaky` maps to nan at slope 0.  The factor is
    looked up rather than masked: a ``where=`` ufunc is several times
    slower at these sizes.
    """
    dz *= np.array([slope, 1.0]).take((act > 0).view(np.int8))
    return dz


class _MLP:
    """One encoder or decoder: a view over its layers in the flat parameter dict.

    The layers are ``{prefix}.layer{i}`` for ``i`` from 0 while the names
    exist; every layer but the last ends in the config's leaky ReLU.
    """

    def __init__(self, params: ModelParams, prefix: str):
        self.prefix, self.slope = prefix, params.config.leaky_slope
        v = params.values
        self.layers = []
        while (key := f"{prefix}.layer{len(self.layers)}") + ".weight" in v:
            self.layers.append((v[f"{key}.weight"], v[f"{key}.bias"]))

    def forward(self, x: np.ndarray, keep: bool = False):
        """The output, and with ``keep`` every layer's input for :meth:`backward`."""
        inputs = []
        h = x
        for i, (w, b) in enumerate(self.layers):
            if keep:
                inputs.append(h)
            h = h @ w.T + b
            if i < len(self.layers) - 1:
                _leaky(h, self.slope)
        return h, inputs if keep else None

    def backward(self, inputs: list[np.ndarray], dout: np.ndarray,
                 grads: dict[str, np.ndarray]) -> np.ndarray:
        """Accumulate parameter grads; return the input cotangent.

        A hidden layer's output is the next layer's kept input, which
        gives its activation mask.
        """
        d = dout
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self.layers) - 1:
                d = _leaky_grad(d, inputs[i + 1], self.slope)
            grads[f"{self.prefix}.layer{i}.weight"] += d.T @ inputs[i]
            grads[f"{self.prefix}.layer{i}.bias"] += d.sum(axis=0)
            d = d @ self.layers[i][0]
        return d


class _MessageBlock:
    """The per-port message MLPs of one class, run side by side on a port axis.

    Activations are laid out ``(n_e, P, width)``, edge-major, so the block's
    rows of the engine's slot buffers follow ``ports.reshape(-1)``.  Every
    port's layer 0 reads the same gathered port latents ``(n_e, P*d)``; the
    encoder-context part of its input and its bias do not change over the
    integration and are added as the constant ``const0``.  Matmuls that read
    weights run per port on views of the parameter arrays: a stacked copy
    would cost as much memory as the message parameters themselves.  The
    VJP's weight gradients are stacked ``(P, out, in)`` arrays instead, so
    each layer's weight gradient is one batched matmul per step.
    """

    def __init__(self, params: ModelParams, cname: str, ports: np.ndarray,
                 xt: np.ndarray, rows: slice):
        cfg = params.config
        self.cname, self.rows, self.xt = cname, rows, xt
        self.n_e, self.n_p = ports.shape
        self.keys = [f"message.{cname}.{p}" for p in SCHEMA[cname].port_names]
        self.depth = len(cfg.message_hidden) + 1
        self.slope = cfg.leaky_slope
        self.split = self.n_p * cfg.latent_dim
        v = params.values
        w0 = [v[f"{k}.layer0.weight"] for k in self.keys]
        self.w0x = [w[:, self.split:] for w in w0]
        # per layer, per port: (out, in) weight views; layer 0's latent part
        self.w = [[w[:, :self.split] for w in w0]] + [
            [v[f"{k}.layer{i}.weight"] for k in self.keys]
            for i in range(1, self.depth)]
        self.b = [np.stack([v[f"{k}.layer{i}.bias"] for k in self.keys])
                  for i in range(self.depth)]
        self.const0 = np.empty((self.n_e, self.n_p, self.w[0][0].shape[0]))
        for k, wx in enumerate(self.w0x):
            np.matmul(xt, wx.T, out=self.const0[:, k])
        self.const0 += self.b[0]

    def forward(self, g: np.ndarray, out: np.ndarray) -> list[np.ndarray]:
        """Messages of gathered latents ``g`` into ``out``; returns hidden activations."""
        n_e, n_p = self.n_e, self.n_p
        g = g.reshape(n_e, self.split)
        acts: list[np.ndarray] = []
        for i, ws in enumerate(self.w):
            last = i == self.depth - 1
            z = out.reshape(n_e, n_p, -1) if last \
                else np.empty((n_e, n_p, ws[0].shape[0]))
            for k, w in enumerate(ws):
                np.matmul(g if i == 0 else acts[-1][:, k], w.T, out=z[:, k])
            z += self.const0 if i == 0 else self.b[i]
            if not last:
                acts.append(_leaky(z, self.slope))
        return acts

    def start_grads(self) -> dict[str, np.ndarray]:
        """Zero gradients stacked on the port axis; returns their per-port slices."""
        n_p, h0 = self.n_p, self.const0.shape[2]
        self.gw = [np.zeros((n_p, h0, self.split + self.w0x[0].shape[1]))] + [
            np.zeros((n_p, *ws[0].shape)) for ws in self.w[1:]]
        self.gb = [np.zeros_like(b) for b in self.b]
        # latent part of layer 0, ports stacked row-wise: one matmul per step
        self.gw0h = self.gw[0][:, :, :self.split].reshape(n_p * h0, self.split)
        self.dz0_sum = np.zeros_like(self.const0)
        return {f"{key}.layer{i}.{kind}": stack[k]
                for k, key in enumerate(self.keys)
                for i in range(self.depth)
                for kind, stack in (("weight", self.gw[i]), ("bias", self.gb[i]))}

    def backward(self, g: np.ndarray, acts: list[np.ndarray], mbar: np.ndarray,
                 dg: np.ndarray) -> None:
        """One step's backward pass: accumulate weight grads, write the latent cotangent."""
        n_e, n_p = self.n_e, self.n_p
        dz = mbar.reshape(n_e, n_p, -1)
        for i in range(self.depth - 1, 0, -1):
            a = acts[i - 1]
            self.gw[i] += np.matmul(dz.transpose(1, 2, 0), a.transpose(1, 0, 2))
            self.gb[i] += dz.sum(axis=0)
            da = np.empty_like(a)
            for k, w in enumerate(self.w[i]):
                np.matmul(dz[:, k], w, out=da[:, k])
            dz = _leaky_grad(da, a, self.slope)
        g = g.reshape(n_e, self.split)
        self.gw0h += dz.reshape(n_e, -1).T @ g
        self.dz0_sum += dz
        dg = dg.reshape(n_e, self.split)
        np.matmul(dz[:, 0], self.w[0][0], out=dg)
        for k in range(1, n_p):
            dg += dz[:, k] @ self.w[0][k]

    def finish_grads(self) -> np.ndarray:
        """Context part of the layer-0 gradients, from the summed cotangent.

        Returns the cotangent of the class's encoder output.
        """
        dz0 = self.dz0_sum
        np.matmul(dz0.transpose(1, 2, 0), self.xt, out=self.gw[0][:, :, self.split:])
        dz0.sum(axis=0, out=self.gb[0])
        xbar = np.zeros_like(self.xt)
        for k, wx in enumerate(self.w0x):
            xbar += dz0[:, k] @ wx
        return xbar


class _Engine:
    """One batch run of the model over the disjoint union of compiled contexts.

    ``classes`` lays the union out like one context, in the shape of
    :attr:`CompiledContext.classes`: each class's edges context by context,
    ports offset by the address count of the contexts before.  ``spans``
    holds each context's address rows and ``counts`` its edge count per
    class, which split outputs back.  :meth:`integrate` keeps the latents
    in ``states``, which :func:`vjp` sweeps back from.

    Every (edge, port) pair owns one row ("slot") of the step's slot
    buffers, class by class, edge-major.  A step gathers the slots'
    address latents, lets each class's :class:`_MessageBlock` write its
    messages into its rows, and sums all rows into their addresses with
    one ``np.bincount`` on a flat index built here.
    """

    def __init__(self, params: ModelParams, parts: Sequence[CompiledContext]):
        self.params = params
        self.cfg = params.config
        self.parts = list(parts)
        bounds = np.cumsum([0] + [p.address_count for p in self.parts])
        self.address_count = int(bounds[-1])
        self.spans = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        by_class = [{c[0]: c for c in p.classes} for p in self.parts]
        self.classes: list[tuple[str, np.ndarray, np.ndarray]] = []
        self.counts: dict[str, list[int]] = {}
        for cname in sorted({c for cls in by_class for c in cls}):
            members = [(cls[cname], off) for cls, off in zip(by_class, bounds)
                       if cname in cls]
            self.classes.append((
                cname, np.concatenate([feats for (_, feats, _), _ in members]),
                np.concatenate([ports + off for (_, _, ports), off in members])))
            self.counts[cname] = [len(cls[cname][2]) if cname in cls else 0
                                  for cls in by_class]
        self.states: list[np.ndarray] = []
        self.enc = {c: _MLP(params, f"encoder.{c}") for c, _, _ in self.classes}
        self.dec = {c: _MLP(params, f"decoder.{c}") for c, _, _ in self.classes
                    if SCHEMA[c].is_controller}
        self.dyn_w = params.values["dynamics.layer0.weight"]
        self.dyn_b = params.values["dynamics.layer0.bias"]
        self.xt: dict[str, np.ndarray] = {}
        self.blocks: list[_MessageBlock] = []
        start = 0
        for cname, feats, ports in self.classes:
            self.xt[cname], _ = self.enc[cname].forward(feats)
            rows = slice(start, start + ports.size)
            self.blocks.append(_MessageBlock(params, cname, ports,
                                             self.xt[cname], rows))
            start = rows.stop
        d = self.cfg.latent_dim
        self.slot_addr = np.concatenate(
            [ports.reshape(-1) for _, _, ports in self.classes]
            or [np.zeros(0, dtype=int)])
        self._flat = (self.slot_addr[:, None] * d + np.arange(d)).reshape(-1)

    def _scatter(self, rows: np.ndarray) -> np.ndarray:
        """Sum slot rows into their addresses (in slot order)."""
        n, d = self.address_count, self.cfg.latent_dim
        return np.bincount(self._flat, weights=rows.reshape(-1),
                           minlength=n * d).reshape(n, d)

    def drive(self, h: np.ndarray, keep: bool = False):
        """The drive ``f(h)``; optionally keep what its pull-back reads.

        The kept internals are ``(mt, (g, acts), (hm, k))``: the squashed
        message sums, the gathered latents with every block's hidden
        activations, and the dynamics input ``[h | mt]`` with its output.
        """
        d = self.cfg.latent_dim
        g = h[self.slot_addr]
        m = np.empty_like(g)
        acts = []
        for blk in self.blocks:
            blk_acts = blk.forward(g[blk.rows], m[blk.rows])
            if keep:  # a plain evaluation frees each block's activations at once
                acts.append(blk_acts)
        hm = np.empty((h.shape[0], 2 * d))
        hm[:, :d] = h
        mt = np.tanh(self._scatter(m), out=hm[:, d:])
        k = _leaky(hm @ self.dyn_w.T + self.dyn_b, self.cfg.leaky_slope)
        return k, (mt, (g, acts) if keep else None, (hm, k))

    def drive_backward(self, kbar: np.ndarray, internals, grads) -> np.ndarray:
        """Pull a drive cotangent back through one kept evaluation.

        Accumulates the weight gradients and returns the latent cotangent;
        ``kbar`` is overwritten.
        """
        d = self.cfg.latent_dim
        mt, (g, acts), (hm, k) = internals
        d_pre = _leaky_grad(kbar, k, self.cfg.leaky_slope)
        grads["dynamics.layer0.weight"] += d_pre.T @ hm
        grads["dynamics.layer0.bias"] += d_pre.sum(axis=0)
        du = d_pre @ self.dyn_w
        mbar = (du[:, d:] * (1.0 - mt * mt))[self.slot_addr]
        dg = np.empty_like(mbar)
        for blk, blk_acts in zip(self.blocks, acts):
            blk.backward(g[blk.rows], blk_acts, mbar[blk.rows], dg[blk.rows])
        return du[:, :d] + self._scatter(dg)

    def step(self, h: np.ndarray, keep: bool = False):
        """One Heun step; optionally keep both stages' internals.

        ``k1 = f(h)``, ``k2 = f(h + dt k1)``, ``h' = h + dt/2 (k1 + k2)``.
        """
        dt = self.cfg.dt
        k1, stage1 = self.drive(h, keep)
        k2, stage2 = self.drive(h + dt * k1, keep)
        return h + 0.5 * dt * (k1 + k2), (stage1, stage2)

    def step_backward(self, hbar: np.ndarray, internals, grads) -> np.ndarray:
        """Pull ``hbar`` back through one kept step; returns the earlier ``hbar``.

        Stage 2 goes first: it read ``h + dt k1``, so its latent cotangent
        reaches both ``h`` and, scaled by ``dt``, stage 1's drive.
        """
        dt = self.cfg.dt
        stage1, stage2 = internals
        hbar2 = self.drive_backward(0.5 * dt * hbar, stage2, grads)
        hbar1 = self.drive_backward(0.5 * dt * hbar + dt * hbar2, stage1, grads)
        return hbar + hbar2 + hbar1

    def integrate(self) -> list[np.ndarray]:
        """Run all Heun steps from zero latents and keep, in ``states``, the
        latents before the first step and after every step; returns them."""
        self.states = [np.zeros((self.address_count, self.cfg.latent_dim))]
        for _ in range(self.cfg.steps):
            self.states.append(self.step(self.states[-1])[0])
        return self.states

    def restrict(self, keep: list[int]) -> "_Engine":
        """The same run over the contexts ``keep`` only.

        The sub-engine reuses those contexts' compiled arrays and the rows
        of every state that belong to them.
        """
        if keep == list(range(len(self.parts))):
            return self
        rows = np.concatenate([self.spans[i] for i in keep] or [np.zeros(0, int)])
        sub = _Engine(self.params, [self.parts[i] for i in keep])
        sub.states = [h[rows] for h in self.states]
        return sub

    def decode(self, h: np.ndarray) -> list[dict[str, np.ndarray]]:
        """Decoder outputs per context: per controller class, the rows of
        that context's edges, ``(edges, decision_dim)``, in its edge order."""
        out: list[dict[str, np.ndarray]] = [{} for _ in self.parts]
        for cname, _, ports in self.classes:
            if cname not in self.dec:
                continue
            u = np.concatenate([self.xt[cname], _gather(h, ports)], axis=1)
            z, _ = self.dec[cname].forward(u)
            bounds = np.cumsum([0, *self.counts[cname]])
            for per_context, a, b in zip(out, bounds[:-1], bounds[1:]):
                if b > a:
                    per_context[cname] = z[a:b]
        return out


def forward(params: ModelParams, x: CompiledContext | Sequence[CompiledContext]):
    """Raw surrogate decision for a compiled context (offsets not applied).

    A sequence of contexts runs as one integration over their disjoint
    union and returns the per-context decisions together with the
    :class:`_Engine` that ran them, per-step latents kept, which
    :func:`vjp` takes.
    """
    single = isinstance(x, CompiledContext)
    run = _Engine(params, [x] if single else x)
    zs = run.decode(run.integrate()[-1])
    return zs[0] if single else (zs, run)


def vjp(run: _Engine, cotangents: Sequence) -> ModelParams:
    """Parameter cotangent of a batch ``forward``, at the parameters it ran
    with, for one output cotangent per context of the engine it returned.

    An output cotangent has the layout of the surrogate decision it pulls
    back: per controller class of the context, one ``(edges, decision_dim)``
    array in the context's edge order; None leaves its context out.  The
    sweep runs over the other contexts only, from the engine's per-step
    latents, and returns the sum of their parameter cotangents.

    Reverse accumulation runs through the decoders, every Heun step, and
    the encoders.  Each step is recomputed once from the latents before it,
    so only one step's drive internals are alive at a time.  Weight
    gradients are accumulated once per drive evaluation, newest step first
    and within a step stage 2 before stage 1.
    """
    if len(cotangents) != len(run.parts):
        raise ValueError(f"{len(cotangents)} cotangents for {len(run.parts)} contexts")
    keep = [i for i, cot in enumerate(cotangents) if cot is not None]
    eng, cotangents = run.restrict(keep), [cotangents[i] for i in keep]
    params = eng.params
    cfg = params.config
    stacked = {k: a for blk in eng.blocks for k, a in blk.start_grads().items()}
    grads = {k: stacked[k] if k in stacked else np.zeros_like(v)
             for k, v in params.values.items()}
    xbar = {cname: np.zeros_like(xt) for cname, xt in eng.xt.items()}
    hbar = np.zeros_like(eng.states[-1])

    # Decoders
    for cname, _, ports in eng.classes:
        if cname not in eng.dec:
            continue
        d_out = np.concatenate([cot[cname] for cot, n
                                in zip(cotangents, eng.counts[cname]) if n])
        u = np.concatenate([eng.xt[cname], _gather(eng.states[-1], ports)], axis=1)
        _, inputs = eng.dec[cname].forward(u, keep=True)
        du = eng.dec[cname].backward(inputs, d_out, grads)
        e = cfg.encoder_out
        xbar[cname] += du[:, :e]
        dh = du[:, e:].reshape(ports.shape[0], -1, cfg.latent_dim)
        np.add.at(hbar, ports.reshape(-1), dh.reshape(-1, cfg.latent_dim))

    # Heun steps, newest first; a recomputed step keeps both stages
    for h in reversed(eng.states[:-1]):
        _, internals = eng.step(h, keep=True)
        hbar = eng.step_backward(hbar, internals, grads)

    # Context part of the message layer 0, then the encoders
    for blk in eng.blocks:
        xbar[blk.cname] += blk.finish_grads()
    for cname, feats, _ in eng.classes:
        _, inputs = eng.enc[cname].forward(feats, keep=True)
        eng.enc[cname].backward(inputs, xbar[cname], grads)

    return ModelParams(cfg, grads)


# ---------------------------------------------------------------------------
# Checkpoint files

#: The scheme ``integrate`` runs, written into every checkpoint's meta.
#: Parameters trained under another scheme would decide differently.
INTEGRATOR = "heun"


def save_checkpoint(path: str | Path, params: ModelParams,
                    normalizer: Normalizer | None = None,
                    seed: int | None = None,
                    extra: dict | None = None) -> None:
    """Save ``params`` with a meta of ``config``, ``integrator``,
    ``schema_hash``, ``normalizer`` (the ``to_json`` document of the one the
    parameters were trained with, or ``None``), ``seed`` and ``extra``."""
    meta = {
        "config": config_to_json(params.config),
        "integrator": INTEGRATOR,
        "schema_hash": schema_hash(),
        "normalizer": normalizer.to_json() if normalizer is not None else None,
        "seed": seed,
    }
    if extra:
        meta.update(extra)
    arrays = {f"param/{k}": v for k, v in params.values.items()}
    np.savez(path, __meta__=json.dumps(meta, sort_keys=True), **arrays)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Parameters and meta of a checkpoint saved for this scheme and schema.

    A checkpoint whose ``integrator`` entry is not :data:`INTEGRATOR` is
    refused rather than integrated with another scheme; one whose
    ``schema_hash`` differs was trained on another class table, and one
    with no ``config`` in its meta cannot be rebuilt at all.  The MLPs
    read their depth from the names, so a tensor missing, extra or shaped
    unlike :func:`_param_shapes` of the stored config is refused by name.
    """
    with np.load(path, allow_pickle=False) as blob:
        meta = json.loads(str(blob["__meta__"])) if "__meta__" in blob.files else {}
        values = {k[len("param/"):]: blob[k] for k in blob.files
                  if k.startswith("param/")}
    if "config" not in meta:
        raise ValueError(f"checkpoint {path} carries no model config in its meta")
    if meta.get("integrator") != INTEGRATOR:
        raise ValueError(f"checkpoint {path} was trained with integrator "
                         f"{meta.get('integrator')!r}, but the model integrates with "
                         f"{INTEGRATOR!r}; its parameters would decide differently "
                         f"under this scheme, so retrain it")
    if meta.get("schema_hash") != schema_hash():
        raise ValueError(f"checkpoint {path} has schema hash {meta.get('schema_hash')!r}, "
                         f"but this grid schema hashes to {schema_hash()!r}")
    config = config_from_json(ModelConfig, meta["config"])
    shapes, got = _param_shapes(config), {k: v.shape for k, v in values.items()}
    for name in sorted(shapes.keys() | got.keys()):
        if got.get(name) != shapes.get(name):
            raise ValueError(f"checkpoint {path}: parameter {name!r} has shape "
                             f"{got.get(name, '(missing)')}, but its config says "
                             f"{shapes.get(name, '(no such parameter)')}")
    return ModelParams(config, values), meta
