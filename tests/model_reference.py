"""The per-port graph-ODE loop, kept as the reference for the fused model.

This is the straightforward form of ``gridtvc.model``'s Heun step: one
message MLP call per (class, port) and one ``np.add.at`` scatter per class
in each drive evaluation, and a VJP that recomputes one step at a time
from the latents the forward kept after every step.  Every MLP, the
dynamics layer included, runs on this module's own :class:`ReferenceMLP`,
whose leaky ReLU is the ``np.where`` form, independent of the model's
in-place one.  ``tests/test_model_reference.py`` checks the fused engine
against it.
"""

from __future__ import annotations

import numpy as np

from gridtvc.gridgen import CompiledContext
from gridtvc.h2mg import SCHEMA, SurrogateDecision
from gridtvc.model import ModelParams, _gather


class ReferenceMLP:
    """One MLP over the flat parameter dict, layers ``{prefix}.layer{i}``.

    Every layer but the last is leaky-ReLU activated, and with
    ``activate_output`` the last one too, as in the dynamics layer.
    """

    def __init__(self, params: ModelParams, prefix: str, activate_output: bool = False):
        self.prefix = prefix
        self.slope = params.config.leaky_slope
        self.activate_output = activate_output
        self.layers = []
        while f"{prefix}.layer{len(self.layers)}.weight" in params.values:
            layer = len(self.layers)
            self.layers.append((params.values[f"{prefix}.layer{layer}.weight"],
                                params.values[f"{prefix}.layer{layer}.bias"]))

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x, keep=False)
        return out

    def forward_cached(self, x: np.ndarray, keep: bool = True):
        cache = []
        h = x
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            pre = h @ w.T + b
            if keep:
                cache.append((h, pre))
            if i < last or self.activate_output:
                h = np.where(pre > 0, pre, self.slope * pre)
            else:
                h = pre
        return h, cache

    def backward(self, cache, dout: np.ndarray, grads: dict[str, np.ndarray]):
        """Accumulate parameter grads; return the input cotangent."""
        last = len(self.layers) - 1
        d = dout
        for i in range(last, -1, -1):
            w, _ = self.layers[i]
            h_in, pre = cache[i]
            if i < last or self.activate_output:
                d = d * np.where(pre > 0, 1.0, self.slope)
            grads[f"{self.prefix}.layer{i}.weight"] += d.T @ h_in
            grads[f"{self.prefix}.layer{i}.bias"] += d.sum(axis=0)
            d = d @ w
        return d


class ReferenceEngine:
    """Per-port forward machinery for plain evaluation and the VJP sweep."""

    def __init__(self, params: ModelParams, x: CompiledContext):
        self.params = params
        self.cfg = params.config
        self.prep = x
        self.enc = {c: ReferenceMLP(params, f"encoder.{c}")
                    for c, _, _ in self.prep.classes}
        self.msg = {}
        for cname, _, _ in self.prep.classes:
            for pname in SCHEMA[cname].port_names:
                self.msg[(cname, pname)] = ReferenceMLP(
                    params, f"message.{cname}.{pname}")
        self.dec = {c: ReferenceMLP(params, f"decoder.{c}")
                    for c, _, _ in self.prep.classes
                    if SCHEMA[c].is_controller}
        self.dyn = ReferenceMLP(params, "dynamics", activate_output=True)
        self.xt: dict[str, np.ndarray] = {}
        for cname, feats, _ in self.prep.classes:
            self.xt[cname] = self.enc[cname].forward(feats)

    def drive(self, h: np.ndarray, keep: bool = False):
        d = self.cfg.latent_dim
        s = np.zeros((self.prep.address_count, d))
        cls_cache = {}
        for cname, _, ports in self.prep.classes:
            u = np.concatenate([_gather(h, ports), self.xt[cname]], axis=1)
            stack = np.empty((ports.shape[0], ports.shape[1], d))
            caches = []
            for k, pname in enumerate(SCHEMA[cname].port_names):
                out, cache = self.msg[(cname, pname)].forward_cached(u, keep=keep)
                stack[:, k, :] = out
                caches.append(cache)
            np.add.at(s, ports.reshape(-1), stack.reshape(-1, d))
            if keep:
                cls_cache[cname] = (u, caches)
        mt = np.tanh(s)
        k, dyn_cache = self.dyn.forward_cached(
            np.concatenate([h, mt], axis=1), keep=keep)
        return k, (mt, cls_cache, dyn_cache)

    def drive_backward(self, kbar, internals, grads, xbar):
        """Latent cotangent of one drive evaluation; accumulates grads and ``xbar``."""
        d = self.cfg.latent_dim
        mt, cls_cache, dyn_cache = internals
        du = self.dyn.backward(dyn_cache, kbar, grads)
        hbar = du[:, :d].copy()
        sbar = du[:, d:] * (1.0 - mt * mt)
        for cname, _, ports in self.prep.classes:
            u, caches = cls_cache[cname]
            mbar = sbar[ports.reshape(-1)].reshape(ports.shape[0], ports.shape[1], d)
            du_cls = np.zeros_like(u)
            for kp, pname in enumerate(SCHEMA[cname].port_names):
                du_cls += self.msg[(cname, pname)].backward(
                    caches[kp], mbar[:, kp, :], grads)
            split = ports.shape[1] * d
            np.add.at(hbar, ports.reshape(-1), du_cls[:, :split].reshape(-1, d))
            xbar[cname] += du_cls[:, split:]
        return hbar

    def step(self, h: np.ndarray, keep: bool = False):
        k1, stage1 = self.drive(h, keep)
        k2, stage2 = self.drive(h + self.cfg.dt * k1, keep)
        h_next = h + self.cfg.dt / 2 * (k1 + k2)
        return h_next, (stage1, stage2)

    def integrate(self) -> list[np.ndarray]:
        """The latents before the first step and after every step."""
        states = [np.zeros((self.prep.address_count, self.cfg.latent_dim))]
        for _ in range(self.cfg.steps):
            states.append(self.step(states[-1])[0])
        return states

    def decode(self, h: np.ndarray) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for cname, _, ports in self.prep.classes:
            if cname not in self.dec:
                continue
            u = np.concatenate([self.xt[cname], _gather(h, ports)], axis=1)
            out[cname] = self.dec[cname].forward(u)
        return out


def reference_forward(params: ModelParams, x: CompiledContext) -> SurrogateDecision:
    eng = ReferenceEngine(params, x)
    return eng.decode(eng.integrate()[-1])


def reference_vjp(params: ModelParams, x: CompiledContext,
                  cotangent: dict[str, np.ndarray]) -> ModelParams:
    eng = ReferenceEngine(params, x)
    cfg = params.config
    states = eng.integrate()
    h_final = states[-1]

    grads = params.zeros_like().values
    xbar = {cname: np.zeros_like(xt) for cname, xt in eng.xt.items()}
    hbar = np.zeros_like(h_final)

    for cname, _, ports in eng.prep.classes:
        if cname not in eng.dec:
            continue
        n_e = ports.shape[0]
        d_out = cotangent.get(cname, np.zeros((n_e, SCHEMA[cname].decision_dim)))
        u = np.concatenate([eng.xt[cname], _gather(h_final, ports)], axis=1)
        _, cache = eng.dec[cname].forward_cached(u)
        du = eng.dec[cname].backward(cache, d_out, grads)
        e = cfg.encoder_out
        xbar[cname] += du[:, :e]
        dh = du[:, e:].reshape(n_e, -1, cfg.latent_dim)
        np.add.at(hbar, ports.reshape(-1), dh.reshape(-1, cfg.latent_dim))

    for h in reversed(states[:-1]):
        _, (stage1, stage2) = eng.step(h, keep=True)
        hbar2 = eng.drive_backward(cfg.dt / 2 * hbar, stage2, grads, xbar)
        hbar1 = eng.drive_backward(cfg.dt / 2 * hbar + cfg.dt * hbar2, stage1,
                                   grads, xbar)
        hbar = hbar + hbar2 + hbar1

    for cname, feats, _ in eng.prep.classes:
        _, cache = eng.enc[cname].forward_cached(feats)
        eng.enc[cname].backward(cache, xbar[cname], grads)

    return ModelParams(cfg, grads)
