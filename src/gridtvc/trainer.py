"""Training loop, Adam, evaluation metrics, and configuration plumbing.

One iteration samples a minibatch of contexts (epoch-shuffled, without
replacement) and runs three phases.  The batch
:func:`~gridtvc.model.forward` integrates the minibatch's normalized
contexts once, as one disjoint-union graph, and returns the model's
engine for that union, which keeps its latents after every step.  Then
:func:`~gridtvc.estimator.estimate_gradient` is mapped over the contexts
against the batch oracle :func:`~gridtvc.powerflow.evaluate_objectives`,
which scores an estimate's mode decision and then all its distinct
samples in one batched solve: by the builtin ``map`` in-process, by
``pool.map`` in a worker pool that receives no parameters, the same call on
the same Philox streams either way.  Last, :func:`~gridtvc.model.vjp` on
that engine sweeps back from its latents over the contexts whose mode
decision converged, each estimate's per-class gradient arrays being its
context's output cotangent; their summed parameter gradient, divided by
the minibatch size, makes one Adam step.  Each ``train_log.jsonl`` record
carries the seconds of every phase, the count of decisions the oracle
scored, the mode decisions' solve statuses, the statuses and prohibitive
share of the estimators' distinct samples, and per controller class the
minibatch mean of the gradient's norm (``grad_norm``) and of its score
and entropy terms' norms (``score_norm``, ``entropy_norm``).  The log is
line-buffered, so every record is on disk once written.

Validation during training, ``evaluate`` and ``evaluate_checkpoint`` all
take the policy's decisions from one :func:`decide` and score them with
:func:`~gridtvc.powerflow.evaluate_objective`.  It integrates four contexts
at a time as one union through the batch :func:`~gridtvc.model.forward`
that training runs, and drops the engine it returns, latents and all: at
the default config that cuts the time per decision by about a third
against one context at a time, and eight contexts gain little more for
twice the memory.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import policy as policy_mod
from . import rng as grng
from .baseline import init_baseline
from .config import config_from_json, config_to_json, require_finite, require_integer
from .estimator import ESTIMATE_STATUSES, EstimatorConfig, estimate_gradient
from .gridgen import CompiledContext, Normalizer, fit_normalizer, load_dataset, normalize
from .h2mg import CONTROLLER_CLASSES, RTC_CATEGORIES, Decision, H2MGContext, H2MGError
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    vjp,
)
from .policy import PolicyConfig
from .powerflow import SOLVE_STATUSES, SolverOptions, evaluate_objective, evaluate_objectives

__all__ = ["AdamState", "TrainConfig", "adam_step", "train", "decide", "evaluate"]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    minibatch: int = 4
    iterations: int = 1000
    eval_every: int = 200
    eval_limit: int = 0          # 0 evaluates the full validation split
    seed: int = 0
    workers: int = 0             # 0 and 1 both run in-process
    train_dir: str = "data/train"
    val_dir: str = "data/val"
    out_dir: str = "runs/default"
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        require_finite(self, "learning_rate", "beta1", "beta2", "eps")
        for name in ("learning_rate", "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        require_integer("minibatch", self.minibatch, 1)
        for name in ("iterations", "eval_every", "eval_limit", "workers"):
            require_integer(name, getattr(self, name), 0)
        require_integer("seed", self.seed)


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """Adam's first and second moments per parameter, and the step count.

    :func:`adam_step` updates ``m``, ``v`` and ``t`` in place.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls({k: np.zeros_like(a) for k, a in params.values.items()},
                   {k: np.zeros_like(a) for k, a in params.values.items()}, 0)


def adam_step(params: ModelParams, grad: ModelParams, state: AdamState,
              cfg: TrainConfig) -> tuple[ModelParams, AdamState, bool]:
    """Bias-corrected moment update (Kingma & Ba, 2015), in place.

    Every gradient tensor is checked first: a non-finite one rejects the
    step, which then mutates nothing and returns ``False``.  Otherwise each
    tensor of ``params``, ``state.m`` and ``state.v`` is updated in place,
    ``state.t`` is bumped, and the same ``params`` and ``state`` objects are
    returned.  The step allocates two scratch arrays of one tensor at a
    time, never a parameter set.
    """
    for k in sorted(grad.values):
        if not np.all(np.isfinite(grad.values[k])):
            return params, state, False
    state.t += 1
    c1 = 1.0 - cfg.beta1 ** state.t
    c2 = 1.0 - cfg.beta2 ** state.t
    for k, p in params.values.items():
        _adam_update(p, grad.values[k], state.m[k], state.v[k], c1, c2, cfg)
    return params, state, True


def _adam_update(p, g, m, v, c1, c2, cfg):
    """One tensor's Adam update in place; its scratch dies on return.

    ``m = b1 m + (1-b1) g``, ``v = b2 v + (1-b2) g g`` and
    ``p -= lr (m/c1) / (sqrt(v/c2) + eps)``, rounded step by step as those
    expressions are evaluated left to right.
    """
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    gg = (1.0 - cfg.beta2) * g
    gg *= g
    v *= cfg.beta2
    v += gg
    step = m / c1
    step *= cfg.learning_rate
    np.divide(v, c2, out=gg)
    np.sqrt(gg, out=gg)
    gg += cfg.eps
    step /= gg
    p -= step


# ---------------------------------------------------------------------------
# Training

def _epoch_order(n: int, seed: int, needed: int) -> list[int]:
    order: list[int] = []
    epoch = 0
    while len(order) < needed:
        perm = grng.stream(seed, "epoch", epoch).permutation(n)
        order.extend(int(i) for i in perm)
        epoch += 1
    return order[:needed]


def train(cfg: TrainConfig) -> dict:
    """Run the full loop; returns a summary with checkpoint paths.

    The normalizer fit on the training split goes into every checkpoint,
    and into ``out_dir/normalizer.json``, which the benchmark reads.

    Every ``eval_every`` iterations the policy decides on the validation
    split, and the log's ``val_mean_objective`` averages every val
    context's objective, a failed solve counting
    :data:`~gridtvc.powerflow.PROHIBITIVE_COST`; it picks
    ``ckpt_best.npz``.  :func:`evaluate`'s ``mean_objective`` averages the
    converged contexts only.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_set = load_dataset(cfg.train_dir)
    val_set = load_dataset(cfg.val_dir)
    if not train_set:
        raise H2MGError("training dataset is empty")
    # a context's origin is its dataset id and keys its estimator stream
    overlap = ({x.metadata["origin"] for x in train_set}
               & {x.metadata["origin"] for x in val_set})
    if overlap:
        raise H2MGError(f"train/val context ids overlap: {sorted(overlap)[:5]}")

    norm = fit_normalizer(train_set)
    norm.save(out / "normalizer.json")

    train_pairs = [(x, normalize(x, norm)) for x in train_set]
    val_pairs = [(x, normalize(x, norm))
                 for x in (val_set[:cfg.eval_limit] if cfg.eval_limit > 0 else val_set)]

    params = init_params(cfg.model, grng.stream(cfg.seed, "init"))
    adam = AdamState.zeros(params)
    order = _epoch_order(len(train_pairs), cfg.seed,
                         cfg.iterations * cfg.minibatch)

    # written into every checkpoint, for evaluate_checkpoint to read back
    configs = {"policy": config_to_json(cfg.policy), "solver": config_to_json(cfg.solver)}
    # the batch oracle: each estimate scores its mode, then all its distinct
    # samples in one batched solve; looked up here, not at import, so a
    # replaced evaluate_objectives is called
    oracle = functools.partial(evaluate_objectives, opts=cfg.solver)
    pool = None
    if cfg.workers > 1:
        import multiprocessing as mp
        pool = ProcessPoolExecutor(max_workers=cfg.workers,
                                   mp_context=mp.get_context("spawn"))

    log_path = out / "train_log.jsonl"
    best = (math.inf, -1)
    summary = {"iterations": cfg.iterations, "rejected_steps": 0}
    try:
        with open(log_path, "w", buffering=1) as log:  # a record per line, flushed
            for it in range(cfg.iterations):
                batch = order[it * cfg.minibatch:(it + 1) * cfg.minibatch]
                xs = [train_pairs[i][0] for i in batch]
                rngs = [grng.stream(cfg.seed, "est", it, x.metadata["origin"]) for x in xs]
                t_forward = time.perf_counter()
                z_raw, run = forward(params, [train_pairs[i][1] for i in batch])
                t_estimate = time.perf_counter()
                zs = [policy_mod.apply_offsets(z, x, cfg.policy) for x, z in zip(xs, z_raw)]
                ests = list((map if pool is None else pool.map)(
                    estimate_gradient, xs, zs, repeat(cfg.estimator), repeat(oracle),
                    rngs, repeat(cfg.policy)))
                t_vjp = time.perf_counter()
                cotangents = [est.grads if est.converged else None for est in ests]
                if any(cot is not None for cot in cotangents):
                    grad = vjp(run, cotangents)
                    t_adam = time.perf_counter()
                else:
                    grad, t_adam = params.zeros_like(), t_vjp
                # free the union's engine and latents now, not when the next
                # forward rebinds them (Adam allocates no parameter set)
                del run
                for g in grad.values.values():
                    g /= cfg.minibatch
                params, adam, ok = adam_step(params, grad, adam, cfg)
                t_end = time.perf_counter()
                if not ok:
                    summary["rejected_steps"] += 1
                param_grad_norm = math.sqrt(sum(
                    float((g * g).sum()) for g in grad.values.values()))
                del grad  # so the next vjp does not run beside this gradient

                statuses = [est.status for est in ests]
                sampled = [sum(est.sample_status.values()) for est in ests]
                prohibitive = sum(est.prohibitive for est in ests)
                record = {
                    "iteration": it,
                    "mean_f_ref": float(np.mean([est.f_ref for est in ests])),
                    "convergence_rate": float(np.mean([est.converged for est in ests])),
                    "mode_status": {s: statuses.count(s) for s in ESTIMATE_STATUSES},
                    # decisions scored: each mode, then each distinct sample
                    "oracle_calls": len(ests) + sum(sampled),
                    "sample_status": {s: sum(est.sample_status[s] for est in ests)
                                      for s in ESTIMATE_STATUSES},
                    "prohibitive_share": prohibitive / sum(sampled) if sum(sampled) else 0.0,
                    "phase_s": {"forward": t_estimate - t_forward,
                                "estimate": t_vjp - t_estimate,
                                "vjp": t_adam - t_vjp, "adam": t_end - t_adam},
                    # per class, the mean of the GradEstimate field of that
                    # name (a failed mode's estimate counts 0)
                    **{key: {c: float(np.mean([getattr(est, key).get(c, 0.0)
                                               for est in ests]))
                             for c in CONTROLLER_CLASSES}
                       for key in ("grad_norm", "score_norm", "entropy_norm")},
                    "param_grad_norm": param_grad_norm,
                    "step_rejected": not ok,
                }
                log.write(json.dumps(record, sort_keys=True) + "\n")

                if cfg.eval_every and (it + 1) % cfg.eval_every == 0 and val_pairs:
                    results = [evaluate_objective(x, y, cfg.solver) for (x, _), y
                               in zip(val_pairs, decide(params, val_pairs, cfg.policy))]
                    val_obj = float(np.mean([res.total for res in results]))
                    val_rate = float(np.mean([res.converged for res in results]))
                    ckpt = out / f"ckpt_{it + 1:06d}.npz"
                    save_checkpoint(ckpt, params, norm, cfg.seed,
                                    {"iteration": it + 1,
                                     "val_mean_objective": val_obj, **configs})
                    log.write(json.dumps({
                        "iteration": it, "event": "eval",
                        "val_mean_objective": val_obj,
                        "val_convergence_rate": val_rate,
                        "checkpoint": ckpt.name}, sort_keys=True) + "\n")
                    if val_obj < best[0]:
                        best = (val_obj, it + 1)
                        shutil.copyfile(ckpt, out / "ckpt_best.npz")
    finally:
        if pool is not None:
            pool.shutdown()

    save_checkpoint(out / "ckpt_final.npz", params, norm, cfg.seed,
                    {"iteration": cfg.iterations, **configs})
    if best[1] < 0:
        shutil.copyfile(out / "ckpt_final.npz", out / "ckpt_best.npz")
    summary["best_val_objective"] = best[0] if best[1] >= 0 else None
    summary["best_iteration"] = best[1] if best[1] >= 0 else cfg.iterations
    summary["final_checkpoint"] = str(out / "ckpt_final.npz")
    summary["best_checkpoint"] = str(out / "ckpt_best.npz")
    summary["log"] = str(log_path)
    return summary


# ---------------------------------------------------------------------------
# Evaluation

#: Contexts per fused integration in :func:`decide`.  Default config, 2 vCPUs, one
#: BLAS thread, 20 val contexts, best of 5: 9.9 ms per decision and a 6.4 MB
#: tracemalloc peak, against 15.1 ms and 1.7 MB one at a time and 8.9 ms and
#: 12.4 MB at 8; no discrete flip, SVR set-points within 1e-18.
DECIDE_CHUNK = 4


def decide(params: ModelParams, pairs: list[tuple[H2MGContext, CompiledContext]],
           pol_cfg: PolicyConfig) -> list[Decision]:
    """The policy's most-probable decision on each (context, compiled context).

    The network integrates ``DECIDE_CHUNK`` contexts per batch
    :func:`~gridtvc.model.forward`, the one the training step runs, and
    drops the engine it returns.
    """
    chunks = [pairs[i:i + DECIDE_CHUNK] for i in range(0, len(pairs), DECIDE_CHUNK)]
    return [policy_mod.most_probable(policy_mod.apply_offsets(z, x, pol_cfg))
            for chunk in chunks
            for (x, _), z in zip(chunk, forward(params, [xn for _, xn in chunk])[0])]


def _mean(values: list) -> float | None:
    return float(np.mean(values)) if values else None


def _policy_metrics(records: list) -> dict:
    ok = [r for r in records if r.converged]
    return {
        "contexts": len(records),
        "converged": len(ok),
        "convergence_rate": len(ok) / len(records) if records else 0.0,
        "status": {s: sum(r.status == s for r in records) for s in SOLVE_STATUSES},
        "objective": [r.total for r in records],
        "mean_objective": _mean([r.total for r in ok]),
        "mean_over_voltages": _mean([r.over_voltages for r in ok]),
        "mean_under_voltages": _mean([r.under_voltages for r in ok]),
        "mean_violations": _mean([r.violations for r in ok]),
        "mean_overflows": _mean([r.overflows for r in ok]),
        "mean_joule_losses": _mean([r.joule_losses for r in ok]),
    }


def _lever_usage(decisions: list[Decision], contexts: list[H2MGContext]) -> dict:
    opened, switched = [], []
    svr_setpoints: list[float] = []
    rtc_counts = np.zeros(RTC_CATEGORIES)
    per_lever: dict[tuple[str, str], list[int]] = {}
    for x, y in zip(contexts, decisions):
        for cname, vals in y.items():
            for e, val in zip(x.edges_of(cname), vals.tolist()):
                if cname in ("line_controller", "shunt_controller"):
                    per_lever.setdefault((cname, e.id), []).append(val)
                    (opened if cname == "line_controller" else switched).append(val)
                elif cname == "svr_controller":
                    svr_setpoints.append(x.device(e).features["v_target"] + val)
                else:
                    rtc_counts[val] += 1
    usage = {f"{c}:{e}": float(np.mean(v)) for (c, e), v in sorted(per_lever.items())}
    total_rtc = rtc_counts.sum()
    return {
        "pct_lines_opened": float(np.mean(opened)) * 100 if opened else 0.0,
        "pct_shunts_switched": float(np.mean(switched)) * 100 if switched else 0.0,
        "svr_setpoint_mean": _mean(svr_setpoints),
        "svr_setpoint_std": float(np.std(svr_setpoints)) if svr_setpoints else None,
        "rtc_category_shares": (rtc_counts / total_rtc).tolist()
        if total_rtc else [0.0] * RTC_CATEGORIES,
        "per_lever_usage": usage,
    }


def evaluate(params: ModelParams, dataset: list[H2MGContext], norm: Normalizer,
             pol_cfg: PolicyConfig = PolicyConfig(),
             solver: SolverOptions = SolverOptions(),
             out_dir: str | Path | None = None) -> dict:
    """Compare the trained policy against the tuned reference on one split.

    Per context the policy's most-probable decision (``gnn``) and the
    baseline's (``init``) are each scored by one oracle call.  Each name's
    block lists every context's objective and averages over its converged
    contexts; ``paired`` compares the two where both converge.  A mean over
    no context is ``None``.  With ``out_dir`` set, the report is also
    written there as ``report.json``.
    """
    decisions = {"gnn": decide(params, [(x, normalize(x, norm)) for x in dataset],
                               pol_cfg),
                 "init": [init_baseline(x, pol_cfg.svr_offset) for x in dataset]}
    records = {name: [evaluate_objective(x, y, solver) for x, y in zip(dataset, ys)]
               for name, ys in decisions.items()}
    report = {name: {**_policy_metrics(records[name]),
                     **_lever_usage(decisions[name], dataset)}
              for name in ("gnn", "init")}
    both = [(g.total, i.total) for g, i in zip(records["gnn"], records["init"])
            if g.converged and i.converged]
    report["paired"] = {"contexts": len(both),
                        "gnn_mean_objective": _mean([g for g, _ in both]),
                        "init_mean_objective": _mean([i for _, i in both]),
                        "gnn_lower": sum(g < i for g, i in both)}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return report


def evaluate_checkpoint(ckpt_path: str | Path, data_dir: str | Path,
                        out_dir: str | Path | None = None,
                        pol_cfg: PolicyConfig | None = None,
                        solver: SolverOptions | None = None) -> dict:
    """:func:`evaluate` a checkpoint on a dataset with the normalizer it
    carries, and refuse one that carries none, as saved before checkpoints
    did.  An unset ``pol_cfg`` or ``solver`` is the one the run trained
    with, as its meta records it, else the default."""
    params, meta = load_checkpoint(ckpt_path)
    if not meta.get("normalizer"):
        raise H2MGError(f"checkpoint {ckpt_path} carries no normalizer")
    norm = Normalizer.from_json(meta["normalizer"])
    dataset = load_dataset(data_dir)
    if pol_cfg is None:
        pol_cfg = config_from_json(PolicyConfig, meta.get("policy", {}))
    if solver is None:
        solver = config_from_json(SolverOptions, meta.get("solver", {}))
    return evaluate(params, dataset, norm, pol_cfg, solver, out_dir)
