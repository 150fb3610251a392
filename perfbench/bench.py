"""One benchmark run: set up, measure, check, and turn passes into metrics.

An untraced run (``trace=False``) reports the end-to-end metrics.  A traced
run makes one set-up and one untraced pass, then the same set-up and pass
again with a :class:`tracing.Tracer` installed, and reports the per-layer
metrics from the spans; the two passes must give the same digest.
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path

import numpy as np

from gridtvc import powerflow

import tracing
from workloads import MODULES, WORKLOADS, Pass, Sizes

#: Most (context, decision) pairs a traced run replays through the solver.
MAX_REPLAY = 150


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(wl, setups: int):
    """Run every set-up.

    Returns the last set-up's state, each set-up's seconds and the decision
    latencies the set-ups timed.
    """
    states, seconds = [], []
    for k in range(setups):
        t0 = time.perf_counter()
        states.append(wl.setup(k))
        seconds.append(time.perf_counter() - t0)
    return states[-1], seconds, [d for s in states for d in s["decide_s"]]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def end_to_end(setup_s: list[float], passes: list[Pass], decide_s: list[float],
               ) -> dict[str, tuple[float, str]]:
    """The gated metrics: set-up time, memory, decision latency, throughput."""
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "decide_ms_p50": (1e3 * statistics.median(decide_s), "ms"),
        "useful_contexts_per_s": (sum(p.useful for p in passes)
                                  / sum(p.seconds for p in passes), "1/s"),
    }


def reported(passes: list[Pass], decide_s: list[float]) -> dict[str, tuple[float, str]]:
    """Figures printed with every run but not gated.

    ``contexts_per_s`` on train follows the share of modes that converge,
    and ``fail_share`` and ``mean_objective`` are fixed by the seed, so
    their spread across seeds is not run-to-run noise.
    """
    first = passes[0]
    return {
        "decide_ms_min": (1e3 * min(decide_s), "ms"),
        "contexts_per_s": (sum(p.contexts for p in passes)
                           / sum(p.seconds for p in passes), "1/s"),
        "fail_share": (first.failed_outcomes / first.outcomes, "share"),
        "mean_objective": (float(np.mean(first.objectives)), "cost"),
    }


def _replay(pairs: list[tuple]) -> dict[str, tuple[float, str]]:
    """Solver counts for a spread-out subset of the oracle's (context, decision)s."""
    solver = powerflow.SolverOptions()
    if len(pairs) > MAX_REPLAY:
        pick = np.linspace(0, len(pairs) - 1, MAX_REPLAY).round().astype(int)
        pairs = [pairs[i] for i in pick]
    inner, outer, capped = [], [], 0
    for x, y in pairs:
        sol = powerflow.solve_ac(powerflow.apply_decision(x, y), solver)
        inner.append(sol.inner_iterations)
        outer.append(sol.outer_iterations)
        capped += (not sol.converged) and sol.outer_iterations == solver.max_outer
    n = max(len(pairs), 1)
    return {
        "powerflow.newton_iters_per_call": (sum(inner) / n, "count"),
        "powerflow.outer_rounds_per_call": (sum(outer) / n, "count"),
        "powerflow.capped_share": (capped / n, "share"),
    }


def _oracle_share(tr: tracing.Tracer) -> float:
    """Median share of oracle time in the cost of a converged training context.

    A converged context is one ``trainer.train`` ran ``vjp`` for; its cost
    is its forward, estimate and vjp spans.
    """
    train = {i for i, s in enumerate(tr.spans) if s.name == "trainer.train"}
    cost: dict[str, float] = {}
    oracle: dict[str, float] = {}
    converged = set()
    for s in tr.spans:
        if s.parent in train and s.name in (
                "model.forward", "model.vjp", "estimator.estimate_gradient"):
            cost[s.context] = cost.get(s.context, 0.0) + s.duration
            if s.name == "model.vjp":
                converged.add(s.context)
        elif s.name == "powerflow.evaluate_objective":
            oracle[s.context] = oracle.get(s.context, 0.0) + s.duration
    return _median([oracle.get(c, 0.0) / cost[c] for c in converged])


def per_layer(tr: tracing.Tracer, self_s: dict[str, float], traced_s: float,
              overhead: float) -> dict[str, tuple[float, str]]:
    """Metrics of single layers from the traced spans.

    A layer's time that a workload never spends would read exactly 0 on
    every run, so per-layer seconds are listed only for layers both
    workloads call; every layer's self time is also given as its share of
    the traced wall time.
    """
    oracle = np.concatenate([tr.durations(n) for n in tracing.ORACLE_SPANS])
    fwd, vjp = tr.durations("model.forward"), tr.durations("model.vjp")
    gen = tr.durations("gridgen.generate_context")
    norm = tr.durations("gridgen.normalize")
    return {
        "model.forward_s_p50": (_median(fwd), "s"),
        "model.self_s": (self_s.get("model", 0.0), "s"),
        "model.calls": (len(fwd) + len(vjp), "count"),
        "model.vjp_share": (float(vjp.sum()) / traced_s, "share"),
        "powerflow.oracle_ms_p50": (1e3 * _median(oracle), "ms"),
        "powerflow.oracle_ms_p90": (1e3 * float(np.percentile(oracle, 90))
                                    if len(oracle) else 0.0, "ms"),
        "powerflow.calls": (len(oracle), "count"),
        "powerflow.apply_decision_ms_p50": (
            1e3 * _median(tr.durations("powerflow.apply_decision")), "ms"),
        **_replay(tr.oracle_args),
        "powerflow.share_of_converged_context": (_oracle_share(tr), "share"),
        "baseline.calls": (len(tr.durations("baseline.init_baseline"))
                           + len(tr.durations("baseline.tune_baseline_offset")), "count"),
        "policy.self_s": (self_s.get("policy", 0.0), "s"),
        "gridgen.generate_ms_per_context": (1e3 * float(gen.mean()) if len(gen) else 0.0, "ms"),
        "gridgen.normalize_ms_per_context": (1e3 * float(norm.mean()) if len(norm) else 0.0, "ms"),
        "gridgen.fit_normalizer_s": (_median(tr.durations("gridgen.fit_normalizer")), "s"),
        **{f"{layer}.self_share": (self_s.get(layer, 0.0) / traced_s, "share")
           for layer in MODULES},
        "tracing_overhead_share": (overhead, "share"),
    }


def _layer_timings(tr: tracing.Tracer, self_s: dict[str, float],
                   ) -> dict[str, tuple[float, str]]:
    """Timings printed with a traced run only: some layers read 0 on a workload."""
    return {
        "model.vjp_s_p50": (_median(tr.durations("model.vjp")), "s"),
        "estimator.self_s": (self_s.get("estimator", 0.0), "s"),
        "trainer.self_s": (self_s.get("trainer", 0.0), "s"),
        "trainer.adam_step_ms_p50": (1e3 * _median(tr.durations("trainer.adam_step")), "ms"),
        "baseline.tune_s": (float(tr.durations("baseline.tune_baseline_offset").sum()), "s"),
    }


def _traced_pass(name: str, wl, setups: int) -> tuple:
    """The set-ups and one pass again, with every layer traced.

    Returns the tracer, the pass's state and raw output, and the wall time
    of the traced block as read outside the tracer.
    """
    tr = tracing.Tracer()
    tr.install(MODULES)
    try:
        t0 = time.perf_counter()
        with tr.span(f"bench.{name}"):
            with tr.span("bench.setup"):
                state, _, _ = _set_up(wl, setups)
            with tr.span("bench.pass"):
                raw = wl.run(state)
        wall_s = time.perf_counter() - t0
    finally:
        tr.uninstall()
    return tr, state, raw, wall_s


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            sizes: Sizes = Sizes(), trace_dir: Path | None = None) -> dict:
    """Run one workload; returns metrics, counts, errors, digest and a report."""
    wl = WORKLOADS[name](seed, sizes, work)
    # A traced run reports no set-up time, and one set-up per block keeps
    # its two blocks well inside the time a run may take.
    setups = 1 if trace else sizes.setups
    state, setup_s, decide_s = _set_up(wl, setups)
    passes = []
    start = time.perf_counter()
    while True:
        raw = wl.run(state)
        passes.append(wl.finish(state, raw))
        elapsed = time.perf_counter() - start
        if trace or elapsed + elapsed / len(passes) > seconds:
            break
    errors = [e for p in passes for e in p.errors]
    errors += [f"{name}: pass {i} digest differs from pass 0"
               for i, p in enumerate(passes) if p.digest != passes[0].digest]
    decide_s += [d for p in passes for d in p.decide_s]
    report = {"end_to_end": end_to_end(setup_s, passes, decide_s),
              "reported": reported(passes, decide_s),
              "passes": len(passes), "decide_samples": len(decide_s),
              "digest": passes[0].digest}

    metrics = report["end_to_end"]
    if trace:
        tr, state2, raw2, wall_s = _traced_pass(name, wl, setups)
        traced = wl.finish(state2, raw2)
        errors += traced.errors
        if traced.digest != passes[0].digest:
            errors.append(f"{name}: traced pass digest differs from the untraced one")
        layer_s = tracing.layer_self_seconds(tr.spans)
        if abs(sum(layer_s.values()) - wall_s) > 1e-3 * wall_s:
            errors.append(f"{name}: span self times add up to {sum(layer_s.values()):.4f} s, "
                          f"not the traced wall time {wall_s:.4f} s")
        # Both passes run warm, after the set-ups, and time themselves alike.
        overhead = (traced.seconds - passes[0].seconds) / passes[0].seconds
        metrics = per_layer(tr, layer_s, wall_s, overhead)
        report.update(per_layer=metrics, layer_timings=_layer_timings(tr, layer_s),
                      layer_self_s=layer_s, traced_s=wall_s)
        if trace_dir is not None:
            tr.dump(trace_dir / f"trace-{name}-seed{seed}.jsonl")

    attempted = sum(p.contexts for p in passes)
    return {"correct": not errors, "attempted": attempted,
            "failed": min(len(errors), attempted), "errors": errors,
            "metrics": metrics, "report": report}
