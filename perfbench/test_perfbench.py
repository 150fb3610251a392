"""Tests of the benchmark itself: span self time, a smoke run, the CLI guard.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402
from gridtvc.model import ModelConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Sizes(train_contexts=4, val_contexts=2, iterations=1, evaluate_contexts=3,
             setups=2,
             model=ModelConfig(latent_dim=4, encoder_out=4, encoder_hidden=(8,),
                               message_hidden=(8,), decoder_hidden=(8,), dt=0.1,
                               checkpoint_every=5))


def test_self_time_subtracts_children_once():
    spans = [
        Span("bench.w", 0.0, 10.0, -1, ""),
        Span("model.forward", 1.0, 4.0, 0, "a"),
        Span("powerflow.evaluate_objective", 3.0, 6.0, 0, "a"),  # overlaps
        Span("powerflow.apply_decision", 3.5, 4.5, 2, "a"),
        Span("policy.most_probable", 9.0, 12.0, 0, "b"),         # runs past
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 3.0, 2.0, 1.0, 3.0])


def test_layer_self_times_add_up_to_the_root():
    spans = [
        Span("bench.w", 0.0, 10.0, -1, ""),
        Span("model.forward", 1.0, 3.0, 0, "a"),
        Span("powerflow.evaluate_objective", 3.0, 6.0, 0, "a"),
        Span("powerflow.apply_decision", 3.5, 4.5, 2, "a"),
    ]
    layers = tracing.layer_self_seconds(spans)
    assert layers == pytest.approx({"bench": 5.0, "model": 2.0, "powerflow": 3.0})
    assert sum(layers.values()) == pytest.approx(spans[0].duration)


def test_tracer_records_nested_calls_and_restores_names():
    from workloads import MODULES, policy

    original = policy.most_probable
    tr = tracing.Tracer()
    tr.install(MODULES)
    try:
        assert policy.most_probable is not original
        with tr.span("bench.t", context="ctx-0"):
            with tr.span("model.forward"):
                pass
    finally:
        tr.uninstall()
    assert policy.most_probable is original
    assert [(s.name, s.parent, s.context) for s in tr.spans] == [
        ("bench.t", -1, "ctx-0"), ("model.forward", 0, "ctx-0")]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        res = bench.measure(workload, seed=1, seconds=0, trace=trace,
                            work=tmp_path / kind, sizes=TINY,
                            trace_dir=tmp_path / "traces")
        assert res["correct"], res["errors"]
        assert res["attempted"] >= 1 and res["failed"] == 0
        for m in SPEC[kind]:
            value, unit = res["metrics"][m["name"]]
            assert unit == m["unit"], m["name"]
            assert isinstance(value, float | int), m["name"]
    assert (tmp_path / "traces" / f"trace-{workload}-seed1.jsonl").is_file()


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
