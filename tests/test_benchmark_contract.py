"""The benchmark under ``perfbench/`` still runs against this package.

The benchmark resolves package names (``powerflow.count_metrics``,
``trainer.evaluate_objective``, ...) and reads record fields at run time,
so deleting or renaming one passes every other test and fails every
benchmark run.  This runs one tiny traced measurement of each workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from gridtvc.model import ModelConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Sizes(train_contexts=4, val_contexts=2, iterations=1, evaluate_contexts=3,
             setups=2,
             model=ModelConfig(latent_dim=4, encoder_out=4, encoder_hidden=(8,),
                               message_hidden=(8,), decoder_hidden=(8,), dt=0.1))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_a_traced_tiny_run_is_correct_and_emits_every_metric(workload, tmp_path):
    assert workload in WORKLOADS
    res = bench.measure(workload, seed=1, seconds=0, trace=True, work=tmp_path,
                        sizes=TINY)
    assert res["correct"], res["errors"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    emitted = {**res["report"]["end_to_end"], **res["metrics"]}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        value, unit = emitted[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, float | int), m["name"]
