"""Benchmark command: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Report lines go to standard output and
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The package is imported from the checkout's
``src`` directory; without it the command exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("train", "evaluate")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = ROOT / "src" / "gridtvc" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no gridtvc sources at {package.parent}", file=sys.stderr)
        return 2
    # One process, one BLAS thread: the workloads run with workers=0, and a
    # second BLAS thread only adds noise on a small shared machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import bench  # imports numpy and gridtvc, so after the settings above

    out = ROOT / ".perfbench"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = bench.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), work, trace_dir=out / "traces")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    report = result["report"]
    for key in ("passes", "decide_samples", "digest"):
        print(f"{args.workload} {key}: {json.dumps(report[key], sort_keys=True)}")
    shown = {**report["end_to_end"], **report["reported"],
             **report.get("per_layer", {}), **report.get("layer_timings", {})}
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for layer, secs in sorted(report.get("layer_self_s", {}).items()):
        print(f"{args.workload} self_s[{layer}] = {secs:.4f} s")
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}")

    metrics = {}
    for m in wanted:
        value, unit = result["metrics"][m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} is in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
