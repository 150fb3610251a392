"""One SHA-256 over what a short training run gives at one seed.

The run is ``trainer.train`` at its default configuration except for the
sizes: ``iterations`` (4 by default) at ``minibatch`` (4) over the
contexts ``generate_context(GridFamilySpec(), stream(0, "train", i))``
for ``i`` below ``contexts`` (16), written as a dataset, with
``stream(0, "val", 0)`` as the validation split and no evaluation.  The
seed draws the initial model, the training order and the estimator's
samples.  Hashed, in order:

* every ``train_log.jsonl`` record without its ``phase_s`` timings;
* the final checkpoint's parameter arrays, by name.

Floats are spelled by ``float.hex`` and arrays by dtype, shape and bytes,
as in ``oracle_digest.py``, so equal digests mean equal bits.  Only
public names are used, so the script runs on any checkout that has
them::

    PYTHONPATH=<checkout>/src python tests/train_digest.py <seed> [contexts] [iterations]

``contexts`` and ``iterations`` default to 16 and 4; 8 and 3 make a
shorter run for checking a model change bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from gridtvc.gridgen import GridFamilySpec, generate_context, write_dataset
from gridtvc.model import ModelConfig, load_checkpoint
from gridtvc.rng import stream
from gridtvc.trainer import TrainConfig, train

from oracle_digest import _canon


def digest(seed: int, contexts: int = 16, iterations: int = 4, minibatch: int = 4,
           model: ModelConfig = ModelConfig()) -> str:
    spec = GridFamilySpec()
    splits = {
        "train": [generate_context(spec, stream(0, "train", i), origin=f"train-{i:03d}")
                  for i in range(contexts)],
        "val": [generate_context(spec, stream(0, "val", 0), origin="val-000")],
    }
    h = hashlib.sha256()

    def record(*parts):
        h.update(json.dumps(_canon(parts), sort_keys=True).encode() + b"\n")

    with tempfile.TemporaryDirectory() as work:
        for split, xs in splits.items():
            write_dataset(Path(work) / split, xs, spec, 0)
        summary = train(TrainConfig(
            minibatch=minibatch, iterations=iterations, eval_every=0, seed=seed,
            train_dir=str(Path(work) / "train"), val_dir=str(Path(work) / "val"),
            out_dir=str(Path(work) / "run"), model=model))
        for line in Path(summary["log"]).read_text().splitlines():
            record("log", {k: v for k, v in json.loads(line).items() if k != "phase_s"})
        params, _ = load_checkpoint(summary["final_checkpoint"])
    for name in sorted(params.values):
        record("param", name, params.values[name])
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(*map(int, sys.argv[1:4])))
