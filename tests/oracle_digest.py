"""One SHA-256 over what the oracle and the data layer give on a fixed set.

The set is ``generate_context(GridFamilySpec(), stream(0, split, i))`` for
``split`` in ``("val", "g")`` and ``i`` below ``per_split`` (20 by
default, 40 contexts).  Hashed, in order:

* each context's ``serialize`` bytes and ``validate_context`` report;
* the ``to_json`` document of ``fit_normalizer`` on the first half of
  the set, and of every context's ``normalize`` output its address count
  and, per class, the class name, feature matrix and port matrix;
* at baseline offsets 0, -0.02 and +0.02, the ``init_baseline`` decision
  (per class, its values in the context's edge order) and its
  ``evaluate_objective`` result, solved once and read as the ten fields
  ``OBJECTIVE`` and then as the thirteen fields ``METRICS``
  (``count_metrics`` is the same function); then the same for the
  offset-0 decision with its first line controller flipped, and with its
  first shunt controller flipped.

Floats are spelled by ``float.hex`` and arrays by dtype, shape and bytes,
so equal digests mean equal bits.  Only public names are used and the
scoring results are read by attribute, so the script runs on any checkout
that has them::

    PYTHONPATH=<checkout>/src python tests/oracle_digest.py [per_split]
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import numpy as np

from gridtvc.baseline import init_baseline
from gridtvc.gridgen import GridFamilySpec, fit_normalizer, generate_context, normalize
from gridtvc.h2mg import serialize, validate_context
from gridtvc.powerflow import evaluate_objective
from gridtvc.rng import stream

OFFSETS = (0.0, -0.02, 0.02)
FLIPPED = ("line_controller", "shunt_controller")
COUNTS = ("status", "inner", "outer", "restarts", "moving")
OBJECTIVE = ("f_v", "f_i", "f_j", "total", "converged", *COUNTS)
METRICS = ("valid", "over_voltages", "under_voltages", "violations", "overflows",
           "joule_losses", "normalized_voltages", "normalized_currents", *COUNTS)


def _canon(value):
    """``value`` as plain JSON, every float and array spelled exactly."""
    if dataclasses.is_dataclass(value):
        return {f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "shape": list(value.shape),
                "bytes": value.tobytes().hex()}
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value  # a string or None; json.dumps refuses anything else


def context_set(per_split: int = 20) -> list:
    return [generate_context(GridFamilySpec(), stream(0, split, i))
            for split in ("val", "g") for i in range(per_split)]


def _flipped(y, c):
    """``y`` with the first controller of class ``c`` set to 1."""
    arr = y[c].copy()
    arr[0] = 1
    return {**y, c: arr}


def _decisions(x):
    """The baseline decisions, then the offset-0 one with one lever flipped."""
    base = [init_baseline(x, offset) for offset in OFFSETS]
    return base + [_flipped(base[0], c) for c in FLIPPED]


def _fields(result, names):
    return {name: getattr(result, name) for name in names}


def digest(contexts: list) -> str:
    h = hashlib.sha256()

    def record(*parts):
        h.update(json.dumps(_canon(parts), sort_keys=True).encode() + b"\n")

    for x in contexts:
        record("context", serialize(x).hex(), [str(v) for v in validate_context(x)])
    norm = fit_normalizer(contexts[:len(contexts) // 2])
    record("normalizer", norm.to_json())
    for x in contexts:
        xn = normalize(x, norm)
        record("normalize", (xn.address_count, xn.classes))
    for x in contexts:
        for y in _decisions(x):
            r = evaluate_objective(x, y)
            record("decision", {c: list(v) for c, v in y.items()},
                   _fields(r, OBJECTIVE), _fields(r, METRICS))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(context_set(*(int(a) for a in sys.argv[1:]))))
