"""One SHA-256 over what the oracle and the data layer give on a fixed set.

The set is ``generate_context(GridFamilySpec(), stream(0, split, i))`` for
``split`` in ``("val", "g")`` and ``i`` below ``per_split`` (20 by
default, 40 contexts).  Hashed, in order:

* each context's ``serialize`` bytes and ``validate_context`` report;
* the ``fit_normalizer`` digest on the first half of the set, and of
  every context's ``normalize`` output its address count and, per class,
  the class name, feature matrix and port matrix;
* at baseline offsets 0, -0.02 and +0.02, the ``init_baseline`` decision
  (per class, its values in the context's edge order), the
  ``evaluate_objective`` result read as the ten fields ``OBJECTIVE``, and
  the ``count_metrics`` result read as the thirteen fields ``METRICS``;
  then the same for the offset-0 decision with its first line controller
  flipped, and with its first shunt controller flipped.

Floats are spelled by ``float.hex`` and arrays by dtype, shape and bytes,
so equal digests mean equal bits.  Only public names are used, the two
scoring results are read by attribute, whether they are two record types
or one record (``count_metrics`` an alias and ``valid`` a property), a
compiled class is read whether its entry is ``(name, features, ports)``
or ``(name, edge ids, features, ports)``, and a decision is read whether
it holds per-class arrays or per-class dicts keyed by edge id, so the
script runs on any checkout that has them::

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
from gridtvc.powerflow import count_metrics, evaluate_objective
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


def _decisions(x):
    """The baseline decisions, then the offset-0 one with one lever flipped.

    A decision holds either one array per class in edge order or a dict
    per class keyed by edge id; ``replace`` takes the row or the id.
    """
    base = [init_baseline(x, offset) for offset in OFFSETS]
    y = base[0]
    return base + [y.replace(c, x.edges_of(c)[0].id if isinstance(y.values[c], dict)
                             else 0, 1)
                   for c in FLIPPED]


def _compiled(xn):
    """A compiled context's address count and, per class, its name,
    features and ports: the first element and the last two of an entry."""
    return xn.address_count, [(c[0], *c[-2:]) for c in xn.classes]


def _fields(result, names):
    return {name: getattr(result, name) for name in names}


def _in_edge_order(x, y):
    """Each class's decision values as a list in the context's edge order."""
    return {c: [v[e.id] for e in x.edges_of(c)] if isinstance(v, dict) else list(v)
            for c, v in y.values.items()}


def digest(contexts: list) -> str:
    h = hashlib.sha256()

    def record(*parts):
        h.update(json.dumps(_canon(parts), sort_keys=True).encode() + b"\n")

    for x in contexts:
        record("context", serialize(x).hex(), [str(v) for v in validate_context(x)])
    norm = fit_normalizer(contexts[:len(contexts) // 2])
    record("normalizer", norm.digest())
    for x in contexts:
        record("normalize", _compiled(normalize(x, norm)))
    for x in contexts:
        for y in _decisions(x):
            record("decision", _in_edge_order(x, y),
                   _fields(evaluate_objective(x, y), OBJECTIVE),
                   _fields(count_metrics(x, y), METRICS))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(context_set(*(int(a) for a in sys.argv[1:]))))
