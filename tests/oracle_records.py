"""One JSON line per census baseline solve, to show how far the oracle moved.

The solves are ``tests/convergence_census.py``'s: the ``init_baseline``
decision of every context of ``oracle_digest.context_set(per_split)`` at
each offset of ``OFFSETS``.  Each line holds the context's origin
(``val-003``, ``g-017``), the offset, the status, the inner, outer and
restart counts, and the total spelled by ``float.hex``.  Only public names
are used, so the script runs on any checkout that has them::

    PYTHONPATH=<checkout>/src python tests/oracle_records.py [per_split] > records.jsonl

:func:`compare` reads the records of two checkouts, a parent's and a
change's, and counts the solves whose status or counts changed, with the
largest relative change of a total that converged on both sides.
"""

from __future__ import annotations

import json
import sys

from gridtvc.baseline import init_baseline
from gridtvc.powerflow import evaluate_objective

from oracle_digest import OFFSETS, context_set

COUNTS = ("status", "inner", "outer", "restarts")


def records(per_split: int = 20) -> list[dict]:
    """The census's solves, offset by offset, in ``context_set`` order."""
    origins = [f"{split}-{i:03d}" for split in ("val", "g") for i in range(per_split)]
    contexts = context_set(per_split)
    out = []
    for offset in OFFSETS:
        for origin, x in zip(origins, contexts):
            r = evaluate_objective(x, init_baseline(x, offset))
            out.append({"origin": origin, "offset": offset,
                        **{name: getattr(r, name) for name in COUNTS},
                        "total": float(r.total).hex()})
    return out


def compare(parent: list[dict], change: list[dict]) -> dict:
    """``{"solves", "changed", "max_rel_total"}``: how many of the change's
    solves differ from the parent's in status or a count, or have no
    parent record, and the largest relative change of a total that
    converged on both sides."""
    before = {(r["origin"], r["offset"]): r for r in parent}
    changed, worst = 0, 0.0
    for r in change:
        p = before.get((r["origin"], r["offset"]))
        if p is None or any(p[name] != r[name] for name in COUNTS):
            changed += 1
        elif r["status"] == "converged":
            old, new = float.fromhex(p["total"]), float.fromhex(r["total"])
            worst = max(worst, abs(new - old) / abs(old))
    return {"solves": len(change), "changed": changed, "max_rel_total": worst}


def read(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


if __name__ == "__main__":
    for record in records(*(int(a) for a in sys.argv[1:])):
        print(json.dumps(record, sort_keys=True))
