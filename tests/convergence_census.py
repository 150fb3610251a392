"""How often the oracle's baseline solves converge on a fixed context set.

The set is ``oracle_digest.context_set(per_split)``: the contexts
``generate_context(GridFamilySpec(), stream(0, split, i))`` for ``split``
in ``("val", "g")`` and ``i`` below ``per_split`` (20 by default, the 40
contexts ROADMAP item 3's gate reads).  At each baseline offset 0, -0.02
and +0.02 it solves the ``init_baseline`` decision of every context and
prints one JSON line: per offset, the count of each of ``SOLVE_STATUSES``
and the outer rounds of all solves.  Only public names are used, so the
script runs on any checkout that has them::

    PYTHONPATH=<checkout>/src python tests/convergence_census.py [per_split]
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from gridtvc.baseline import init_baseline
from gridtvc.powerflow import SOLVE_STATUSES, evaluate_objective

from oracle_digest import OFFSETS, context_set


def census(per_split: int = 20) -> dict:
    """``{"contexts": n, "offsets": {offset: {status: count, ...,
    "outer_rounds": total}}}``, offsets spelled by ``repr``."""
    contexts = context_set(per_split)
    offsets = {}
    for offset in OFFSETS:
        results = [evaluate_objective(x, init_baseline(x, offset)) for x in contexts]
        offsets[repr(offset)] = {**dict.fromkeys(SOLVE_STATUSES, 0),
                                 **Counter(r.status for r in results),
                                 "outer_rounds": sum(r.outer for r in results)}
    return {"contexts": len(contexts), "offsets": offsets}


if __name__ == "__main__":
    print(json.dumps(census(*(int(a) for a in sys.argv[1:])), sort_keys=True))
