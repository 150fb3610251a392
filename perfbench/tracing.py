"""In-memory spans around the public names each gridtvc caller looks up.

A :class:`Tracer` replaces module attributes (``gridtvc.trainer.forward``,
``gridtvc.powerflow.apply_decision``, ...) by wrappers that record one span
per call: name, start, end, parent span and grid-context id.  Callers
resolve these names at call time, so the wrappers see every call without
any change to the package.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: (module, attribute) pairs to intercept.  The module is the caller whose
#: lookup is replaced: ``trainer.forward`` is the name ``trainer.train``
#: resolves, ``powerflow.apply_decision`` the one the oracle resolves, the
#: ``h2mg`` names are imported by the dataset functions at each call, and
#: the other entries on a function's own module are the names the
#: benchmark calls.
#: A span is named "<layer>.<function>" after the module defining the
#: function.
WRAPPED = (
    ("gridgen", "generate_context"), ("gridgen", "write_dataset"),
    ("gridgen", "fit_normalizer"), ("gridgen", "normalize"),
    ("h2mg", "to_document"), ("h2mg", "deserialize"),
    ("model", "init_params"), ("model", "forward"), ("model", "load_checkpoint"),
    ("policy", "apply_offsets"), ("policy", "most_probable"),
    ("policy", "init_baseline"),
    ("baseline", "init_baseline"), ("baseline", "tune_baseline_offset"),
    ("baseline", "evaluate_objective"),
    ("powerflow", "evaluate_objective"), ("powerflow", "count_metrics"),
    ("powerflow", "apply_decision"),
    ("trainer", "train"), ("trainer", "load_dataset"),
    ("trainer", "fit_normalizer"), ("trainer", "normalize"),
    ("trainer", "init_params"), ("trainer", "forward"), ("trainer", "vjp"),
    ("trainer", "estimate_gradient"), ("trainer", "evaluate_objective"),
    ("trainer", "adam_step"), ("trainer", "save_checkpoint"),
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


#: Calls whose (context, decision) arguments are kept for the solver replay.
ORACLE_SPANS = ("powerflow.evaluate_objective", "powerflow.count_metrics")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    context: str         # grid-context id, "" outside any context

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent and overlapping children count
    once, so the result never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix before the dot)."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


class Tracer:
    """Span recorder for one traced pass of a workload."""

    def __init__(self):
        self.spans: list[Span] = []
        self.oracle_args: list[tuple] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _begin(self, name: str, context: str | None) -> int:
        """Open a span; without a context id it inherits its parent's."""
        parent = self._open[-1] if self._open else -1
        if context is None:
            context = self.spans[parent].context if parent >= 0 else ""
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, context))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, context: str | None = None):
        idx = self._begin(name, context)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = next((a.metadata.get("origin", "") for a in args[:2]
                        if hasattr(a, "metadata")), None)
            if name in ORACLE_SPANS:
                self.oracle_args.append(args[:2])
            idx = self._begin(name, ctx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
        return traced

    def install(self, modules: dict) -> None:
        """Swap every ``WRAPPED`` attribute for its traced wrapper."""
        for mod_name, attr in WRAPPED:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, span_name(original)))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def durations(self, name: str) -> np.ndarray:
        return np.array([s.duration for s in self.spans if s.name == name])

    def dump(self, path: Path) -> None:
        """Write every span, with its self time, as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for s, t in zip(self.spans, self_times(self.spans)):
                out.write(json.dumps({**s.__dict__, "self": t}) + "\n")
