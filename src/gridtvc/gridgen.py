"""Synthetic operating-condition generator and input-feature normalizer.

Grids follow a two-tier layout: a meshed transmission network at the upper
nominal voltage, and lower-voltage buses fed radially through transformers,
a subset of which carry tap changers.  A generated context is the context
:func:`~gridtvc.powerflow.solve_ac` returns for its converged base case,
with branch ratings added, so downstream solves warm-start from an
AC-consistent point.

:func:`normalize` does not return a context: it compiles one into the
:class:`CompiledContext` the graph ODE reads, per class a feature matrix
mapped column by column through the fitted :class:`Normalizer` and an int
port matrix.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import config_to_json, require_integer
from .h2mg import (
    H2MGContext, H2MGError, HyperEdge, SCHEMA, deserialize, serialize, validate_context)
from .powerflow import solve_ac


@dataclass(frozen=True)
class GridFamilySpec:
    """Parameters of one family of synthetic grids, checked when built."""

    bus_count_min: int = 28
    bus_count_max: int = 32
    voltage_levels: tuple[float, float] = (1.0, 0.5625)  # upper / lower tier, p.u.
    line_density: float = 1.4            # transmission lines per upper-tier bus
    controllable_line_count: int = 4     # always-present parallel circuits
    optional_line_count: int = 3         # parallel circuits present ~70% of the time
    shunt_count: int = 8
    generator_count: int = 9
    twt_count: int = 12                  # one lower-tier bus hangs from each
    rtc_count: int = 10
    line_controller_count: int = 4
    shunt_controller_count: int = 6
    svr_zone_count: int = 3
    svr_units_per_zone: int = 2
    svr_controller_count: int = 3
    rtc_controller_count: int = 8
    load_scale_range: tuple[float, float] = (0.6, 1.3)  # log-uniform global factor
    load_noise: float = 0.2              # per-load multiplicative spread
    lv_load_range: tuple[float, float] = (0.15, 0.45)   # p.u. per lower-tier bus
    hv_load_count: int = 3
    hv_load_range: tuple[float, float] = (0.3, 0.8)

    def __post_init__(self):
        # every int field is a count: a NaN, fractional or boolean one
        # raised only when a grid was drawn, or tripped an unrelated check
        for f in fields(self):
            if f.type in (int, "int"):
                require_integer(f.name, getattr(self, f.name), 0)
        if self.bus_count_min < self.twt_count + 4:
            raise ValueError("bus_count_min leaves fewer than 4 upper-tier buses")
        if self.bus_count_max < self.bus_count_min:
            raise ValueError("bus_count_max < bus_count_min")
        if self.line_controller_count > self.controllable_line_count:
            raise ValueError("more line controllers than controllable lines")
        if self.shunt_controller_count > self.shunt_count:
            raise ValueError("more shunt controllers than shunts")
        if self.rtc_controller_count > self.rtc_count:
            raise ValueError("more rtc controllers than rtcs")
        if self.rtc_count > self.twt_count:
            raise ValueError("more rtcs than twts")
        if self.svr_zone_count > self.bus_count_min - self.twt_count:
            raise ValueError("more SVR zones than upper-tier buses to regulate")
        if self.svr_controller_count > self.svr_zone_count:
            raise ValueError("more svr controllers than zones")
        if self.svr_units_per_zone < 1:
            raise ValueError("each SVR zone needs at least one unit")
        if self.svr_zone_count * self.svr_units_per_zone + 1 > self.generator_count:
            raise ValueError("not enough generators for the SVR zones plus a slack")


def _edge(eid, cname, ports, **features) -> HyperEdge:
    feats = dict.fromkeys(SCHEMA[cname].context_feature_names)
    feats.update(features)
    return HyperEdge(eid, cname, ports, feats)


def _draw(spec: GridFamilySpec, rng: np.random.Generator,
          metadata: dict[str, str]) -> H2MGContext:
    """One structural draw, before the base-case solve fills features.

    Addresses are handed out in draw order, the buses' first, and every
    later edge reads an address off the edge it plugs into.  Each
    controller sits on a distinct device of its ``ClassSchema.device``
    class.
    """
    hv_nom, lv_nom = spec.voltage_levels
    n_bus = int(rng.integers(spec.bus_count_min, spec.bus_count_max + 1))
    n_lv = spec.twt_count
    n_hv = n_bus - n_lv
    v_nom = np.array([hv_nom] * n_hv + [lv_nom] * n_lv)
    lv = list(range(n_hv, n_bus))
    addrs = itertools.count(n_bus)  # free addresses, in turn, after the buses'
    edges: dict[str, list[HyperEdge]] = {c: [] for c in SCHEMA}

    for b in range(n_bus):
        vn = v_nom[b]
        edges["bus"].append(_edge(
            f"bus_{b:03d}", "bus", {"bus": b},
            v=vn, theta=0.0, v_nom=vn, v_max=1.05 * vn, v_min=0.95 * vn, opt=1.0))

    # Transmission mesh: spanning tree plus random extra circuits
    lines: list[tuple[int, int]] = []
    for b in range(1, n_hv):
        other = int(rng.integers(0, b))
        lines.append((other, b))
    n_extra = max(0, round(spec.line_density * n_hv) - (n_hv - 1))
    for _ in range(n_extra):
        b1, b2 = rng.choice(n_hv, size=2, replace=False)
        lines.append((int(min(b1, b2)), int(max(b1, b2))))
    # Controllable circuits, then optional ones, duplicate existing mesh
    # lines, so dropping one never islands the grid.
    base_count = len(lines)
    for _ in range(spec.controllable_line_count):
        lines.append(lines[int(rng.integers(0, base_count))])
    for _ in range(spec.optional_line_count):
        if rng.random() < 0.7:
            lines.append(lines[int(rng.integers(0, base_count))])

    for k, (b1, b2) in enumerate(lines):
        addr = next(addrs)
        r = float(rng.uniform(0.002, 0.01))
        xre = float(rng.uniform(0.02, 0.08))
        chg = float(rng.uniform(0.04, 0.22))  # charging susceptance
        edges["line"].append(_edge(
            f"line_{k:03d}", "line", {"line": addr, "bus1": b1, "bus2": b2},
            r=r, x=xre, g=0.0, b=chg, opt=1.0, status=1.0))

    # Transformers: one per lower-tier bus, impedance referred to that tier
    for k, b2 in enumerate(lv):
        b1 = int(rng.integers(0, n_hv))
        addr = next(addrs)
        z_scale = lv_nom ** 2
        r = float(rng.uniform(0.002, 0.006)) * z_scale
        xre = float(rng.uniform(0.08, 0.15)) * z_scale
        tau_nom = hv_nom / lv_nom
        edges["twt"].append(_edge(
            f"twt_{k:03d}", "twt", {"twt": addr, "bus1": b1, "bus2": b2},
            r=r, x=xre, g=0.0, b=0.0, ratio=tau_nom, phase_shift=0.0, opt=1.0))

    # Tap changers on rtc_count of the transformers, each regulating its
    # transformer's lower-tier bus.
    rtc_twts = rng.choice(spec.twt_count, size=spec.rtc_count, replace=False)
    for k, t in enumerate(sorted(rtc_twts.tolist())):
        twt = edges["twt"][t].ports
        edges["rtc"].append(_edge(
            f"rtc_{k:03d}", "rtc", {"twt": twt["twt"], "regulated_bus": twt["bus2"]}))

    # Generators: slack first, then SVR units, then voltage regulators
    gen_buses = rng.choice(n_hv, size=spec.generator_count,
                           replace=spec.generator_count > n_hv)
    n_units = spec.svr_zone_count * spec.svr_units_per_zone
    for k in range(spec.generator_count):
        addr = next(addrs)
        slack = 1.0 if k == 0 else 0.0
        is_unit = 1 <= k <= n_units
        qr = float(rng.uniform(0.6, 1.5))
        edges["generator"].append(_edge(
            f"gen_{k:03d}", "generator",
            {"gen": addr, "bus": int(gen_buses[k])},
            p_target=0.0, q_target=0.0,
            v_target=float(rng.uniform(0.99, 1.05)),
            q_max=qr, q_min=-qr,
            regulation_mode=0.0 if is_unit else 1.0,
            slack=slack))

    # SVR zones: regulated upper-tier bus plus units, generators 1, 2, ...
    # in turn.  Regulated buses avoid generator buses so their voltage
    # stays free.
    candidates = [b for b in range(n_hv) if b not in set(gen_buses.tolist())]
    if len(candidates) < spec.svr_zone_count:
        candidates = list(range(n_hv))
    zone_buses = rng.choice(candidates, size=spec.svr_zone_count, replace=False)
    for z in range(spec.svr_zone_count):
        addr = next(addrs)
        edges["svr_zone"].append(_edge(
            f"zone_{z}", "svr_zone",
            {"zone": addr, "regulated_bus": int(zone_buses[z])},
            v=1.0, theta=0.0, v_nom=hv_nom,
            v_target=float(rng.uniform(0.97, 1.07))))
        for _ in range(spec.svr_units_per_zone):
            u = len(edges["svr_unit"]) + 1
            edges["svr_unit"].append(_edge(
                f"unit_{u:02d}", "svr_unit",
                {"gen": edges["generator"][u].ports["gen"], "zone": addr},
                participate=1.0))

    # Shunts: mostly at lower-tier buses, reactors and capacitors mixed
    for k in range(spec.shunt_count):
        addr = next(addrs)
        if k < max(1, spec.shunt_count - 2):
            bus = int(rng.choice(lv))
        else:
            bus = int(rng.integers(0, n_hv))
        vn = v_nom[bus]
        q_at_nom = float(rng.uniform(0.08, 0.30))
        sign = -1.0 if rng.random() < 0.5 else 1.0  # reactor vs capacitor
        edges["shunt"].append(_edge(
            f"shunt_{k:03d}", "shunt", {"shunt": addr, "bus": bus},
            g=0.0, b=sign * q_at_nom / vn ** 2,
            status=float(rng.random() < 0.5)))

    # Loads with a shared global level times per-load noise
    scale = math.exp(rng.uniform(math.log(spec.load_scale_range[0]),
                                 math.log(spec.load_scale_range[1])))
    loads: list[tuple[int, float]] = []
    for b in lv:
        loads.append((b, float(rng.uniform(*spec.lv_load_range))))
    for b in rng.choice(n_hv, size=min(spec.hv_load_count, n_hv), replace=False):
        loads.append((int(b), float(rng.uniform(*spec.hv_load_range))))
    total_p = 0.0
    for k, (bus, p_base) in enumerate(loads):
        p = p_base * scale * (1.0 + spec.load_noise * float(rng.uniform(-1, 1)))
        q = p * float(rng.uniform(0.25, 0.40))
        total_p += p
        edges["load"].append(_edge(
            f"load_{k:03d}", "load", {"bus": bus},
            p=p, q=q, i=None, p_target=p, q_target=q))

    # Dispatch active power: non-slack generators cover most of the load,
    # the slack picks up the remainder plus losses.
    slack_gen, *non_slack = edges["generator"]
    shares = rng.uniform(0.5, 1.5, size=len(non_slack))
    shares = shares / shares.sum() * float(rng.uniform(0.85, 0.98))
    edges["generator"] = [slack_gen] + [
        HyperEdge(g.id, "generator", g.ports,
                  {**g.features, "p_target": share * total_p})
        for g, share in zip(non_slack, shares)]

    # Controllers: per class, the indices of the devices it may sit on (the
    # controllable circuits for lines) and how many to place
    lc_pool = range(base_count, base_count + spec.controllable_line_count)
    for c, prefix, pool, count in (
            ("line_controller", "lc", lc_pool, spec.line_controller_count),
            ("shunt_controller", "sc", range(spec.shunt_count), spec.shunt_controller_count),
            ("svr_controller", "vc", range(spec.svr_zone_count), spec.svr_controller_count),
            ("rtc_controller", "rc", range(spec.rtc_count), spec.rtc_controller_count)):
        (port,) = SCHEMA[c].port_names
        picks = rng.choice(pool, size=count, replace=False)
        for k, i in enumerate(sorted(picks.tolist())):
            device = edges[SCHEMA[c].device][i]
            feats = {}
            if c == "rtc_controller":
                vn = float(v_nom[device.ports["regulated_bus"]])
                feats = {"v_target": vn * float(rng.uniform(0.97, 1.08)), "v_nom": vn}
            edges[c].append(_edge(f"{prefix}_{k}", c, {port: device.ports[port]}, **feats))

    return H2MGContext(next(addrs), {c: tuple(v) for c, v in edges.items() if v},
                       metadata)


# A context is a pure function of its spec and stream: no wall-clock time.
_TIMESTAMP = "2024-01-01T00:00:00Z"
_MAX_ATTEMPTS = 50


def generate_context(spec: GridFamilySpec, rng: np.random.Generator,
                     origin: str = "synthetic") -> H2MGContext:
    """Draw one validated context whose base case converges.

    Draws that fail validation or diverge at base case under the default
    solver options are rejected and redrawn from the same stream, so the
    result is a pure function of (spec, stream state).  The result is the
    solve's context, its solved state written in, with every line and twt
    rated at 1.6 times its larger base-case end current plus 0.1 p.u.
    """
    for _ in range(_MAX_ATTEMPTS):
        x = _draw(spec, rng, {"origin": origin, "timestamp": _TIMESTAMP})
        if validate_context(x):
            continue
        sol = solve_ac(x)
        if not sol.converged:
            continue
        x = sol.context
        return x.replace_features({
            (c, e.id): dict.fromkeys(("i1_max", "i2_max"),
                                     max(e.features["i1"], e.features["i2"]) * 1.6 + 0.1)
            for c in ("line", "twt") for e in x.edges_of(c)})
    raise H2MGError(
        f"no solvable context after {_MAX_ATTEMPTS} attempts; spec too aggressive")


# ---------------------------------------------------------------------------
# Dataset files

def _check_ids(ids: list, what: str) -> None:
    """Refuse dataset ids that are not a list of distinct plain file names."""
    if not isinstance(ids, list):
        raise H2MGError(f"{what} list is a {type(ids).__name__}, not a list")
    for k, cid in enumerate(ids):
        if not isinstance(cid, str) or not cid or any(s in cid for s in ("/", "\\", "..")):
            raise H2MGError(f"{what} {cid!r} is not a plain file name")
        if ids.index(cid) != k:
            raise H2MGError(f"{what} {cid!r} repeats")


def _check_valid(x: H2MGContext, where: str | Path) -> None:
    """Refuse a context that :func:`validate_context` reports on."""
    report = validate_context(x)
    if report:
        raise H2MGError(f"{where}: invalid context ({len(report)} violations): "
                        + "; ".join(map(str, report[:3])))


def write_dataset(out_dir: str | Path, contexts: list[H2MGContext],
                  spec: GridFamilySpec, seed: int) -> None:
    """Write the contexts, all valid, to ``<origin>.json`` and a manifest of
    the origins, distinct plain file names; otherwise nothing is written."""
    ids = [x.metadata.get("origin") for x in contexts]
    _check_ids(ids, "context origin")
    for cid, x in zip(ids, contexts):
        _check_valid(x, f"context {cid!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cid, x in zip(ids, contexts):
        (out / f"{cid}.json").write_bytes(serialize(x))
    manifest = {"seed": seed, "count": len(ids), "ids": ids,
                "spec": config_to_json(spec)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def load_dataset(data_dir: str | Path) -> list[H2MGContext]:
    """Read a dataset's contexts; a manifest that is not JSON or lists no
    ids, ids that :func:`write_dataset` would refuse, a context whose
    ``origin`` is not its id, or a context that fails validation, raise
    :class:`H2MGError`."""
    data = Path(data_dir)
    where = data / "manifest.json"
    try:
        ids = json.loads(where.read_text())["ids"]
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise H2MGError(f"{where}: id list unreadable: {exc!r}") from None
    _check_ids(ids, f"{where}: id")
    out = []
    for cid in ids:
        path = data / f"{cid}.json"
        x = deserialize(path.read_bytes())
        if x.metadata.get("origin") != cid:
            raise H2MGError(f"{path}: origin {x.metadata.get('origin')!r} is not its "
                            f"manifest id {cid!r}")
        _check_valid(x, path)
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Piecewise-linear empirical-CDF normalizer

@dataclass(frozen=True)
class CompiledContext:
    """A context as the graph ODE reads it; :func:`normalize` builds it.

    ``classes`` holds one ``(class name, features, ports)`` entry per
    class with edges, in sorted class order, rows in the context's
    canonical (id) edge order: a float ``(edges, features)`` matrix of
    normalized values and an int ``(edges, ports)`` matrix of addresses.
    """

    address_count: int
    classes: tuple[tuple[str, np.ndarray, np.ndarray], ...]


@dataclass
class Normalizer:
    """Per (class, feature) monotone map onto [0, 1].

    Each table is a pair of arrays (values, levels): finite, strictly
    increasing breakpoint values and their nondecreasing levels in [0, 1].
    Queries interpolate linearly and clamp to the end levels outside the
    breakpoint range, so a one-breakpoint table maps every value to its
    level.  A feature with no table passes through unchanged.  An absent
    value always normalizes to 0.
    """

    tables: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)

    def map_column(self, class_name: str, feature: str,
                   column: np.ndarray) -> np.ndarray:
        """Normalize one feature's values; NaN marks an absent value."""
        entry = self.tables.get((class_name, feature))
        mapped = column if entry is None else np.interp(column, *entry)
        return np.where(np.isnan(column), 0.0, mapped)

    def to_json(self) -> dict:
        tables: dict[str, dict] = {}
        for (cname, fname), (values, levels) in sorted(self.tables.items()):
            tables.setdefault(cname, {})[fname] = {"values": values.tolist(),
                                                   "levels": levels.tolist()}
        return {"tables": tables}

    @classmethod
    def from_json(cls, doc: dict) -> "Normalizer":
        """Inverse of :meth:`to_json`.  A document that is not an object
        holding an object of ``tables`` raises ``ValueError``, and so does a
        class or entry that is not an object, or a table that breaks the
        class's promise on its values and levels, naming its
        ``class.feature``.  An entry's other keys are ignored."""
        if not isinstance(doc, dict) or not isinstance(doc.get("tables"), dict):
            raise ValueError("normalizer document must be an object with an object of tables")
        tables: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        for cname, feats in doc["tables"].items():
            if not isinstance(feats, dict):
                raise ValueError(f"normalizer {cname}: features must be an object")
            for fname, entry in feats.items():
                where = f"normalizer {cname}.{fname}"
                if not isinstance(entry, dict):
                    raise ValueError(f"{where}: table must be an object of values and levels")
                try:
                    values = np.asarray(entry.get("values", ()), dtype=float)
                    levels = np.asarray(entry.get("levels", ()), dtype=float)
                except (TypeError, ValueError):
                    raise ValueError(f"{where}: values and levels must be numbers") from None
                if values.ndim != 1 or values.shape != levels.shape or not values.size:
                    raise ValueError(f"{where}: values and levels must be 1-D of "
                                     f"one nonzero length")
                # np.interp would map every value past an infinite breakpoint
                # to the level beyond it
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"{where}: values must be finite")
                if not np.all(np.diff(values) > 0):
                    raise ValueError(f"{where}: values must strictly increase")
                if not (np.all(np.diff(levels) >= 0) and 0 <= levels[0] and levels[-1] <= 1):
                    raise ValueError(f"{where}: levels must be nondecreasing in [0, 1]")
                tables[(cname, fname)] = (values, levels)
        return cls(tables)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Normalizer":
        return cls.from_json(json.loads(Path(path).read_text()))


#: Quantiles closer than this are one atom: flows that are zero up to
#: rounding come out as 0.0 in one context set and ~4e-15 in another, and a
#: breakpoint for each would map a 1e-13 change onto a whole level step.
KNOT_TIE = 1e-9


def fit_normalizer(dataset: list[H2MGContext], knots: int = 101) -> Normalizer:
    """Fit the empirical-CDF breakpoints on a training dataset.

    Breakpoints sit at the empirical quantiles of levels k/(knots-1).  A run
    of quantiles each within ``KNOT_TIE`` of the one before is an atom and
    collapses to a single breakpoint, at the run's median value and its
    mean (mid-rank) level; exact ties are the simplest such run.  A feature
    whose values all lie within ``KNOT_TIE`` is constant: one breakpoint, at
    its smallest value, with level 0.5.  A feature absent throughout gets
    no table and so passes through.  Each context is read once, by the
    walk :func:`normalize` compiles with.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if knots < 2:
        raise ValueError("knots must be at least 2")
    # per feature of every class a context holds, edges or not, its present values
    samples: dict[tuple[str, str], list[np.ndarray]] = {}
    for x in dataset:
        raw = {cname: feats for cname, feats, _ in _raw_classes(x)}
        for cname in x.edges:
            for j, fname in enumerate(SCHEMA[cname].context_feature_names):
                column = raw[cname][:, j] if cname in raw else np.empty(0)
                samples.setdefault((cname, fname), []).append(column[~np.isnan(column)])

    norm = Normalizer()
    levels = np.arange(knots) / (knots - 1)
    for key in sorted(samples):
        arr = np.concatenate(samples[key])
        if not arr.size:
            warnings.warn(f"feature {key[0]}.{key[1]} absent in all contexts; "
                          "emitting an identity map", stacklevel=2)
            continue
        if arr.max() - arr.min() <= KNOT_TIE:
            norm.tables[key] = (np.array([arr.min()]), np.array([0.5]))
            continue
        qs = np.quantile(arr, levels)
        starts = np.flatnonzero(np.diff(qs, prepend=-np.inf) > KNOT_TIE)
        runs = list(zip(starts, np.append(starts[1:], len(qs))))
        values = np.array([qs[(a + b - 1) // 2] for a, b in runs])
        lvl = np.array([levels[a:b].mean() for a, b in runs])
        norm.tables[key] = (values, lvl)
    return norm


def _raw_classes(x: H2MGContext):
    """Per class with edges, in sorted class order: its name, its raw
    ``(edges, features)`` float matrix, NaN where a value is absent, and
    its int ``(edges, ports)`` address matrix, rows in canonical edge order."""
    for cname in sorted(c for c, edges in x.edges.items() if edges):
        edges, cs = x.edges[cname], SCHEMA[cname]
        yield (cname,
               np.array([[e.features[f] for f in cs.context_feature_names]
                         for e in edges], dtype=float),
               np.array([[e.ports[p] for p in cs.port_names] for e in edges], dtype=int))


def normalize(x: H2MGContext, norm: Normalizer) -> CompiledContext:
    """Compile ``x`` into the arrays the graph ODE reads, features normalized.

    One walk over each class's edges in canonical order
    (:func:`_raw_classes`, as in :func:`fit_normalizer`) gathers the raw
    feature matrix and the port matrix; ``norm`` then maps the features
    one column at a time (absent becomes 0).
    """
    classes = []
    for cname, raw, ports in _raw_classes(x):
        feats = np.empty_like(raw)
        for j, f in enumerate(SCHEMA[cname].context_feature_names):
            feats[:, j] = norm.map_column(cname, f, raw[:, j])
        classes.append((cname, feats, ports))
    return CompiledContext(x.address_count, tuple(classes))
