"""Synthetic operating-condition generator and input-feature normalizer.

Grids follow a two-tier layout: a meshed transmission network at the upper
nominal voltage, and lower-voltage buses fed radially through transformers,
a subset of which carry tap changers.  Every generated context embeds a
converged base-case power-flow state, so downstream solves warm-start from
an AC-consistent point.

:func:`normalize` does not return a context: it compiles one into the
:class:`CompiledContext` the graph ODE reads, per class a feature matrix
mapped column by column through the fitted :class:`Normalizer` and an int
port matrix.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import config_to_json
from .h2mg import (
    H2MGContext, H2MGError, HyperEdge, SCHEMA, deserialize, serialize, validate_context)
from .powerflow import SolverOptions, solve_ac


@dataclass(frozen=True)
class GridFamilySpec:
    """Parameters of one family of synthetic grids."""

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

    def validate(self) -> None:
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
    """One structural draw, before the base-case solve fills features."""
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
    lines: list[tuple[int, int, bool]] = []  # (bus1, bus2, controllable)
    for b in range(1, n_hv):
        other = int(rng.integers(0, b))
        lines.append((other, b, False))
    n_extra = max(0, round(spec.line_density * n_hv) - (n_hv - 1))
    for _ in range(n_extra):
        b1, b2 = rng.choice(n_hv, size=2, replace=False)
        lines.append((int(min(b1, b2)), int(max(b1, b2)), False))
    # Controllable and optional circuits duplicate existing mesh lines,
    # so dropping one never islands the grid.
    base_count = len(lines)
    for k in range(spec.controllable_line_count):
        b1, b2, _ = lines[int(rng.integers(0, base_count))]
        lines.append((b1, b2, True))
    for _ in range(spec.optional_line_count):
        if rng.random() < 0.7:
            b1, b2, _ = lines[int(rng.integers(0, base_count))]
            lines.append((b1, b2, False))

    line_addr: list[int] = []
    controllable_lines: list[int] = []
    for k, (b1, b2, controllable) in enumerate(lines):
        addr = next(addrs)
        line_addr.append(addr)
        if controllable:
            controllable_lines.append(k)
        r = float(rng.uniform(0.002, 0.01))
        xre = float(rng.uniform(0.02, 0.08))
        chg = float(rng.uniform(0.04, 0.22))  # charging susceptance
        edges["line"].append(_edge(
            f"line_{k:03d}", "line", {"line": addr, "bus1": b1, "bus2": b2},
            r=r, x=xre, g=0.0, b=chg, opt=1.0, status=1.0))

    # Transformers: one per lower-tier bus, impedance referred to that tier
    twt_addr: list[int] = []
    for k, b2 in enumerate(lv):
        b1 = int(rng.integers(0, n_hv))
        addr = next(addrs)
        twt_addr.append(addr)
        z_scale = lv_nom ** 2
        r = float(rng.uniform(0.002, 0.006)) * z_scale
        xre = float(rng.uniform(0.08, 0.15)) * z_scale
        tau_nom = hv_nom / lv_nom
        edges["twt"].append(_edge(
            f"twt_{k:03d}", "twt", {"twt": addr, "bus1": b1, "bus2": b2},
            r=r, x=xre, g=0.0, b=0.0, ratio=tau_nom, phase_shift=0.0, opt=1.0))

    # Tap changers on the first rtc_count transformers, regulating their
    # lower-tier bus toward a continuous initial target.
    rtc_twts = sorted(rng.choice(spec.twt_count, size=spec.rtc_count,
                                 replace=False).tolist())
    for k, t in enumerate(rtc_twts):
        reg_bus = lv[t]
        edges["rtc"].append(_edge(
            f"rtc_{k:03d}", "rtc",
            {"twt": twt_addr[t], "regulated_bus": reg_bus}))

    # Generators: slack first, then SVR units, then voltage regulators
    gen_addr: list[int] = []
    gen_buses = rng.choice(n_hv, size=spec.generator_count,
                           replace=spec.generator_count > n_hv)
    n_units = spec.svr_zone_count * spec.svr_units_per_zone
    for k in range(spec.generator_count):
        addr = next(addrs)
        gen_addr.append(addr)
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

    # SVR zones: regulated upper-tier bus plus units drawn in order.
    # Regulated buses avoid generator buses so their voltage stays free.
    zone_addr: list[int] = []
    candidates = [b for b in range(n_hv) if b not in set(gen_buses.tolist())]
    if len(candidates) < spec.svr_zone_count:
        candidates = list(range(n_hv))
    zone_buses = rng.choice(candidates, size=spec.svr_zone_count, replace=False)
    unit_counter = 0
    for z in range(spec.svr_zone_count):
        addr = next(addrs)
        zone_addr.append(addr)
        edges["svr_zone"].append(_edge(
            f"zone_{z}", "svr_zone",
            {"zone": addr, "regulated_bus": int(zone_buses[z])},
            v=1.0, theta=0.0, v_nom=hv_nom,
            v_target=float(rng.uniform(0.97, 1.07))))
        for _ in range(spec.svr_units_per_zone):
            unit_counter += 1
            edges["svr_unit"].append(_edge(
                f"unit_{unit_counter:02d}", "svr_unit",
                {"gen": gen_addr[unit_counter], "zone": addr},
                participate=1.0))

    # Shunts: mostly at lower-tier buses, reactors and capacitors mixed
    shunt_addr: list[int] = []
    for k in range(spec.shunt_count):
        addr = next(addrs)
        shunt_addr.append(addr)
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
    non_slack = edges["generator"][1:]
    shares = rng.uniform(0.5, 1.5, size=len(non_slack))
    shares = shares / shares.sum() * float(rng.uniform(0.85, 0.98))
    for g, share in zip(non_slack, shares):
        feats = dict(g.features)
        feats["p_target"] = share * total_p
        edges["generator"][edges["generator"].index(g)] = HyperEdge(
            g.id, "generator", dict(g.ports), feats)

    # Controllers
    lc_lines = rng.choice(controllable_lines,
                          size=spec.line_controller_count, replace=False)
    for k, li in enumerate(sorted(lc_lines.tolist())):
        edges["line_controller"].append(_edge(
            f"lc_{k}", "line_controller", {"line": line_addr[li]}))
    sc_shunts = rng.choice(spec.shunt_count,
                           size=spec.shunt_controller_count, replace=False)
    for k, si in enumerate(sorted(sc_shunts.tolist())):
        edges["shunt_controller"].append(_edge(
            f"sc_{k}", "shunt_controller", {"shunt": shunt_addr[si]}))
    vc_zones = rng.choice(spec.svr_zone_count,
                          size=spec.svr_controller_count, replace=False)
    for k, zi in enumerate(sorted(vc_zones.tolist())):
        edges["svr_controller"].append(_edge(
            f"vc_{k}", "svr_controller", {"zone": zone_addr[zi]}))
    rc_rtcs = rng.choice(spec.rtc_count,
                         size=spec.rtc_controller_count, replace=False)
    for k, ri in enumerate(sorted(rc_rtcs.tolist())):
        t = rtc_twts[ri]
        reg_bus = lv[t]
        vn = float(v_nom[reg_bus])
        edges["rtc_controller"].append(_edge(
            f"rc_{k}", "rtc_controller", {"twt": twt_addr[t]},
            v_target=vn * float(rng.uniform(0.97, 1.08)), v_nom=vn))

    return H2MGContext(next(addrs), {c: tuple(v) for c, v in edges.items() if v},
                       metadata)


def _fill_from_solution(x: H2MGContext, sol) -> H2MGContext:
    """Write the base-case solved state back into the context features."""
    updates: dict[tuple[str, str], dict] = {}
    for e in x.edges_of("bus"):
        updates[("bus", e.id)] = {"v": sol.bus_v[e.id], "theta": sol.bus_theta[e.id]}

    def bus_id(addr):
        return x.anchored("bus", "bus", addr)[-1].id

    for cname in ("line", "twt"):
        for e in x.edges_of(cname):
            key = (cname, e.id)
            if key in sol.branch_flows:
                f = sol.branch_flows[key]
                updates[key] = {"p1": f.p1, "q1": f.q1, "i1": f.i1,
                                "p2": f.p2, "q2": f.q2, "i2": f.i2}
                rating = max(f.i1, f.i2) * 1.6 + 0.1
                updates[key]["i1_max"] = rating
                updates[key]["i2_max"] = rating
    for e in x.edges_of("twt"):
        rtcs = x.anchored("rtc", "twt", e.ports["twt"])
        if rtcs and rtcs[-1].id in sol.rtc_ratio:
            upd = updates.setdefault(("twt", e.id), {})
            upd["ratio"] = sol.rtc_ratio[rtcs[-1].id]
    for e in x.edges_of("generator"):
        upd = {"q": sol.gen_q.get(e.id, 0.0)}
        upd["p"] = sol.gen_p.get(e.id, e.feature("p_target", 0.0))
        vm = sol.bus_v[bus_id(e.ports["bus"])]
        upd["i"] = math.hypot(upd["p"], upd["q"]) / vm
        updates[("generator", e.id)] = upd
    for e in x.edges_of("load"):
        vm = sol.bus_v[bus_id(e.ports["bus"])]
        p, q = e.feature("p_target", 0.0), e.feature("q_target", 0.0)
        updates[("load", e.id)] = {"p": p, "q": q, "i": math.hypot(p, q) / vm}
    for e in x.edges_of("shunt"):
        vm = sol.bus_v[bus_id(e.ports["bus"])]
        status = e.feature("status", 0.0)
        g, b = e.feature("g", 0.0), e.feature("b", 0.0)
        p = status * g * vm ** 2
        q = -status * b * vm ** 2
        updates[("shunt", e.id)] = {"p": p, "q": q, "i": math.hypot(p, q) / vm}
    for e in x.edges_of("svr_zone"):
        bid = bus_id(e.ports["regulated_bus"])
        updates[("svr_zone", e.id)] = {"v": sol.bus_v[bid], "theta": sol.bus_theta[bid]}
    return x.replace_features(updates)


def generate_context(spec: GridFamilySpec, rng: np.random.Generator,
                     origin: str = "synthetic",
                     timestamp: str = "2024-01-01T00:00:00Z",
                     solver: SolverOptions = SolverOptions(),
                     max_attempts: int = 50) -> H2MGContext:
    """Draw one validated context whose base case converges.

    Draws that fail validation or diverge at base case are rejected and
    redrawn from the same stream, so the result is a pure function of
    (spec, stream state).
    """
    spec.validate()
    for _ in range(max_attempts):
        x = _draw(spec, rng, {"origin": origin, "timestamp": timestamp})
        if validate_context(x):
            continue
        sol = solve_ac(x, solver)
        if not sol.converged:
            continue
        return _fill_from_solution(x, sol)
    raise H2MGError(
        f"no solvable context after {max_attempts} attempts; spec too aggressive")


# ---------------------------------------------------------------------------
# Dataset files

def _check_ids(ids: list, what: str) -> None:
    """Refuse dataset ids that are not distinct plain file names."""
    for k, cid in enumerate(ids):
        if not isinstance(cid, str) or not cid or any(s in cid for s in ("/", "\\", "..")):
            raise H2MGError(f"{what} {cid!r} is not a plain file name")
        if ids.index(cid) != k:
            raise H2MGError(f"{what} {cid!r} repeats")


def write_dataset(out_dir: str | Path, contexts: list[H2MGContext],
                  spec: GridFamilySpec, seed: int) -> None:
    """Write each context to ``<origin>.json`` and a manifest of the origins,
    which must be distinct plain file names; otherwise nothing is written."""
    ids = [x.metadata.get("origin") for x in contexts]
    _check_ids(ids, "context origin")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cid, x in zip(ids, contexts):
        (out / f"{cid}.json").write_bytes(serialize(x))
    manifest = {"seed": seed, "count": len(ids), "ids": ids,
                "spec": config_to_json(spec)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def load_dataset(data_dir: str | Path) -> list[H2MGContext]:
    """Read a dataset's contexts; ids that :func:`write_dataset` would refuse,
    or a context that fails validation, raise :class:`H2MGError`."""
    data = Path(data_dir)
    manifest = load_manifest(data)
    _check_ids(manifest["ids"], f"{data / 'manifest.json'}: id")
    out = []
    for cid in manifest["ids"]:
        path = data / f"{cid}.json"
        x = deserialize(path.read_bytes())
        report = validate_context(x)
        if report:
            raise H2MGError(f"{path}: invalid context ({len(report)} violations): "
                            + "; ".join(map(str, report[:3])))
        out.append(x)
    return out


def load_manifest(data_dir: str | Path) -> dict:
    return json.loads((Path(data_dir) / "manifest.json").read_text())


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

    Each table entry is a pair of arrays (values, levels): strictly
    increasing breakpoint values and their nondecreasing levels in [0, 1].
    Queries interpolate linearly and clamp to the end levels outside the
    breakpoint range; a constant feature maps to 0.5 everywhere; features
    that were absent throughout fitting pass through unchanged.  An absent
    value always normalizes to 0.
    """

    knots: int
    tables: dict[tuple[str, str], tuple[np.ndarray, np.ndarray] | str] = field(
        default_factory=dict)

    CONSTANT = "constant"
    IDENTITY = "identity"

    def apply(self, class_name: str, feature: str, value: float | None) -> float:
        column = np.array([value], dtype=float)  # None becomes NaN
        return float(self.map_column(class_name, feature, column)[0])

    def map_column(self, class_name: str, feature: str,
                   column: np.ndarray) -> np.ndarray:
        """Normalize one feature's values; NaN marks an absent value."""
        entry = self.tables.get((class_name, feature), self.IDENTITY)
        if entry == self.IDENTITY:
            mapped = column
        elif entry == self.CONSTANT:
            mapped = 0.5
        else:
            mapped = np.interp(column, *entry)
        return np.where(np.isnan(column), 0.0, mapped)

    def to_json(self) -> dict:
        tables: dict[str, dict] = {}
        for (cname, fname), entry in sorted(self.tables.items()):
            slot = tables.setdefault(cname, {})
            if isinstance(entry, str):
                slot[fname] = {"kind": entry}
            else:
                slot[fname] = {"kind": "pwl",
                               "values": entry[0].tolist(),
                               "levels": entry[1].tolist()}
        return {"knots": self.knots, "tables": tables}

    @classmethod
    def from_json(cls, doc: dict) -> "Normalizer":
        """Inverse of :meth:`to_json`; an entry of unknown kind, or a ``pwl``
        table that breaks the class's promise on its values and levels,
        raises ``ValueError`` naming its ``class.feature``."""
        tables: dict[tuple[str, str], tuple[np.ndarray, np.ndarray] | str] = {}
        for cname, feats in doc["tables"].items():
            for fname, entry in feats.items():
                kind, where = entry["kind"], f"normalizer {cname}.{fname}"
                if kind == "pwl":
                    values = np.asarray(entry["values"], dtype=float)
                    levels = np.asarray(entry["levels"], dtype=float)
                    if values.ndim != 1 or values.shape != levels.shape or not values.size:
                        raise ValueError(f"{where}: values and levels must be 1-D of "
                                         f"one nonzero length")
                    if not np.all(np.diff(values) > 0):
                        raise ValueError(f"{where}: values must strictly increase")
                    if not (np.all(np.diff(levels) >= 0) and 0 <= levels[0] and levels[-1] <= 1):
                        raise ValueError(f"{where}: levels must be nondecreasing in [0, 1]")
                    tables[(cname, fname)] = (values, levels)
                elif kind in (cls.CONSTANT, cls.IDENTITY):
                    tables[(cname, fname)] = kind
                else:
                    raise ValueError(f"{where}: unknown kind {kind!r}")
        return cls(int(doc["knots"]), tables)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Normalizer":
        return cls.from_json(json.loads(Path(path).read_text()))

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


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
    whose values all lie within ``KNOT_TIE`` is constant.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if knots < 2:
        raise ValueError("knots must be at least 2")
    samples: dict[tuple[str, str], list[float]] = {}
    present: set[tuple[str, str]] = set()
    for x in dataset:
        for cname in x.edges:
            for fname in SCHEMA[cname].context_feature_names:
                present.add((cname, fname))
            for e in x.edges_of(cname):
                for fname, val in e.features.items():
                    if val is not None:
                        samples.setdefault((cname, fname), []).append(float(val))

    norm = Normalizer(knots=knots)
    levels = np.arange(knots) / (knots - 1)
    for key in sorted(present):
        vals = samples.get(key)
        if not vals:
            warnings.warn(f"feature {key[0]}.{key[1]} absent in all contexts; "
                          "emitting an identity map", stacklevel=2)
            norm.tables[key] = Normalizer.IDENTITY
            continue
        arr = np.asarray(vals, dtype=float)
        if arr.max() - arr.min() <= KNOT_TIE:
            norm.tables[key] = Normalizer.CONSTANT
            continue
        qs = np.quantile(arr, levels)
        starts = np.flatnonzero(np.diff(qs, prepend=-np.inf) > KNOT_TIE)
        runs = list(zip(starts, np.append(starts[1:], len(qs))))
        values = np.array([qs[(a + b - 1) // 2] for a, b in runs])
        lvl = np.array([levels[a:b].mean() for a, b in runs])
        norm.tables[key] = (values, lvl)
    return norm


def normalize(x: H2MGContext, norm: Normalizer) -> CompiledContext:
    """Compile ``x`` into the arrays the graph ODE reads, features normalized.

    One walk over each class's edges in canonical order gathers the raw
    feature matrix and the port matrix; ``norm`` then maps the features
    one column at a time (absent becomes 0).
    """
    classes = []
    for cname in sorted(c for c, edges in x.edges.items() if edges):
        edges, cs = x.edges[cname], SCHEMA[cname]
        raw = np.array([[e.features[f] for f in cs.context_feature_names]
                        for e in edges], dtype=float)
        feats = np.empty_like(raw)
        for j, f in enumerate(cs.context_feature_names):
            feats[:, j] = norm.map_column(cname, f, raw[:, j])
        classes.append((cname, feats, np.array(
            [[e.ports[p] for p in cs.port_names] for e in edges], dtype=int)))
    return CompiledContext(x.address_count, tuple(classes))
