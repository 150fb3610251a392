"""Hyper-heterogeneous multi-graph data model for grid operating conditions.

An operating condition is a set of typed hyper-edges plugged into shared
integer addresses through named ports.  A context keeps each class's edges
in one canonical order, by id, whatever order they were given in, and
finds the edges plugged into an address through a port with
:meth:`H2MGContext.anchored`; the solver, the model, the normalizer and
serialization all read that one layout.  The schema names the device class
each controller acts on, and :meth:`H2MGContext.device` finds that device.
A ``Decision`` (concrete controller actions) and a ``SurrogateDecision``
(the real-valued parameters of the stochastic policy over those actions)
are plain dicts of one array per controller class, rows in that class's
canonical edge order, so the policy, the estimator and the oracle act on
whole classes; :func:`paired_decision` checks one that comes from outside.
The oracle, the baseline and validation read a device's optional state
through two rules, :func:`required` and :func:`in_service`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

ABSENT = "absent"  # JSON spelling of a feature a given instance does not carry

# Controller decision kinds
D_NONE = "none"
D_BINARY = "binary"
D_CONTINUOUS = "continuous"
D_ONE_HOT = "one_hot"

#: Allowed regulated-bus setpoints for tap-changer controllers, as a
#: fraction of nominal voltage; a controller picks one by its index.
RTC_SETPOINT_LADDER = (1.00, 1.02, 1.05, 1.07)
RTC_CATEGORIES = len(RTC_SETPOINT_LADDER)


@dataclass(frozen=True)
class ClassSchema:
    """Static description of one hyper-edge class.  A controller class has
    one port, and ``device`` names the class it acts on through the port of
    the same name; it is empty for every other class."""

    class_name: str
    port_names: tuple[str, ...]
    context_feature_names: tuple[str, ...]
    decision_kind: str = D_NONE
    decision_feature: str = ""
    device: str = ""

    @property
    def is_controller(self) -> bool:
        return self.decision_kind != D_NONE

    @property
    def decision_dim(self) -> int:
        """Length of the surrogate vector attached to one edge of this class."""
        if self.decision_kind == D_ONE_HOT:
            return RTC_CATEGORIES
        if self.decision_kind == D_NONE:
            return 0
        return 1


def _schema_table() -> dict[str, ClassSchema]:
    def s(name, ports, feats, kind=D_NONE, dfeat="", device=""):
        return ClassSchema(name, tuple(ports), tuple(feats), kind, dfeat, device)

    entries = [
        s("bus", ["bus"], ["v", "theta", "v_nom", "v_max", "v_min", "opt"]),
        s("load", ["bus"], ["p", "q", "i", "p_target", "q_target"]),
        s("line", ["line", "bus1", "bus2"],
          ["p1", "q1", "i1", "p2", "q2", "i2", "r", "x", "g", "b",
           "i1_max", "i2_max", "opt", "status"]),
        s("line_controller", ["line"], [], D_BINARY, "disconnect", "line"),
        s("shunt", ["shunt", "bus"], ["p", "q", "i", "g", "b", "status"]),
        s("shunt_controller", ["shunt"], [], D_BINARY, "switch", "shunt"),
        s("generator", ["gen", "bus"],
          ["p", "q", "i", "p_target", "q_target", "v_target",
           "q_max", "q_min", "regulation_mode", "slack"]),
        s("svr_unit", ["gen", "zone"], ["participate"]),
        s("svr_zone", ["zone", "regulated_bus"], ["v", "theta", "v_nom", "v_target"]),
        s("svr_controller", ["zone"], [], D_CONTINUOUS, "delta_v_target", "svr_zone"),
        s("twt", ["twt", "bus1", "bus2"],
          ["p1", "q1", "i1", "p2", "q2", "i2", "r", "x", "g", "b",
           "ratio", "phase_shift", "i1_max", "i2_max", "opt"]),
        s("rtc", ["twt", "regulated_bus"], []),
        s("rtc_controller", ["twt"], ["v_target", "v_nom"], D_ONE_HOT,
          "setpoint_category", "rtc"),
    ]
    return {e.class_name: e for e in entries}


#: The 13 registered hyper-edge classes, keyed by class name: the devices
#: the oracle models and the controllers that act on them.
SCHEMA: dict[str, ClassSchema] = _schema_table()

#: Controller classes, in canonical order.
CONTROLLER_CLASSES: tuple[str, ...] = tuple(
    name for name in sorted(SCHEMA) if SCHEMA[name].is_controller
)

#: Ports that must resolve to an address occupied by a bus hyper-edge.
BUS_PORTS = frozenset({"bus", "bus1", "bus2", "regulated_bus"})


def schema_hash() -> str:
    """Stable digest of every field of the registered class table (pinned
    into checkpoints)."""
    doc = {name: asdict(cs) for name, cs in sorted(SCHEMA.items())}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class H2MGError(ValueError):
    """Structural error in a context, decision, or serialized document."""


@dataclass(frozen=True)
class HyperEdge:
    """One typed object instance plugged into shared addresses.

    ``features`` maps each schema feature name to a float, or to ``None``
    when the instance does not carry that physical quantity ("absent").
    """

    id: str
    class_name: str
    ports: Mapping[str, int]
    features: Mapping[str, float | None]

    def __post_init__(self):
        if self.class_name not in SCHEMA:
            raise H2MGError(f"unknown class {self.class_name!r}")
        cs = SCHEMA[self.class_name]
        if tuple(self.ports.keys()) != cs.port_names:
            raise H2MGError(
                f"{self.class_name} edge {self.id!r}: ports {tuple(self.ports)} "
                f"do not match schema ports {cs.port_names}")
        if set(self.features.keys()) != set(cs.context_feature_names):
            raise H2MGError(
                f"{self.class_name} edge {self.id!r}: features must be exactly "
                f"{cs.context_feature_names}")

    def feature(self, name: str, default: float | None = None) -> float | None:
        val = self.features[name]
        return default if val is None else val


@dataclass(frozen=True)
class H2MGContext:
    """One grid operating condition: structure plus features.

    Each class's edges are stored in canonical order, sorted by id (a
    stable sort, so edges sharing an id keep the order they were given
    in); every reader iterates that order, :meth:`anchored` finds a
    class's edges at an address, and :meth:`device` finds the one edge a
    controller acts on.  Immutable after construction; derived
    variants are built with :meth:`replace_features` or by the
    decision-application step.
    """

    address_count: int
    edges: Mapping[str, tuple[HyperEdge, ...]]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for cname in self.edges:
            if cname not in SCHEMA:
                raise H2MGError(f"unknown class {cname!r}")
        object.__setattr__(self, "edges", {
            cname: tuple(sorted(elist, key=lambda e: e.id))
            for cname, elist in self.edges.items()})

    def edges_of(self, class_name: str) -> tuple[HyperEdge, ...]:
        """Edges of a class, in canonical order."""
        return self.edges.get(class_name, ())

    def anchored(self, class_name: str, port: str, address: int) -> list[HyperEdge]:
        """Edges of ``class_name`` whose ``port`` holds ``address``, in
        canonical order.  It scans the class; nothing is cached."""
        return [e for e in self.edges_of(class_name) if e.ports[port] == address]

    def device(self, ctrl: HyperEdge) -> HyperEdge:
        """The one edge the controller ``ctrl`` acts on: the edge of its
        class's ``device`` anchored at its port's address.  Raises
        :class:`H2MGError` unless exactly one edge is."""
        cs = SCHEMA[ctrl.class_name]
        if not cs.device:
            raise H2MGError(f"{ctrl.class_name} edge {ctrl.id!r} is not a controller")
        (port,) = cs.port_names
        matches = self.anchored(cs.device, port, ctrl.ports[port])
        if len(matches) != 1:
            raise H2MGError(
                f"controller {ctrl.id!r} does not anchor to exactly one "
                f"{cs.device} (found {len(matches)})")
        return matches[0]

    def all_edges(self) -> Iterator[HyperEdge]:
        for cname in sorted(self.edges):
            yield from self.edges[cname]

    def replace_features(self, updates: Mapping[tuple[str, str], Mapping[str, float | None]],
                         ) -> "H2MGContext":
        """Copy with per-edge feature overrides, keyed by (class, edge id)."""
        new_edges: dict[str, tuple[HyperEdge, ...]] = {}
        for cname, elist in self.edges.items():
            out = []
            for e in elist:
                upd = updates.get((cname, e.id))
                if upd:
                    feats = dict(e.features)
                    feats.update(upd)
                    e = HyperEdge(e.id, cname, dict(e.ports), feats)
                out.append(e)
            new_edges[cname] = tuple(out)
        return H2MGContext(self.address_count, new_edges, dict(self.metadata))


@dataclass(frozen=True)
class Violation:
    class_name: str
    edge_id: str
    rule: str

    def __str__(self):
        return f"[{self.class_name}:{self.edge_id}] {self.rule}"


def reactive_ranges(q_min: Sequence[float], q_max: Sequence[float]) -> np.ndarray:
    """Generators' reactive ranges as the SVR dispatch weighs their shares,
    never negative.  A zone is live, and its controller moves something,
    only if its participating units' ranges sum to more than zero; each
    participating unit needs finite ``q_min <= q_max``, since a zone's
    level is a fraction of those ranges."""
    return np.maximum(np.subtract(q_max, q_min, dtype=float), 0.0)


def required(e: HyperEdge, name: str) -> float:
    """Feature ``name`` of ``e``; an :class:`H2MGError` if it is absent."""
    val = e.features[name]
    if val is None:
        raise H2MGError(f"{e.class_name} {e.id!r} has no {name!r}")
    return val


def in_service(e: HyperEdge) -> bool:
    """Whether a line, shunt (``status`` absent or >= 0.5) or twt (always) is connected."""
    return e.class_name == "twt" or not e.feature("status", 1.0) < 0.5


#: Features the baseline or an applied decision reads with :func:`required`,
#: per controller class: on the controller where its class has them, else on its device.
_CONTROLLED_FEATURES = {"shunt_controller": ("status",),
                        "svr_controller": ("v", "v_target"),
                        "rtc_controller": ("v_target", "v_nom")}


def validate_context(x: H2MGContext) -> list[Violation]:
    """Check every structural invariant; an empty report means a valid context.

    Violations are reported, never raised, so callers can show all problems
    at once; the rules mirror what the oracle and the baseline raise on.
    Each controller must act on exactly one device that no earlier
    controller acts on, with ``_CONTROLLED_FEATURES`` present; every rtc
    must sit on exactly one twt, and a controlled svr zone needs a unit with
    ``participate`` > 0.5 and a positive summed reactive range over those
    units (otherwise the dispatch drops the zone and its controller moves
    nothing).  Every participating unit of any svr zone must drive exactly
    one generator, since the oracle dispatches each one, not the slack (the
    first generator flagged so; there must be one), and one with finite
    ``q_min <= q_max``, since it runs at a fraction of that range.  No line
    or twt that is :func:`in_service` may have ``r = x = 0``.
    """
    report: list[Violation] = []

    def bad(cname, eid, rule):
        report.append(Violation(cname, eid, rule))

    # Port closure and feature finiteness
    for e in x.all_edges():
        for pname, addr in e.ports.items():
            if not isinstance(addr, int) or addr < 0 or addr >= x.address_count:
                bad(e.class_name, e.id,
                    f"port {pname!r} references address {addr} outside "
                    f"0..{x.address_count - 1}")
        for fname, val in e.features.items():
            if val is not None and not np.isfinite(val):
                bad(e.class_name, e.id, f"feature {fname!r} is not finite")

    # Duplicate ids within a class
    for cname in x.edges:
        seen: set[str] = set()
        for e in x.edges_of(cname):
            if e.id in seen:
                bad(cname, e.id, "duplicate edge id")
            seen.add(e.id)

    # Bus addresses are distinct; bus-type ports land on bus addresses
    bus_addrs: dict[int, str] = {}
    for e in x.edges_of("bus"):
        addr = e.ports["bus"]
        if addr in bus_addrs:
            bad("bus", e.id, f"address {addr} already occupied by bus {bus_addrs[addr]!r}")
        bus_addrs[addr] = e.id
    for cname in x.edges:
        if cname == "bus":
            continue
        for e in x.edges_of(cname):
            for pname, addr in e.ports.items():
                if pname in BUS_PORTS and addr not in bus_addrs:
                    bad(cname, e.id,
                        f"port {pname!r} at address {addr} is not occupied by a bus")

    # Controller wiring: each controller acts on exactly one device, and
    # each device has at most one controller
    for cname in CONTROLLER_CLASSES:
        device = SCHEMA[cname].device
        (port,) = SCHEMA[cname].port_names
        owner: dict[int, str] = {}
        for e in x.edges_of(cname):
            addr = e.ports[port]
            devices = x.anchored(device, port, addr)
            if len(devices) != 1:
                bad(cname, e.id, f"{port} port does not match exactly one {device}")
            else:
                for fname in _CONTROLLED_FEATURES.get(cname, ()):
                    holder = e if fname in e.features else devices[0]
                    if holder.features[fname] is None:
                        bad(cname, e.id, f"{holder.class_name} {holder.id!r} has no {fname!r}")
            if addr in owner:
                bad(cname, e.id, f"{device} at address {addr} already has "
                                 f"controller {owner[addr]!r}")
            owner.setdefault(addr, e.id)
    for e in x.edges_of("rtc"):
        if len(x.anchored("twt", "twt", e.ports["twt"])) != 1:
            bad("rtc", e.id, "twt port does not match exactly one twt")

    slack = [g.ports["gen"] for g in x.edges_of("generator") if g.feature("slack", 0.0) > 0.5]
    if not slack:
        bad("generator", "", "no slack generator")
    for z in x.edges_of("svr_zone"):
        for u in x.anchored("svr_unit", "zone", z.ports["zone"]):
            if u.feature("participate", 0.0) <= 0.5:
                continue
            gens = x.anchored("generator", "gen", u.ports["gen"])
            if len(gens) != 1:
                bad("svr_unit", u.id, "gen port does not match exactly one generator")
            elif slack and u.ports["gen"] == slack[0]:
                bad("svr_unit", u.id, "participating unit drives the slack generator")
            elif not -np.inf < gens[0].feature("q_min", np.nan) \
                    <= gens[0].feature("q_max", np.nan) < np.inf:
                bad("svr_unit", u.id, "participating unit's generator needs finite "
                                      "q_min <= q_max")
    for e in x.edges_of("svr_controller"):
        units = [u for u in x.anchored("svr_unit", "zone", e.ports["zone"])
                 if u.feature("participate", 0.0) > 0.5]
        gens = [g for u in units for g in x.anchored("generator", "gen", u.ports["gen"])]
        if not units:
            bad("svr_controller", e.id, "zone has no participating svr_unit")
        elif reactive_ranges([g.feature("q_min", -np.inf) for g in gens],
                             [g.feature("q_max", np.inf) for g in gens]).sum() <= 0:
            bad("svr_controller", e.id, "zone's participating units have no reactive range")

    # Electrical feature sanity
    for e in x.edges_of("bus"):
        vmin, vmax = e.features["v_min"], e.features["v_max"]
        if vmin is not None and vmax is not None and not vmin < vmax:
            bad("bus", e.id, f"v_min {vmin} must be < v_max {vmax}")
    for cname in ("line", "twt"):
        for e in x.edges_of(cname):
            for fname in ("i1_max", "i2_max"):
                rating = e.features[fname]
                if rating is not None and rating <= 0:
                    bad(cname, e.id, f"{fname} must be > 0 where rated")
            if in_service(e) and e.feature("r", 0.0) == 0.0 and e.feature("x", 0.0) == 0.0:
                bad(cname, e.id, "in service with zero impedance (r = x = 0)")

    return report


# ---------------------------------------------------------------------------
# Serialization: top-level keys address_count / classes / metadata; feature
# values are numbers or the string "absent".

def to_document(x: H2MGContext) -> dict:
    classes = {}
    for cname in sorted(x.edges):
        classes[cname] = [
            {
                "id": e.id,
                "ports": dict(e.ports),
                "features": {
                    f: (ABSENT if v is None else v) for f, v in e.features.items()
                },
            }
            for e in x.edges[cname]
        ]
    return {
        "address_count": x.address_count,
        "classes": classes,
        "metadata": dict(x.metadata),
    }


def _integer(value, what: str) -> int:
    """An integer read from a document; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise H2MGError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float | None:
    """A feature read from a document: a number, or ``None`` where it is
    ``"absent"``; a bool or any other string is not one."""
    if value == ABSENT:
        return None
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise H2MGError(f"{what} must be a number, got {value!r}")
    return float(value)


def from_document(doc: dict) -> H2MGContext:
    """Inverse of :func:`to_document`; anything else raises :class:`H2MGError`."""
    try:
        address_count = _integer(doc["address_count"], "address_count")
        metadata = dict(doc.get("metadata", {}))
        edges: dict[str, tuple[HyperEdge, ...]] = {}
        for cname, records in doc["classes"].items():
            if cname not in SCHEMA:
                raise H2MGError(f"unknown class {cname!r}")
            cs = SCHEMA[cname]
            elist = []
            for rec in records:
                feats = {fname: _number(val, f"{cname} edge {rec['id']!r} feature {fname!r}")
                         for fname, val in rec["features"].items()}
                # exactly the schema's ports, none missing or extra; HyperEdge
                # gets them in schema order
                if set(rec["ports"]) != set(cs.port_names):
                    raise H2MGError(
                        f"{cname} edge {rec.get('id')!r}: ports must be exactly "
                        f"{cs.port_names}")
                ports = {p: _integer(rec["ports"][p], f"{cname} edge {rec['id']!r} "
                                                      f"port {p!r}")
                         for p in cs.port_names}
                elist.append(HyperEdge(str(rec["id"]), cname, ports, feats))
            edges[cname] = tuple(elist)
    except H2MGError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise H2MGError(f"malformed grid document: {exc!r}") from exc
    return H2MGContext(address_count, edges, metadata)


def serialize(x: H2MGContext) -> bytes:
    return json.dumps(to_document(x), indent=1, sort_keys=True).encode()


def deserialize(blob: bytes) -> H2MGContext:
    try:
        doc = json.loads(blob.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise H2MGError(f"not a valid grid document: {exc}") from exc
    return from_document(doc)


# ---------------------------------------------------------------------------
# Decisions: one array per controller class, rows in the context's canonical
# edge order

#: Concrete controller actions, per controller class one array with a row per
#: controller in :meth:`H2MGContext.edges_of` order: int 0/1 for binary classes
#: (1 requests the change), float for svr_controller (setpoint delta, p.u.), an
#: int category index 0..3 for rtc_controller.  No entry for an empty class.
Decision = Mapping[str, np.ndarray]

#: Real-valued policy parameters, per controller class one float
#: ``(controllers, decision_dim)`` array in :meth:`H2MGContext.edges_of` order;
#: ``decision_dim`` is 1 for binary and continuous classes, 4 for rtc_controller.
SurrogateDecision = Mapping[str, np.ndarray]


def _check_paired(values: Mapping[str, np.ndarray], x: H2MGContext) -> None:
    """Refuse ``values`` unless they hold exactly the controller classes of
    ``x``, each an array of one entry per controller."""
    got = {c: np.shape(v) for c, v in values.items() if np.size(v)}
    want = {c: (len(x.edges_of(c)),) for c in CONTROLLER_CLASSES if x.edges_of(c)}
    if got != want:
        raise H2MGError(
            f"decision arrays do not match the context's controllers "
            f"(got shapes {got}, expected {want})")


def paired_decision(x: H2MGContext, values: Mapping[str, Sequence]) -> Decision:
    """``values`` as a :data:`Decision` on ``x``, checked: the class set, each
    class's length and its value domain.  Binary and one-hot classes become
    int arrays, svr_controller a float one; empty classes are dropped."""
    arrays = {c: np.asarray(v) for c, v in values.items()}
    _check_paired(arrays, x)
    out: dict[str, np.ndarray] = {}
    for cname, arr in arrays.items():
        if not arr.size:
            continue
        kind = SCHEMA[cname].decision_kind
        if kind == D_CONTINUOUS:
            ok, out[cname] = np.all(np.isfinite(arr)), arr.astype(float)
        else:
            domain = set(range(2 if kind == D_BINARY else RTC_CATEGORIES))
            ok, out[cname] = set(arr.tolist()) <= domain, arr.astype(int)
        if not ok:
            raise H2MGError(f"{cname}: decision values outside the {kind} domain")
    return out
