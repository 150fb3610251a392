"""AC power-flow oracle: decision application, Newton solve, objective.

The solver is a dense polar Newton-Raphson with three outer control loops
(discrete transformer tap stepping, secondary-voltage-regulation reactive
dispatch, generator Q-limit switching).  Non-convergence is always a value,
never an exception, and maps to the fixed objective cost
:data:`PROHIBITIVE_COST`; every solve reports how it ended as one of :data:`SOLVE_STATUSES`.

One function, :func:`evaluate_objectives`, scores the decisions of one
context: a solve and an :class:`ObjectiveBreakdown` of objective terms,
counts and losses per decision; :func:`evaluate_objective` scores one.
There is one solver path, and a batch of one runs on it too.

:class:`SolverOptions` holds the operator's objective and the outer-round
cap that the tests and the benchmark read.  The solve's numerics are module
constants, so the solver core takes no options and a model depends on its
context alone.

A batch's solves run round by round (:func:`_solve_all`).  A round's
Newton solves are one call, in which the states of one PV/PQ split step
together (:func:`_stacked_newton`); then each solve that converged runs
its control loops alone.  With one BLAS thread a stacked ``matmul`` or
solve gives each slice the bits it gets alone, so a decision's record does
not depend on its batch (``tests/test_powerflow_batch.py``).  Batching
many variants of one grid follows Zhou et al., "GPU-Accelerated
Batch-ACPF Solution for N-1 Static Security Analysis" (IEEE Trans. Smart
Grid, 2017).

The inner loop is array-native:

* The Jacobian uses the elementwise form of MATPOWER's ``dSbus_dV``
  (Zimmerman et al., IEEE TPWRS 2011): ``dS/dVa = j·v·conj(diag(i) − Y·v)``
  and ``dS/dVm = v·conj(Y·v/|v|) + diag(conj(i)·v/|v|)`` as row/column
  scalings of Ybus, with no diagonal matrices and no matrix products.  It
  is computed only where a branch couples two buses and on the diagonal,
  the entries that can be nonzero, and scattered into the Jacobian's four
  real blocks through one flat index.
* The model's Ybus is assembled once, at the context's taps, and a solve
  re-assembles its own only when a tap changer moves, the one change to
  branch admittances during a solve.  A solve writes nothing on the model:
  the taps, Ybus, pins and outcome it moves live on its state.
* An SVR zone is one level in [0, 1]: its units all run at that fraction
  of their reactive ranges, as a zone's units follow one reactive level in
  French secondary voltage control (Paul, Léost and Tesseron, IEEE TPWRS
  1987), and the dispatch steps one number per zone.  It gets the voltage
  sensitivities of every zone outside its deadband from one
  multi-right-hand-side solve of ``J^T`` per round.  For the first
  :data:`JOINT_FROM_ROUND` outer rounds each zone steps alone on its own
  sensitivity.  Where pilot targets are mutually inconsistent those steps
  drift without end, so later rounds take one joint, regularized
  least-squares step over the zones, as in coordinated secondary voltage
  control; a joint step that moves no unit by more than
  :data:`SETTLE_STEP` has settled.

Two things carry over from one outer round to the next without changing
a bit.  The PV/PQ split and the indices that follow from it stay on the
state, rebuilt only after a Q-limit pin flips.  And while no tap, pin or
voltage has moved since Newton converged, the first Newton iteration of
the next round reuses the Jacobian it converged on, and the Q-limit check
the bus injections: the SVR dispatch changes only reactive injections,
which neither reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import require_finite, require_integer
from .h2mg import (
    Decision,
    H2MGContext,
    H2MGError,
    RTC_SETPOINT_LADDER,
    in_service,
    paired_decision,
    reactive_ranges,
    required,
)

#: Discrete physical tap ladder: 21 multipliers of the nominal ratio.
TAP_MULTIPLIERS = np.round(np.linspace(0.9, 1.1, 21), 10)
TAP_STEP = 0.01

#: How a solve ends: every control loop settled; Newton diverged, went
#: non-finite, drove a voltage to zero or hit its iteration cap; a Newton
#: step met a singular Jacobian; or the control loops were still moving
#: after ``max_outer`` rounds.
SOLVE_STATUSES = ("converged", "newton_failed", "singular_jacobian", "outer_cap")

#: The objective of a decision whose solve does not converge, and the
#: estimator's score for an oracle call that raises.
PROHIBITIVE_COST = 100.0

#: The outer control loops, in the order each round runs them: tap
#: stepping, SVR reactive dispatch, generator Q-limit switching.  A solve
#: that did not converge names those that changed in its last round.
MOVING_LOOPS = ("rtc", "svr", "qlim")

#: The SVR dispatch steps each zone alone for this many outer rounds, then
#: takes joint steps.  The per-zone rounds handle saturation well, and most
#: solves end within 20 of them (447 of 580 converged baseline solves on 60
#: generated contexts); a joint step from the first round leans on the
#: unsaturated zones to help saturated ones, and generation took 47% more
#: rounds.  Past this round, a per-zone dispatch whose pilot targets are
#: mutually inconsistent drifts until the outer cap.
JOINT_FROM_ROUND = 20
#: The joint step's damping, relative to the mean diagonal of ``SᵀS``: it
#: keeps the step bounded where the pilot voltages are nearly collinear,
#: which an exact joint solve is not (it converged less often than the
#: per-zone rule).
JOINT_DAMPING = 1e-3
#: A joint step that moves no unit by more than this, p.u., has settled:
#: the dispatch is stationary, though some pilot may sit outside its
#: deadband because no dispatch meets every target.
SETTLE_STEP = 1e-6
#: Newton converges when no power mismatch exceeds TOLERANCE, p.u., and
#: fails when it has not after MAX_INNER iterations.
TOLERANCE, MAX_INNER = 1e-8, 30
#: A tap holds within half a tap step of its target, as a fraction of the
#: regulated bus's nominal voltage; an SVR pilot within SVR_DEADBAND, p.u.
RTC_DEADBAND, SVR_DEADBAND = TAP_STEP / 2, 1e-5
#: The plausible range, p.u., that every voltage target is clamped to.
TARGET_CLAMP = (0.0, 3.0)


@dataclass(frozen=True)
class SolverOptions:
    """The operator's objective (:func:`_score`): weights of the voltage,
    current and loss terms and the margins inside the limits where a
    penalty starts; and the outer-round cap, which the tests and the
    benchmark set.  The solve's numerics are module constants."""

    max_outer: int = 100             # control-adjustment rounds
    lambda_v: float = 1.0
    lambda_i: float = 1.0
    lambda_j: float = 0.1
    eps_v: float = 0.05
    eps_i: float = 0.05

    def __post_init__(self):
        require_integer("max_outer", self.max_outer, 1)  # a NaN cap never stops a drifting solve
        # The baseline search prunes on costs that cannot be negative, a NaN
        # weight scores every solve NaN, and a negative margin scores a
        # violating voltage or current as 0 (`not value >= 0` refuses NaN).
        for name in ("lambda_v", "lambda_i", "lambda_j", "eps_v", "eps_i"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must not be negative or NaN")
        # An infinite weight or margin scores a converged solve inf or NaN.
        require_finite(self, "lambda_v", "lambda_i", "lambda_j", "eps_v", "eps_i")


@dataclass(frozen=True)
class PowerFlowSolution:
    """How a :func:`solve_ac` ended; ``context`` is the solved context
    (:func:`_solved_context`), ``None`` unless the solve converged."""

    converged: bool
    context: H2MGContext | None
    inner_iterations: int
    outer_iterations: int
    status: str             # one of SOLVE_STATUSES
    restarts: int           # flat-start Newton retries taken
    moving: tuple[str, ...]  # of MOVING_LOOPS: what changed in the last outer round


@dataclass(frozen=True, eq=False)
class ObjectiveBreakdown:
    """One decision's scored solve.  A solve that does not converge holds
    :data:`PROHIBITIVE_COST` in ``total``, 0 in every term and count, and
    empty arrays.  ``valid`` reads ``converged`` and :data:`count_metrics`
    is :func:`evaluate_objective`, because the benchmark reads both names.
    Two records are equal when every field is, the arrays by value; a
    record is not hashable.
    """

    f_v: float
    f_i: float
    f_j: float              # lambda_j * joule_losses
    total: float
    converged: bool
    over_voltages: int
    under_voltages: int
    violations: int         # over_voltages + under_voltages
    overflows: int
    joule_losses: float
    normalized_voltages: np.ndarray  # one entry per optimized bus
    normalized_currents: np.ndarray  # one entry per optimized rated branch
    status: str             # one of SOLVE_STATUSES
    inner: int              # Newton iterations, as PowerFlowSolution.inner_iterations
    outer: int              # outer rounds, as PowerFlowSolution.outer_iterations
    restarts: int           # flat-start Newton retries taken
    moving: tuple[str, ...]  # of MOVING_LOOPS: what changed in the last outer round

    valid = property(lambda self: self.converged)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)


# ---------------------------------------------------------------------------
# Decision application

def apply_decision(x: H2MGContext, y: Decision) -> H2MGContext:
    """Return a copy of ``x`` with the controller actions of ``y`` applied.

    Row ``i`` of a class's array in ``y`` is the action of the class's
    ``i``-th edge in ``x``; :func:`~gridtvc.h2mg.paired_decision` checks
    ``y``, values included.  Each controller acts on its device, as
    :meth:`H2MGContext.device` finds it (an :class:`H2MGError` unless there
    is exactly one).  Binary actions request a change (1 = act, 0 = leave
    as is): line controllers open their line, shunt controllers toggle a
    shunt's ``status``; SVR controllers shift a zone's ``v_target``, and RTC
    controllers pick a ladder multiple of their ``v_nom``.  Those three
    features are :func:`~gridtvc.h2mg.required`.
    """
    y = paired_decision(x, y)

    def acts(cname):
        return zip(x.edges_of(cname), y.get(cname, ()))

    updates: dict[tuple[str, str], dict] = {}
    for e, act in acts("line_controller"):
        if act == 1:
            updates[("line", x.device(e).id)] = {"status": 0.0}
    for e, act in acts("shunt_controller"):
        if act == 1:
            shunt = x.device(e)
            updates[("shunt", shunt.id)] = {"status": 1.0 - required(shunt, "status")}
    for e, delta in acts("svr_controller"):
        zone = x.device(e)
        updates[("svr_zone", zone.id)] = {
            "v_target": required(zone, "v_target") + float(delta)}
    for e, category in acts("rtc_controller"):
        # anchoring check only; the new target lives on the controller itself
        x.device(e)
        updates[("rtc_controller", e.id)] = {
            "v_target": RTC_SETPOINT_LADDER[int(category)] * required(e, "v_nom")}
    return x.replace_features(updates)


# ---------------------------------------------------------------------------
# Internal array model

def _column(edges, name: str, default: float) -> np.ndarray:
    """One feature of ``edges`` as a float array, ``default`` where absent."""
    return np.array([e.feature(name, default) for e in edges], dtype=float)


class _GridModel:
    """Numpy view of one context, ready for the Newton loop; never written
    after it is built, so solves may share it.

    Buses, generators, branches and tap changers follow the context's
    canonical edge order.  ``svr_gen`` marks the units of every SVR zone,
    each of which needs finite ``q_min <= q_max``, and ``svr_q`` holds their
    clipped starting outputs.  ``zones`` lists only the zones the dispatch
    acts on (a target, units, and a positive reactive range).  Each is one
    level in [0, 1], at which every unit of the zone runs at that fraction
    of its range.  Per zone, ``level`` is the starting level, the fraction
    of the summed range that the units' summed starting output reaches,
    ``span`` the summed range and ``widest`` the largest; ``unit_gen`` and
    ``unit_zone`` list those zones' units and the zone of each.
    """

    def __init__(self, x: H2MGContext):
        lo, hi = TARGET_CLAMP
        buses = x.edges_of("bus")
        if not buses:
            raise H2MGError("context has no buses")
        self.addr_to_bus = {e.ports["bus"]: i for i, e in enumerate(buses)}
        n = len(buses)
        self.n = n
        self.v_nom = _column(buses, "v_nom", 1.0)
        self.v_min = _column(buses, "v_min", np.nan)
        self.v_max = _column(buses, "v_max", np.nan)
        self.opt = _column(buses, "opt", 0.0)
        self.vm0 = np.array([e.feature("v", self.v_nom[i]) for i, e in enumerate(buses)])
        self.va0 = _column(buses, "theta", 0.0)

        # Fixed injections
        self.p_spec = np.zeros(n)
        self.q_fixed = np.zeros(n)
        for e in x.edges_of("load"):
            b = self._bus(e.ports["bus"], e)
            self.p_spec[b] -= e.feature("p_target", 0.0)
            self.q_fixed[b] -= e.feature("q_target", 0.0)

        # Generators
        gens = x.edges_of("generator")
        self.gen_bus = np.array([self._bus(e.ports["bus"], e) for e in gens],
                                dtype=int)
        self.gen_pset = _column(gens, "p_target", 0.0)
        self.gen_qset = _column(gens, "q_target", 0.0)
        self.gen_vset = np.clip(_column(gens, "v_target", 1.0), lo, hi)
        self.gen_qmin = _column(gens, "q_min", -np.inf)
        self.gen_qmax = _column(gens, "q_max", np.inf)
        self.gen_regulating = np.array(
            [e.feature("regulation_mode", 0.0) > 0.5 for e in gens])
        slack_flags = [e.feature("slack", 0.0) > 0.5 for e in gens]
        if not any(slack_flags):
            raise H2MGError("no slack generator designated")
        self.slack_gen = slack_flags.index(True)
        self.slack_bus = int(self.gen_bus[self.slack_gen])
        non_slack = np.arange(len(gens)) != self.slack_gen
        np.add.at(self.p_spec, self.gen_bus[non_slack], self.gen_pset[non_slack])

        addr_of_gen_port = {e.ports["gen"]: i for i, e in enumerate(gens)}

        # SVR zones: every zone's participating units are SVR units, each
        # starting at its context's solved q when available.
        self.svr_gen = np.zeros(len(gens), dtype=bool)
        self.svr_q = np.clip([g.feature("q", g.feature("q_target", 0.0)) for g in gens],
                             self.gen_qmin, self.gen_qmax)
        zone_of = np.full(len(gens), -1)
        self.zones, levels, spans, widest = [], [], [], []
        for z in x.edges_of("svr_zone"):
            unit_gens = []
            for u in x.anchored("svr_unit", "zone", z.ports["zone"]):
                if u.feature("participate", 0.0) > 0.5:
                    gi = addr_of_gen_port.get(u.ports["gen"])
                    if gi is None:
                        raise H2MGError(f"svr_unit {u.id!r} references no generator")
                    if not -np.inf < self.gen_qmin[gi] <= self.gen_qmax[gi] < np.inf:
                        raise H2MGError(f"svr_unit {u.id!r} drives a generator without "
                                        "finite q_min <= q_max")
                    unit_gens.append(gi)
            bus = self._bus(z.ports["regulated_bus"], z)
            units = np.array(sorted(unit_gens), dtype=int)
            self.svr_gen[units] = True
            target = z.features["v_target"]
            ranges = reactive_ranges(self.gen_qmin[units], self.gen_qmax[units])
            if target is None or len(units) == 0 or ranges.sum() <= 0:
                continue
            span = ranges.sum()
            zone_of[units] = len(self.zones)
            levels.append((self.svr_q[units] - self.gen_qmin[units]).sum() / span)
            self.zones.append({"bus": bus,
                               "target": float(min(max(target, lo), hi)),
                               "units": units, "shares": ranges / span,
                               "unit_bus": self.gen_bus[units]})
            spans.append(span)
            widest.append(ranges.max())
        if self.svr_gen[self.slack_gen]:
            raise H2MGError("slack generator cannot participate in an SVR zone")
        self.level = np.clip(levels, 0.0, 1.0)
        self.span, self.widest = np.array(spans), np.array(widest)
        self.unit_gen = np.flatnonzero(zone_of >= 0)
        self.unit_zone = zone_of[self.unit_gen]

        # Per-bus reactive bookkeeping for the Q-limit loop: the summed
        # limits of the regulating (non-SVR) generators, and the fixed
        # reactive injection of loads and non-regulating generators.
        reg = self.gen_regulating & ~self.svr_gen
        nonreg = ~self.gen_regulating & ~self.svr_gen
        self.reg_qmin = np.bincount(self.gen_bus[reg], self.gen_qmin[reg], n)
        self.reg_qmax = np.bincount(self.gen_bus[reg], self.gen_qmax[reg], n)
        self.q_base = self.q_fixed + np.bincount(
            self.gen_bus[nonreg], self.gen_qset[nonreg], n)
        # Bus regulation: the slack is fixed; a bus is PV where a regulating
        # non-SVR generator sits, at the set-point of the first such one.
        reg_gens = np.flatnonzero(reg)
        reg_gens = reg_gens[self.gen_bus[reg_gens] != self.slack_bus]
        pv_bus, first = np.unique(self.gen_bus[reg_gens], return_index=True)
        self.is_pv = np.zeros(n, dtype=bool)
        self.is_pv[pv_bus] = True
        self.vset = np.full(n, np.nan)
        self.vset[pv_bus] = self.gen_vset[reg_gens[first]]
        self.vset[self.slack_bus] = self.gen_vset[self.slack_gen]

        # Branches: the lines in service, then all twts
        lines = [e for e in x.edges_of("line") if in_service(e)]
        twts = x.edges_of("twt")
        branches = lines + list(twts)
        for e in branches:
            if e.feature("r", 0.0) == 0.0 and e.feature("x", 0.0) == 0.0:
                raise H2MGError(f"{e.class_name} {e.id!r} has zero impedance")
        self.branch_keys = [(e.class_name, e.id) for e in branches]
        self.fb = np.array([self._bus(e.ports["bus1"], e) for e in branches], dtype=int)
        self.tb = np.array([self._bus(e.ports["bus2"], e) for e in branches], dtype=int)
        self.ys = np.array([1.0 / complex(e.feature("r", 0.0), e.feature("x", 0.0))
                            for e in branches], dtype=complex)
        self.ysh = np.array([complex(e.feature("g", 0.0), e.feature("b", 0.0))
                             for e in branches], dtype=complex)
        self.ratio = np.concatenate([np.ones(len(lines)), _column(twts, "ratio", 1.0)])
        self.shift = np.concatenate([np.zeros(len(lines)),
                                     _column(twts, "phase_shift", 0.0)])
        self.branch_opt = _column(branches, "opt", 0.0)
        self.branch_i1max = _column(branches, "i1_max", np.nan)
        self.branch_i2max = _column(branches, "i2_max", np.nan)
        twt_index_by_addr = {e.ports["twt"]: len(lines) + k for k, e in enumerate(twts)}

        # Bus shunt admittance from in-service shunt edges
        self.y_shunt_bus = np.zeros(n, dtype=complex)
        for e in filter(in_service, x.edges_of("shunt")):
            b = self._bus(e.ports["bus"], e)
            self.y_shunt_bus[b] += complex(e.feature("g", 0.0), e.feature("b", 0.0))

        # Tap changers: regulation targets come from rtc controllers
        self.rtcs = []
        for e in x.edges_of("rtc"):
            bi = twt_index_by_addr.get(e.ports["twt"])
            if bi is None:
                raise H2MGError(f"rtc {e.id!r} references no twt")
            reg_bus = self._bus(e.ports["regulated_bus"], e)
            tau_nom = self.v_nom[self.fb[bi]] / self.v_nom[self.tb[bi]]
            mult = self.ratio[bi] / tau_nom
            tap = min(max(round((mult - 0.9) / TAP_STEP), 0), 20)
            self.ratio[bi] = tau_nom * TAP_MULTIPLIERS[tap]
            ctrls = x.anchored("rtc_controller", "twt", e.ports["twt"])
            target = ctrls[-1].features["v_target"] if ctrls else None
            self.rtcs.append({
                "branch": bi,
                "bus": reg_bus,
                "tau_nom": tau_nom,
                "tap": tap,      # the starting position; a solve moves its own
                "target": None if target is None else min(max(target, lo), hi),
            })
        self.ybus = self.assemble_ybus(self.ratio)
        # where Ybus can be nonzero whatever the taps: each bus with itself
        # and the two ends of every branch
        self.coupled = np.eye(n, dtype=bool)
        self.coupled[self.fb, self.tb] = self.coupled[self.tb, self.fb] = True

    def _bus(self, addr: int, edge) -> int:
        try:
            return self.addr_to_bus[addr]
        except KeyError:
            raise H2MGError(
                f"{edge.class_name} {edge.id!r}: address {addr} is not a bus") from None

    # -- admittance assembly -------------------------------------------------

    def branch_admittances(self, ratio: np.ndarray):
        tau = ratio * np.exp(1j * self.shift)
        yff = (self.ys + self.ysh / 2.0) / (ratio ** 2)
        ytt = self.ys + self.ysh / 2.0
        yft = -self.ys / np.conj(tau)
        ytf = -self.ys / tau
        return yff, yft, ytf, ytt

    def assemble_ybus(self, ratio: np.ndarray) -> np.ndarray:
        n = self.n
        y = np.zeros((n, n), dtype=complex)
        yff, yft, ytf, ytt = self.branch_admittances(ratio)
        np.add.at(y, (self.fb, self.fb), yff)
        np.add.at(y, (self.fb, self.tb), yft)
        np.add.at(y, (self.tb, self.fb), ytf)
        np.add.at(y, (self.tb, self.tb), ytt)
        y[np.arange(n), np.arange(n)] += self.y_shunt_bus
        return y


class _State:
    """Everything one solve moves, across its outer rounds, and how it ended.

    It starts from the model's voltages, taps, Ybus and SVR levels.  The
    tap lists hold one entry per ``m.rtcs`` entry, and ``level`` one per
    ``m.zones`` entry.  ``ybus`` is rebound to a fresh assembly when a tap
    moves and ``level`` when the dispatch steps, never written in place, so
    each may start as the model's own.  ``status`` (one of
    :data:`SOLVE_STATUSES`), ``inner``, ``outer`` and ``moving`` are set by
    :func:`_solve_all`.
    """

    def __init__(self, m: _GridModel):
        self.vm = m.vm0.copy()
        self.va = m.va0.copy()
        self.tap = [r["tap"] for r in m.rtcs]
        self.last_dir = [0] * len(m.rtcs)   # anti-hunting memory
        self.locked = [False] * len(m.rtcs)
        self.ratio = m.ratio.copy()
        self.ybus = m.ybus
        self.pinned = np.zeros(m.n, dtype=int)  # 0 free, +1 at q_max, -1 at q_min
        self.switch_budget = np.full(m.n, 6)  # pin/unpin flips allowed per solve
        self.level = m.level
        self.status = None
        self.inner = self.outer = 0
        self.moving: tuple[str, ...] = ()
        self.restarts = 0       # flat-start retries taken
        self.jac = None         # the Jacobian at the last converged Newton state
        self.s = None           # and the complex bus injections there
        # True while st.jac is bitwise what _jacobians would build at the
        # current state: no tap, pin or voltage has changed since it was built.
        self.jac_current = False
        _bus_split(m, self)


def _bus_split(m: _GridModel, st: _State) -> None:
    """Set the state's PV/PQ split and the Newton layout that follows from it.

    ``st.jac_index`` is ``(pv, pq, pvpq)``, ``st.index`` the flat gather
    index of :func:`_jacobian_index`, ``st.layout`` the
    :func:`_jacobian_layout` of the model's coupled buses through that
    index, and ``st.pq_pos`` each bus's position in ``pq`` (-1 when not
    PQ).  ``st.mis_index`` gathers the mismatch's injections, P of
    ``pvpq`` then Q of ``pq``, from the complex power read as floats, and
    ``st.x_index`` places the unknowns, the angles of ``pvpq`` then the
    magnitudes of ``pq``, in the rows ``[va, vm]`` flattened.  The split
    changes only when a Q-limit pin flips, so it is computed at set-up and
    after each flip.
    """
    pv = np.flatnonzero(m.is_pv & (st.pinned == 0))
    is_pq = np.ones(m.n, dtype=bool)
    is_pq[pv] = False
    is_pq[m.slack_bus] = False
    pq = np.flatnonzero(is_pq)
    pvpq = np.concatenate([pv, pq])
    st.jac_index = (pv, pq, pvpq)
    st.index = _jacobian_index(m.n, pvpq, pq)
    st.layout = _jacobian_layout(m.coupled, st.index)
    buses = np.concatenate([pvpq, pq])
    second = np.repeat([0, 1], [len(pvpq), len(pq)])
    st.mis_index = 2 * buses + second
    st.x_index = second * m.n + buses
    st.pq_pos = np.full(m.n, -1)
    st.pq_pos[pq] = np.arange(len(pq))
    st.jac_current = False


def _svr_outputs(m: _GridModel, st: _State) -> np.ndarray:
    """Each SVR unit's reactive output, at its generator's entry: a unit of
    a zone the dispatch acts on at ``(1 − α)·q_min + α·q_max`` for its
    zone's level ``α``, which lands on each limit exactly, any other at its
    clipped starting output."""
    q, a, g = m.svr_q.copy(), st.level[m.unit_zone], m.unit_gen
    q[g] = (1.0 - a) * m.gen_qmin[g] + a * m.gen_qmax[g]
    return q


def _q_spec(m: _GridModel, st: _State) -> np.ndarray:
    """Specified reactive injection per bus, regulating generators excluded."""
    return m.q_base + np.bincount(m.gen_bus[m.svr_gen], _svr_outputs(m, st)[m.svr_gen], m.n)


def _jacobian_index(n: int, pvpq: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Flat positions of the Jacobian's entries in the dense derivatives.

    The derivatives are stacked as ``[dS/dVa, dS/dVm]`` (shape ``(2, n, n)``,
    complex) and read as floats, so entry ``(k, a, b)`` has its real part at
    ``(k·n + a)·2n + 2b`` and its imaginary part one further.  Rows are the
    P equations of ``pvpq`` (real part) then the Q equations of ``pq``
    (imaginary part); columns are the angles of ``pvpq`` (k = 0) then the
    magnitudes of ``pq`` (k = 1).
    """
    buses = np.concatenate([pvpq, pq])
    second = np.repeat([0, 1], [len(pvpq), len(pq)])
    return ((second[None, :] * n + buses[:, None]) * 2 * n
            + 2 * buses[None, :] + second[:, None])


def _jacobian_layout(coupled: np.ndarray, index: np.ndarray) -> tuple:
    """The Jacobian entries that can be nonzero, and where each one goes.

    ``coupled`` marks the bus pairs ``(a, b)`` where Ybus can be nonzero;
    ``dS/dVa`` and ``dS/dVm`` can be nonzero there and nowhere else.
    Returns ``(rows, cols, diag, source, target)``: the buses of those
    pairs in row-major order and the positions of the diagonal among
    them; then for every Jacobian entry the pairs reach, its position in
    the derivatives of the pairs read as floats (per derivative, each
    pair's real then imaginary part) and its position in the Jacobian
    gathered through ``index`` (:func:`_jacobian_index`), flattened.
    """
    n = len(coupled)
    rows, cols = np.nonzero(coupled)
    # each pair's real part in the dense float layout of _jacobian_index
    first = 2 * (rows * n + cols)
    dense = np.concatenate([first, first + 2 * n * n])
    dense = np.stack([dense, dense + 1], axis=1).ravel()
    inverse = np.full(4 * n * n, -1)
    inverse[index.ravel()] = np.arange(index.size)
    target = inverse[dense]
    source = np.flatnonzero(target >= 0)
    return rows, cols, np.flatnonzero(rows == cols), source, target[source]


def _jacobians(ybus, v, ibus, index, layout) -> np.ndarray:
    """Newton Jacobians of the power mismatch of ``K`` states at once.

    ``ybus`` is ``(K, n, n)``, ``v`` and ``ibus`` are ``(K, n)``, and every
    Jacobian is gathered through ``index``; the result is ``(K, m, m)``.
    Only the entries of ``layout`` (:func:`_jacobian_layout`) are computed,
    by the dense form's elementwise products, ``dS/dVa = -1j v conj(Y v)``
    and ``dS/dVm = v conj(Y vnorm)`` plus their diagonal terms, so each has
    the same bits as there; every other entry is a zero, as it is there up
    to its sign.  A state's Jacobian does not depend on the rest of the
    stack.
    """
    rows, cols, diag, source, target = layout
    size, n = v.shape
    vnorm = v / np.abs(v)
    y = ybus.reshape(size, -1).take(rows * n + cols, axis=1)
    ds = np.empty((size, 2, len(rows)), dtype=complex)
    d0, d1 = ds[:, 0], ds[:, 1]
    np.multiply(y, v.take(cols, axis=1), out=d0)
    np.multiply(y, vnorm.take(cols, axis=1), out=d1)
    np.conjugate(ds, out=ds)
    np.multiply((-1j * v).take(rows, axis=1), d0, out=d0)
    np.multiply(v.take(rows, axis=1), d1, out=d1)
    conj_i = np.conj(ibus)
    d0[:, diag] += 1j * v * conj_i
    d1[:, diag] += vnorm * conj_i
    jac = np.zeros((size, index.size))
    jac[:, target] = ds.view(float).reshape(size, -1).take(source, axis=1)
    return jac.reshape(size, *index.shape)


# ---------------------------------------------------------------------------
# Batched Newton

def _stack(arrays: list) -> np.ndarray:
    """``arrays`` along a new first axis; a single array is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """``np.linalg.solve`` of the stack ``(a, b)``, and which ``a[k]`` are
    singular (their solutions are zero)."""
    try:
        return np.linalg.solve(a, b), [False] * len(a)
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: solve it one by one
        x, singular = np.zeros(b.shape), [False] * len(a)
        for k in range(len(a)):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return x, singular


def _newtons(pairs: list) -> list:
    """Newton's method on every ``(m, st)`` of ``pairs``; returns each
    state's ``(failure, iterations)``.  The states of one PV/PQ split are
    one :func:`_stacked_newton`."""
    splits: dict[tuple, list[int]] = {}
    for k, (m, st) in enumerate(pairs):
        splits.setdefault((m.n, st.jac_index[0].tobytes()), []).append(k)
    out = {}
    for ks in splits.values():
        out.update(zip(ks, _stacked_newton([pairs[k] for k in ks])))
    return [out[k] for k in range(len(pairs))]


def _stacked_newton(pairs: list) -> list:
    """Newton's method on states that share a PV/PQ split, in lockstep.

    Returns each state's ``(failure, iterations)``: ``failure`` is None on
    success, else the status saying why it stopped.  Each state's vm/va
    end as its Newton left them, and on success ``st.jac`` holds the
    Jacobian at the converged state.  Row ``r`` of the stacked arrays is
    state ``rows[r]``, and a state leaves the stack when it stops.
    """
    (m0, st0), sts = pairs[0], [st for _, st in pairs]
    pv, index, mis_index, x_index = st0.jac_index[0], st0.index, st0.mis_index, st0.x_index
    slack, size = m0.slack_bus, len(index)
    # the unknowns' rows [va, vm] and the specified injections
    x = np.empty((len(pairs), 2, m0.n))
    spec = []
    for r, (m, st) in enumerate(pairs):
        st.vm[slack], st.va[slack] = m.vset[slack], 0.0
        st.vm[pv] = m.vset[pv]
        x[r, 0], x[r, 1] = st.va, st.vm
        # Pinned buses behave as PQ with the regulating output frozen at a limit.
        q, pins = _q_spec(m, st), st.pinned != 0
        q[pins] += np.where(st.pinned > 0, m.reg_qmax, m.reg_qmin)[pins]
        # P of pvpq then Q of pq, placed as x_index places the unknowns
        spec.append(np.concatenate((m.p_spec, q)).take(x_index))
    spec, ybus = _stack(spec), _stack([st.ybus for st in sts])
    # the Jacobian entries that any state of the stack can have
    layout = st0.layout
    if any(not np.array_equal(m.coupled, m0.coupled) for m, _ in pairs[1:]):
        layout = _jacobian_layout(np.logical_or.reduce([m.coupled for m, _ in pairs]), index)
    # A state's first Jacobian is the one it last converged on, while that
    # is still bitwise what _jacobians would build.
    reuse = [st.jac_current for st in sts]
    for st in sts:
        st.jac_current = False
    rows = list(range(len(sts)))
    out = [None] * len(sts)
    at = np.zeros(0, dtype=int)

    def drop(ends: dict, *arrays):
        # end each row r of ends with ends[r] (None: converged); returns arrays without them
        nonlocal rows, x, ybus, spec
        for r, failure in ends.items():
            st = sts[rows[r]]
            st.va, st.vm = x[r]
            out[rows[r]] = failure, it
        live = [r for r in range(len(rows)) if r not in ends]
        rows = [rows[r] for r in live]
        x, ybus, spec, *arrays = [a.take(live, 0) for a in (x, ybus, spec, *arrays)]
        return arrays

    for it in range(MAX_INNER + 1):
        v = x[:, 1] * np.exp(1j * x[:, 0])
        ibus = np.matmul(ybus, v[:, :, None])[:, :, 0]
        s = v * np.conj(ibus)
        mis = spec - s.view(float).take(mis_index, axis=1)
        # a state with no unknowns (only a slack bus) converges at once
        norm = np.abs(mis).max(axis=1, initial=0.0)
        failed = {r: "newton_failed" for r, n in enumerate(norm.tolist())
                  if not math.isfinite(n) or n > TOLERANCE and it == MAX_INNER}
        if failed:
            v, ibus, s, mis, norm = drop(failed, v, ibus, s, mis, norm)
            if not rows:
                return out
        # the Jacobian of every row, converged or about to step
        fresh = [r for r, k in enumerate(rows) if not (it == 0 and reuse[k])]
        if len(fresh) == len(rows):
            jac = _jacobians(ybus, v, ibus, index, layout)
        else:
            jac = _stack([sts[k].jac if reuse[k] else np.empty((size, size)) for k in rows])
            if fresh:
                jac[fresh] = _jacobians(ybus[fresh], v[fresh], ibus[fresh], index, layout)
        done = [r for r, n in enumerate(norm.tolist()) if n <= TOLERANCE]
        for r in done:
            st = sts[rows[r]]
            st.jac, st.s, st.jac_current = jac[r].copy(), s[r], True
        if done:
            jac, mis = drop(dict.fromkeys(done), jac, mis)
            if not rows:
                return out
        dx, singular = _solve_stack(jac, mis[:, :, None])
        if at.size != dx.size:
            # each row's unknowns, as positions in x flattened
            at = (np.arange(0, x.size, x[0].size)[:, None] + x_index).ravel()
        x.ravel()[at] += dx.ravel()
        vm = x[:, 1]
        # every row's magnitudes are positive and finite when all of them are
        if any(singular) or not (vm.min() > 0 and math.isfinite(vm.sum())):
            bad = ~(vm.min(axis=1) > 0) | ~np.isfinite(vm.sum(axis=1))
            drop({r: "singular_jacobian" if sing else "newton_failed"
                  for r, (sing, b) in enumerate(zip(singular, bad.tolist())) if sing or b})
            if not rows:
                return out
    return out


def _newtons_restarting(pairs: list) -> list:
    """:func:`_newtons`, then one flat-start retry of the states that
    failed, so a poor warm start is not fatal; returns each state's
    ``(failure, iterations)`` over both tries."""
    out = _newtons(pairs)
    failed = [k for k, (failure, _) in enumerate(out) if failure is not None]
    if not failed:
        return out
    for m, st in (pairs[k] for k in failed):
        st.restarts += 1
        st.vm, st.va = m.v_nom.copy(), np.zeros(m.n)
    for k, (failure, it) in zip(failed, _newtons([pairs[k] for k in failed])):
        out[k] = failure, out[k][1] + it
    return out


# ---------------------------------------------------------------------------
# Outer control loops

def _rtc_step(m: _GridModel, st: _State) -> bool:
    """Move each regulating tap one position toward its target.

    A tap asked to reverse direction within one solve is hunting between
    two adjacent positions; it locks where it stands for the rest of the
    solve.  The state's Ybus is rebuilt when any tap moved.
    """
    changed = False
    for k, r in enumerate(m.rtcs):
        if r["target"] is None or st.locked[k]:
            continue
        bus = r["bus"]
        err = r["target"] - st.vm[bus]
        if abs(err) <= RTC_DEADBAND * m.v_nom[bus]:
            continue
        bi = r["branch"]
        # Raising the non-tap-side voltage takes a lower ratio; flip when the
        # regulated bus sits on the tap side.
        raise_dir = +1 if bus == m.fb[bi] else -1
        step = raise_dir if err > 0 else -raise_dir
        if st.last_dir[k] != 0 and step != st.last_dir[k]:
            st.locked[k] = True
            continue
        new_tap = min(max(st.tap[k] + step, 0), 20)
        if new_tap != st.tap[k]:
            st.tap[k] = new_tap
            st.last_dir[k] = step
            st.ratio[bi] = r["tau_nom"] * TAP_MULTIPLIERS[new_tap]
            changed = True
    if changed:
        st.ybus = m.assemble_ybus(st.ratio)
        st.jac_current = False
    return changed


def _svr_sensitivities(st: _State, buses: np.ndarray) -> np.ndarray | None:
    """dV(bus)/dQ(injection at every PQ bus) from the last Jacobian.

    Column k is ``J^-T e_k`` restricted to the Q-injection rows, where
    ``e_k`` selects the voltage-magnitude unknown of ``buses[k]``: one
    multi-right-hand-side solve for all the regulated buses of a round.
    Every bus must be PQ.  Returns None when the Jacobian is singular.
    """
    npvpq = len(st.jac_index[2])
    rows = npvpq + st.pq_pos[buses]
    rhs = np.zeros((st.jac.shape[0], len(buses)))
    rhs[rows, np.arange(len(buses))] = 1.0
    try:
        return np.linalg.solve(st.jac.T, rhs)[npvpq:]
    except np.linalg.LinAlgError:
        return None


def _svr_dispatch(m: _GridModel, st: _State) -> bool:
    """Step the level of every zone whose pilot bus is outside its
    deadband; returns whether a unit moved by more than 1e-12 p.u.

    ``S[i, j]`` is the change of zone ``i``'s pilot voltage per unit of
    zone ``j``'s output, spread by ``j``'s shares (a unit on a PV bus
    contributes 0).  For the first :data:`JOINT_FROM_ROUND` outer rounds of
    a solve, each zone steps alone on its own sensitivity ``S[j, j]`` (a
    Jacobi step).  From then on the zones take one joint step
    (:func:`_svr_joint_step`), written only when it moves some unit by more
    than :data:`SETTLE_STEP`, so a settled state keeps the ``level`` its
    voltages were solved with.  Either step is clipped to ±0.5 p.u. per
    zone and moves the zone's level by the step over its summed range,
    clamped to [0, 1]; a unit moves by the change of level times its range.
    """
    if st.jac is None or not m.zones:
        return False
    # The split is the one the last Newton converged on: only the Q-limit
    # check, which runs after this, changes it.
    pq_pos, vm = st.pq_pos, st.vm.tolist()
    ks = [k for k, z in enumerate(m.zones)
          if abs(z["target"] - vm[z["bus"]]) > SVR_DEADBAND and pq_pos[z["bus"]] >= 0]
    if not ks:
        return False
    zones = [m.zones[k] for k in ks]
    # one J^T solve serves every zone of the round
    w = _svr_sensitivities(st, np.array([z["bus"] for z in zones]))
    if w is None:
        return False
    err = np.array([z["target"] - vm[z["bus"]] for z in zones])
    sens = np.empty((len(ks), len(ks)))
    for j, zone in enumerate(zones):
        unit_pos = pq_pos[zone["unit_bus"]]
        sens[:, j] = zone["shares"] @ np.where(unit_pos[:, None] >= 0, w[unit_pos], 0.0)
    joint = st.outer > JOINT_FROM_ROUND
    if joint:
        step = _svr_joint_step(sens, err)
        if step is None:
            return False
    else:
        denom = np.diag(sens)
        step = np.divide(err, denom, out=np.zeros(len(ks)), where=denom > 1e-12)
    # Rate-limit each round so a weak sensitivity estimate cannot command
    # a reactive step large enough to break the next Newton solve.
    level = st.level.copy()
    level[ks] = np.clip(level[ks] + np.clip(step, -0.5, 0.5) / m.span[ks], 0.0, 1.0)
    moved = np.max(np.abs(level[ks] - st.level[ks]) * m.widest[ks])
    # NaN compares false, so a joint step that went non-finite counts as settled
    if joint and not moved > SETTLE_STEP:
        return False
    st.level = level
    return bool(moved > 1e-12)


def _svr_joint_step(sens: np.ndarray, err: np.ndarray) -> np.ndarray | None:
    """The joint, regularized least-squares step of the zones of ``sens``,
    p.u. of output per zone: it solves ``(SᵀS + μI) dq = Sᵀ err`` with ``μ``
    = :data:`JOINT_DAMPING` times the mean diagonal of ``SᵀS``; None when
    that system is singular."""
    k = len(err)
    gram = sens.T @ sens
    damping = JOINT_DAMPING * np.trace(gram) / k
    try:
        return np.linalg.solve(gram + damping * np.eye(k), sens.T @ err)
    except np.linalg.LinAlgError:
        return None


def _q_limit_switch(m: _GridModel, st: _State) -> bool:
    """Pin PV buses whose regulating generators exceed reactive limits."""
    if st.jac_current:
        # no tap, pin or voltage has moved since Newton computed st.s
        s = st.s
    else:
        v = st.vm * np.exp(1j * st.va)
        s = v * np.conj(st.ybus @ v)
    q_reg = s.imag - _q_spec(m, st)
    changed = False
    for b in np.flatnonzero(m.is_pv & (st.switch_budget > 0)).tolist():
        pin = st.pinned[b]
        if pin == 0 and q_reg[b] > m.reg_qmax[b] + 1e-9:
            st.pinned[b] = +1
        elif pin == 0 and q_reg[b] < m.reg_qmin[b] - 1e-9:
            st.pinned[b] = -1
        # Restore regulation once the pin stops binding
        elif (pin == +1 and st.vm[b] > m.vset[b] + 1e-7
              or pin == -1 and st.vm[b] < m.vset[b] - 1e-7):
            st.pinned[b] = 0
        else:
            continue
        st.switch_budget[b] -= 1
        changed = True
    if changed:
        _bus_split(m, st)
    return changed


def _solve_all(xs: list[H2MGContext], opts: SolverOptions) -> list[tuple[_GridModel, _State]]:
    """Solve every context of ``xs`` together; each state holds the solved
    values and how its solve ended.  The contexts must share their buses,
    as the decisions on one context do.

    Each round runs the Newton solves of the unfinished solves as one
    :func:`_newtons_restarting` call.  A solve ends when its Newton fails
    or it has run ``max_outer`` rounds of control loops; any other runs
    every loop once more, and has converged when none moved.
    """
    pairs = [(m, _State(m)) for m in map(_GridModel, xs)]
    running = pairs
    while running:
        for (m, st), (failure, it) in zip(running, _newtons_restarting(running)):
            st.inner += it
            if failure is not None or st.outer >= opts.max_outer:
                st.status = failure or "outer_cap"
                continue
            st.outer += 1
            moved = _rtc_step(m, st), _svr_dispatch(m, st), _q_limit_switch(m, st)
            st.moving = tuple([name for name, mv in zip(MOVING_LOOPS, moved) if mv])
            if not st.moving:
                st.status = "converged"
        running = [(m, st) for m, st in running if st.status is None]
    return pairs


def _branch_flows(m: _GridModel, st: _State):
    """``(p1, q1, i1, p2, q2, i2)``, one entry per branch, at the solved state."""
    v = st.vm * np.exp(1j * st.va)
    yff, yft, ytf, ytt = m.branch_admittances(st.ratio)
    vf, vt = v[m.fb], v[m.tb]
    i1 = yff * vf + yft * vt
    i2 = ytf * vf + ytt * vt
    s1 = vf * np.conj(i1)
    s2 = vt * np.conj(i2)
    return s1.real, s1.imag, np.abs(i1), s2.real, s2.imag, np.abs(i2)


def _gen_outputs(m: _GridModel, st: _State) -> tuple[np.ndarray, np.ndarray]:
    """Per-generator reactive and active output implied by the solved state.

    The slack machine takes the active residual of its bus, and the
    reactive one after the other generators there.
    """
    v = st.vm * np.exp(1j * st.va)
    s = v * np.conj(st.ybus @ v)
    q_other = _q_spec(m, st)
    q = np.zeros(len(m.gen_bus))
    nonreg = ~m.gen_regulating & ~m.svr_gen
    q[nonreg] = m.gen_qset[nonreg]
    q[m.svr_gen] = _svr_outputs(m, st)[m.svr_gen]
    for b in np.flatnonzero(m.is_pv).tolist():
        idx = np.flatnonzero(m.gen_regulating & ~m.svr_gen & (m.gen_bus == b))
        need = s.imag[b] - q_other[b]
        ranges = np.maximum(m.gen_qmax[idx] - m.gen_qmin[idx], 0.0)
        ranges = np.where(np.isfinite(ranges) & (ranges > 0), ranges, 1.0)
        q[idx] = need * ranges / ranges.sum()
    b = m.slack_bus
    others = np.flatnonzero(m.gen_bus == b)
    others = others[others != m.slack_gen]
    q[m.slack_gen] = s.imag[b] - m.q_fixed[b] - q[others].sum()
    p = m.gen_pset.copy()
    p[m.slack_gen] = s.real[b] - m.p_spec[b]
    return q, p


def _solved_context(x: H2MGContext, m: _GridModel, st: _State) -> H2MGContext:
    """``x`` with the solved state of ``st`` written into its features.

    Buses get ``v`` and ``theta``; lines and twts their end flows ``p1``
    to ``i2``, 0 on an open line; the twt of each tap changer its ``ratio``;
    generators (:func:`_gen_outputs`), loads and shunts their ``p``, ``q``
    and current ``i`` at their bus's voltage, 0 on a shunt not
    :func:`~gridtvc.h2mg.in_service`; SVR zones the ``v`` and ``theta`` of
    their regulated bus.  Every other feature is kept.
    """
    vm, va = st.vm.tolist(), st.va.tolist()
    updates: dict[tuple[str, str], dict] = {
        ("bus", e.id): {"v": v, "theta": a}
        for e, v, a in zip(x.edges_of("bus"), vm, va)}
    names = ("p1", "q1", "i1", "p2", "q2", "i2")
    for key, flow in zip(m.branch_keys, zip(*(f.tolist() for f in _branch_flows(m, st)))):
        updates[key] = dict(zip(names, flow))
    for e in x.edges_of("line"):  # an open line carries nothing
        updates.setdefault(("line", e.id), dict.fromkeys(names, 0.0))
    for r in m.rtcs:
        updates[m.branch_keys[r["branch"]]]["ratio"] = float(st.ratio[r["branch"]])

    def injection(e, p, q):
        return {"p": p, "q": q, "i": math.hypot(p, q) / vm[m._bus(e.ports["bus"], e)]}

    q_gen, p_gen = _gen_outputs(m, st)
    for e, p, q in zip(x.edges_of("generator"), p_gen.tolist(), q_gen.tolist()):
        updates[("generator", e.id)] = injection(e, p, q)
    for e in x.edges_of("load"):
        updates[("load", e.id)] = injection(
            e, e.feature("p_target", 0.0), e.feature("q_target", 0.0))
    for e in x.edges_of("shunt"):
        on, v2 = float(in_service(e)), vm[m._bus(e.ports["bus"], e)] ** 2
        updates[("shunt", e.id)] = injection(
            e, on * e.feature("g", 0.0) * v2, -on * e.feature("b", 0.0) * v2)
    for e in x.edges_of("svr_zone"):
        b = m._bus(e.ports["regulated_bus"], e)
        updates[("svr_zone", e.id)] = {"v": vm[b], "theta": va[b]}
    return x.replace_features(updates)


def solve_ac(grid: H2MGContext, opts: SolverOptions = SolverOptions()) -> PowerFlowSolution:
    """Solve the static AC equations with tap, SVR, and Q-limit outer loops.

    Like MATPOWER's ``runpf``, it returns the case with its solved state
    written in; a solve of that context warm-starts from the bus voltages,
    tap ratios and SVR unit outputs it reads back, the last as the level
    of each zone's summed output."""
    [(m, st)] = _solve_all([grid], opts)
    converged = st.status == "converged"
    return PowerFlowSolution(converged, _solved_context(grid, m, st) if converged else None,
                             st.inner, st.outer, st.status, st.restarts, st.moving)


# ---------------------------------------------------------------------------
# Objective

def evaluate_objectives(x: H2MGContext, ys: list[Decision],
                        opts: SolverOptions = SolverOptions()) -> list[ObjectiveBreakdown]:
    """Apply each decision of ``ys`` to ``x``, solve, and score
    voltage/current violations plus losses; one record per decision.

    The solves run round by round (:func:`_solve_all`), and each round's
    Newton solves are stacked.  A decision's record has the same bits
    whatever else is in ``ys``.
    """
    return [_score(m, st, opts)
            for m, st in _solve_all([apply_decision(x, y) for y in ys], opts)]


def evaluate_objective(x: H2MGContext, y: Decision,
                       opts: SolverOptions = SolverOptions()) -> ObjectiveBreakdown:
    """:func:`evaluate_objectives` of the one decision ``y``."""
    return evaluate_objectives(x, [y], opts)[0]


def _score(m: _GridModel, st: _State, opts: SolverOptions) -> ObjectiveBreakdown:
    """The objective terms, counts and losses of one finished solve."""
    counts = (st.status, st.inner, st.outer, st.restarts, st.moving)
    if st.status != "converged":
        return ObjectiveBreakdown(0.0, 0.0, 0.0, PROHIBITIVE_COST, False, 0, 0, 0, 0, 0.0,
                                  np.zeros(0), np.zeros(0), *counts)
    mask = (m.opt > 0.5) & np.isfinite(m.v_min) & np.isfinite(m.v_max)
    ve = (st.vm[mask] - m.v_min[mask]) / (m.v_max[mask] - m.v_min[mask])
    p1, _, i1, p2, _, i2 = _branch_flows(m, st)
    joule = float(np.sum(np.abs(p1 + p2)[m.branch_opt > 0.5]))
    r1 = np.where(np.isfinite(m.branch_i1max) & (m.branch_i1max > 0),
                  i1 / np.where(m.branch_i1max > 0, m.branch_i1max, 1.0), -np.inf)
    r2 = np.where(np.isfinite(m.branch_i2max) & (m.branch_i2max > 0),
                  i2 / np.where(m.branch_i2max > 0, m.branch_i2max, 1.0), -np.inf)
    rated = np.isfinite(m.branch_i1max) | np.isfinite(m.branch_i2max)
    ie = np.abs(np.maximum(r1, r2)[(m.branch_opt > 0.5) & rated])
    pen_v = np.maximum(0.0, np.maximum(opts.eps_v - ve, ve - 1.0 + opts.eps_v))
    f_v = opts.lambda_v * float(np.sum(pen_v ** 2))
    pen_i = np.maximum(0.0, ie - 1.0 + opts.eps_i)
    f_i = opts.lambda_i * float(np.sum(pen_i ** 2))
    f_j = opts.lambda_j * joule
    over, under = int(np.sum(ve > 1.0)), int(np.sum(ve < 0.0))
    return ObjectiveBreakdown(f_v, f_i, f_j, f_v + f_i + f_j, True, over, under,
                              over + under, int(np.sum(ie > 1.0)), joule, ve, ie, *counts)


#: The benchmark calls the scoring function by this name.  An alias, not a
#: wrapper, so that a traced call records one oracle span.
count_metrics = evaluate_objective
