"""AC power-flow oracle: decision application, Newton solve, objective.

The solver is a dense polar Newton-Raphson with three outer control loops
(discrete transformer tap stepping, secondary-voltage-regulation reactive
dispatch, generator Q-limit switching).  Non-convergence is always a value,
never an exception, and maps to the fixed objective cost
:data:`PROHIBITIVE_COST`; every solve reports how it ended as one of :data:`SOLVE_STATUSES`.

One function, :func:`evaluate_objective`, scores a decision: one solve,
one :class:`ObjectiveBreakdown` of objective terms, counts and losses.

The inner loop is array-native:

* The Jacobian uses the broadcasting form of MATPOWER's ``dSbus_dV``
  (Zimmerman et al., IEEE TPWRS 2011): ``dS/dVa = j·v·conj(diag(i) − Y·v)``
  and ``dS/dVm = v·conj(Y·v/|v|) + diag(conj(i)·v/|v|)`` as row/column
  scalings of Ybus, with no diagonal matrices and no matrix products.  Its
  four real blocks are gathered through one flat index.
* The model's Ybus is assembled once, at the context's taps.  A solve
  starts from it, keeps its own for the Newton loop, the Q-limit check and
  the generator outputs, and re-assembles that one only when a tap changer
  moves, the one change to branch admittances during a solve.  A solve
  writes nothing on the model: the taps, Ybus, pins and outcome it moves
  live on its state.
* The SVR dispatch gets the voltage sensitivities of every zone outside
  its deadband from one multi-right-hand-side solve of ``J^T`` per round.
  The zones are still dispatched one at a time, in order, from those
  sensitivities.

Two things carry over from one outer round to the next, and neither
changes a bit of any result.  The PV/PQ split, the gather index and the
PQ positions the dispatch reads stay on the solver state; only a Q-limit
pin flip changes the split, so they are rebuilt after a flip and nowhere
else.  And the first Newton iteration of a round reuses the Jacobian the
previous round converged on when no tap moved, no pin flipped and no
flat-start retry ran since.  The SVR dispatch changes only the reactive
injections, which the Jacobian does not read, so Ybus, the voltages, the
bus currents and the index are then the very arrays ``_jacobian`` would
be given, and it would return the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .h2mg import (
    Decision,
    H2MGContext,
    H2MGError,
    RTC_SETPOINT_LADDER,
    _check_paired,
    reactive_ranges,
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


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-8          # max power-mismatch residual, p.u.
    max_inner: int = 30              # Newton iterations per solve
    max_outer: int = 100             # control-adjustment rounds
    rtc_deadband: float = 0.005      # fraction of regulated-bus nominal (half a tap step)
    svr_deadband: float = 1e-5       # regulated-bus voltage tolerance, p.u.
    lambda_v: float = 1.0
    lambda_i: float = 1.0
    lambda_j: float = 0.1
    eps_v: float = 0.05
    eps_i: float = 0.05
    target_clamp: tuple[float, float] = (0.0, 3.0)  # plausible-voltage clamp on targets

    def __post_init__(self):
        if self.tolerance <= 0 or self.max_inner <= 0 or self.max_outer <= 0:
            raise ValueError("tolerances and iteration caps must be positive")


@dataclass(frozen=True)
class BranchFlow:
    p1: float
    q1: float
    i1: float
    p2: float
    q2: float
    i2: float


@dataclass(frozen=True)
class PowerFlowSolution:
    converged: bool
    bus_v: dict[str, float]
    bus_theta: dict[str, float]
    branch_flows: dict[tuple[str, str], BranchFlow]
    gen_q: dict[str, float]
    gen_p: dict[str, float]
    rtc_ratio: dict[str, float]
    inner_iterations: int
    outer_iterations: int
    status: str             # one of SOLVE_STATUSES
    restarts: int           # flat-start Newton retries taken
    moving: tuple[str, ...]  # of MOVING_LOOPS: what changed in the last outer round


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """One decision's scored solve.  A solve that does not converge holds
    :data:`PROHIBITIVE_COST` in ``total``, 0 in every term and count, and
    empty arrays.  ``valid`` reads ``converged`` and :data:`count_metrics`
    is :func:`evaluate_objective`, because the benchmark reads both names.
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


# ---------------------------------------------------------------------------
# Decision application

def apply_decision(x: H2MGContext, y: Decision) -> H2MGContext:
    """Return a copy of ``x`` with the controller actions of ``y`` applied.

    Row ``i`` of a class's array in ``y`` is the action of the class's
    ``i``-th edge in ``x``.  Each controller acts on its device, as
    :meth:`H2MGContext.device` finds it (an :class:`H2MGError` unless there is exactly one).  Binary
    actions request a change (1 = act, 0 = leave as is): line controllers
    disconnect their line, shunt controllers toggle their shunt.  SVR
    controllers shift the zone target; RTC controllers pick a
    regulated-bus setpoint from the discrete ladder.
    """
    _check_paired("Decision", y.values, x)

    def acts(cname):
        return zip(x.edges_of(cname), y.values.get(cname, ()))

    updates: dict[tuple[str, str], dict] = {}
    for e, act in acts("line_controller"):
        if act == 1:
            updates[("line", x.device(e).id)] = {"status": 0.0}
    for e, act in acts("shunt_controller"):
        if act == 1:
            shunt = x.device(e)
            status = shunt.features["status"]
            if status is None:
                raise H2MGError(f"shunt {shunt.id!r} has no status to switch")
            updates[("shunt", shunt.id)] = {"status": 1.0 - status}
    for e, delta in acts("svr_controller"):
        zone = x.device(e)
        target = zone.features["v_target"]
        if target is None:
            raise H2MGError(f"svr_zone {zone.id!r} has no v_target")
        updates[("svr_zone", zone.id)] = {"v_target": target + float(delta)}
    for e, category in acts("rtc_controller"):
        # anchoring check only; the new target lives on the controller itself
        x.device(e)
        v_nom = e.features["v_nom"]
        if v_nom is None:
            raise H2MGError(f"rtc_controller {e.id!r} has no v_nom")
        updates[("rtc_controller", e.id)] = {
            "v_target": RTC_SETPOINT_LADDER[int(category)] * v_nom}
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
    canonical edge order.  ``zones`` lists only the SVR zones the dispatch
    acts on (a target, units, and a positive reactive range); ``svr_gen``
    marks the units of every zone.
    """

    def __init__(self, x: H2MGContext, opts: SolverOptions):
        lo, hi = opts.target_clamp
        buses = x.edges_of("bus")
        if not buses:
            raise H2MGError("context has no buses")
        self.bus_ids = [e.id for e in buses]
        self.addr_to_bus = {e.ports["bus"]: i for i, e in enumerate(buses)}
        n = len(buses)
        self.n = n
        self.v_nom = _column(buses, "v_nom", 1.0)
        self.v_min = _column(buses, "v_min", np.nan)
        self.v_max = _column(buses, "v_max", np.nan)
        self.opt = _column(buses, "opt", 0.0)
        self.vm0 = np.array([e.features["v"] if e.features["v"] is not None
                             else self.v_nom[i] for i, e in enumerate(buses)])
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
        self.gen_ids = [e.id for e in gens]
        self.gen_bus = np.array([self._bus(e.ports["bus"], e) for e in gens],
                                dtype=int)
        self.gen_p = _column(gens, "p_target", 0.0)
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
        np.add.at(self.p_spec, self.gen_bus[non_slack], self.gen_p[non_slack])

        addr_of_gen_port = {e.ports["gen"]: i for i, e in enumerate(gens)}

        # SVR zones: every zone's participating units are SVR units; the
        # zones the dispatch can act on keep each unit's share of the zone's
        # reactive range.
        self.svr_gen = np.zeros(len(gens), dtype=bool)
        self.zones = []
        for z in x.edges_of("svr_zone"):
            unit_gens = []
            for u in x.anchored("svr_unit", "zone", z.ports["zone"]):
                if u.feature("participate", 0.0) > 0.5:
                    gi = addr_of_gen_port.get(u.ports["gen"])
                    if gi is None:
                        raise H2MGError(f"svr_unit {u.id!r} references no generator")
                    unit_gens.append(gi)
            bus = self._bus(z.ports["regulated_bus"], z)
            units = np.array(sorted(unit_gens), dtype=int)
            self.svr_gen[units] = True
            target = z.features["v_target"]
            ranges = reactive_ranges(self.gen_qmin[units], self.gen_qmax[units])
            if target is None or len(units) == 0 or ranges.sum() <= 0:
                continue
            self.zones.append({"id": z.id, "bus": bus,
                               "target": float(np.clip(target, lo, hi)),
                               "units": units, "shares": ranges / ranges.sum(),
                               "unit_bus": self.gen_bus[units],
                               "ranges": ranges.tolist(),
                               "qmin": self.gen_qmin[units].tolist(),
                               "qmax": self.gen_qmax[units].tolist()})
        if self.svr_gen[self.slack_gen]:
            raise H2MGError("slack generator cannot participate in an SVR zone")
        # Dispatched reactive output per SVR unit, warm-started from the
        # context's solved q when available.
        self.svr_q = np.array([
            gens[i].feature("q", gens[i].feature("q_target", 0.0)) if self.svr_gen[i]
            else 0.0
            for i in range(len(gens))])
        self.svr_q = np.clip(self.svr_q, self.gen_qmin, self.gen_qmax)

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

        # Branches: lines with status 1, then all twts
        lines = [e for e in x.edges_of("line") if not e.feature("status", 1.0) < 0.5]
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
        for e in x.edges_of("shunt"):
            if e.feature("status", 1.0) < 0.5:
                continue
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
            tap = int(np.clip(round((mult - 0.9) / TAP_STEP), 0, 20))
            self.ratio[bi] = tau_nom * TAP_MULTIPLIERS[tap]
            ctrls = x.anchored("rtc_controller", "twt", e.ports["twt"])
            target = ctrls[-1].features["v_target"] if ctrls else None
            self.rtcs.append({
                "id": e.id,
                "branch": bi,
                "bus": reg_bus,
                "tau_nom": tau_nom,
                "tap": tap,      # the starting position; a solve moves its own
                "target": None if target is None else np.clip(target, lo, hi),
            })
        self.ybus = self.assemble_ybus(self.ratio)

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

    It starts from the model's voltages, taps, Ybus and SVR outputs.  The
    tap lists hold one entry per ``m.rtcs`` entry; ``ybus`` is rebound to a
    fresh assembly when a tap moves, never written in place, so it may
    start as the model's own.  ``status`` (one of :data:`SOLVE_STATUSES`),
    ``inner``, ``outer`` and ``moving`` are set by :func:`_solve_raw`.
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
        self.pinned_q = np.zeros(m.n)
        self.switch_budget = np.full(m.n, 6)  # pin/unpin flips allowed per solve
        self.svr_q = m.svr_q.copy()
        self.status = None
        self.inner = self.outer = 0
        self.moving: tuple[str, ...] = ()
        self.restarts = 0       # flat-start retries taken
        self.jac = None         # the Jacobian at the last converged Newton state
        # True while st.jac is bitwise what _jacobian would build at the
        # current state: no tap, pin or voltage has changed since it was built.
        self.jac_current = False
        _bus_split(m, self)


def _bus_split(m: _GridModel, st: _State) -> None:
    """Set the state's PV/PQ split and the Jacobian layout that follows from it.

    ``st.jac_index`` is ``(pv, pq, pvpq)``, ``st.index`` the flat gather
    index of :func:`_jacobian_index` and ``st.pq_pos`` each bus's position
    in ``pq`` (-1 when not PQ).  The split changes only when a Q-limit pin
    flips, so it is computed at set-up and after each flip.
    """
    pv = np.flatnonzero(m.is_pv & (st.pinned == 0))
    is_pq = np.ones(m.n, dtype=bool)
    is_pq[pv] = False
    is_pq[m.slack_bus] = False
    pq = np.flatnonzero(is_pq)
    pvpq = np.concatenate([pv, pq])
    st.jac_index = (pv, pq, pvpq)
    st.index = _jacobian_index(m.n, pvpq, pq)
    st.pq_pos = np.full(m.n, -1)
    st.pq_pos[pq] = np.arange(len(pq))
    st.jac_current = False


def _q_spec(m: _GridModel, st: _State) -> np.ndarray:
    """Specified reactive injection per bus, regulating generators excluded."""
    return m.q_base + np.bincount(m.gen_bus[m.svr_gen], st.svr_q[m.svr_gen], m.n)


def _jacobian_index(n: int, pvpq: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Flat positions of the Jacobian's entries in ``_jacobian``'s layout.

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


def _jacobian(ybus, v, ibus, index):
    """Newton Jacobian of the power mismatch, gathered through ``index``."""
    n = len(v)
    vnorm = v / np.abs(v)
    ds = np.empty((2, n, n), dtype=complex)
    # dS/dVa = -1j v conj(Y v) and dS/dVm = v conj(Y vnorm) off the diagonal
    for k, (left, right) in enumerate(((-1j * v, v), (v, vnorm))):
        np.multiply(ybus, right, out=ds[k])
        np.conjugate(ds[k], out=ds[k])
        np.multiply(left[:, None], ds[k], out=ds[k])
    diag = ds.reshape(2, n * n)[:, ::n + 1]
    conj_i = np.conj(ibus)
    diag[0] += 1j * v * conj_i
    diag[1] += vnorm * conj_i
    return ds.view(float).ravel().take(index)


def _newton(m: _GridModel, st: _State, opts: SolverOptions):
    """Inner Newton loop; returns (failure, iterations). Mutates st.vm/st.va.

    ``failure`` is None on success, else the status saying why it stopped.
    On success ``st.jac`` holds the Jacobian at the converged state.
    """
    ybus = st.ybus
    slack = m.slack_bus
    pv, pq, pvpq = st.jac_index
    reuse, st.jac_current = st.jac_current, False

    st.vm[slack] = m.vset[slack]
    st.va[slack] = 0.0
    st.vm[pv] = m.vset[pv]

    # Pinned buses behave as PQ with the regulating output frozen at a limit.
    q_spec = _q_spec(m, st)
    q_spec[st.pinned != 0] += st.pinned_q[st.pinned != 0]

    p_pvpq, q_pq = m.p_spec[pvpq], q_spec[pq]
    npvpq = len(pvpq)
    for it in range(opts.max_inner + 1):
        v = st.vm * np.exp(1j * st.va)
        ibus = ybus @ v
        s = v * np.conj(ibus)
        dp = p_pvpq - s.real[pvpq]
        dq = q_pq - s.imag[pq]
        mis = np.concatenate([dp, dq])
        if mis.size == 0:
            st.jac = None
            return None, it
        norm = float(np.abs(mis).max())
        if not math.isfinite(norm):
            return "newton_failed", it
        converged = norm <= opts.tolerance
        if not converged and it == opts.max_inner:
            return "newton_failed", it
        jac = st.jac if reuse and it == 0 else _jacobian(ybus, v, ibus, st.index)
        if converged:
            st.jac, st.jac_current = jac, True
            return None, it
        try:
            dx = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            return "singular_jacobian", it
        st.va[pvpq] += dx[:npvpq]
        st.vm[pq] += dx[npvpq:]
        if not (st.vm.min() > 0 and math.isfinite(st.vm.sum())):
            return "newton_failed", it
    return "newton_failed", opts.max_inner


def _newton_restarting(m: _GridModel, st: _State, opts: SolverOptions):
    """Newton with one flat-start retry, so a poor warm start is not fatal."""
    failure, it = _newton(m, st, opts)
    if failure is None:
        return failure, it
    st.restarts += 1
    st.vm = m.v_nom.copy()
    st.va = np.zeros(m.n)
    failure2, it2 = _newton(m, st, opts)
    return failure2, it + it2


def _rtc_step(m: _GridModel, st: _State, opts: SolverOptions) -> bool:
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
        if abs(err) <= opts.rtc_deadband * m.v_nom[bus]:
            continue
        bi = r["branch"]
        # Raising the non-tap-side voltage takes a lower ratio; flip when the
        # regulated bus sits on the tap side.
        raise_dir = +1 if bus == m.fb[bi] else -1
        step = raise_dir if err > 0 else -raise_dir
        if st.last_dir[k] != 0 and step != st.last_dir[k]:
            st.locked[k] = True
            continue
        new_tap = int(np.clip(st.tap[k] + step, 0, 20))
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
    solve for all the regulated buses of a round.  Every bus must be PQ.
    Returns None when the Jacobian is singular.
    """
    npvpq = len(st.jac_index[2])
    rows = npvpq + st.pq_pos[buses]
    rhs = np.zeros((st.jac.shape[0], len(buses)))
    rhs[rows, np.arange(len(buses))] = 1.0
    try:
        w = np.linalg.solve(st.jac.T, rhs)
    except np.linalg.LinAlgError:
        return None
    return w[npvpq:]


def _svr_dispatch(m: _GridModel, st: _State, opts: SolverOptions) -> bool:
    if st.jac is None or not m.zones:
        return False
    # The split is the one the last Newton converged on: only the Q-limit
    # check, which runs after this, changes it.
    pq_pos = st.pq_pos
    vm = st.vm.tolist()
    moving = []
    for zone in m.zones:
        err = zone["target"] - vm[zone["bus"]]
        if abs(err) > opts.svr_deadband and pq_pos[zone["bus"]] >= 0:
            moving.append((zone, err))
    if not moving:
        return False
    # The sensitivities read only st.jac and st.vm, which the zone loop
    # below leaves alone, so one solve serves every zone of the round.
    w = _svr_sensitivities(st, np.array([z["bus"] for z, _ in moving]))
    if w is None:
        return False
    changed = False
    for k, (zone, err) in enumerate(moving):
        units, ranges = zone["units"], zone["ranges"]
        qmin, qmax = zone["qmin"], zone["qmax"]
        unit_pos = pq_pos[zone["unit_bus"]]
        sens = np.where(unit_pos >= 0, w[unit_pos, k], 0.0)
        denom = float(sens @ zone["shares"])
        if denom <= 1e-12:
            continue
        # Rate-limit each round so a weak sensitivity estimate cannot command
        # a reactive step large enough to break the next Newton solve.
        remaining = min(max(err / denom, -0.5), 0.5)
        # Proportional split with limit waterfall: saturated units freeze and
        # the remainder redistributes among the others.  A zone has a few
        # units, so this runs on Python floats.
        q = st.svr_q[units].tolist()
        for _ in range(4):
            if abs(remaining) < 1e-14:
                break
            if remaining > 0:
                wt = [r if hi - qj > 1e-12 else 0.0
                      for r, qj, hi in zip(ranges, q, qmax)]
            else:
                wt = [r if qj - lo > 1e-12 else 0.0
                      for r, qj, lo in zip(ranges, q, qmin)]
            if not any(wt):
                break
            total = sum(wt)
            applied = []
            for j, (wj, lo, hi) in enumerate(zip(wt, qmin, qmax)):
                new = min(max(q[j] + wj / total * remaining, lo), hi)
                applied.append(new - q[j])
                q[j] = new
            if max(map(abs, applied)) > 1e-12:
                changed = True
            remaining -= sum(applied)
        st.svr_q[units] = q
    return changed


def _q_limit_switch(m: _GridModel, st: _State, opts: SolverOptions) -> bool:
    """Pin PV buses whose regulating generators exceed reactive limits."""
    v = st.vm * np.exp(1j * st.va)
    q_reg = (v * np.conj(st.ybus @ v)).imag - _q_spec(m, st)
    changed = False
    for b in np.flatnonzero(m.is_pv & (st.switch_budget > 0)).tolist():
        pin = st.pinned[b]
        if pin == 0 and q_reg[b] > m.reg_qmax[b] + 1e-9:
            st.pinned[b], st.pinned_q[b] = +1, m.reg_qmax[b]
        elif pin == 0 and q_reg[b] < m.reg_qmin[b] - 1e-9:
            st.pinned[b], st.pinned_q[b] = -1, m.reg_qmin[b]
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


def _solve_raw(x: H2MGContext, opts: SolverOptions) -> tuple[_GridModel, _State]:
    """Solve ``x``; the state holds the solved values and how the solve ended."""
    m = _GridModel(x, opts)
    st = _State(m)
    failure, st.inner = _newton_restarting(m, st, opts)
    loops = tuple(zip(MOVING_LOOPS, (_rtc_step, _svr_dispatch, _q_limit_switch)))
    while failure is None and st.outer < opts.max_outer:
        st.outer += 1
        # every loop acts each round, in this order, whether or not one before moved
        st.moving = tuple([name for name, step in loops if step(m, st, opts)])
        if not st.moving:
            st.status = "converged"
            return m, st
        failure, it = _newton_restarting(m, st, opts)
        st.inner += it
    st.status = failure or "outer_cap"
    return m, st


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
    q = np.zeros(len(m.gen_ids))
    nonreg = ~m.gen_regulating & ~m.svr_gen
    q[nonreg] = m.gen_qset[nonreg]
    q[m.svr_gen] = st.svr_q[m.svr_gen]
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
    p = m.gen_p.copy()
    p[m.slack_gen] = s.real[b] - m.p_spec[b]
    return q, p


def solve_ac(grid: H2MGContext, opts: SolverOptions = SolverOptions()) -> PowerFlowSolution:
    """Solve the static AC equations with tap, SVR, and Q-limit outer loops."""
    m, st = _solve_raw(grid, opts)
    converged = st.status == "converged"
    flows = _branch_flows(m, st) if converged else (np.zeros(len(m.fb)),) * 6
    gen_q, gen_p = {}, {}
    if converged:
        for gid, q, p in zip(m.gen_ids, *_gen_outputs(m, st)):
            gen_q[gid] = float(q)
            gen_p[gid] = float(p)
    return PowerFlowSolution(
        converged=converged,
        bus_v={bid: float(v) for bid, v in zip(m.bus_ids, st.vm)},
        bus_theta={bid: float(a) for bid, a in zip(m.bus_ids, st.va)},
        branch_flows={key: BranchFlow(*f) for key, f in zip(m.branch_keys, zip(*flows))},
        gen_q=gen_q,
        gen_p=gen_p,
        rtc_ratio={r["id"]: float(st.ratio[r["branch"]]) for r in m.rtcs},
        inner_iterations=st.inner,
        outer_iterations=st.outer,
        status=st.status,
        restarts=st.restarts,
        moving=st.moving,
    )


# ---------------------------------------------------------------------------
# Objective

def evaluate_objective(x: H2MGContext, y: Decision,
                       opts: SolverOptions = SolverOptions()) -> ObjectiveBreakdown:
    """Apply ``y``, solve, and score voltage/current violations plus losses."""
    m, st = _solve_raw(apply_decision(x, y), opts)
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
