"""The dense-matrix power-flow inner loop, kept as the reference for the solver.

This is the straightforward form of ``gridtvc.powerflow``'s Newton step and
control loops: the Jacobian from ``np.diag`` matrices and matrix products,
cut into blocks with ``np.ix_``; a fresh Ybus assembly wherever one is
needed; one ``J^T`` solve per SVR zone, and per pilot bus in a joint
dispatch step; per-unit SVR outputs, which a proportional waterfall moves
unit by unit where the solver steps one level per zone; and a per-bus
Q-limit loop.
``tests/test_powerflow_reference.py`` checks the array-native solver
against it.  :func:`swap_in` installs these functions in place of the
solver's own, so a whole oracle call can run on the reference path.
"""

from __future__ import annotations

import numpy as np

import gridtvc.powerflow as pf


def jacobian(ybus, v, ibus, pvpq, pq):
    vnorm = v / np.abs(v)
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_vn = np.diag(vnorm)
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_vn @ np.conj(diag_i) + diag_v @ np.conj(ybus @ diag_vn)
    j11 = ds_dva.real[np.ix_(pvpq, pvpq)]
    j12 = ds_dvm.real[np.ix_(pvpq, pq)]
    j21 = ds_dva.imag[np.ix_(pq, pvpq)]
    j22 = ds_dvm.imag[np.ix_(pq, pq)]
    return np.block([[j11, j12], [j21, j22]])


def bus_types(m, st):
    """(pv, pq, pvpq) for the state's current regulation and pins."""
    pv = np.flatnonzero(m.is_pv & (st.pinned == 0))
    pq = np.array(sorted(set(range(m.n)) - set(pv.tolist()) - {m.slack_bus}),
                  dtype=int)
    return pv, pq, np.concatenate([pv, pq]).astype(int)


class State(pf._State):
    """The solver's state, holding the reference's own output per SVR unit
    in ``svr_q``, from the model's start: the units of a zone the dispatch
    acts on at its starting level, any other at its clipped starting
    output."""

    def __init__(self, m):
        super().__init__(m)
        self.svr_q = m.svr_q.copy()
        for level, zone in zip(m.level, m.zones):
            for g in zone["units"]:
                self.svr_q[g] = (1.0 - level) * m.gen_qmin[g] + level * m.gen_qmax[g]


def q_spec(m, st):
    q = m.q_fixed.copy()
    nonreg = ~m.gen_regulating & ~m.svr_gen
    np.add.at(q, m.gen_bus[nonreg], m.gen_qset[nonreg])
    np.add.at(q, m.gen_bus[m.svr_gen], st.svr_q[m.svr_gen])
    return q


def newton(m, st, opts):
    """The solver's Newton loop on the dense Jacobian and a fresh Ybus."""
    ybus = m.assemble_ybus(st.ratio)
    slack = m.slack_bus
    pv, pq, pvpq = bus_types(m, st)

    st.vm[slack] = m.vset[slack]
    st.va[slack] = 0.0
    st.vm[pv] = m.vset[pv]

    qs = q_spec(m, st)
    qs[st.pinned != 0] += st.pinned_q[st.pinned != 0]

    npv, npq = len(pv), len(pq)
    for it in range(opts.max_inner + 1):
        v = st.vm * np.exp(1j * st.va)
        ibus = ybus @ v
        s = v * np.conj(ibus)
        dp = m.p_spec[pvpq] - s.real[pvpq]
        dq = qs[pq] - s.imag[pq]
        mis = np.concatenate([dp, dq])
        if mis.size == 0:
            st.jac, st.jac_index = None, (pv, pq, pvpq)
            return None, it
        norm = np.max(np.abs(mis))
        if not np.isfinite(norm):
            return "newton_failed", it
        if norm <= opts.tolerance:
            st.jac_index = (pv, pq, pvpq)
            st.jac = jacobian(ybus, v, ibus, pvpq, pq)
            return None, it
        if it == opts.max_inner:
            return "newton_failed", it
        jac = jacobian(ybus, v, ibus, pvpq, pq)
        try:
            dx = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            return "singular_jacobian", it
        st.va[pvpq] += dx[:npv + npq]
        st.vm[pq] += dx[npv + npq:]
        if np.any(st.vm <= 0) or not np.all(np.isfinite(st.vm)):
            return "newton_failed", it
    return "newton_failed", opts.max_inner


def sensitivity(m, st, bus, units):
    """dV(bus)/dQ(injection at each unit's bus) from the last Jacobian; 0
    for a unit on a bus that is not PQ, None unless ``bus`` is PQ."""
    if st.jac is None or st.jac_index is None:
        return None
    pv, pq, pvpq = st.jac_index
    pq_pos = {b: k for k, b in enumerate(pq)}
    if bus not in pq_pos:
        return None
    row = len(pvpq) + pq_pos[bus]
    e = np.zeros(st.jac.shape[0])
    e[row] = 1.0
    try:
        w = np.linalg.solve(st.jac.T, e)
    except np.linalg.LinAlgError:
        return None
    sens = np.zeros(len(units))
    for k, gi in enumerate(units):
        b = m.gen_bus[gi]
        if b in pq_pos:
            sens[k] = w[len(pvpq) + pq_pos[b]]
    return sens


def svr_sensitivity(m, st, zone):
    """dV(regulated bus)/dQ(injection at each unit bus) from the last Jacobian."""
    return sensitivity(m, st, zone["bus"], zone["units"])


def shares(m, zone):
    ranges = np.maximum(m.gen_qmax[zone["units"]] - m.gen_qmin[zone["units"]], 0.0)
    ranges = np.where(np.isfinite(ranges), ranges, 1.0)
    return ranges, ranges / ranges.sum()


def waterfall(m, q, zone, remaining):
    """Spread ``remaining`` over the zone's units of ``q`` (written in
    place), four passes of a proportional split in which saturated units
    freeze; returns whether some pass moved a unit by more than 1e-12."""
    units = zone["units"]
    ranges, _ = shares(m, zone)
    changed = False
    for _ in range(4):
        if abs(remaining) < 1e-14:
            break
        q_now = q[units]
        head = np.where(remaining > 0,
                        m.gen_qmax[units] - q_now,
                        q_now - m.gen_qmin[units])
        active = head > 1e-12
        if not np.any(active):
            break
        w = np.where(active, ranges, 0.0)
        w = w / w.sum()
        dq = w * remaining
        new_q = np.clip(q_now + dq, m.gen_qmin[units], m.gen_qmax[units])
        applied = new_q - q_now
        q[units] = new_q
        if np.max(np.abs(applied)) > 1e-12:
            changed = True
        remaining -= applied.sum()
    return changed


def svr_dispatch(m, st, opts):
    """Per-zone steps for the first 20 outer rounds, then joint steps."""
    if st.outer > 20:
        return svr_joint_step(m, st, opts)
    changed = False
    for zone in m.zones:
        if zone["target"] is None or len(zone["units"]) == 0:
            continue
        err = zone["target"] - st.vm[zone["bus"]]
        if abs(err) <= opts.svr_deadband:
            continue
        sens = svr_sensitivity(m, st, zone)
        if sens is None:
            continue
        ranges, share = shares(m, zone)
        if ranges.sum() <= 0:
            continue
        denom = float(sens @ share)
        if denom <= 1e-12:
            continue
        remaining = float(np.clip(err / denom, -0.5, 0.5))
        if waterfall(m, st.svr_q, zone, remaining):
            changed = True
    return changed


def svr_joint_step(m, st, opts):
    """One regularized least-squares step over the zones outside their
    deadband, with one ``J^T`` solve per pilot bus; written only when it
    moves some unit by more than 1e-6."""
    if st.jac is None:
        return False
    moving = [z for z in m.zones
              if abs(z["target"] - st.vm[z["bus"]]) > opts.svr_deadband
              and z["bus"] in st.jac_index[1]]
    if not moving:
        return False
    k = len(moving)
    s = np.zeros((k, k))
    for i, pilot in enumerate(moving):
        for j, zone in enumerate(moving):
            sens = sensitivity(m, st, pilot["bus"], zone["units"])
            if sens is None:
                return False
            s[i, j] = sens @ shares(m, zone)[1]
    err = np.array([z["target"] - st.vm[z["bus"]] for z in moving])
    mu = 1e-3 * np.trace(s.T @ s) / k
    try:
        dq = np.linalg.solve(s.T @ s + mu * np.eye(k), s.T @ err)
    except np.linalg.LinAlgError:
        return False
    q = st.svr_q.copy()
    for zone, step in zip(moving, np.clip(dq, -0.5, 0.5)):
        waterfall(m, q, zone, float(step))
    if not np.max(np.abs(q - st.svr_q)) > 1e-6:
        return False
    st.svr_q = q
    return True


def q_limit_switch(m, st, opts):
    v = st.vm * np.exp(1j * st.va)
    s = v * np.conj(m.assemble_ybus(st.ratio) @ v)
    changed = False
    for b in range(m.n):
        if b == m.slack_bus or not m.is_pv[b] or st.switch_budget[b] <= 0:
            continue
        reg = m.gen_regulating & ~m.svr_gen & (m.gen_bus == b)
        if not np.any(reg):
            continue
        qmin = m.gen_qmin[reg].sum()
        qmax = m.gen_qmax[reg].sum()
        if st.pinned[b] == 0:
            q_other = m.q_fixed[b]
            nonreg = (~m.gen_regulating & ~m.svr_gen) & (m.gen_bus == b)
            q_other += m.gen_qset[nonreg].sum()
            q_other += st.svr_q[m.svr_gen & (m.gen_bus == b)].sum()
            q_reg = s.imag[b] - q_other
            if q_reg > qmax + 1e-9:
                st.pinned[b], st.pinned_q[b] = +1, qmax
                st.switch_budget[b] -= 1
                changed = True
            elif q_reg < qmin - 1e-9:
                st.pinned[b], st.pinned_q[b] = -1, qmin
                st.switch_budget[b] -= 1
                changed = True
        else:
            if st.pinned[b] == +1 and st.vm[b] > m.vset[b] + 1e-7:
                st.pinned[b] = 0
                st.switch_budget[b] -= 1
                changed = True
            elif st.pinned[b] == -1 and st.vm[b] < m.vset[b] - 1e-7:
                st.pinned[b] = 0
                st.switch_budget[b] -= 1
                changed = True
    return changed


def swap_in(monkeypatch) -> None:
    """Run every later oracle call of the test on the reference inner loop."""
    monkeypatch.setattr(pf, "_State", State)
    monkeypatch.setattr(pf, "_newtons",
                        lambda pairs, opts: [newton(m, st, opts) for m, st in pairs])
    monkeypatch.setattr(pf, "_svr_dispatch", svr_dispatch)
    monkeypatch.setattr(pf, "_q_limit_switch", q_limit_switch)
