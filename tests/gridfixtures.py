"""Hand-built grids used across the test suite.

Everything here is constructed explicitly, feature by feature, so the
tests exercise the package against fixtures it did not generate itself.
"""

from __future__ import annotations

import numpy as np

from gridtvc.h2mg import H2MGContext, HyperEdge, SCHEMA


def edge(eid, cname, ports, **features):
    feats = {f: None for f in SCHEMA[cname].context_feature_names}
    feats.update(features)
    return HyperEdge(eid, cname, ports, feats)


def edge_by_id(x: H2MGContext, class_name: str, edge_id: str) -> HyperEdge:
    """The one edge of ``class_name`` in ``x`` with id ``edge_id``."""
    (e,) = [e for e in x.edges_of(class_name) if e.id == edge_id]
    return e


def bus(i, addr, v=1.0, vnom=1.0, vmin=0.95, vmax=1.05, opt=1.0, theta=0.0):
    return edge(f"bus_{i}", "bus", {"bus": addr},
                v=v, theta=theta, v_nom=vnom, v_max=vmax, v_min=vmin, opt=opt)


def line(i, addr, b1, b2, r, x, g=0.0, b=0.0, imax=None, status=1.0, opt=1.0):
    return edge(f"line_{i}", "line", {"line": addr, "bus1": b1, "bus2": b2},
                r=r, x=x, g=g, b=b, i1_max=imax, i2_max=imax,
                opt=opt, status=status)


def gen(i, addr, busaddr, p=0.0, v=1.0, qmin=-5.0, qmax=5.0, mode=1.0,
        slack=0.0, q=None):
    return edge(f"gen_{i}", "generator", {"gen": addr, "bus": busaddr},
                p_target=p, q_target=0.0, v_target=v, q_max=qmax, q_min=qmin,
                regulation_mode=mode, slack=slack, q=q)


def load(i, addr, p, q):
    return edge(f"load_{i}", "load", {"bus": addr},
                p=p, q=q, p_target=p, q_target=q)


def shunt(i, addr, busaddr, g=0.0, b=0.0, status=1.0):
    return edge(f"shunt_{i}", "shunt", {"shunt": addr, "bus": busaddr},
                g=g, b=b, status=status)


def two_bus(load_p=0.5, load_q=0.2, r=0.01, x=0.1, charging=0.0,
            vmin=0.95, vmax=1.05) -> H2MGContext:
    """The 2-bus reference grid: slack generator feeding one load."""
    return H2MGContext(4, {
        "bus": (bus(0, 0, vmin=vmin, vmax=vmax), bus(1, 1, vmin=vmin, vmax=vmax)),
        "line": (line(0, 2, 0, 1, r, x, b=charging, imax=2.0),),
        "generator": (gen(0, 3, 0, slack=1.0),),
        "load": (load(0, 1, load_p, load_q),),
    })


def two_bus_noload(r=0.0, x=0.1) -> H2MGContext:
    return H2MGContext(4, {
        "bus": (bus(0, 0), bus(1, 1)),
        "line": (line(0, 2, 0, 1, r, x),),
        "generator": (gen(0, 3, 0, slack=1.0),),
    })


def three_bus(p_gen=0.4, v_gen=1.02, load_p=0.9, load_q=0.3) -> H2MGContext:
    """Triangle: slack, one PV generator, one load bus."""
    return H2MGContext(8, {
        "bus": (bus(0, 0), bus(1, 1), bus(2, 2)),
        "line": (line(0, 3, 0, 1, 0.01, 0.08),
                 line(1, 4, 0, 2, 0.02, 0.12),
                 line(2, 5, 1, 2, 0.015, 0.1)),
        "generator": (gen(0, 6, 0, slack=1.0),
                      gen(1, 7, 1, p=p_gen, v=v_gen, qmin=-5.0, qmax=5.0)),
        "load": (load(0, 2, load_p, load_q),),
    })


def shunt_overvoltage_grid(n_chain=10, cap_b=0.55) -> H2MGContext:
    """Radial chain whose far-end capacitor causes the only over-voltage.

    Switching the single controllable shunt removes every violation, which
    gives estimator and trainer tests a known best decision.
    """
    buses, lines, edges_shunt, controllers = [], [], [], []
    addr = n_chain
    for i in range(n_chain):
        buses.append(bus(i, i))
    for i in range(n_chain - 1):
        lines.append(line(i, addr, i, i + 1, 0.005, 0.05))
        addr += 1
    shunt_addr = addr
    addr += 1
    edges_shunt.append(shunt(0, shunt_addr, n_chain - 1, b=cap_b, status=1.0))
    controllers.append(edge("sc_0", "shunt_controller", {"shunt": shunt_addr}))
    gen_addr = addr
    addr += 1
    return H2MGContext(addr, {
        "bus": tuple(buses),
        "line": tuple(lines),
        "shunt": tuple(edges_shunt),
        "shunt_controller": tuple(controllers),
        "generator": (gen(0, gen_addr, 0, slack=1.0),),
        "load": (load(0, n_chain - 1, 0.15, 0.05),),
    })


def binary_controller_grid(n_shunts=3, cap_b=0.3) -> H2MGContext:
    """Several controllable capacitors on a short feeder (enumerable space)."""
    buses = [bus(0, 0), bus(1, 1)]
    lines = [line(0, 2, 0, 1, 0.005, 0.06)]
    shunts, controllers = [], []
    addr = 3
    for k in range(n_shunts):
        shunts.append(shunt(k, addr, 1, b=cap_b, status=1.0 if k == 0 else 0.0))
        controllers.append(edge(f"sc_{k}", "shunt_controller", {"shunt": addr}))
        addr += 1
    gen_addr = addr
    addr += 1
    return H2MGContext(addr, {
        "bus": tuple(buses),
        "line": tuple(lines),
        "shunt": tuple(shunts),
        "shunt_controller": tuple(controllers),
        "generator": (gen(0, gen_addr, 0, slack=1.0),),
        "load": (load(0, 1, 0.3, 0.1),),
    })


def meshed_grid(rng=None) -> H2MGContext:
    """13 buses (so ``bus_10`` sorts before ``bus_2``), two loads on bus 7,
    one controller of each class; ``rng`` shuffles every class's edges and
    the class order."""
    buses = [bus(i, i) for i in range(13)]
    lines = [line(i, 13 + i, i, i + 1, 0.005, 0.05) for i in range(11)]
    lines.append(line(11, 24, 2, 9, 0.01, 0.08))
    classes = {
        "bus": buses,
        "line": lines,
        "line_controller": [edge("lc_0", "line_controller", {"line": 24}),
                            edge("lc_1", "line_controller", {"line": 16})],
        "load": [load(0, 7, 0.12, 0.04), load(1, 7, 0.07, 0.02),
                 load(2, 10, 0.1, 0.03), load(3, 4, 0.08, 0.02),
                 load(4, 12, 0.05, 0.01)],
        "generator": [gen(0, 25, 0, slack=1.0), gen(1, 26, 5, p=0.15, v=1.01),
                      gen(2, 27, 9, p=0.05, qmin=-0.5, qmax=0.5, mode=0.0, q=0.0),
                      gen(3, 28, 11, p=0.05, qmin=-0.5, qmax=0.5, mode=0.0, q=0.0)],
        "svr_zone": [edge("zone_0", "svr_zone", {"zone": 29, "regulated_bus": 10},
                          v=1.0, theta=0.0, v_nom=1.0, v_target=1.0)],
        "svr_unit": [edge("unit_0", "svr_unit", {"gen": 27, "zone": 29}, participate=1.0),
                     edge("unit_1", "svr_unit", {"gen": 28, "zone": 29}, participate=1.0)],
        "svr_controller": [edge("vc_0", "svr_controller", {"zone": 29})],
        "shunt": [shunt(0, 30, 6, b=0.1)],
        "shunt_controller": [edge("sc_0", "shunt_controller", {"shunt": 30})],
        "twt": [edge("twt_0", "twt", {"twt": 31, "bus1": 11, "bus2": 12},
                     r=0.002, x=0.05, g=0.0, b=0.0, ratio=1.0, phase_shift=0.0,
                     opt=1.0)],
        "rtc": [edge("rtc_0", "rtc", {"twt": 31, "regulated_bus": 12})],
        "rtc_controller": [edge("rc_0", "rtc_controller", {"twt": 31},
                                v_target=1.0, v_nom=1.0)],
    }
    if rng is not None:
        names = list(classes)
        classes = {c: [classes[c][i] for i in rng.permutation(len(classes[c]))]
                   for c in (names[i] for i in rng.permutation(len(names)))}
    return H2MGContext(32, {c: tuple(v) for c, v in classes.items()})


def scipy_two_bus_solution(load_p, load_q, r, x, charging=0.0):
    """Independent root solve of the 2-bus mismatch equations."""
    from scipy.optimize import root

    ys = 1.0 / complex(r, x)
    ysh = complex(0.0, charging) / 2.0

    def mismatch(u):
        v2 = u[0] * np.exp(1j * u[1])
        i2 = -ys * 1.0 + (ys + ysh) * v2
        s2 = v2 * np.conj(i2)
        return [s2.real + load_p, s2.imag + load_q]

    res = root(mismatch, [1.0, 0.0], tol=1e-12)
    ok = bool(res.success) and max(abs(m) for m in mismatch(res.x)) < 1e-9
    return res.x[0], res.x[1], ok


def scipy_three_bus_solution(p_gen, v_gen, load_p, load_q):
    """Independent solve of the triangle fixture (theta1, theta2, v2 unknown)."""
    from scipy.optimize import root

    y01 = 1.0 / complex(0.01, 0.08)
    y02 = 1.0 / complex(0.02, 0.12)
    y12 = 1.0 / complex(0.015, 0.1)
    ybus = np.array([
        [y01 + y02, -y01, -y02],
        [-y01, y01 + y12, -y12],
        [-y02, -y12, y02 + y12],
    ])

    def mismatch(u):
        th1, th2, v2 = u
        v = np.array([1.0, v_gen * np.exp(1j * th1), v2 * np.exp(1j * th2)])
        s = v * np.conj(ybus @ v)
        return [s[1].real - p_gen, s[2].real + load_p, s[2].imag + load_q]

    res = root(mismatch, [0.0, 0.0, 1.0], tol=1e-12)
    ok = bool(res.success) and max(abs(m) for m in mismatch(res.x)) < 1e-9
    return res.x, ok
