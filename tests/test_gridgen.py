import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest

from gridtvc import gridgen
from gridtvc import rng as grng
from gridtvc.gridgen import (
    KNOT_TIE,
    GridFamilySpec,
    Normalizer,
    _draw,
    fit_normalizer,
    generate_context,
    load_dataset,
    normalize,
    write_dataset,
)
from gridtvc.h2mg import H2MGContext, H2MGError, HyperEdge, SCHEMA, serialize, validate_context
from gridtvc.powerflow import solve_ac

from gridfixtures import two_bus
from test_trainer import SPEC as TRAINER_SPEC


SMALL = GridFamilySpec(bus_count_min=20, bus_count_max=22, twt_count=8,
                       rtc_count=6, rtc_controller_count=4,
                       shunt_count=6, shunt_controller_count=4,
                       generator_count=7, svr_zone_count=2,
                       svr_units_per_zone=2, svr_controller_count=2,
                       line_controller_count=3, controllable_line_count=3)


def test_spec_validation_rejects_infeasible_counts():
    with pytest.raises(ValueError):
        GridFamilySpec(rtc_controller_count=20)
    with pytest.raises(ValueError):
        GridFamilySpec(shunt_controller_count=99)
    with pytest.raises(ValueError):
        GridFamilySpec(generator_count=3, svr_zone_count=3, svr_units_per_zone=2)
    with pytest.raises(ValueError):  # 5 zones, 4 upper-tier buses to regulate
        GridFamilySpec(bus_count_min=16, bus_count_max=16, twt_count=12, rtc_count=10,
                       svr_zone_count=5, svr_units_per_zone=1, svr_controller_count=3)


def test_generation_deterministic_per_seed():
    x1 = generate_context(SMALL, grng.stream(42, 0))
    x2 = generate_context(SMALL, grng.stream(42, 0))
    assert x1 == x2
    x3 = generate_context(SMALL, grng.stream(42, 1))
    assert x3 != x1


@pytest.mark.parametrize("spec, pinned", [
    (GridFamilySpec(), "1a698aa881f8f7eac91adec3f272d18cb1379c73ccb877edfe880235914a0aff"),
    (TRAINER_SPEC, "74b9d991a3ee4a14c0f664a3437306d35b51938c38cfe44c1ba93225d6b78633"),
], ids=["default", "trainer"])
def test_draw_wiring_is_pinned(spec, pinned):
    """Every edge's class, id and ports on five draws: integers only, no
    features and no solve, so only a change to the draws can move it."""
    h = hashlib.sha256()
    for i in range(5):
        x = _draw(spec, grng.stream(0, "val", i), {"origin": "pin"})
        for c in sorted(x.edges):
            for e in x.edges_of(c):
                h.update(json.dumps([c, e.id, dict(e.ports)]).encode() + b"\n")
    assert h.hexdigest() == pinned


def test_generated_context_is_valid_and_counts_match():
    spec = GridFamilySpec(bus_count_min=30, bus_count_max=30,
                          svr_zone_count=3, rtc_controller_count=8,
                          shunt_controller_count=6, line_controller_count=4)
    x = generate_context(spec, grng.stream(5, 0))
    assert validate_context(x) == []
    assert len(x.edges_of("bus")) == 30
    assert len(x.edges_of("svr_zone")) == 3
    assert len(x.edges_of("rtc_controller")) == 8
    assert len(x.edges_of("shunt_controller")) == 6
    assert len(x.edges_of("line_controller")) == 4
    assert len(x.edges_of("twt")) == spec.twt_count
    assert len(x.edges_of("generator")) == spec.generator_count


def test_no_optional_lines_means_fixed_line_set():
    spec = GridFamilySpec(bus_count_min=24, bus_count_max=24,
                          optional_line_count=0)
    ids = None
    for i in range(5):
        x = generate_context(spec, grng.stream(9, i))
        got = sorted(e.id for e in x.edges_of("line"))
        if ids is None:
            ids = got
        assert got == ids


def base_case_success_rate(spec: GridFamilySpec, rng: np.random.Generator,
                           draws: int = 100) -> float:
    """Fraction of raw draws whose base case converges (generator tuning aid)."""
    ok = 0
    for _ in range(draws):
        x = _draw(spec, rng, {"origin": "probe", "timestamp": ""})
        if not validate_context(x) and solve_ac(x).converged:
            ok += 1
    return ok / draws


def test_base_case_success_rate_at_least_90pct():
    rate = base_case_success_rate(GridFamilySpec(), grng.stream(0, "rate"),
                                  draws=100)
    assert rate >= 0.9


def test_embedded_base_case_is_consistent():
    x = generate_context(SMALL, grng.stream(11, 3))
    sol = solve_ac(x)
    assert sol.converged
    # Re-solving from the embedded state stays on the same operating point,
    # up to discrete taps resettling by at most a step or two.
    deltas = sorted(abs(s.features["v"] - e.features["v"])
                    for s, e in zip(sol.context.edges_of("bus"), x.edges_of("bus")))
    assert deltas[len(deltas) // 2] < 1e-3
    assert deltas[-1] < 0.03


def test_dataset_round_trip(tmp_path):
    xs = [generate_context(SMALL, grng.stream(3, i), origin=f"s3_c{i:05d}")
          for i in range(3)]
    write_dataset(tmp_path / "data", xs, SMALL, seed=3)
    back = load_dataset(tmp_path / "data")
    assert back == xs


def test_load_dataset_rejects_an_invalid_context(tmp_path):
    xs = [generate_context(SMALL, grng.stream(3, i), origin=f"s3_c{i:05d}")
          for i in range(2)]
    write_dataset(tmp_path / "data", xs, SMALL, seed=3)
    # Plug the second context's first line into a generator's address.
    path = tmp_path / "data" / "s3_c00001.json"
    doc = json.loads(path.read_text())
    doc["classes"]["line"][0]["ports"]["bus1"] = \
        doc["classes"]["generator"][0]["ports"]["gen"]
    path.write_text(json.dumps(doc))
    with pytest.raises(H2MGError, match=r"s3_c00001\.json.*'bus1'.*not occupied by a bus"):
        load_dataset(tmp_path / "data")


def test_load_dataset_refuses_a_malformed_record(tmp_path):
    xs = [generate_context(SMALL, grng.stream(3, i), origin=f"s3_c{i:05d}")
          for i in range(2)]
    write_dataset(tmp_path / "data", xs, SMALL, seed=3)
    path = tmp_path / "data" / "s3_c00001.json"
    doc = json.loads(path.read_text())
    doc["classes"]["line"][0]["ports"]["bus1"] = 1.5
    path.write_text(json.dumps(doc))
    with pytest.raises(H2MGError, match=r"'bus1' must be an integer"):
        load_dataset(tmp_path / "data")


def test_load_dataset_refuses_a_context_whose_origin_is_not_its_id(tmp_path):
    # train keys each context's estimator stream by its origin
    xs = [generate_context(SMALL, grng.stream(3, i), origin=f"s3_c{i:05d}")
          for i in range(2)]
    write_dataset(tmp_path / "data", xs, SMALL, seed=3)
    path = tmp_path / "data" / "s3_c00001.json"
    doc = json.loads(path.read_text())
    doc["metadata"]["origin"] = "s3_c00000"
    path.write_text(json.dumps(doc))
    with pytest.raises(H2MGError, match=r"s3_c00001\.json: origin 's3_c00000' is not "
                                        r"its manifest id 's3_c00001'"):
        load_dataset(tmp_path / "data")


@pytest.fixture(scope="module")
def val0():
    return generate_context(GridFamilySpec(), grng.stream(0, "val", 0), origin="val-000")


def _record_at(doc, cname, port, addr):
    (rec,) = [r for r in doc["classes"][cname] if r["ports"][port] == addr]
    return rec


def _break(doc, how):
    """Edit a context document so that the oracle or the baseline raises."""
    cls = doc["classes"]
    (slack,) = [g for g in cls["generator"] if g["features"]["slack"] == 1.0]
    shunt = _record_at(doc, "shunt", "shunt", cls["shunt_controller"][0]["ports"]["shunt"])
    zone = _record_at(doc, "svr_zone", "zone", cls["svr_controller"][0]["ports"]["zone"])
    if how == "no slack generator":
        slack["features"]["slack"] = 0.0
    elif how == "the slack generator as an svr unit":
        cls["svr_unit"][0]["ports"]["gen"] = slack["ports"]["gen"]
    elif how in ("a zero-impedance line", "a zero-impedance twt"):
        cls[how.rsplit(" ", 1)[1]][0]["features"].update(r=0.0, x=0.0)
    elif how == "an uncontrolled rtc on no twt":
        controlled = {c["ports"]["twt"] for c in cls["rtc_controller"]}
        rtc = next(r for r in cls["rtc"] if r["ports"]["twt"] not in controlled)
        rtc["ports"]["twt"] = cls["line"][0]["ports"]["line"]
    elif how == "a controlled shunt without status":
        shunt["features"]["status"] = "absent"
    elif how.startswith("a controlled svr zone without"):
        zone["features"][how.rsplit(" ", 1)[1]] = "absent"
    elif how.startswith("an rtc_controller without"):
        cls["rtc_controller"][0]["features"][how.rsplit(" ", 1)[1]] = "absent"
    else:
        raise ValueError(how)


@pytest.mark.parametrize("how, rule", [
    ("no slack generator", "no slack generator"),
    ("the slack generator as an svr unit", "drives the slack generator"),
    ("a zero-impedance line", "zero impedance"),
    ("a zero-impedance twt", "zero impedance"),
    ("an uncontrolled rtc on no twt", "twt port does not match exactly one twt"),
    ("a controlled shunt without status", "has no 'status'"),
    ("a controlled svr zone without v", "has no 'v'"),
    ("a controlled svr zone without v_target", "has no 'v_target'"),
    ("an rtc_controller without v_nom", "has no 'v_nom'"),
    ("an rtc_controller without v_target", "has no 'v_target'"),
])
def test_validation_refuses_what_the_oracle_or_the_baseline_raises_on(
        tmp_path, val0, how, rule):
    from gridtvc.baseline import init_baseline
    from gridtvc.estimator import _replace
    from gridtvc.h2mg import from_document, to_document
    from gridtvc.powerflow import evaluate_objective

    def score(x):
        # the baseline with the first shunt switched reads every lever
        return evaluate_objective(x, _replace(init_baseline(x), "shunt_controller", 0, 1))

    assert validate_context(val0) == []
    score(val0)
    doc = to_document(val0)
    _break(doc, how)
    x = from_document(doc)
    with pytest.raises(H2MGError):
        score(x)
    assert any(rule in v.rule for v in validate_context(x)), validate_context(x)
    with pytest.raises(H2MGError, match=r"context 'val-000': invalid context"):
        write_dataset(tmp_path / "broken", [x], GridFamilySpec(), seed=0)
    assert not (tmp_path / "broken").exists()
    # a dataset written valid and broken on disk afterwards
    write_dataset(tmp_path / "data", [val0], GridFamilySpec(), seed=0)
    (tmp_path / "data" / "val-000.json").write_bytes(serialize(x))
    with pytest.raises(H2MGError, match=r"val-000\.json: invalid context"):
        load_dataset(tmp_path / "data")


@pytest.mark.parametrize("ids, problem", [
    (["s3_c00000", "s3_c00000"], "'s3_c00000' repeats"),
    (["s3_c00000", "../s3_c00000"], "'../s3_c00000' is not a plain file name"),
    (["s3_c00000", 7], "7 is not a plain file name"),
    # a string is the whole manifest text
    ('{"seed": 3}', "list unreadable: KeyError"),
    ('{"ids": [', "list unreadable: JSONDecodeError"),
    # read as a list, a string would give one id per character
    ('{"ids": "abc"}', "list is a str, not a list"),
    ('{"ids": {"a": 1}}', "list is a dict, not a list"),
])
def test_load_dataset_refuses_repeated_or_unsafe_ids(tmp_path, ids, problem):
    x = generate_context(SMALL, grng.stream(3, 0), origin="s3_c00000")
    write_dataset(tmp_path / "data", [x], SMALL, seed=3)
    # a file outside the dataset that a "../" id would reach
    (tmp_path / "s3_c00000.json").write_bytes(serialize(x))
    path = tmp_path / "data" / "manifest.json"
    path.write_text(ids if isinstance(ids, str)
                    else json.dumps({**json.loads(path.read_text()), "ids": ids}))
    with pytest.raises(H2MGError, match=rf"manifest\.json: id {problem}"):
        load_dataset(tmp_path / "data")


@pytest.mark.parametrize("origins", [
    ["synthetic", "synthetic"], ["a", "", "b"], ["a", "sub/b"], ["..", "b"],
    ["a", "x\\y"]])
def test_write_dataset_refuses_repeated_or_unsafe_origins(tmp_path, origins):
    x = generate_context(SMALL, grng.stream(3, 0))
    xs = [H2MGContext(x.address_count, x.edges, {"origin": o}) for o in origins]
    with pytest.raises(H2MGError, match="origin"):
        write_dataset(tmp_path / "data", xs, SMALL, seed=3)
    assert not (tmp_path / "data").exists()


# -- normalizer ---------------------------------------------------------------

def _ctx_with_values(values, current=0.0):
    """A minimal context family carrying one load feature per value."""
    out = []
    for k, v in enumerate(values):
        e = HyperEdge(f"load_{k}", "load", {"bus": 0},
                      {"p": v, "q": 0.0, "i": current, "p_target": v,
                       "q_target": 0.0})
        b = HyperEdge("bus_0", "bus", {"bus": 0},
                      {"v": 1.0, "theta": 0.0, "v_nom": 1.0, "v_max": 1.05,
                       "v_min": 0.95, "opt": 1.0})
        out.append(H2MGContext(1, {"bus": (b,), "load": (e,)}))
    return out


def mapped(norm, cname, feature, value):
    """One value through ``norm.map_column``; None is an absent value."""
    return norm.map_column(cname, feature, np.array([value], dtype=float))[0]


def test_ecdf_two_knots_is_min_max_interpolation():
    dataset = _ctx_with_values([float(v) for v in range(1, 101)])
    norm = fit_normalizer(dataset, knots=2)
    assert mapped(norm, "load", "p", 1.0) == 0.0
    assert mapped(norm, "load", "p", 100.0) == 1.0
    assert mapped(norm, "load", "p", 50.5) == pytest.approx(0.5)


def test_ecdf_quantile_median_maps_near_half():
    rng = np.random.default_rng(0)
    values = rng.lognormal(0.0, 1.0, size=400).tolist()
    dataset = _ctx_with_values(values)
    norm = fit_normalizer(dataset, knots=101)
    median = float(np.quantile(np.asarray(values), 0.5))
    assert mapped(norm, "load", "p", median) == pytest.approx(0.5, abs=0.02)


def test_constant_feature_maps_to_half():
    dataset = _ctx_with_values([2.5, 2.5, 2.5])
    norm = fit_normalizer(dataset, knots=5)
    for q in (0.0, 2.5, 9.9):
        assert mapped(norm, "load", "p", q) == 0.5
    # v_nom is constant 1.0 across the family too
    assert mapped(norm, "bus", "v_nom", 1.0) == 0.5


def test_clamping_below_min_and_above_max():
    dataset = _ctx_with_values([float(v) for v in range(1, 101)])
    norm = fit_normalizer(dataset, knots=11)
    assert mapped(norm, "load", "p", -5.0) == 0.0
    assert mapped(norm, "load", "p", 1e6) == 1.0


def test_breakpoint_maps_exactly_to_its_level():
    dataset = _ctx_with_values([float(v) for v in range(1, 102)])
    norm = fit_normalizer(dataset, knots=11)
    values, levels = norm.tables[("load", "p")]
    for v, l in zip(values, levels):
        assert mapped(norm, "load", "p", float(v)) == pytest.approx(float(l))


def test_absent_everywhere_gives_identity_with_warning():
    dataset = _ctx_with_values([1.0, 2.0], current=None)
    with pytest.warns(UserWarning):
        norm = fit_normalizer(dataset, knots=3)
    assert norm.tables[("load", "i")] == Normalizer.IDENTITY
    assert mapped(norm, "load", "i", 3.25) == 3.25


def test_fit_reads_each_context_once_and_warns_for_a_class_without_edges(monkeypatch):
    # The shunt class is present with no edges: each of its features is
    # absent in all contexts, as a feature absent from every edge is.
    dataset = [H2MGContext(x.address_count, {**x.edges, "shunt": ()})
               for x in _ctx_with_values([1.0, 2.0, 3.0], current=None)]
    walked, walk = [], gridgen._raw_classes

    def spy(x):
        walked.append(x)
        return walk(x)

    monkeypatch.setattr(gridgen, "_raw_classes", spy)
    with pytest.warns(UserWarning) as caught:
        norm = fit_normalizer(dataset, knots=3)
    assert walked == dataset
    absent = ["load.i", *(f"shunt.{f}" for f in SCHEMA["shunt"].context_feature_names)]
    assert sorted(str(w.message).split()[1] for w in caught) == sorted(absent)
    for key in absent:
        assert norm.tables[tuple(key.split("."))] == Normalizer.IDENTITY


def test_monotonicity_and_range_property():
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.normal(0, 1, 150),
                             np.zeros(50)]).tolist()  # heavy tie mass
    norm = fit_normalizer(_ctx_with_values(values), knots=51)
    queries = np.sort(rng.uniform(-4, 4, 200))
    outs = [mapped(norm, "load", "p", float(q)) for q in queries]
    assert all(0.0 <= o <= 1.0 for o in outs)
    assert all(b >= a - 1e-12 for a, b in zip(outs, outs[1:]))


def test_near_tied_quantiles_merge_into_one_atom():
    # flows zero up to rounding: 0.0, and +-1e-15 from another solve
    values = [0.0] * 40 + [4e-15] * 10 + [-1e-15] * 10 + list(np.linspace(1.0, 2.0, 40))
    norm = fit_normalizer(_ctx_with_values(values), knots=11)
    breaks, levels = norm.tables[("load", "p")]
    assert np.all(np.diff(breaks) > KNOT_TIE)
    # the atom holds the quantiles at levels 0.0-0.5: one breakpoint at 0.0
    assert breaks[0] == 0.0 and levels[0] == pytest.approx(0.25)
    assert mapped(norm, "load", "p", 1.2e-13) == pytest.approx(0.25, abs=1e-12)
    assert mapped(norm, "load", "p", -1.2e-13) == mapped(norm, "load", "p", -1.0) == 0.25


def test_normalize_barely_moves_when_features_move_by_rounding():
    # The 40-context set.  With a breakpoint per near-tied quantile, moving
    # every feature by 1e-12 moved a normalized line.p2 by 0.01.  The
    # steepest genuine segment left is twt.r's: knots 2e-6 apart, one 0.01
    # level step, so 4.9e-9 per 1e-12.
    xs = [generate_context(GridFamilySpec(), grng.stream(0, t, i))
          for t in ("val", "g") for i in range(20)]
    norm = fit_normalizer(xs)
    for entry in norm.tables.values():
        if not isinstance(entry, str):
            assert np.all(np.diff(entry[0]) > KNOT_TIE)

    def moved(x, eps):
        return H2MGContext(x.address_count, {c: tuple(
            HyperEdge(e.id, c, dict(e.ports), {f: None if v is None else v + eps
                                               for f, v in e.features.items()})
            for e in edges) for c, edges in x.edges.items()}, dict(x.metadata))

    for x in xs:
        base = normalize(x, norm)
        for eps in (1e-12, -1e-12):
            for (_, a, _), (_, b, _) in zip(base.classes,
                                            normalize(moved(x, eps), norm).classes):
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-8


def feature_column(xn, cname, fname):
    [feats] = [f for c, f, _ in xn.classes if c == cname]
    return feats[:, SCHEMA[cname].context_feature_names.index(fname)]


def test_normalize_context_range_and_absent_rule():
    xs = [generate_context(SMALL, grng.stream(21, i)) for i in range(3)]
    norm = fit_normalizer(xs, knots=31)
    xn = normalize(xs[0], norm)
    for cname, feats, _ in xn.classes:
        for fname, col in zip(SCHEMA[cname].context_feature_names, feats.T):
            assert np.all(np.isfinite(col))
            if norm.tables.get((cname, fname)) != Normalizer.IDENTITY:
                assert np.all((0.0 <= col) & (col <= 1.0))
    # absent inputs map to exactly 0 after normalization
    x = two_bus()
    assert x.edges_of("load")[0].features["i"] is None
    with pytest.warns(UserWarning):
        norm2 = fit_normalizer([x], knots=3)
    xn2 = normalize(x, norm2)
    assert feature_column(xn2, "load", "i")[0] == 0.0


@pytest.mark.parametrize("knots", [101, 5])
def test_normalize_matches_the_per_scalar_normalizer(knots):
    # Generated contexts carry every feature; the hand-built two-bus grid
    # has absent ones, which must come out exactly 0.
    xs = [generate_context(SMALL, grng.stream(25, i)) for i in range(20)]
    xs.append(two_bus())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        norm = fit_normalizer(xs[:-1], knots=knots)
    n_absent = 0
    for x in xs:
        xn = normalize(x, norm)
        assert [f.name for f in dataclasses.fields(xn)] == ["address_count", "classes"]
        assert xn.address_count == x.address_count
        assert [c for c, _, _ in xn.classes] == sorted(x.edges)
        for cname, feats, ports in xn.classes:
            cs = SCHEMA[cname]
            edges = x.edges_of(cname)
            ref = np.array([[mapped(norm, cname, f, e.features[f])
                             for f in cs.context_feature_names] for e in edges],
                           dtype=float).reshape(len(edges), len(cs.context_feature_names))
            assert feats.shape == ref.shape and feats.tobytes() == ref.tobytes()
            absent = np.array([[e.features[f] is None for f in cs.context_feature_names]
                               for e in edges], dtype=bool).reshape(ref.shape)
            assert np.all(feats[absent] == 0.0)
            n_absent += int(absent.sum())
            assert ports.dtype.kind == "i" and ports.tobytes() == np.array(
                [[e.ports[p] for p in cs.port_names] for e in edges],
                dtype=ports.dtype).tobytes()
    assert n_absent == 10



@pytest.mark.parametrize("entry, problem", [
    ({"kind": "bogus"}, "unknown kind 'bogus'"),
    ({"kind": "pwl", "values": [0.0, 1.0, 2.0], "levels": [0.0, 1.0]}, "one nonzero length"),
    ({"kind": "pwl", "values": [], "levels": []}, "one nonzero length"),
    ({"kind": "pwl", "values": [2.0, 1.0], "levels": [0.0, 1.0]}, "strictly increase"),
    ({"kind": "pwl", "values": [1.0, 1.0], "levels": [0.0, 1.0]}, "strictly increase"),
    ({"kind": "pwl", "values": [0.0, 1.0], "levels": [1.0, -3.0]}, "levels must be nondecreasing"),
    ({"kind": "pwl", "values": [0.0, 1.0], "levels": [0.0, 1.5]}, "levels must be nondecreasing"),
    ({}, "unknown kind None"),
    ({"kind": "pwl", "values": [0.0, 1.0]}, "one nonzero length"),
])
def test_normalizer_from_json_refuses_a_bad_table(entry, problem):
    doc = {"knots": 3, "tables": {"load": {"p": {"kind": "pwl", "values": [0.0, 1.0],
                                                 "levels": [0.0, 1.0]}}}}
    assert mapped(Normalizer.from_json(doc), "load", "p", 0.25) == 0.25
    doc["tables"]["load"]["q"] = entry
    with pytest.raises(ValueError, match=rf"load\.q: .*{problem}"):
        Normalizer.from_json(doc)


@pytest.mark.parametrize("key", ["knots", "tables"])
def test_normalizer_from_json_refuses_a_document_without_knots_or_tables(key):
    doc = {"knots": 3, "tables": {"load": {"p": {"kind": "identity"}}}}
    Normalizer.from_json(doc)
    del doc[key]
    with pytest.raises(ValueError, match="normalizer document needs knots and tables"):
        Normalizer.from_json(doc)


def test_normalizer_save_load_round_trip(tmp_path):
    xs = [generate_context(SMALL, grng.stream(23, i)) for i in range(2)]
    norm = fit_normalizer(xs, knots=21)
    path = tmp_path / "norm.json"
    norm.save(path)
    back = Normalizer.load(path)
    assert back.digest() == norm.digest()
    for key, entry in norm.tables.items():
        if isinstance(entry, str):
            assert back.tables[key] == entry
        else:
            assert np.array_equal(back.tables[key][0], entry[0])
            assert np.array_equal(back.tables[key][1], entry[1])
