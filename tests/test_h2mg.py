import dataclasses

import numpy as np
import pytest

from gridtvc.h2mg import (
    CONTROLLER_CLASSES,
    Decision,
    H2MGContext,
    H2MGError,
    HyperEdge,
    SCHEMA,
    SurrogateDecision,
    deserialize,
    from_document,
    schema_hash,
    serialize,
    to_document,
    validate_context,
)

from gridfixtures import edge, edge_by_id, gen, meshed_grid, two_bus


def test_schema_has_13_classes_with_expected_ports():
    assert len(SCHEMA) == 13
    assert SCHEMA["line"].port_names == ("line", "bus1", "bus2")
    assert SCHEMA["svr_controller"].port_names == ("zone",)
    assert SCHEMA["rtc"].port_names == ("twt", "regulated_bus")
    # classes the oracle does not model are not in the schema
    assert not {"battery", "svc", "vsc_station", "hvdc_line"} & set(SCHEMA)


def test_decision_spec_exactly_on_the_four_controllers():
    controllers = {c for c in SCHEMA if SCHEMA[c].is_controller}
    assert controllers == {"line_controller", "shunt_controller",
                           "svr_controller", "rtc_controller"}
    assert SCHEMA["line_controller"].decision_kind == "binary"
    assert SCHEMA["shunt_controller"].decision_kind == "binary"
    assert SCHEMA["svr_controller"].decision_kind == "continuous"
    assert SCHEMA["rtc_controller"].decision_kind == "one_hot"
    assert SCHEMA["rtc_controller"].decision_dim == 4
    assert CONTROLLER_CLASSES == ("line_controller", "rtc_controller",
                                  "shunt_controller", "svr_controller")


def test_unknown_class_and_wrong_features_rejected():
    with pytest.raises(H2MGError):
        HyperEdge("e", "bu", {"bus": 0}, {})
    with pytest.raises(H2MGError):
        HyperEdge("e", "load", {"bus": 0}, {"p": 1.0})  # missing the rest


def test_validate_dangling_port_reference():
    x = two_bus()
    bad_line = edge("line_9", "line",
                    {"line": 2, "bus1": 0, "bus2": 99},
                    r=0.01, x=0.1, status=1.0)
    bad = H2MGContext(x.address_count,
                      {**dict(x.edges), "line": (*x.edges["line"], bad_line)})
    report = validate_context(bad)
    assert any(v.edge_id == "line_9" and "address 99" in v.rule for v in report)


def test_validate_reference_grid_clean():
    assert validate_context(two_bus()) == []


def test_validate_rtc_controller_without_rtc():
    x = two_bus()
    ctrl = edge("rc_0", "rtc_controller", {"twt": 2}, v_target=1.0, v_nom=1.0)
    bad = H2MGContext(x.address_count, {**dict(x.edges), "rtc_controller": (ctrl,)})
    report = validate_context(bad)
    assert any(v.class_name == "rtc_controller" and "rtc" in v.rule for v in report)


def test_validate_duplicate_bus_address():
    from gridfixtures import bus
    x = H2MGContext(2, {"bus": (bus(0, 0), bus(1, 0))})
    report = validate_context(x)
    assert any("already occupied" in v.rule for v in report)


def test_validate_vmin_vmax_ordering():
    from gridfixtures import bus
    bad_bus = bus(0, 0, vmin=1.05, vmax=0.95)
    x = H2MGContext(1, {"bus": (bad_bus,)})
    assert any("v_min" in v.rule for v in validate_context(x))


def _hexed(value):
    """``value`` with every float spelled by ``float.hex`` and every array
    by its dtype and bytes."""
    if isinstance(value, np.ndarray):
        return str(value.dtype), value.tobytes().hex()
    if dataclasses.is_dataclass(value):
        return _hexed(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def test_edges_kept_in_id_order_whatever_the_insertion_order():
    from gridtvc.powerflow import evaluate_objective, solve_ac
    x = meshed_grid()
    assert not validate_context(x)
    assert [e.id for e in x.edges_of("bus")][:4] == ["bus_0", "bus_1", "bus_10", "bus_11"]
    for seed in range(3):
        y = meshed_grid(np.random.default_rng(seed))
        assert y == x and serialize(y) == serialize(x)
    sol = solve_ac(x)
    assert sol.converged
    assert _hexed(solve_ac(y)) == _hexed(sol)
    decision = Decision.paired(x, {
        "line_controller": [1, 0], "shunt_controller": [1],
        "svr_controller": [0.01], "rtc_controller": [1]})
    assert _hexed(evaluate_objective(y, decision)) == _hexed(evaluate_objective(x, decision))


def _val0_before_and_after_a_decision():
    """val-000, and val-000 with its first line opened, its first shunt
    switched and every other lever at the offset -0.02 baseline."""
    from gridtvc.baseline import init_baseline
    from gridtvc.gridgen import GridFamilySpec, generate_context
    from gridtvc.powerflow import apply_decision
    from gridtvc.rng import stream
    x = generate_context(GridFamilySpec(), stream(0, "val", 0))
    y = init_baseline(x, -0.02)
    for c in ("line_controller", "shunt_controller"):
        y = y.replace(c, 0, 1)
    return x, apply_decision(x, y)


def test_anchored_matches_a_brute_force_filter():
    for ctx in _val0_before_and_after_a_decision():
        checked = 0
        for cname, cs in SCHEMA.items():
            for port in cs.port_names:
                for a in range(ctx.address_count):
                    want = sorted((e for e in ctx.all_edges()
                                   if e.class_name == cname and e.ports[port] == a),
                                  key=lambda e: e.id)
                    assert ctx.anchored(cname, port, a) == want
                    checked += len(want)
        assert checked == sum(len(SCHEMA[c].port_names) * len(es)
                              for c, es in ctx.edges.items())


def test_each_controller_names_the_device_on_its_one_port():
    assert {c: SCHEMA[c].device for c in CONTROLLER_CLASSES} == {
        "line_controller": "line", "rtc_controller": "rtc",
        "shunt_controller": "shunt", "svr_controller": "svr_zone"}
    for c in CONTROLLER_CLASSES:
        (port,) = SCHEMA[c].port_names
        assert port in SCHEMA[SCHEMA[c].device].port_names
    assert not any(cs.device for cs in SCHEMA.values() if not cs.is_controller)
    assert schema_hash() == "44a9161df49000af"


def test_device_matches_a_brute_force_filter():
    for ctx in (*_val0_before_and_after_a_decision(), meshed_grid()):
        assert all(ctx.edges_of(c) for c in CONTROLLER_CLASSES)
        for cname in CONTROLLER_CLASSES:
            cs = SCHEMA[cname]
            (port,) = cs.port_names
            for e in ctx.edges_of(cname):
                want = [d for d in ctx.all_edges()
                        if d.class_name == cs.device and d.ports[port] == e.ports[port]]
                assert [ctx.device(e)] == want


def test_device_raises_unless_exactly_one_edge_matches():
    from gridfixtures import line
    x = meshed_grid()
    lc_0 = edge_by_id(x, "line_controller", "lc_0")
    lines = x.edges_of("line")
    gone = H2MGContext(x.address_count, {
        **x.edges, "line": tuple(e for e in lines if e.ports["line"] != 24)})
    twice = H2MGContext(x.address_count, {
        **x.edges, "line": (*lines, line(12, 24, 3, 8, 0.01, 0.08))})
    assert x.device(lc_0).id == "line_11"
    with pytest.raises(H2MGError, match=r"'lc_0' .* exactly one line \(found 0\)"):
        gone.device(lc_0)
    with pytest.raises(H2MGError, match=r"'lc_0' .* exactly one line \(found 2\)"):
        twice.device(lc_0)
    with pytest.raises(H2MGError, match="not a controller"):
        x.device(edge_by_id(x, "line", "line_11"))


def test_validate_refuses_a_device_with_two_controllers():
    x = meshed_grid()
    doubled = H2MGContext(x.address_count, {
        **x.edges,
        "rtc_controller": (*x.edges_of("rtc_controller"),
                           edge("rc_1", "rtc_controller", {"twt": 31},
                                v_target=1.0, v_nom=1.0)),
        "svr_controller": (*x.edges_of("svr_controller"),
                           edge("vc_1", "svr_controller", {"zone": 29}))})
    assert [str(v) for v in validate_context(doubled)] == [
        "[rtc_controller:rc_1] rtc at address 31 already has controller 'rc_0'",
        "[svr_controller:vc_1] svr_zone at address 29 already has controller 'vc_0'"]


def test_validate_refuses_a_zone_whose_units_do_not_participate():
    x = meshed_grid()
    one_idle = x.replace_features({("svr_unit", "unit_0"): {"participate": 0.0}})
    assert validate_context(one_idle) == []
    idle = one_idle.replace_features({("svr_unit", "unit_1"): {"participate": 0.0}})
    assert [str(v) for v in validate_context(idle)] == [
        "[svr_controller:vc_0] zone has no participating svr_unit"]


def test_validate_refuses_a_zone_whose_units_have_no_reactive_range():
    x = meshed_grid()
    flat = {"q_max": 0.0, "q_min": 0.0}
    one_flat = x.replace_features({("generator", "gen_2"): flat})
    assert validate_context(one_flat) == []
    inert = one_flat.replace_features({("generator", "gen_3"): flat})
    assert [str(v) for v in validate_context(inert)] == [
        "[svr_controller:vc_0] zone's participating units have no reactive range"]
    # an idle unit's range does not count; an unbounded one does
    idle = inert.replace_features({("svr_unit", "unit_0"): {"participate": 0.0}})
    assert len(validate_context(idle)) == 1
    unbounded = inert.replace_features({("generator", "gen_2"): {"q_max": None}})
    assert validate_context(unbounded) == []


def test_validate_refuses_an_svr_unit_without_exactly_one_generator():
    x = meshed_grid()
    _, unit_1 = x.edges_of("svr_unit")
    moved = H2MGContext(x.address_count, {**x.edges, "svr_unit": (
        edge("unit_0", "svr_unit", {"gen": 24, "zone": 29}, participate=1.0), unit_1)})
    refused = ["[svr_unit:unit_0] gen port does not match exactly one generator"]
    assert [str(v) for v in validate_context(moved)] == refused
    # in any zone: the dispatch acts on an uncontrolled zone's units too
    uncontrolled = H2MGContext(x.address_count, {**moved.edges, "svr_controller": ()})
    assert [str(v) for v in validate_context(uncontrolled)] == refused
    # an idle unit is not dispatched, so its port is not checked
    idle = moved.replace_features({("svr_unit", "unit_0"): {"participate": 0.0}})
    assert validate_context(idle) == []
    # two generators on the unit's address
    doubled = H2MGContext(x.address_count, {**x.edges, "generator": (
        *x.edges_of("generator"), gen(4, 27, 3, p=0.05, mode=0.0, q=0.0))})
    assert [str(v) for v in validate_context(doubled)] == refused


def test_serialize_round_trip_empty():
    x = H2MGContext(0, {})
    assert deserialize(serialize(x)) == x


def test_serialize_round_trip_reference_grid():
    x = two_bus()
    y = deserialize(serialize(x))
    assert y == x
    # feature values bit-exact
    for cname in x.edges:
        for e_in, e_out in zip(x.edges_of(cname), y.edges_of(cname)):
            assert e_in.features == e_out.features


def test_serialize_preserves_absent():
    x = two_bus()
    blob = serialize(x)
    assert b'"absent"' in blob  # loads carry no solved current yet
    assert deserialize(blob).edges_of("load")[0].features["i"] is None


def test_deserialize_unknown_class():
    with pytest.raises(H2MGError):
        deserialize(b'{"address_count": 0, "classes": {"Bu": []}, "metadata": {}}')


def test_deserialize_unknown_feature():
    doc = (b'{"address_count": 1, "classes": {"bus": [{"id": "b", '
           b'"ports": {"bus": 0}, "features": {"volts": 1.0}}]}, "metadata": {}}')
    with pytest.raises(H2MGError):
        deserialize(doc)


def _break_bus_record(doc, how):
    rec = doc["classes"]["bus"][0]
    if how == "no features":
        del rec["features"]
    elif how == "records not a list":
        doc["classes"]["bus"] = 5
    elif how == "feature not a number":
        rec["features"]["v"] = "abc"
    else:
        rec["ports"]["bus"] = {"port not a number": "x", "fractional port": 1.5,
                               "boolean port": True}[how]


@pytest.mark.parametrize("how", ["no features", "records not a list",
                                 "feature not a number", "port not a number",
                                 "fractional port", "boolean port"])
def test_from_document_refuses_a_malformed_record(how):
    doc = to_document(two_bus())
    assert from_document(doc) == two_bus()
    _break_bus_record(doc, how)
    with pytest.raises(H2MGError):
        from_document(doc)


def test_decision_pairing_enforced():
    x = two_bus()  # no controllers at all
    with pytest.raises(H2MGError):
        Decision.paired(x, {"shunt_controller": [1]})
    assert Decision.paired(x, {}).values == {}
    assert Decision.paired(x, {"shunt_controller": []}).values == {}


def test_decision_domain_checks():
    from gridfixtures import binary_controller_grid
    x = binary_controller_grid(2)
    with pytest.raises(H2MGError):
        Decision.paired(x, {"shunt_controller": [2, 2]})
    with pytest.raises(H2MGError, match="do not match the context"):
        Decision.paired(x, {"shunt_controller": [1, 1, 1]})
    with pytest.raises(H2MGError):
        Decision.paired(x, {"shunt_controller": [[1], [1]]})
    ok = Decision.paired(x, {"shunt_controller": [1, 1.0]})
    assert ok.values["shunt_controller"].dtype.kind == "i"
    assert ok.values["shunt_controller"].tolist() == [1, 1]


def test_decision_replace_copies_only_the_changed_class():
    x = meshed_grid()
    y = Decision.paired(x, {"line_controller": [0, 0], "shunt_controller": [0],
                            "svr_controller": [0.01], "rtc_controller": [3]})
    flipped = y.replace("line_controller", 1, 1)
    assert flipped.values["line_controller"].tolist() == [0, 1]
    assert y.values["line_controller"].tolist() == [0, 0]
    for c in ("shunt_controller", "svr_controller", "rtc_controller"):
        assert flipped.values[c] is y.values[c]


def test_surrogate_shape_checks():
    from gridfixtures import binary_controller_grid
    x = binary_controller_grid(2)
    with pytest.raises(H2MGError):
        SurrogateDecision.paired(x, {"shunt_controller": np.zeros((2, 4))})
    with pytest.raises(H2MGError):
        SurrogateDecision.paired(x, {"shunt_controller": np.zeros(2)})
    with pytest.raises(H2MGError):
        SurrogateDecision.paired(x, {"shunt_controller": np.zeros((3, 1))})
    z = SurrogateDecision.paired(x, {"shunt_controller": np.zeros((2, 1))})
    assert z.values["shunt_controller"].shape == (2, 1)
    with pytest.raises(H2MGError):
        SurrogateDecision.paired(x, {"shunt_controller": np.full((2, 1), np.inf)})
