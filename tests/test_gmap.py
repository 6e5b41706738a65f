"""Kernel behavior: constraints, involutions, orbits, cells, embeddings."""

import pytest

from gmapkit import (
    ConstraintViolationError,
    CycleViolation,
    DimensionError,
    EmbeddingLayer,
    EmbeddingViolation,
    Gmap,
    IncidenceViolation,
    LabeledGraph,
    OrbitType,
    UnknownNodeError,
    apply_rule,
    instantiate_rule,
    parse_directive,
    serialize_gmap,
)
from gmapkit.mesh import PolygonalMesh, unify

from conftest import fixture_text, free_edge_graph, sewn_edge_graph
from gmapkit import parse_gmap
from oracle import oracle_validate, random_valid_gmap, reference_orbit_graph


def free_edge_gmap() -> Gmap:
    return Gmap(free_edge_graph())


def sewn_edge_gmap() -> Gmap:
    return Gmap(sewn_edge_graph())


# -- validate ----------------------------------------------------------------


def test_validate_square_is_clean(square_gmap):
    assert square_gmap.validate().ok


def test_validate_missing_links_reported():
    g = Gmap.build(2, ["a", "b"], [(0, {"a", "b"})])
    report = g.validate()
    incidences = {
        (v.dart, v.dim, v.found)
        for v in report.violations
        if isinstance(v, IncidenceViolation)
    }
    assert incidences == {
        ("a", 1, 0),
        ("a", 2, 0),
        ("b", 1, 0),
        ("b", 2, 0),
    }
    # nothing else to report: no 2-links means no 0-2 chains at all
    assert len(report.violations) == 4


def test_validate_three_faces_sharing_an_edge(broken_three_faces_gmap):
    report = broken_three_faces_gmap.validate()
    doubled = [
        v
        for v in report.violations
        if isinstance(v, IncidenceViolation) and v.dim == 2 and v.found == 2
    ]
    # every dart around the shared edge carries two 2-links
    assert {v.dart for v in doubled} == {"a1", "a2", "a3", "b1", "b2", "b3"}


def test_validate_open_cycle_path(broken_cycle_gmap):
    report = broken_cycle_gmap.validate()
    assert not report.ok
    assert all(isinstance(v, CycleViolation) for v in report.violations)
    assert {(v.i, v.j) for v in report.violations} == {(0, 2)}


def test_validation_report_lines_are_sorted_and_stable(broken_cycle_gmap):
    r1 = broken_cycle_gmap.validate()
    r2 = broken_cycle_gmap.validate()
    assert r1.lines() == r2.lines() == sorted(r1.lines())


def test_validate_time_does_not_follow_the_declared_dimension():
    # cycle pairs (i, j) come from the links present, not from 0..n
    assert Gmap(LabeledGraph(10**6)).validate().ok


def test_a_failed_alpha_test_is_not_a_violation_by_itself():
    # every dart has one link per dimension, and a_2 a_0 a_2 (d) != a_0 (d)
    # at a, b and c; but the chains pivoted at a and b close, since a_2
    # fixes a and a_0 fixes c, so only the chain pivoted at c is open
    g = Gmap.build(
        2,
        "abc",
        [(0, ("a", "b")), (1, ("a",)), (2, ("a",)), (1, ("b",)), (2, ("b", "c")), (0, ("c",)), (1, ("c",))],
    )
    assert all(g.alpha(g.alpha(g.alpha(d, 2), 0), 2) != g.alpha(d, 0) for d in "abc")
    assert g.validate().lines() == ["E_CYCLE i=0 j=2 path: c-0-c . b-2-c . a-0-b . a-2-a"]


def test_a_doubled_link_opens_chains_pivoted_at_valid_darts():
    # a-2-b-0-c-2-d-0-a closes; a second 2-link at c, a loop, is the last
    # link of two open chains, pivoted at a and at d: both darts have one
    # link per dimension, and the chains' first two links meet only there
    g = Gmap.build(
        2,
        "abcd",
        [(0, ("a", "d")), (0, ("b", "c")), (2, ("a", "b")), (2, ("c", "d"))]
        + [(1, (d,)) for d in "abcd"]
        + [(2, ("c",))],
    )
    assert g.validate().lines() == [
        "E_CYCLE i=0 j=2 path: a-0-d . a-2-b . b-0-c . c-2-c",
        "E_CYCLE i=0 j=2 path: a-0-d . c-2-d . b-0-c . c-2-c",
        "E_INCIDENCE dart=c dim=2 found=2",
    ]


def test_a_dart_with_a_link_per_dimension_but_one_repeated_is_an_incidence_violation(square_gmap):
    # x keeps its 0-link and 2-link, and its 1-link to y becomes a 0-loop at
    # x and a 1-loop at y: x has n+1 links with dims (0, 0, 2), so only a
    # missing α_1 entry tells it from a valid dart; every other dart is valid
    x, y = next(l.ends for l in square_gmap.graph.links if l.dim == 1 and len(l.ends) == 2)
    links = [(l.dim, l.ends) for l in square_gmap.graph.links if (l.dim, l.ends) != (1, (x, y))]
    g = Gmap(LabeledGraph.build(2, square_gmap.darts, links + [(0, (x,)), (1, (y,))]), square_gmap.embeddings.values())
    assert [l.dim for l in g.graph.incident_links(x)] == [0, 0, 2]
    lines = g.validate().lines()
    assert f"E_INCIDENCE dart={x} dim=1 found=0" in lines
    assert lines == oracle_validate(g).lines()


# -- alpha ---------------------------------------------------------------------


def test_alpha_free_edge():
    g = free_edge_gmap()
    assert g.alpha("a", 0) == "b"
    assert g.alpha("a", 2) == "a"


def test_alpha_sewn_edge():
    g = sewn_edge_gmap()
    assert g.alpha("b", 2) == "d"
    assert g.alpha("d", 0) == "c"


def test_alpha_is_involution_on_square(square_gmap):
    for d in square_gmap.darts:
        for i in range(3):
            assert square_gmap.alpha(square_gmap.alpha(d, i), i) == d


def test_alpha_missing_link_raises():
    g = Gmap.build(2, ["a", "b"], [(0, {"a", "b"})])
    with pytest.raises(ConstraintViolationError):
        g.alpha("a", 1)


def test_alpha_doubled_link_raises(broken_three_faces_gmap):
    with pytest.raises(ConstraintViolationError):
        broken_three_faces_gmap.alpha("a1", 2)


# -- orbits ---------------------------------------------------------------------


def test_face_orbit_covers_square(square_gmap):
    for d in square_gmap.darts:
        orbit = square_gmap.orbit(OrbitType((0, 1)), d)
        assert len(orbit.nodes) == 8


def test_empty_orbit_type_is_single_dart(square_gmap):
    d = square_gmap.darts[0]
    orbit = square_gmap.orbit(OrbitType(()), d)
    assert orbit.nodes == (d,)
    assert orbit.links == ()


def test_vertex_orbit_at_three_edge_fan():
    from gmapkit.textio import import_off

    fan = unify(import_off(fixture_text("fan3.off")))
    assert fan.validate().ok
    # central vertex 0 is shared by three edges; its orbit has 6 darts
    center = next(d for d in fan.darts if d.startswith("v0"))
    orbit = fan.orbit(OrbitType((1, 2)), center)
    assert len(orbit.nodes) == 6
    assert all(d.startswith("v0") for d in orbit.nodes)


def test_orbit_unknown_dart(square_gmap):
    with pytest.raises(UnknownNodeError):
        square_gmap.orbit(OrbitType((0, 1)), "nope")


def test_orbit_starts_at_seed_and_is_deterministic(square_gmap):
    d = sorted(square_gmap.darts)[3]
    o1 = square_gmap.orbit(OrbitType((0, 1)), d)
    o2 = square_gmap.orbit(OrbitType((0, 1)), d)
    assert o1.nodes[0] == d
    assert o1.nodes == o2.nodes


def test_orbit_symmetry(square_gmap):
    o = OrbitType((1, 2))
    for d in square_gmap.darts:
        members = square_gmap.orbit_darts(o, d)
        for e in members:
            assert d in square_gmap.orbit_darts(o, e)


def _orbit_hosts():
    """Random valid maps of dimension 0..3 and the broken fixtures, which
    hold loops and darts with a repeated dim."""
    hosts = [pytest.param(random_valid_gmap(seed, n=seed % 4), id=f"random{seed}") for seed in range(24)]
    for name in ("broken_cycle", "broken_incidence", "broken_three_faces", "free_edge", "segment_1d"):
        hosts.append(pytest.param(parse_gmap(fixture_text(f"{name}.gmap")), id=name))
    # parallel links whose ids sort apart as strings (L9, L10)
    parallel = [(0, ("a", "b"))] * 11 + [(1, ("c",))] * 2 + [(1, ("a", "c"))]
    hosts.append(pytest.param(Gmap.build(1, "abc", parallel), id="parallel"))
    return hosts


def _dim_ends(links):
    return [(l.dim, l.ends) for l in links]


@pytest.mark.parametrize("host", _orbit_hosts())
def test_orbit_graph_agrees_with_the_rebuilt_reference(host):
    dims = range(host.n + 1)
    types = [OrbitType(tuple(d for d in dims if mask >> d & 1)) for mask in range(1 << (host.n + 1))]
    for o in types:
        for dart in host.darts:
            orbit, reference = host.orbit(o, dart), reference_orbit_graph(host, o, dart)
            assert orbit.nodes == reference.nodes
            assert _dim_ends(orbit.links) == _dim_ends(reference.links)
            for u in orbit.nodes:
                assert _dim_ends(orbit.incident_links(u)) == _dim_ends(reference.incident_links(u))
            assert orbit == reference
            # the host's own links, under their host ids
            assert all(host.graph._links[l.id] is l for l in orbit.links)


def _host_state(g):
    graph = g.graph
    return graph.links, {u: graph.incident_links(u) for u in graph.nodes}, graph._next_link, serialize_gmap(g)


@pytest.mark.parametrize("dims", [(0, 1, 2), (0, 1), (2,)])
def test_editing_an_orbit_graph_leaves_its_host_alone(dims, vi_rule):
    square = parse_gmap(fixture_text("square.gmap"))
    inst = instantiate_rule(vi_rule, square, "v0e0-1f0")
    rewritten = apply_rule(inst, square, None, [parse_directive("pos:n1=midpoint(n0)")])
    for host in (square, rewritten):
        before = _host_state(host)
        dart = sorted(host.darts)[0]
        orbit = host.orbit(OrbitType(dims), dart)
        shared = orbit.links
        orbit._edit(drop=[shared[0].id], nodes=["new"], links=[(dims[0], ("new", dart))])
        (new,) = set(orbit.links) - set(shared)
        assert new.id not in {l.id for l in host.graph.links}
        assert "new" in orbit and shared[0] not in orbit.links
        after = _host_state(host)
        assert after == before
        assert all(after[1][u] is at for u, at in before[1].items())


# -- cells ------------------------------------------------------------------------


def test_square_cells(square_gmap):
    assert [len(square_gmap.cells(i)) for i in range(3)] == [4, 4, 1]


def test_cells_partition_darts(square_gmap):
    for i in range(3):
        cells = square_gmap.cells(i)
        flat = [d for cell in cells for d in cell]
        assert sorted(flat) == sorted(square_gmap.darts)
        assert len(flat) == len(set(flat))


def test_segment_cells_as_1_gmap():
    g = parse_gmap(fixture_text("segment_1d.gmap"))
    assert g.validate().ok
    assert [len(g.cells(i)) for i in range(2)] == [2, 1]


def test_cells_dimension_out_of_range(square_gmap):
    with pytest.raises(DimensionError):
        square_gmap.cells(3)


def test_zero_dimensional_map():
    g = Gmap.build(0, ["a", "b"], [(0, {"a", "b"})])
    assert g.validate().ok
    assert g.alpha("a", 0) == "b"
    # 0-cells are <>-orbits: every dart is its own vertex
    assert g.cells(0) == [("a",), ("b",)]


# -- embeddings ----------------------------------------------------------------


def test_square_positions_satisfy_embedding_condition(square_gmap):
    assert square_gmap.validate().ok


def test_perturbed_position_is_reported(square_gmap):
    g = square_gmap.copy()
    layer = g.embeddings["pos"]
    victim = sorted(g.darts)[0]
    x, y, z = layer.values[victim]
    layer.values[victim] = (x + 0.5, y, z)
    report = g.validate()
    assert len(report.violations) == 1
    (violation,) = report.violations
    assert isinstance(violation, EmbeddingViolation)
    assert victim in violation.orbit
    # the violation names exactly the vertex orbit of the perturbed dart
    assert set(violation.orbit) == set(g.orbit_darts(OrbitType((1, 2)), victim))


def test_face_color_layer_is_consistent():
    g = parse_gmap(fixture_text("square_colored.gmap"))
    assert g.validate().ok


def test_layer_must_be_total():
    from gmapkit import EmbeddingError

    graph = free_edge_graph()
    with pytest.raises(EmbeddingError):
        Gmap(graph, [EmbeddingLayer("pos", OrbitType((1, 2)), "point3d", {"a": (0, 0, 0)})])


@pytest.mark.parametrize(
    "bad", [float("inf"), float("-inf"), float("nan"), pytest.param(10**400, id="too-large-int")]
)
def test_non_finite_components_rejected(bad):
    from gmapkit import EmbeddingError

    with pytest.raises(EmbeddingError, match="must be finite"):
        EmbeddingLayer("pos", OrbitType((1, 2)), "point3d", {"a": (0.0, bad, 0.0)})


def test_tolerant_point_comparison(square_gmap):
    g = square_gmap.copy()
    layer = g.embeddings["pos"]
    victim = sorted(g.darts)[0]
    x, y, z = layer.values[victim]
    layer.values[victim] = (x + 1e-12, y, z)  # below tolerance
    assert g.validate().ok


def _known_valid_host() -> Gmap:
    """A stand-in host marked known-valid, so a result is checked locally."""
    host = Gmap(LabeledGraph(0))
    host._known_valid = True
    return host


def test_drift_across_a_new_link_is_reported_by_the_local_check():
    # a valid host's orbit w(-1e-9) -0- a(0) -1- y(1e-9) -0- z(1e-9), joined
    # by z -1- C(1e-9): each link at z and C joins equal values, yet C and w
    # are 2e-9 apart
    values = {"w": -1e-9, "a": 0.0, "y": 1e-9, "z": 1e-9, "C": 1e-9}
    g = Gmap.build(
        1,
        values,
        [(0, {"w", "a"}), (1, {"a", "y"}), (0, {"y", "z"}), (1, {"z", "C"}), (0, {"C"}), (1, {"w"})],
        [EmbeddingLayer("h", OrbitType((0, 1)), "scalar", values)],
    )
    want = ["E_EMBED layer=h orbit={C,a,w,y,z} darts=w"]
    assert g._validate_rewritten({"z", "C"}, _known_valid_host()).lines() == want
    assert g.validate().lines() == want


def test_an_orbit_longer_than_the_checked_region_is_walked_whole():
    # a wheel of 8 triangles round vertex 0: its 16 hub darts are one <1,2>
    # orbit, and the hub dart half-way round it is outside the region whose
    # α entries the local check of the first hub dart fills
    hub_and_rim = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0), (-1, 0, 0), (-1, -1, 0), (0, -1, 0), (1, -1, 0)]
    g = unify(PolygonalMesh(hub_and_rim, [(0, i, i % 8 + 1) for i in range(1, 9)]))
    first = min(d for d in g.darts if d.startswith("v0e"))
    hub = g.orbit_darts(OrbitType((1, 2)), first)
    far = hub[-1]
    assert len(hub) == 16 and far not in g._ball(g._ball({first}, 2), 2)
    g.embeddings["pos"].values[far] = (0.5, 0.5, 0.0)
    want = [f"E_EMBED layer=pos orbit={{{','.join(sorted(hub))}}} darts={far}"]
    assert g._validate_rewritten({first}, _known_valid_host()).lines() == want
    assert g.validate().lines() == want


# -- layer values: the bulk check agrees with per-value normalization ---------


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


_INF, _NAN = float("inf"), float("nan")
_ODD_VALUES = {
    "scalar": [0.5, -0.0, 1, True, _Float(0.5), _INF, -_INF, _NAN, 10**400, "1", (0.5,), None],
    "point2d": [
        (0.5, 1.0), (0, 1.5), (True, 1.0), (_Float(0.5), 1.0), (_INF, 0.0), (_NAN, 0.0),
        (10**400, 0.0), (0.5,), (0.5, 1.0, 2.0), [0.5, 1.0], "ab", None,
    ],
    "point3d": [
        (0.5, 1.0, 2.0), (0, 1.5, 2), (0.0, False, 0.0), (0.0, 0.0, _Float(2.0)),
        (0.0, -_INF, 0.0), (_NAN, 0.0, 0.0), (0.0, 0.0, 10**400), (0.5, 1.0), [0.0, 1.0, 2.0],
        (0.0, "1", 2.0), 1.0,
    ],
    "color_rgb": [
        (1, 2, 3), (1.0, 2, 3), (True, 0, 0), (_Int(1), 2, 3), (10**400, 0, 0), (-1, 0, 0),
        (1, 2), [1, 2, 3], (1, 2, _INF),
    ],
    "string": ["x", "", _Str("x"), 1, None, b"x", ("x",)],
}
_LAYER_INPUTS = [
    pytest.param(kind, values, id=f"{kind}-{i}")
    for kind, odd in _ODD_VALUES.items()
    for i, values in enumerate(
        [{}, {"a": odd[0], "b": odd[0]}, {"a": odd[-1], "b": odd[-2]}]
        + [{"a": odd[0], "b": v} for v in odd[1:]]
    )
]


def _typed(build, kind, values):
    """What ``build`` makes of ``values``: each value with its exact type
    and those of its components, or the error's class and message."""
    try:
        out = build(kind, values)
    except Exception as exc:
        return type(exc), str(exc)
    return {d: (v, type(v), [type(c) for c in v] if type(v) is tuple else None) for d, v in out.items()}


@pytest.mark.parametrize("kind,values", _LAYER_INPUTS)
def test_layer_values_are_normalized_as_one_by_one(kind, values):
    from gmapkit.gmap import normalize_value

    got = _typed(lambda k, vs: EmbeddingLayer("L", OrbitType(()), k, vs).values, kind, values)
    want = _typed(lambda k, vs: {d: normalize_value(k, v) for d, v in vs.items()}, kind, values)
    assert got == want


@pytest.mark.parametrize("given,kept", [(0.5, 0.5), (1, 1.0)], ids=["canonical", "converted"])
def test_layer_owns_its_values(given, kept):
    values = {"a": given}
    layer = EmbeddingLayer("L", OrbitType(()), "scalar", values)
    values["a"] = 2.5
    values["b"] = 3.5
    assert layer.values == {"a": kept}
