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
)
from gmapkit.mesh import unify

from conftest import fixture_text, free_edge_graph, sewn_edge_graph
from gmapkit import parse_gmap


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
    assert g._validate_rewritten({"z", "C"}).lines() == want
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
