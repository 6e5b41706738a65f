"""Shared fixtures: reference shapes, rule texts, and fixture paths."""

import gc
from pathlib import Path

import pytest

from gmapkit import (
    Gmap,
    GraphScheme,
    LabeledGraph,
    instantiate_scheme,
    parse_gmap,
    parse_rule_scheme,
)
from gmapkit.mesh import PolygonalMesh, unify

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(params=[True, False], ids=["collecting", "paused"])
def collecting(request):
    """The collector's setting before the call; the test's own is restored."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def free_edge_graph() -> LabeledGraph:
    """Two darts joined by a 0-link, 2-loops on both: a boundary edge."""
    return LabeledGraph.build(2, ["a", "b"], [(0, {"a", "b"}), (2, {"a"}), (2, {"b"})])


def sewn_edge_graph() -> LabeledGraph:
    """Four darts: two 0-linked pairs glued by 2-links: an inner edge."""
    return LabeledGraph.build(
        2,
        ["a", "b", "c", "d"],
        [(0, {"a", "b"}), (0, {"c", "d"}), (2, {"a", "c"}), (2, {"b", "d"})],
    )


def instantiate_node(name, decoration, orbit_graph, parameter):
    """One relabeled copy of the orbit graph: a one-node scheme with no arcs."""
    return instantiate_scheme(GraphScheme(parameter, ((name, decoration),)), orbit_graph)


def vertex_insert_lhs_free() -> LabeledGraph:
    return LabeledGraph.build(2, ["x", "y"], [(0, {"x", "y"}), (2, {"x"}), (2, {"y"})])


def vertex_insert_rhs_free() -> LabeledGraph:
    return LabeledGraph.build(
        2,
        ["x", "u", "v", "y"],
        [(0, {"x", "u"}), (1, {"u", "v"}), (0, {"v", "y"})]
        + [(2, {d}) for d in ("x", "u", "v", "y")],
    )


def vertex_insert_lhs_sewn() -> LabeledGraph:
    return LabeledGraph.build(
        2,
        ["x", "y", "X", "Y"],
        [(0, {"x", "y"}), (0, {"X", "Y"}), (2, {"x", "X"}), (2, {"y", "Y"})],
    )


def vertex_insert_rhs_sewn() -> LabeledGraph:
    return LabeledGraph.build(
        2,
        ["x", "u", "v", "y", "X", "U", "V", "Y"],
        [
            (0, {"x", "u"}),
            (1, {"u", "v"}),
            (0, {"v", "y"}),
            (0, {"X", "U"}),
            (1, {"U", "V"}),
            (0, {"V", "Y"}),
            (2, {"x", "X"}),
            (2, {"u", "U"}),
            (2, {"v", "V"}),
            (2, {"y", "Y"}),
        ],
    )


def square_mesh() -> PolygonalMesh:
    return PolygonalMesh(
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
        ((0, 1, 2, 3),),
    )


def triangle_mesh() -> PolygonalMesh:
    return PolygonalMesh(
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ((0, 1, 2),),
    )


def two_triangles_mesh() -> PolygonalMesh:
    return PolygonalMesh(
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
        ((0, 1, 2), (0, 2, 3)),
    )


# rules whose right side has a dim above square.gmap's, each with the dim
# its error at v0e0-1f0 names: the first such dim in link order
RIGHT_DIM_RULES = {
    "decoration": (
        "rule V <0> { left { n0: <0> hook  n1: <0>  n0 -2- n1 }"
        " right { n0: <0>  n1: <3>  n0 -2- n1 } }",
        3,
    ),
    "first_in_link_order": (
        "rule Dual <0,1,2> { left { n0: <0,1,2> hook } right { n0: <4,1,3> } }",
        4,
    ),
    "arc": (
        "rule A <0> { left { n0: <0> hook  n1: <0>  n0 -2- n1 }"
        " right { n0: <0>  n1: <0>  n0 -4- n1 } }",
        4,
    ),
}


@pytest.fixture
def square_gmap() -> Gmap:
    return unify(square_mesh())


@pytest.fixture
def two_triangles_gmap() -> Gmap:
    return unify(two_triangles_mesh())


@pytest.fixture
def vi_rule():
    return parse_rule_scheme(fixture_text("vertex_insert_02.jrule"))


@pytest.fixture
def vi2_rule():
    return parse_rule_scheme(fixture_text("vertex_insert_2.jrule"))


@pytest.fixture
def identity_rule():
    return parse_rule_scheme(fixture_text("identity_edge.jrule"))


@pytest.fixture
def broken_rule():
    return parse_rule_scheme(fixture_text("broken_double_zero.jrule"))


@pytest.fixture
def broken_incidence_gmap() -> Gmap:
    return parse_gmap(fixture_text("broken_incidence.gmap"))


@pytest.fixture
def broken_three_faces_gmap() -> Gmap:
    return parse_gmap(fixture_text("broken_three_faces.gmap"))


@pytest.fixture
def broken_cycle_gmap() -> Gmap:
    return parse_gmap(fixture_text("broken_cycle.gmap"))
