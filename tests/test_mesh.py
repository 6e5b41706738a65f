"""Mesh invariants and dimensional unification."""

import pytest

from gmapkit import LabeledGraph, MalformedFaceError, NonManifoldEdgeError, import_off
from gmapkit.mesh import PolygonalMesh, dart_name, unify

from conftest import FIXTURES, fixture_text, square_mesh, triangle_mesh, two_triangles_mesh
from test_graph import grid_mesh


def test_triangle_unification_counts():
    g = unify(triangle_mesh())
    assert len(g.darts) == 6
    by_dim = {}
    for link in g.graph.links:
        by_dim.setdefault(link.dim, []).append(link)
    assert len(by_dim[0]) == 3
    assert len(by_dim[1]) == 3
    assert len(by_dim[2]) == 6
    assert all(len(l.ends) == 1 for l in by_dim[2])
    assert [len(g.cells(i)) for i in range(3)] == [3, 3, 1]


def test_two_triangles_share_one_edge():
    g = unify(two_triangles_mesh())
    assert len(g.darts) == 12
    non_loop_2 = [l for l in g.graph.links if l.dim == 2 and len(l.ends) != 1]
    assert len(non_loop_2) == 2
    # the two 2-links pair the shared-edge darts across the faces
    for link in non_loop_2:
        ends = link.ends
        assert {e.split("e")[1].split("f")[0] for e in ends} == {"0-2"}
    assert g.validate().ok


def test_square_unification_is_valid():
    g = unify(square_mesh())
    assert len(g.darts) == 8
    assert g.validate().ok
    assert [len(g.cells(i)) for i in range(3)] == [4, 4, 1]


def test_dart_count_law():
    for mesh in (square_mesh(), triangle_mesh(), two_triangles_mesh()):
        g = unify(mesh)
        assert len(g.darts) == sum(2 * len(f) for f in mesh.faces)


def test_euler_characteristic_preserved():
    for mesh in (square_mesh(), triangle_mesh(), two_triangles_mesh()):
        g = unify(mesh)
        v, e, f = (len(g.cells(i)) for i in range(3))
        edges = {frozenset((a, face[p - 1])) for face in mesh.faces for p, a in enumerate(face)}
        assert v - e + f == len(mesh.vertices) - len(edges) + len(mesh.faces)


def test_positions_copied_per_vertex():
    mesh = square_mesh()
    g = unify(mesh)
    layer = g.embeddings["pos"]
    for dart, value in layer.values.items():
        vertex = int(dart[1 : dart.index("e")])
        assert value == mesh.vertices[vertex]
    assert g.validate().ok


def test_face_indices_out_of_range():
    with pytest.raises(MalformedFaceError):
        PolygonalMesh(((0.0, 0.0, 0.0),), ((0, 1, 2),))


def test_face_too_short():
    with pytest.raises(MalformedFaceError):
        PolygonalMesh(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), ((0, 1),))


def test_face_repeating_consecutive_vertex():
    verts = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(MalformedFaceError):
        PolygonalMesh(verts, ((0, 0, 1),))
    with pytest.raises(MalformedFaceError):
        PolygonalMesh(verts, ((0, 1, 2, 0),))  # cyclically adjacent duplicate


def test_face_reusing_an_edge():
    verts = tuple((float(i), 0.0, 0.0) for i in range(4))
    with pytest.raises(MalformedFaceError):
        PolygonalMesh(verts, ((0, 1, 2, 1, 3),))


def test_non_manifold_edge_rejected():
    verts = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0))
    faces = ((0, 1, 2), (0, 1, 3), (0, 1, 4))
    with pytest.raises(NonManifoldEdgeError):
        PolygonalMesh(verts, faces)


def reference_unify_graph(mesh: PolygonalMesh) -> LabeledGraph:
    """The graph of ``unify(mesh)`` with every name made by a call per use:
    each dart named where it is listed, and again for each link."""
    darts, links, edge_sides = [], [], {}
    for m, face in enumerate(mesh.faces):
        k = len(face)
        face_edges = [tuple(sorted((face[p], face[(p + 1) % k]))) for p in range(k)]
        for p in range(k):
            e = face_edges[p]
            for v in (face[p], face[(p + 1) % k]):
                darts.append(dart_name(v, e, m))
                edge_sides.setdefault((e, v), []).append(dart_name(v, e, m))
        for p in range(k):
            e = face_edges[p]
            links.append((0, (dart_name(face[p], e, m), dart_name(face[(p + 1) % k], e, m))))
        for p in range(k):
            v = face[p]
            links.append((1, (dart_name(v, face_edges[(p - 1) % k], m), dart_name(v, face_edges[p], m))))
    for _, names in sorted(edge_sides.items()):
        links.append((2, tuple(names)))
    return LabeledGraph.build(2, darts, links)


@pytest.mark.parametrize(
    "mesh",
    [*(import_off(fixture_text(p.name)) for p in sorted(FIXTURES.glob("*.off"))), grid_mesh(20)],
    ids=[*(p.stem for p in sorted(FIXTURES.glob("*.off"))), "grid20"],
)
def test_unify_names_and_links_as_the_per_use_reference(mesh):
    graph, reference = unify(mesh).graph, reference_unify_graph(mesh)
    assert graph.nodes == reference.nodes
    assert [(l.dim, l.ends, l.id) for l in graph.links] == [
        (l.dim, l.ends, l.id) for l in reference.links
    ]
