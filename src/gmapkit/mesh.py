"""Polygonal meshes and their dimensional unification into 2-Gmaps.

A dart of the resulting map is a mutually incident (vertex, edge, face)
triple; links join triples differing in exactly one component.  Edges
used by a single face get 2-loops: only the maximal dimension may be
open.  Dart names follow the reproducible scheme ``v{i}e{j}-{k}f{m}``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedFaceError, NonManifoldEdgeError
from .gmap import EmbeddingLayer, Gmap
from .graph import LabeledGraph, _collector_paused
from .orbits import OrbitType

Point3 = tuple[float, float, float]


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class PolygonalMesh:
    """Indexed face set: 3d vertices plus vertex-index cycles (length >= 3).

    Construction enforces the structural invariants: indices in range,
    no repeated consecutive vertices (cyclically), no edge repeated
    within one face, and every undirected edge on at most two faces.
    """

    vertices: tuple[Point3, ...]
    faces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        vertices = tuple(tuple(float(c) for c in v) for v in self.vertices)
        faces = tuple(tuple(int(i) for i in f) for f in self.faces)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        for v in vertices:
            if len(v) != 3:
                raise MalformedFaceError(f"vertex must have 3 coordinates, got {v!r}")
        edge_uses: dict[tuple[int, int], int] = {}
        for m, face in enumerate(faces):
            if len(face) < 3:
                raise MalformedFaceError(f"face {m} has {len(face)} vertices, need >= 3")
            for idx in face:
                if not 0 <= idx < len(vertices):
                    raise MalformedFaceError(f"face {m} references vertex {idx} out of range")
            seen_edges = set()
            for p, a in enumerate(face):
                b = face[(p + 1) % len(face)]
                if a == b:
                    raise MalformedFaceError(f"face {m} repeats vertex {a} consecutively")
                key = _edge_key(a, b)
                if key in seen_edges:
                    raise MalformedFaceError(f"face {m} uses edge {key} twice")
                seen_edges.add(key)
                edge_uses[key] = edge_uses.get(key, 0) + 1
        for key, count in edge_uses.items():
            if count > 2:
                raise NonManifoldEdgeError(f"edge {key} is used by {count} faces")


def dart_name(vertex: int, edge: tuple[int, int], face: int) -> str:
    a, b = _edge_key(*edge)
    return f"v{vertex}e{a}-{b}f{face}"


@_collector_paused
def unify(mesh: PolygonalMesh) -> Gmap:
    """Rebuild the 2-Gmap of ``mesh`` by enumerating incident triples.

    Every boundary position of every face yields two darts, one per
    edge endpoint.  0-links join the two darts of one (edge, face)
    occurrence, 1-links join the two darts at one face corner, 2-links
    join darts of the same (vertex, edge) across the two faces sharing
    the edge, degenerating to loops on boundary edges.  Vertex
    positions are copied into a ``pos`` layer on the vertex orbit type.
    """
    darts: list[str] = []
    links: list[tuple[int, tuple[str, ...]]] = []
    pos_values: dict[str, Point3] = {}
    # (edge, endpoint vertex) -> dart names across faces, for 2-links
    edge_sides: dict[tuple[tuple[int, int], int], list[str]] = {}

    for m, face in enumerate(mesh.faces):
        pairs = []  # per edge of the face: its darts at its two endpoints
        for a, b in zip(face, face[1:] + face[:1]):
            e = _edge_key(a, b)
            pair = dart_name(a, e, m), dart_name(b, e, m)
            pairs.append(pair)
            for v, name in zip((a, b), pair):
                darts.append(name)
                pos_values[name] = mesh.vertices[v]
                edge_sides.setdefault((e, v), []).append(name)
        links.extend((0, pair) for pair in pairs)
        # corner p joins edge p-1's dart at its end and edge p's at its start
        links.extend((1, (pairs[p - 1][1], pairs[p][0])) for p in range(len(pairs)))

    for _, names in sorted(edge_sides.items()):
        links.append((2, tuple(names)))  # one name: a 2-loop on a boundary edge

    pos = EmbeddingLayer("pos", OrbitType((1, 2)), "point3d", pos_values)
    return Gmap(LabeledGraph.build(2, darts, links), (pos,))
