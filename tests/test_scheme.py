"""Instantiation: node/arc unfolding, golden shapes, counting laws."""

import random

import pytest

from gmapkit import (
    REMOVE,
    GeneralizedOrbitType,
    GraphScheme,
    LabeledGraph,
    OrbitType,
    RuleScheme,
    SchemeArc,
    SchemeError,
    UnknownNodeError,
    instance_name,
    instantiate_rule,
    instantiate_scheme,
)

from conftest import (
    free_edge_graph,
    instantiate_node,
    sewn_edge_graph,
    vertex_insert_lhs_free,
    vertex_insert_lhs_sewn,
    vertex_insert_rhs_free,
    vertex_insert_rhs_sewn,
)
from iso import iso_check
from oracle import random_valid_gmap

PARAM_02 = OrbitType((0, 2))


def links_of(g: LabeledGraph):
    return sorted((l.dim, l.ends) for l in g.links)


# -- node instantiation ---------------------------------------------------------


def test_instantiate_node_relabels_copy():
    out = instantiate_node("n1", GeneralizedOrbitType((1, 2)), free_edge_graph(), PARAM_02)
    assert sorted(out.nodes) == ["a@n1", "b@n1"]
    assert links_of(out) == [
        (1, ("a@n1", "b@n1")),
        (2, ("a@n1",)),
        (2, ("b@n1",)),
    ]


def test_instantiate_node_removes_labels():
    out = instantiate_node("n0", GeneralizedOrbitType((REMOVE, 2)), free_edge_graph(), PARAM_02)
    assert sorted(out.nodes) == ["a@n0", "b@n0"]
    assert links_of(out) == [(2, ("a@n0",)), (2, ("b@n0",))]


def test_instantiate_node_identity_is_isomorphic_copy():
    out = instantiate_node("n", GeneralizedOrbitType((0, 2)), sewn_edge_graph(), PARAM_02)
    phi = iso_check(out, sewn_edge_graph())
    assert phi == {f"{u}@n": u for u in "abcd"}


# -- scheme instantiation ----------------------------------------------------------


def vertex_insert_rhs_scheme() -> GraphScheme:
    return GraphScheme(
        PARAM_02,
        (
            ("n0", GeneralizedOrbitType((REMOVE, 2))),
            ("n1", GeneralizedOrbitType((1, 2))),
        ),
        (SchemeArc("n0", 0, "n1"),),
    )


def test_scheme_instantiation_free_edge_golden():
    out = instantiate_scheme(vertex_insert_rhs_scheme(), free_edge_graph())
    assert len(out.nodes) == 4
    assert links_of(out) == [
        (0, ("a@n0", "a@n1")),
        (0, ("b@n0", "b@n1")),
        (1, ("a@n1", "b@n1")),
        (2, ("a@n0",)),
        (2, ("a@n1",)),
        (2, ("b@n0",)),
        (2, ("b@n1",)),
    ]
    assert iso_check(out, vertex_insert_rhs_free()) is not None


def test_scheme_instantiation_sewn_edge_golden():
    out = instantiate_scheme(vertex_insert_rhs_scheme(), sewn_edge_graph())
    assert len(out.nodes) == 8
    zero_links = [ends for dim, ends in links_of(out) if dim == 0]
    assert zero_links == [
        ("a@n0", "a@n1"),
        ("b@n0", "b@n1"),
        ("c@n0", "c@n1"),
        ("d@n0", "d@n1"),
    ]
    assert iso_check(out, vertex_insert_rhs_sewn()) is not None


def test_single_node_identity_scheme_reproduces_orbit():
    scheme = GraphScheme(PARAM_02, (("n", GeneralizedOrbitType((0, 2))),))
    for orbit_graph in (free_edge_graph(), sewn_edge_graph()):
        out = instantiate_scheme(scheme, orbit_graph)
        assert iso_check(out, orbit_graph) == {f"{u}@n": u for u in orbit_graph.nodes}


def test_scheme_rejects_disconnected_orbit():
    scheme = GraphScheme(PARAM_02, (("n", GeneralizedOrbitType((0, 2))),))
    two_pieces = LabeledGraph.build(2, ["a", "b"], [(2, {"a"}), (2, {"b"})])
    with pytest.raises(SchemeError):
        instantiate_scheme(scheme, two_pieces)


def test_scheme_rejects_orbit_with_foreign_dims():
    scheme = GraphScheme(OrbitType((2,)), (("n", GeneralizedOrbitType((2,))),))
    with pytest.raises(SchemeError):
        instantiate_scheme(scheme, free_edge_graph())  # 0-link outside <2>


def test_scheme_validation_errors():
    with pytest.raises(SchemeError):  # decoration length mismatch
        GraphScheme(PARAM_02, (("n", GeneralizedOrbitType((2,))),))
    with pytest.raises(SchemeError):  # self-arc
        GraphScheme(
            PARAM_02,
            (("n", GeneralizedOrbitType((0, 2))),),
            (SchemeArc("n", 0, "n"),),
        )
    with pytest.raises(SchemeError):  # duplicate node
        GraphScheme(
            PARAM_02,
            (("n", GeneralizedOrbitType((0, 2))), ("n", GeneralizedOrbitType((1, 2)))),
        )
    with pytest.raises(SchemeError):  # hook with the removing symbol
        left = GraphScheme(PARAM_02, (("n", GeneralizedOrbitType((REMOVE, 2))),))
        RuleScheme("R", PARAM_02, left, left, "n")


# -- rule instantiation ---------------------------------------------------------------


def test_rule_unfolds_to_free_edge_rule(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    assert iso_check(inst.left, vertex_insert_lhs_free()) is not None
    assert iso_check(inst.right, vertex_insert_rhs_free()) is not None
    hooks = {instance_name(d, inst.rule.hook) for d in inst.orbit_graph.nodes}
    assert hooks == {"v0e0-1f0@n0", "v1e0-1f0@n0"} <= set(inst.left.nodes)
    assert inst.preserved == {"v0e0-1f0@n0", "v1e0-1f0@n0"}


def test_rule_unfolds_to_sewn_edge_rule(vi_rule, two_triangles_gmap):
    inst = instantiate_rule(vi_rule, two_triangles_gmap, "v0e0-2f0")
    assert iso_check(inst.left, vertex_insert_lhs_sewn()) is not None
    assert iso_check(inst.right, vertex_insert_rhs_sewn()) is not None


def test_two_fold_scheme_unfolds_to_same_rules(vi2_rule, square_gmap, two_triangles_gmap):
    # parameter <2>: folding only the 2-links still yields the free-edge rule
    inst = instantiate_rule(vi2_rule, square_gmap, "v0e0-1f0")
    assert iso_check(inst.left, vertex_insert_lhs_free()) is not None
    assert iso_check(inst.right, vertex_insert_rhs_free()) is not None
    inst2 = instantiate_rule(vi2_rule, two_triangles_gmap, "v0e0-2f0")
    assert iso_check(inst2.left, vertex_insert_lhs_sewn()) is not None
    assert iso_check(inst2.right, vertex_insert_rhs_sewn()) is not None


def test_instantiate_rule_unknown_dart(vi_rule, square_gmap):
    with pytest.raises(UnknownNodeError):
        instantiate_rule(vi_rule, square_gmap, "zz")


# -- counting laws ------------------------------------------------------------------


def random_scheme(rng: random.Random, n: int) -> GraphScheme:
    size = rng.randint(1, min(3, n + 1))
    param = OrbitType(tuple(sorted(rng.sample(range(n + 1), size))))
    names = [f"m{k}" for k in range(rng.randint(1, 4))]
    nodes = []
    for name in names:
        pool = list(range(n + 1))
        rng.shuffle(pool)
        entries = tuple(REMOVE if rng.random() < 0.25 else pool.pop() for _ in range(size))
        nodes.append((name, GeneralizedOrbitType(entries)))
    arcs = []
    if len(names) >= 2:
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(names, 2)
            arcs.append(SchemeArc(a, rng.randrange(n + 1), b))
    return GraphScheme(param, tuple(nodes), tuple(arcs))


def expected_link_count(scheme: GraphScheme, orbit_graph: LabeledGraph) -> int:
    total = len(scheme.arcs) * len(orbit_graph.nodes)
    positions = {dim: k for k, dim in enumerate(scheme.parameter)}
    for _, decoration in scheme.nodes:
        for link in orbit_graph.links:
            if isinstance(decoration.entries[positions[link.dim]], int):
                total += 1
    return total


@pytest.mark.parametrize("seed", range(20))
def test_count_laws_on_random_pairs(seed):
    rng = random.Random(seed)
    for case in range(5):
        n = rng.choice([2, 3])
        scheme = random_scheme(rng, n)
        host = random_valid_gmap(seed * 31 + case, n=n, max_darts=16)
        dart = rng.choice(sorted(host.darts))
        orbit_graph = host.orbit(scheme.parameter, dart)
        out = instantiate_scheme(scheme, orbit_graph)
        assert len(out.nodes) == len(scheme.nodes) * len(orbit_graph.nodes)
        assert len(out.links) == expected_link_count(scheme, orbit_graph)


@pytest.mark.parametrize("seed", range(10))
def test_identity_law_on_random_orbits(seed):
    rng = random.Random(seed + 1000)
    n = rng.choice([1, 2, 3])
    host = random_valid_gmap(seed, n=n, max_darts=16)
    size = rng.randint(1, n + 1)
    param = OrbitType(tuple(sorted(rng.sample(range(n + 1), size))))
    dart = rng.choice(sorted(host.darts))
    orbit_graph = host.orbit(param, dart)
    scheme = GraphScheme(param, (("n", GeneralizedOrbitType(param.dims)),))
    out = instantiate_scheme(scheme, orbit_graph)
    assert iso_check(out, orbit_graph) == {f"{u}@n": u for u in orbit_graph.nodes}
