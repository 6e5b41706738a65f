"""Graph substrate: construction ops, incidence queries, isomorphism."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gmapkit import (
    ArityError,
    DimensionError,
    DuplicateNodeError,
    GmapError,
    LabeledGraph,
    UnknownNodeError,
)
from gmapkit.mesh import PolygonalMesh, unify

from conftest import free_edge_graph, sewn_edge_graph
from iso import iso_check
from oracle import oracle_reach


def test_add_node_to_empty_graph():
    g = LabeledGraph.build(2, ["a"])
    assert g.nodes == ("a",)
    assert g.links == ()


def test_add_node_duplicate_rejected():
    with pytest.raises(DuplicateNodeError):
        LabeledGraph.build(2, ["a", "a"])


def test_add_node_disjoint():
    g = LabeledGraph.build(2, ["a", "b"])
    assert set(g.nodes) == {"a", "b"}
    assert g.links == ()


def test_add_link_basic():
    g = LabeledGraph.build(2, ["a", "b"], [(0, {"a", "b"})])
    (link,) = g.links
    assert link.dim == 0
    assert link.ends == ("a", "b")


def test_add_link_loop():
    g = LabeledGraph.build(2, ["a"], [(2, {"a"})])
    (link,) = g.links
    assert link.is_loop
    assert link.dim == 2


def test_add_link_unknown_node():
    with pytest.raises(UnknownNodeError):
        LabeledGraph.build(2, ["a"], [(0, {"a", "z"})])


def test_add_link_dimension_out_of_range():
    with pytest.raises(DimensionError):
        LabeledGraph.build(1, ["a", "b"], [(2, {"a", "b"})])


def test_add_link_bad_arity():
    with pytest.raises(ArityError):
        LabeledGraph.build(2, ["a", "b", "c"], [(0, {"a", "b", "c"})])
    with pytest.raises(ArityError):
        LabeledGraph.build(2, ["a", "b", "c"], [(0, set())])


def test_parallel_links_permitted():
    g = LabeledGraph.build(2, ["a", "b"], [(0, {"a", "b"}), (0, {"a", "b"})])
    assert len(g.links) == 2


def test_incident_links_free_edge():
    g = free_edge_graph()
    found = g.incident_links("a")
    assert [(l.dim, l.ends) for l in found] == [(0, ("a", "b")), (2, ("a",))]
    assert g.incident_links("a", 1) == ()
    (loop,) = g.incident_links("a", 2)
    assert loop.is_loop


def test_incident_links_unknown_node():
    with pytest.raises(UnknownNodeError):
        free_edge_graph().incident_links("z")


def test_add_then_remove_link_restores_graph():
    for g in (free_edge_graph(), sewn_edge_graph()):
        before = g.copy()
        bigger = g.copy()
        bigger._add_link({g.nodes[0]}, 1)
        new_ids = {l.id for l in bigger.links} - {l.id for l in g.links}
        (new_id,) = new_ids
        assert [l.dim for l in bigger.links if l.id == new_id] == [1]
        bigger._remove_link(new_id)
        assert bigger == before
        assert g == before


def test_link_lookup_by_unknown_id():
    from gmapkit import UnknownLinkError

    with pytest.raises(UnknownLinkError):
        free_edge_graph()._remove_link("L99")


def test_remove_node_drops_incident_links():
    g = free_edge_graph().copy()
    g._remove_node("a")
    assert set(g.nodes) == {"b"}
    assert [l.dim for l in g.links] == [2]


def test_iso_check_identity():
    g = free_edge_graph()
    assert iso_check(g, g) == {"a": "a", "b": "b"}


def test_iso_check_renamed():
    g = free_edge_graph()
    h = LabeledGraph.build(2, ["p", "q"], [(0, {"p", "q"}), (2, {"p"}), (2, {"q"})])
    phi = iso_check(g, h)
    assert phi in ({"a": "p", "b": "q"}, {"a": "q", "b": "p"})


def test_iso_check_free_vs_sewn_none():
    assert iso_check(free_edge_graph(), sewn_edge_graph()) is None


def test_iso_check_distinguishes_loop_structure():
    loops = LabeledGraph.build(2, ["a", "b"], [(0, {"a"}), (0, {"b"})])
    edge = LabeledGraph.build(2, ["a", "b"], [(0, {"a", "b"})])
    assert iso_check(loops, edge) is None


def _brute_force_isomorphisms(g1, g2):
    nodes1, nodes2 = sorted(g1.nodes), sorted(g2.nodes)
    if len(nodes1) != len(nodes2):
        return []
    sig1 = g1.link_signature()
    found = []
    for perm in itertools.permutations(nodes2):
        phi = dict(zip(nodes1, perm))
        renamed = tuple(
            sorted((dim, tuple(sorted(phi[e] for e in ends))) for dim, ends in sig1)
        )
        if renamed == g2.link_signature():
            found.append(phi)
    return found


@pytest.mark.parametrize("builder", [free_edge_graph, sewn_edge_graph])
def test_iso_check_agrees_with_brute_force(builder):
    g = builder()
    # renamed copy with shuffled labels
    names = {u: f"z{i}" for i, u in enumerate(sorted(g.nodes, reverse=True))}
    h = LabeledGraph.build(
        2,
        [names[u] for u in g.nodes],
        [(l.dim, {names[u] for u in l.ends}) for l in g.links],
    )
    brute = _brute_force_isomorphisms(g, h)
    phi = iso_check(g, h)
    assert (phi is not None) == bool(brute)
    if phi is not None:
        assert phi in brute


def test_iso_check_reflexive_and_symmetric():
    import gmapkit.mesh as mesh
    from conftest import square_mesh

    graphs = [
        free_edge_graph(),
        sewn_edge_graph(),
        mesh.unify(square_mesh()).graph,  # 8 darts
    ]
    for g in graphs:
        assert iso_check(g, g) is not None
    for g1, g2 in itertools.combinations(graphs, 2):
        phi = iso_check(g1, g2)
        psi = iso_check(g2, g1)
        assert (phi is None) == (psi is None)
        if phi is not None:
            assert {v: k for k, v in psi.items()}.keys() == phi.keys()


def grid_mesh(k: int):
    """k x k unit quads; every fourth is split into two triangles."""
    verts = tuple((float(x), float(y), 0.0) for y in range(k + 1) for x in range(k + 1))
    faces = []
    for y in range(k):
        for x in range(k):
            a = y * (k + 1) + x
            b, c, d = a + 1, a + k + 2, a + k + 1
            faces += [(a, b, c), (a, c, d)] if (y * k + x) % 4 == 0 else [(a, b, c, d)]
    return PolygonalMesh(verts, tuple(faces))


def test_iso_check_depth_does_not_grow_the_call_stack():
    # one search level per node: 1,296 levels exceed the default
    # recursion limit, so a recursive search raises RecursionError here
    g = unify(grid_mesh(12)).graph
    assert len(g) == 1296
    assert iso_check(g, g) == {u: u for u in g.nodes}


def test_link_ends_subset_of_nodes_invariant():
    g = sewn_edge_graph()
    for link in g.links:
        assert 1 <= len(link.ends) <= 2
        assert set(link.ends) <= set(g.nodes)


def test_connected_components():
    g = LabeledGraph.build(2, ["a", "b", "c"], [(0, {"a", "b"})])
    assert g.reach(["a"]) == ("a", "b")
    assert g.reach(["c"]) == ("c",)
    assert g.reach(["b", "c", "b"]) == ("b", "c", "a")
    assert g.reach(["a"], {1, 2}) == ("a",)
    assert g.reach([]) == ()
    with pytest.raises(UnknownNodeError):
        g.reach(["a", "z"])


@st.composite
def multigraphs_with_starts(draw):
    """Random multigraphs with loops, parallel links and isolated nodes,
    a start list that may repeat nodes, and a dimension set or ``None``."""
    nodes = draw(st.permutations(["q", "c", "n1", "a", "n10", "z", "b"]))[: draw(st.integers(1, 7))]
    n = draw(st.integers(0, 3))
    end = st.sampled_from(nodes)
    links = draw(st.lists(st.tuples(st.integers(0, n), end, end), max_size=12))
    g = LabeledGraph.build(n, nodes, [(dim, {u, v}) for dim, u, v in links])
    starts = draw(st.lists(st.sampled_from(nodes), max_size=4))
    dims = draw(st.none() | st.sets(st.integers(0, n)))
    return g, starts, dims


@settings(max_examples=300, deadline=None, database=None)
@given(multigraphs_with_starts())
def test_reach_is_the_reachability_fixpoint(case):
    g, starts, dims = case
    order = g.reach(starts, dims)
    assert set(order) == oracle_reach(g, starts, dims)
    assert len(set(order)) == len(order)
    unique = list(dict.fromkeys(starts))
    assert list(order[: len(unique)]) == unique


def _one_by_one(n, nodes, links):
    """The graph of adding ``nodes`` and then ``links`` one at a time, or the error."""
    g = LabeledGraph(n)
    try:
        for name in nodes:
            g._add_node(name)
        for dim, ends in links:
            g._add_link(ends, dim)
    except GmapError as exc:
        return type(exc), str(exc)
    return list(g._adj.items()), list(g._links.items())


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_build_equals_one_by_one_insertion(data):
    # "n10" < "n1x" < "n9": names, like link ids past L9, whose string order is not numeric
    nodes = data.draw(st.lists(st.sampled_from(["a", "b", "n1x", "n9", "n10", "z"]), min_size=1, unique=True))
    n = data.draw(st.integers(0, 2))
    # loops, parallel links, ends in any order, as tuples or sets
    ends = st.lists(st.sampled_from(nodes), min_size=1, max_size=2)
    links = data.draw(st.lists(st.tuples(st.integers(0, n), ends.map(tuple) | ends.map(set)), max_size=25))
    # now and then one fault: a bad link anywhere, or a repeated node
    u = nodes[0]
    bad = [(n + 1, (u,)), (-1, (u,)), (0, (u, "q")), (0, ("q", u)), (0, ()), (0, {"a", "b", "c"})]
    at = data.draw(st.integers(0, len(links)))
    links[at:at] = data.draw(st.sampled_from([[]] * len(bad) + [[link] for link in bad]))
    if data.draw(st.integers(0, 9)) == 0:
        nodes.append(u)
    try:
        built = LabeledGraph.build(n, nodes, links)
    except GmapError as exc:
        outcome = type(exc), str(exc)
    else:
        outcome = list(built._adj.items()), list(built._links.items())
    assert outcome == _one_by_one(n, nodes, links)


def _scanned(g, u, dim=None):
    """Links at ``u`` found by a scan of all links, sorted independently."""
    found = [l for l in g.links if u in l.ends and dim in (None, l.dim)]
    return sorted(found, key=lambda l: (l.dim, tuple(sorted(l.ends)), l.id))


def _adjacency(g):
    return {u: g.incident_links(u) for u in g.nodes}


def test_incident_links_agree_with_a_scan_under_random_edits():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(0, 3)
        nodes = [f"v{k}" for k in range(rng.randint(1, 5))]
        # few nodes, many links: loops and parallel links are common
        links = [
            (rng.randint(0, n), {rng.choice(nodes), rng.choice(nodes)})
            for _ in range(rng.randint(0, 14))
        ]
        g = LabeledGraph.build(n, nodes, links)
        before = (g.nodes, g.links, _adjacency(g))
        h = g.copy()
        for step in range(rng.randint(1, 20)):
            op = rng.random()
            if op < 0.5 and h.nodes:
                h._add_link({rng.choice(h.nodes), rng.choice(h.nodes)}, rng.randint(0, n))
            elif op < 0.75 and h.links:
                h._remove_link(rng.choice(h.links).id)
            elif op < 0.85 and h.nodes:
                h._remove_node(rng.choice(h.nodes))
            else:
                h._add_node(f"w{step}")
        for u in h.nodes:
            assert list(h.incident_links(u)) == _scanned(h, u)
            for d in range(n + 1):
                assert list(h.incident_links(u, d)) == _scanned(h, u, d)
            for v in h.nodes:
                pair = [l for l in _scanned(h, u) if set(l.ends) == {u, v}]
                assert list(h.links_between(u, v)) == pair
        assert (g.nodes, g.links, _adjacency(g)) == before


def _seen(g):
    """Everything a graph shows: its nodes, its links and each node's list."""
    return g.nodes, g.links, {u: g.incident_links(u) for u in g.nodes}


def test_a_copy_and_its_original_never_see_each_others_edits():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(0, 3)
        nodes = [f"v{k}" for k in range(rng.randint(1, 5))]
        links = [
            (rng.randint(0, n), {rng.choice(nodes), rng.choice(nodes)})
            for _ in range(rng.randint(0, 14))
        ]
        g = LabeledGraph.build(n, nodes, links)
        h = g.copy()
        generations = [g, h, h.copy()]
        seen = [_seen(x) for x in generations]
        for step in range(rng.randint(1, 30)):
            i = rng.randrange(3)  # the original too, not only the copies
            x = generations[i]
            op = rng.random()
            if op < 0.4 and x.nodes:
                x._add_link({rng.choice(x.nodes), rng.choice(x.nodes)}, rng.randint(0, n))
            elif op < 0.7 and x.links:
                x._remove_link(rng.choice(x.links).id)
            elif op < 0.85 and x.nodes:
                x._remove_node(rng.choice(x.nodes))
            else:
                x._add_node(f"w{step}")
            for j, y in enumerate(generations):
                if j != i:
                    assert _seen(y) == seen[j]
            seen[i] = _seen(x)
        for x in generations:
            for u in x.nodes:
                assert list(x.incident_links(u)) == _scanned(x, u)
