"""Orbit types, the removing symbol, and relabeling application.

A relabeling is applied to a graph as the instance of a one-node scheme
without arcs, whose instance names are then stripped back to the graph's
own node names.
"""

import random

import pytest

from gmapkit import (
    REMOVE,
    GeneralizedOrbitType,
    LabeledGraph,
    OrbitType,
    RelabelingError,
    RelabelingFunction,
    split_instance,
)

from conftest import free_edge_graph, instantiate_node, sewn_edge_graph


def relabel(f, h):
    """``h`` with its link labels renamed through ``f``, ``_`` dropping them."""
    out = instantiate_node("n", f.target, h, f.source)

    def name(u):
        return split_instance(u)[0]

    return LabeledGraph.build(
        out.ambient_dimension,
        [name(u) for u in out.nodes],
        [(l.dim, [name(u) for u in l.ends]) for l in out.links],
    )


def compose(f, g):
    """The relabeling equal to applying ``f`` then ``g`` (neither removes labels)."""
    out = tuple(g.mapping[f.mapping[d]] for d in f.source)
    return RelabelingFunction(f.source, GeneralizedOrbitType(out))


def test_orbit_type_must_increase():
    OrbitType((0, 2))
    with pytest.raises(RelabelingError):
        OrbitType((2, 0))
    with pytest.raises(RelabelingError):
        OrbitType((1, 1))


def test_orbit_type_rejects_removing_symbol():
    # only generalized orbit types may carry it, so relabeling sources never do
    with pytest.raises(RelabelingError):
        OrbitType((REMOVE, 2))


def test_generalized_orbit_type_injective_on_dims():
    GeneralizedOrbitType((REMOVE, 2))
    GeneralizedOrbitType((1, 0))  # order is free on targets
    with pytest.raises(RelabelingError):
        GeneralizedOrbitType((1, 1))
    assert GeneralizedOrbitType((REMOVE, REMOVE)).has_remove


def test_reconstruct_relabeling_from_types():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1, 2)))
    assert f.mapping == {0: 1, 2: 2}


def test_reconstruct_relabeling_with_remove():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((REMOVE, 2)))
    assert f.mapping[0] is REMOVE
    assert f.mapping[2] == 2


def test_relabeling_duplicate_target_rejected():
    with pytest.raises(RelabelingError):
        RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1, 1)))


def test_relabeling_length_mismatch_rejected():
    with pytest.raises(RelabelingError):
        RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1,)))


def test_apply_relabeling_renames_labels():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1, 2)))
    out = relabel(f, free_edge_graph())
    expected = LabeledGraph.build(2, ["a", "b"], [(1, {"a", "b"}), (2, {"a"}), (2, {"b"})])
    assert out == expected


def test_apply_relabeling_removes_labels():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((REMOVE, 2)))
    out = relabel(f, free_edge_graph())
    expected = LabeledGraph.build(2, ["a", "b"], [(2, {"a"}), (2, {"b"})])
    assert out == expected
    # same deletion on the sewn orbit: both 0-links disappear
    out2 = relabel(f, sewn_edge_graph())
    assert [l.dim for l in out2.links] == [2, 2]
    assert set(out2.nodes) == {"a", "b", "c", "d"}


def test_apply_identity_relabeling():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((0, 2)))
    assert all(f.mapping[d] == d for d in f.source)
    assert relabel(f, free_edge_graph()) == free_edge_graph()


def test_relabeling_composition_exact():
    # for REMOVE-free relabelings, applying f then g equals applying g.f
    h = sewn_edge_graph()
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1, 2)))
    g = RelabelingFunction(OrbitType((1, 2)), GeneralizedOrbitType((0, 1)))
    two_step = relabel(g, relabel(f, h))
    one_step = relabel(compose(f, g), h)
    assert two_step == one_step


def connected_graph(rng: random.Random, dims: list[int]) -> LabeledGraph:
    """Six nodes on a random spanning tree, plus random loops and parallel links."""
    nodes = [f"n{i}" for i in range(6)]
    links = [(rng.choice(dims), {nodes[k], nodes[rng.randrange(k)]}) for k in range(1, 6)]
    links += [(rng.choice(dims), {rng.choice(nodes), rng.choice(nodes)}) for _ in range(5)]
    return LabeledGraph.build(3, nodes, links)


def test_relabeling_composition_random_cases():
    rng = random.Random(7)
    dims = [0, 1, 2, 3]
    for _ in range(25):
        base = connected_graph(rng, dims)
        src = tuple(sorted(rng.sample(dims, 4)))
        mid = rng.sample(dims, 4)
        tgt = rng.sample(dims, 4)
        f = RelabelingFunction(OrbitType(src), GeneralizedOrbitType(tuple(mid)))
        # align g's source with f's image
        order = sorted(range(4), key=lambda k: mid[k])
        g = RelabelingFunction(
            OrbitType(tuple(mid[k] for k in order)),
            GeneralizedOrbitType(tuple(tgt[k] for k in order)),
        )
        assert relabel(g, relabel(f, base)) == relabel(compose(f, g), base)
