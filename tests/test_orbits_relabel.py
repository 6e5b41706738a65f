"""Orbit types, the removing symbol, and relabeling application."""

import pytest

from gmapkit import (
    REMOVE,
    GeneralizedOrbitType,
    LabeledGraph,
    OrbitType,
    RelabelingError,
    RelabelingFunction,
    apply_relabeling,
)

from conftest import free_edge_graph, sewn_edge_graph


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
    assert f(0) == 1 and f(2) == 2


def test_reconstruct_relabeling_with_remove():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((REMOVE, 2)))
    assert f(0) is REMOVE
    assert f(2) == 2


def test_relabeling_duplicate_target_rejected():
    with pytest.raises(RelabelingError):
        RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1, 1)))


def test_relabeling_length_mismatch_rejected():
    with pytest.raises(RelabelingError):
        RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1,)))


def test_relabeling_outside_domain():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1, 2)))
    with pytest.raises(RelabelingError):
        f(1)


def test_apply_relabeling_renames_labels():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1, 2)))
    out = apply_relabeling(f, free_edge_graph())
    expected = LabeledGraph.build(2, ["a", "b"], [(1, {"a", "b"}), (2, {"a"}), (2, {"b"})])
    assert out == expected


def test_apply_relabeling_removes_labels():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((REMOVE, 2)))
    out = apply_relabeling(f, free_edge_graph())
    expected = LabeledGraph.build(2, ["a", "b"], [(2, {"a"}), (2, {"b"})])
    assert out == expected
    # same deletion on the sewn orbit: both 0-links disappear
    out2 = apply_relabeling(f, sewn_edge_graph())
    assert [l.dim for l in out2.links] == [2, 2]
    assert set(out2.nodes) == {"a", "b", "c", "d"}


def test_apply_identity_relabeling():
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((0, 2)))
    assert all(f(d) == d for d in f.source)
    assert apply_relabeling(f, free_edge_graph()) == free_edge_graph()


def test_apply_relabeling_unmapped_dimension():
    f = RelabelingFunction(OrbitType((0,)), GeneralizedOrbitType((1,)))
    with pytest.raises(RelabelingError):
        apply_relabeling(f, free_edge_graph())  # has 2-links outside <0>


def test_relabeling_composition_exact():
    # for REMOVE-free relabelings, applying f then g equals applying g.f
    h = sewn_edge_graph()
    f = RelabelingFunction(OrbitType((0, 2)), GeneralizedOrbitType((1, 2)))
    g = RelabelingFunction(OrbitType((1, 2)), GeneralizedOrbitType((0, 1)))
    two_step = apply_relabeling(g, apply_relabeling(f, h))
    one_step = apply_relabeling(compose(f, g), h)
    assert two_step == one_step


def test_relabeling_composition_random_cases():
    import random

    rng = random.Random(7)
    dims = [0, 1, 2, 3]
    base = LabeledGraph.build(
        3,
        [f"n{i}" for i in range(6)],
        [(rng.choice(dims), {f"n{rng.randrange(6)}", f"n{rng.randrange(6)}"}) for _ in range(10)],
    )
    for _ in range(25):
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
        assert apply_relabeling(g, apply_relabeling(f, base)) == apply_relabeling(
            compose(f, g), base
        )
