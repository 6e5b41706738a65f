"""Match completion against the exhaustive-search oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gmapkit import (
    Gmap,
    LabeledGraph,
    MatchError,
    complete_match,
    extend_match,
    instance_name,
    instantiate_rule,
)

from conftest import vertex_insert_lhs_free
from oracle import (
    check_match_agreement,
    oracle_match,
    oracle_reach,
    pattern_components,
    random_valid_gmap,
    reference_extend_match,
)


def test_seed_extends_along_forced_links(two_triangles_gmap):
    # free-edge pattern seeded on an outer edge: y is forced to alpha_0(a)
    pattern = vertex_insert_lhs_free()
    m = extend_match(pattern, two_triangles_gmap, {"x": "v0e0-1f0"})
    assert m.mapping == {"x": "v0e0-1f0", "y": "v1e0-1f0"}


def test_free_pattern_rejected_on_sewn_edge(two_triangles_gmap):
    pattern = vertex_insert_lhs_free()
    with pytest.raises(MatchError):
        extend_match(pattern, two_triangles_gmap, {"x": "v0e0-2f0"})
    assert oracle_match(pattern, two_triangles_gmap, {"x": "v0e0-2f0"}) == []


def test_empty_seed_on_nonempty_pattern():
    host = Gmap(vertex_insert_lhs_free())
    with pytest.raises(MatchError):
        extend_match(vertex_insert_lhs_free(), host, {})


def test_conflicting_seeds_rejected(square_gmap):
    pattern = vertex_insert_lhs_free()
    with pytest.raises(MatchError):
        extend_match(
            pattern, square_gmap, {"x": "v0e0-1f0", "y": "v2e1-2f0"}
        )


def test_pattern_edge_cannot_land_on_loop():
    host = Gmap.build(2, ["d"], [(i, {"d"}) for i in range(3)])
    pattern = LabeledGraph.build(2, ["x", "y"], [(0, {"x", "y"})])
    with pytest.raises(MatchError):
        extend_match(pattern, host, {"x": "d"})
    assert oracle_match(pattern, host, {"x": "d"}) == []


def test_match_via_rule_seed(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v1e1-2f0")
    m = complete_match(inst, square_gmap)
    assert m[instance_name(min(inst.orbit_graph.nodes), inst.rule.hook)] in square_gmap.darts
    assert set(m.mapping) == set(inst.left.nodes)
    assert len(m.image) == len(m.mapping)


def test_oracle_unseeded_single_node_pattern(square_gmap):
    pattern = LabeledGraph.build(2, ["x"])
    found = oracle_match(pattern, square_gmap, {})
    assert len(found) == len(square_gmap.darts)


def test_oracle_finds_the_forced_match(two_triangles_gmap):
    pattern = vertex_insert_lhs_free()
    found = oracle_match(pattern, two_triangles_gmap, {"x": "v0e0-1f0"})
    assert found == [{"x": "v0e0-1f0", "y": "v1e0-1f0"}]


@pytest.mark.parametrize("seed", range(12))
def test_match_agreement_on_random_triples(seed, vi_rule, vi2_rule, identity_rule):
    rng = random.Random(seed)
    rules = [vi_rule, vi2_rule, identity_rule]
    host = random_valid_gmap(seed, n=2, max_darts=16)
    darts = sorted(host.darts)
    for case in range(4):
        rule = rng.choice(rules)
        anchor = rng.choice(darts)
        inst = instantiate_rule(rule, host, anchor)
        if rng.random() < 0.5:
            seed_map = inst.seed()
        else:
            hook = instance_name(min(inst.orbit_graph.nodes), inst.rule.hook)
            seed_map = {hook: rng.choice(darts)}
        report = check_match_agreement(inst, host, seed_map, f"seed{seed}.{case}")
        assert report.passed, report.witness


def test_disconnected_left_needs_a_seed_per_component(square_gmap):
    from gmapkit import parse_rule_scheme

    rule = parse_rule_scheme(
        "rule Split <0,2> { left { n0: <0,2> hook  nx: <_,_> } "
        "right { n0: <0,2>  nx: <_,_> } }"
    )
    inst = instantiate_rule(rule, square_gmap, "v0e0-1f0")
    # the nx copies are isolated darts: the hook seed alone cannot reach them
    with pytest.raises(MatchError, match="no seed"):
        complete_match(inst, square_gmap)
    free = sorted(set(square_gmap.darts) - set(inst.orbit_graph.nodes))
    seed = dict(inst.seed())
    seed.update(
        {name: free[i] for i, name in enumerate(sorted(inst.left.nodes) ) if name.endswith("@nx")}
    )
    m = complete_match(inst, square_gmap, seed)
    assert len(m.image) == 4


def test_relabeling_hook_matches_the_relabeled_shape(square_gmap, two_triangles_gmap):
    # a hook decorated <1,2> under parameter <0,2> unfolds the edge orbit
    # into a corner-shaped pattern; the forced walk then matches the
    # anchor's corner, not its edge
    from gmapkit import parse_rule_scheme
    from oracle import oracle_match

    rule = parse_rule_scheme(
        "rule Odd <0,2> { left { n0: <1,2> hook } right { n0: <1,2> } }"
    )
    inst = instantiate_rule(rule, square_gmap, "v0e0-1f0")
    m = complete_match(inst, square_gmap)
    assert m.mapping == {"v0e0-1f0@n0": "v0e0-1f0", "v1e0-1f0@n0": "v0e0-3f0"}
    assert oracle_match(inst.left, square_gmap, inst.seed()) == [m.mapping]
    # on a sewn edge the pattern's 2-loops have no counterpart: no match
    inst2 = instantiate_rule(rule, two_triangles_gmap, "v0e0-2f0")
    with pytest.raises(MatchError):
        complete_match(inst2, two_triangles_gmap)
    assert oracle_match(inst2.left, two_triangles_gmap, inst2.seed()) == []


def test_match_uniqueness_against_enumeration(vi_rule, square_gmap):
    for anchor in sorted(square_gmap.darts):
        inst = instantiate_rule(vi_rule, square_gmap, anchor)
        kernel = complete_match(inst, square_gmap)
        found = oracle_match(inst.left, square_gmap, inst.seed())
        assert found == [kernel.mapping]


# names whose sorted order differs from their insertion order
NAMES = ["m", "b", "x3", "a", "x10", "k", "c", "x2"]


def random_match_triple(rng: random.Random):
    """A near-involutive host, a pattern on 0-3 dims and a seed on 0-3
    nodes.  Most patterns are a renamed orbit of the host, so that long
    completions succeed, not only fail early."""
    n = rng.choice([0, 1, 2, 2])
    darts = [f"h{i}" for i in range(rng.randint(1, len(NAMES)))]
    host_links = []
    for dim in range(n + 1):
        rest = rng.sample(darts, len(darts))
        while rest:
            u = rest.pop()
            if rest and rng.random() < 0.75:
                host_links.append((dim, {u, rest.pop()}))
            else:
                host_links.append((dim, {u}))
    tweak = rng.choice(["none", "none", "drop", "double"])
    i = rng.randrange(len(host_links))
    if tweak == "drop":
        del host_links[i]
    elif tweak == "double":
        host_links.append(host_links[i])
    host = Gmap.build(n, darts, host_links)

    dims = rng.sample(range(n + 1), rng.randint(0, n + 1))
    if rng.random() < 0.75:
        if rng.random() < 0.5:
            dims = list(range(n + 1))
        orbit = oracle_reach(host.graph, [rng.choice(darts)], dims)
        name = dict(zip(sorted(orbit), rng.sample(NAMES, len(orbit))))
        nodes = list(name.values())
        links = [
            (dim, {name[u] for u in ends})
            for dim, ends in host_links
            if dim in dims and ends <= orbit and rng.random() < 0.85
        ]
        image = {x: u for u, x in name.items()}
    else:
        nodes = rng.sample(NAMES, rng.randint(1, len(NAMES)))
        # loops, parallel links and several components all occur
        links = [
            (rng.choice(dims), {rng.choice(nodes), rng.choice(nodes)})
            for _ in range(rng.randint(0, 8) if dims else 0)
        ]
        image = {}
    pattern = LabeledGraph.build(n, nodes, links)

    if rng.random() < 0.75:
        # one key in each of the first three components: completions run
        keys = [rng.choice(c) for c in pattern_components(pattern)[:3]]
    else:
        keys = rng.sample(nodes, rng.randint(0, min(3, len(nodes))))
    seed = {
        x: image[x] if x in image and rng.random() < 0.75 else rng.choice(darts)
        for x in keys
    }
    return pattern, host, seed


def _outcome(extend, pattern, host, seed):
    try:
        return list(extend(pattern, host, seed).mapping.items())
    except Exception as exc:  # the class and message are the outcome
        return (type(exc), str(exc))


@settings(max_examples=500, deadline=None, database=None)
@given(st.integers(0, 2**32))
def test_extend_match_agrees_with_the_reference_queue(seed_value):
    # same mapping in the same key order, or the same error and message
    pattern, host, seed = random_match_triple(random.Random(seed_value))
    assert _outcome(extend_match, pattern, host, seed) == _outcome(
        reference_extend_match, pattern, host, seed
    )
