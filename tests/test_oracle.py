"""The brute-force reference implementations and the map generator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gmapkit import EmbeddingLayer, Gmap, OrbitType, parse_gmap

from conftest import fixture_text
from oracle import (
    OracleReport,
    check_orbit_agreement,
    check_validate_agreement,
    oracle_orbit,
    oracle_validate,
    random_valid_gmap,
)

BROKEN = ["broken_incidence.gmap", "broken_three_faces.gmap", "broken_cycle.gmap"]
CLEAN = ["square.gmap", "triangle.gmap", "two_triangles.gmap", "segment_1d.gmap", "single_dart.gmap"]


@pytest.mark.parametrize("name", BROKEN + CLEAN)
def test_oracle_and_kernel_reports_are_identical(name):
    g = parse_gmap(fixture_text(name))
    report = check_validate_agreement(g, name)
    assert report.passed, report.witness
    assert oracle_validate(g).ok == (name in CLEAN)


@pytest.mark.parametrize("name", CLEAN)
def test_oracle_orbit_matches_kernel(name):
    g = parse_gmap(fixture_text(name))
    for d in g.darts:
        for dims in ((0,), (0, 1), (1, 2), tuple(range(g.n + 1))):
            o = OrbitType(tuple(x for x in dims if x <= g.n))
            report = check_orbit_agreement(g, o, d, f"{name}:{d}")
            assert report.passed, report.witness


@pytest.mark.parametrize("seed", range(25))
def test_reports_agree_on_random_broken_multigraphs(seed):
    # the two cycle checks use different enumeration strategies, so hammer
    # them with arbitrary link soups (parallels, loops, missing links)
    rng = random.Random(seed * 7 + 1)
    n = rng.choice([2, 3])
    k = rng.randint(1, 10)
    darts = [f"d{i}" for i in range(k)]
    links = []
    for _ in range(rng.randint(0, 3 * k)):
        dim = rng.randrange(n + 1)
        if rng.random() < 0.3:
            links.append((dim, {rng.choice(darts)}))
        else:
            links.append((dim, {rng.choice(darts), rng.choice(darts)}))
    g = Gmap.build(n, darts, links)
    result = check_validate_agreement(g, f"soup{seed}")
    assert result.passed, result.witness


@st.composite
def planted_defects(draw):
    """A valid map with 1-3 planted defects, placed anywhere, so next to
    each other too: a removed link, a dart's second link of a dimension
    (to any dart: itself, its neighbour in that dimension or another), a
    link with one end moved to another dart, or a link that keeps its ends
    and takes another dimension (so its ends can have n+1 links with one
    dimension repeated).  Half carry a ``tag`` layer that was valid before
    the defects."""
    n = draw(st.integers(1, 3))
    g = random_valid_gmap(draw(st.integers(0, 10_000)), n=n, max_darts=16)
    layers = []
    if draw(st.booleans()):
        domain = OrbitType(tuple(sorted(draw(st.sets(st.integers(0, n))))))
        values = {}
        for orbit in g.orbit_partition(domain):
            tag = draw(st.sampled_from([0.0, 1.0]))
            values.update((d, tag) for d in orbit)
        layers.append(EmbeddingLayer("tag", domain, "scalar", values))
    darts = sorted(g.darts)
    links = [(l.dim, l.ends) for l in g.graph.links]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["removed", "doubled", "rewired", "relabeled"]))
        if kind == "doubled" or not links:
            d = draw(st.sampled_from(darts))
            links.append((draw(st.integers(0, n)), (d, draw(st.sampled_from(darts)))))
            continue
        dim, ends = links.pop(draw(st.integers(0, len(links) - 1)))
        if kind == "rewired":
            links.append((dim, (draw(st.sampled_from(ends)), draw(st.sampled_from(darts)))))
        elif kind == "relabeled":
            links.append((draw(st.sampled_from([k for k in range(n + 1) if k != dim])), ends))
    return Gmap.build(n, darts, links, layers)


@settings(max_examples=400, deadline=None, database=None)
@given(planted_defects())
def test_reports_agree_on_valid_maps_with_planted_defects(g):
    assert g.validate().lines() == oracle_validate(g).lines()


@pytest.mark.parametrize("seed", range(40))
def test_generator_output_is_always_valid(seed):
    n = (seed % 3) + 1
    g = random_valid_gmap(seed, n=n, max_darts=12)
    assert 1 <= len(g.darts) <= 12
    assert oracle_validate(g).ok


def test_generator_is_reproducible():
    a = random_valid_gmap(42, n=2, max_darts=16)
    b = random_valid_gmap(42, n=2, max_darts=16)
    assert a == b


def test_generator_minimal_map_is_all_loops():
    g = random_valid_gmap(0, n=2, max_darts=1)
    assert len(g.darts) == 1
    assert all(len(l.ends) == 1 for l in g.graph.links)
    assert sorted(l.dim for l in g.graph.links) == [0, 1, 2]


def test_generator_produces_nontrivial_links():
    # across a pool of seeds, at least some maps gain real (non-loop) links
    assert any(
        any(len(l.ends) != 1 for l in random_valid_gmap(s, n=2, max_darts=12).graph.links)
        for s in range(10)
    )


def test_oracle_report_requires_witness_on_failure():
    OracleReport("p", "i", True)
    with pytest.raises(ValueError):
        OracleReport("p", "i", False)


def test_oracle_orbit_on_fixture():
    g = parse_gmap(fixture_text("square.gmap"))
    d = sorted(g.darts)[0]
    assert oracle_orbit(g, OrbitType((0, 1)), d) == frozenset(g.darts)
    assert oracle_orbit(g, OrbitType(()), d) == {d}


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data())
def test_reports_agree_when_agreement_within_tolerance_does_not_chain(seed, n, data):
    # 0 and 1.2e-9 each agree with 0.6e-9 within the tolerance, not with
    # each other: an orbit can violate its layer with every link in agreement
    g = random_valid_gmap(seed, n=n, max_darts=16)
    domain = OrbitType(tuple(sorted(data.draw(st.sets(st.integers(0, n))))))
    values = {d: data.draw(st.sampled_from([0.0, 0.6e-9, 1.2e-9])) for d in sorted(g.darts)}
    g = Gmap(g.graph, [EmbeddingLayer("tag", domain, "scalar", values)])
    assert g.validate().lines() == oracle_validate(g).lines()


def test_exact_layers_report_one_changed_value_as_the_oracle_does():
    # colors and strings are compared with ==, not within the tolerance
    text = fixture_text("square_colored.gmap").replace("v2e1-2f0: 200 40 40", "v2e1-2f0: 200 40 41")
    colored = parse_gmap(text)
    square = parse_gmap(fixture_text("square.gmap"))
    names = {d: "face" for d in square.darts} | {"v2e1-2f0": "Face"}
    named = Gmap(square.graph, [EmbeddingLayer("name", OrbitType((0, 1)), "string", names)])
    face = ",".join(sorted(square.darts))
    for g, layer in ((colored, "col"), (named, "name")):
        want = [f"E_EMBED layer={layer} orbit={{{face}}} darts=v2e1-2f0"]
        assert g.validate().lines() == want
        assert oracle_validate(g).lines() == want
