"""Property tests: no text reaches a traceback, serialize∘parse is the
identity on random valid maps with string and point layers, a scheme's
instance is its set definition, a rewrite is its set definition and
either gives a valid map or raises, leaving its host as it was, a chain
of rewrites leaves every earlier map as it was, and a rewrite of a
known-valid host (checked locally) ends as the same rewrite of an
unmarked copy (checked in full)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gmapkit import (
    REMOVE,
    DimensionError,
    EmbeddingLayer,
    GeneralizedOrbitType,
    Gmap,
    GmapError,
    GraphScheme,
    LabeledGraph,
    OrbitType,
    PostValidationError,
    SchemeArc,
    apply_rule,
    complete_match,
    instantiate_rule,
    instantiate_scheme,
    parse_gmap,
    parse_directive,
    parse_rule_scheme,
    serialize_gmap,
    split_instance,
)

from conftest import FIXTURES, fixture_text
from oracle import oracle_apply, oracle_instantiate, random_valid_gmap

GMAP_TEXTS = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.gmap"))]
RULE_TEXTS = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.jrule"))]
RULES = [parse_rule_scheme(text) for text in RULE_TEXTS]

# pieces that reach the scanner's edge cases: strings, escapes, comments,
# numbers in every spelling, symbols of both formats
PIECES = list('"\\\n\t\r #-.eE+{}:<>,_$0123456789aZ@') + ["\\\n", "# c\n", "1e5", "1.", "-3"]

SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        insert = draw(st.lists(st.sampled_from(PIECES) | st.characters(), max_size=3))
        text = text[:i] + "".join(insert) + text[i + cut :]
    return text


@SETTINGS
@given(mutated(GMAP_TEXTS))
def test_mutated_gmap_text_parses_or_raises_gmap_error(text):
    try:
        parse_gmap(text)
    except GmapError:
        pass


@SETTINGS
@given(mutated(RULE_TEXTS))
def test_mutated_rule_text_parses_or_raises_gmap_error(text):
    try:
        parse_rule_scheme(text)
    except GmapError:
        pass


LAYER_NAMES = ["label", "pos", "my-pos", "l@1#2", "_-#"]


@st.composite
def layered_gmaps(draw):
    g = random_valid_gmap(draw(st.integers(0, 10_000)), n=2, max_darts=8)
    darts = sorted(g.darts)
    coords = st.floats(allow_nan=False, allow_infinity=False)
    labels = {d: draw(st.text(alphabet=st.sampled_from('"\\\n\t') | st.characters())) for d in darts}
    points = {d: draw(st.tuples(coords, coords, coords)) for d in darts}
    # any name the .gmap identifier reads, "-", "@" and "#" included
    names = draw(st.lists(st.sampled_from(LAYER_NAMES), min_size=2, max_size=2, unique=True))
    # one orbit per dart, so the layers keep the map valid
    none = OrbitType(())
    return Gmap(
        g.graph,
        [
            EmbeddingLayer(names[0], none, "string", labels),
            EmbeddingLayer(names[1], none, "point3d", points),
        ],
    )


@settings(SETTINGS, max_examples=60)
@given(layered_gmaps())
def test_serialize_parse_is_identity(g):
    text = serialize_gmap(g)
    back = parse_gmap(text)
    assert back == g
    assert serialize_gmap(back) == text
    assert back.validate().ok


# dart names whose order changes once "@node" is appended ("-" < "@" < "0")
DART_NAMES = ["a", "a-b", "a0", "b", "Z"]


@st.composite
def schemes_on_orbits(draw):
    """A random scheme and a connected orbit graph of its parameter.

    The orbit graph of dimension ``n`` has 1-5 darts on a random
    spanning tree plus extra links, loops and parallels among them.  The
    scheme has 1-3 nodes, ``_`` entries and arcs; its dimensions reach
    ``n + 2``, so some instances raise ``DimensionError``."""
    n = draw(st.integers(0, 3))
    param = tuple(sorted(draw(st.sets(st.integers(0, n), min_size=1))))
    darts = draw(st.lists(st.sampled_from(DART_NAMES), min_size=1, unique=True))
    dim = st.sampled_from(param)
    links = [(draw(dim), {u, draw(st.sampled_from(darts[:k]))}) for k, u in enumerate(darts) if k]
    end = st.sampled_from(darts)
    links += draw(st.lists(st.tuples(dim, st.builds(lambda a, b: {a, b}, end, end)), max_size=4))
    orbit_graph = LabeledGraph.build(n, darts, links)

    names = [f"m{k}" for k in range(draw(st.integers(1, 3)))]
    nodes = []
    for name in names:
        targets = draw(st.permutations(range(n + 3)))[: len(param)]
        removed = draw(st.lists(st.booleans(), min_size=len(param), max_size=len(param)))
        entries = tuple(REMOVE if r else t for t, r in zip(targets, removed))
        nodes.append((name, GeneralizedOrbitType(entries)))
    arcs = []
    if len(names) > 1:
        pairs = st.permutations(names).map(lambda p: p[:2])
        for a, b in draw(st.lists(pairs, max_size=3)):
            arcs.append(SchemeArc(a, draw(st.integers(0, n + 2)), b))
    return GraphScheme(OrbitType(param), tuple(nodes), tuple(arcs)), orbit_graph


@settings(SETTINGS, max_examples=300)
@given(schemes_on_orbits())
def test_instantiate_scheme_is_the_set_definition(case):
    scheme, orbit_graph = case
    try:
        expected = oracle_instantiate(scheme, orbit_graph)
    except DimensionError:
        with pytest.raises(DimensionError):
            instantiate_scheme(scheme, orbit_graph)
        return
    out = instantiate_scheme(scheme, orbit_graph)
    assert len(out.nodes) == len(expected[0])
    assert (frozenset(out.nodes), out.link_signature()) == expected


@SETTINGS
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from(RULES), st.data())
def test_rewrite_gives_a_valid_map_or_raises_and_keeps_the_host(seed, n, rule, data):
    host = random_valid_gmap(seed, n=n, max_darts=8)
    anchor = data.draw(st.sampled_from(sorted(host.darts)))
    before = serialize_gmap(host)
    adjacency = {d: host.graph.incident_links(d) for d in host.darts}
    try:
        out = apply_rule(instantiate_rule(rule, host, anchor), host)
    except GmapError:
        pass
    else:
        assert out.validate().ok
    assert serialize_gmap(host) == before
    # the text shows no per-dart link list, so compare those as well
    assert {d: host.graph.incident_links(d) for d in host.darts} == adjacency


def _kept(g: Gmap):
    """A map's text and, as the text shows no link order, each dart's links."""
    return serialize_gmap(g), {d: g.graph.incident_links(d) for d in g.darts}


@SETTINGS
@given(st.integers(0, 10_000), st.integers(1, 3), st.data())
def test_a_chain_of_rewrites_keeps_every_ancestor(seed, n, data):
    maps = [random_valid_gmap(seed, n=n, max_darts=12)]
    kept = [_kept(maps[0])]
    for _ in range(data.draw(st.integers(1, 4))):
        host = maps[-1]
        rule = data.draw(st.sampled_from(RULES) | pendant_rules(n))
        anchor = data.draw(st.sampled_from(sorted(host.darts)))
        try:
            out = apply_rule(instantiate_rule(rule, host, anchor), host)
        except GmapError:
            continue
        maps.append(out)
        kept.append(_kept(out))
    assert [_kept(g) for g in maps] == kept


def _tagged(g: Gmap, domain: OrbitType, draw) -> Gmap:
    """``g`` with a valid ``tag`` layer: one value of 0 or 1 per orbit."""
    values = {}
    for orbit in g.orbit_partition(domain):
        tag = draw(st.sampled_from([0.0, 1.0]))
        values.update((d, tag) for d in orbit)
    return Gmap(g.graph, [EmbeddingLayer("tag", domain, "scalar", values)])


@st.composite
def pendant_rules(draw, n):
    """A rule on a one-dimension orbit that redecorates its copies and
    may link each to a created copy.  Unlike the fixture rules, it adds
    links next to old links of every other dimension, so a violated
    cycle path can have its one new link last, two links from its pivot;
    and it can unlink a dart without linking it again."""
    dim = draw(st.integers(0, n))

    def decoration():
        return draw(st.sampled_from(["_"] + [str(d) for d in range(n + 1)]))

    arc = draw(st.sampled_from([""] + [f"n0 -{d}- n1" for d in range(n + 1)]))
    return parse_rule_scheme(
        f"rule P <{dim}> {{ left {{ n0: <{dim}> hook }} "
        f"right {{ n0: <{decoration()}> n1: <{decoration()}> {arc} }} }}"
    )


def _outcome(rewrite, rule, host, match, directives):
    """What ``rewrite`` makes of ``host``: the result and its text, or
    ``None`` and the error class with its report or message."""
    try:
        out = rewrite(rule, host, match, directives)
    except PostValidationError as exc:
        return None, (PostValidationError, exc.report.lines())
    except GmapError as exc:
        return None, (type(exc), str(exc))
    return out, serialize_gmap(out)


@settings(SETTINGS, max_examples=300)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data())
def test_local_post_validation_agrees_with_full_validation(seed, n, data):
    # large enough that the checked region is seldom the whole map
    host = random_valid_gmap(seed, n=n, max_darts=24)
    dims = data.draw(st.sets(st.integers(0, n)))
    host = _tagged(host, OrbitType(tuple(sorted(dims))), data.draw)
    assert host.validate().ok
    host._known_valid = True  # as if a rewrite had returned it
    for _ in range(data.draw(st.integers(1, 3))):
        rule = data.draw(st.sampled_from(RULES) | pendant_rules(n))
        anchor = data.draw(st.sampled_from(sorted(host.darts)))
        try:
            inst = instantiate_rule(rule, host, anchor)
        except GmapError:
            continue
        created = sorted({split_instance(q)[1] for q in inst.right_only})
        matched = sorted({split_instance(x)[1] for x in inst.left.nodes})
        kinds = ["constant(0)", "constant(1)"] + [f"inherit({m})" for m in matched]
        directives = [parse_directive(f"tag:{c}={data.draw(st.sampled_from(kinds))}") for c in created]
        plain = parse_gmap(serialize_gmap(host))
        assert not plain._known_valid
        out, said = _outcome(apply_rule, inst, host, None, directives)
        try:  # instantiated again: the re-parsed map numbers its links anew
            plain_inst = instantiate_rule(rule, plain, anchor)
        except GmapError as exc:
            plain_out, plain_said = None, (type(exc), str(exc))
        else:
            # the full side: the rewritten map is scanned whole
            full = lambda self, touched, host=None: self.validate()
            with mock.patch.object(Gmap, "_validate_rewritten", full):
                plain_out, plain_said = _outcome(apply_rule, plain_inst, plain, None, directives)
        assert said == plain_said
        if out is not None:
            assert out == plain_out
            assert out._known_valid and plain_out._known_valid
            host = out


DUAL = parse_rule_scheme(
    "rule Dual <0,1,2> { left { n0: <0,1,2> hook } right { n0: <2,1,0> } }"
)


@st.composite
def erase_rules(draw, n):
    """A rule that deletes the orbit of its hook: it dangles unless that
    orbit is closed under every dimension."""
    dims = ",".join(str(d) for d in sorted(draw(st.sets(st.integers(0, n), min_size=1))))
    return parse_rule_scheme(f"rule E <{dims}> {{ left {{ n0: <{dims}> hook }} right {{ }} }}")


@settings(SETTINGS, max_examples=300)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data())
def test_apply_rule_is_the_set_definition(seed, n, data):
    # a chain, so hosts are marked and unmarked and created names clash
    host = random_valid_gmap(seed, n=n, max_darts=10)
    if data.draw(st.booleans()):
        dims = data.draw(st.sets(st.integers(0, n)))
        host = _tagged(host, OrbitType(tuple(sorted(dims))), data.draw)
    host._known_valid = data.draw(st.booleans())
    rules = st.sampled_from(RULES + [DUAL]) | pendant_rules(n) | erase_rules(n)
    again = False
    for _ in range(data.draw(st.integers(1, 5))):
        # a rewrite that is done again where it was done creates names it created
        if not (again and data.draw(st.integers(0, 3))):
            rule = data.draw(rules)
            anchor = data.draw(st.sampled_from(sorted(host.darts)))
        again = False
        try:
            inst = instantiate_rule(rule, host, anchor)
            match = complete_match(inst, host)
        except GmapError:
            continue
        directives = []
        if host.embeddings:
            created = sorted({split_instance(q)[1] for q in inst.right_only})
            matched = sorted({split_instance(x)[1] for x in inst.left.nodes})
            kinds = ["constant(0)", "constant(1)"]
            kinds += [f"{kind}({m})" for m in matched for kind in ("inherit", "midpoint")]
            kind = st.sampled_from(kinds)
            directives = [parse_directive(f"tag:{c}={data.draw(kind)}") for c in created]
        before = serialize_gmap(host)
        out, said = _outcome(apply_rule, inst, host, match, directives)
        assert said == _outcome(oracle_apply, inst, host, match, directives)[1]
        assert serialize_gmap(host) == before
        if out is not None and anchor in out.graph:
            host = out if data.draw(st.booleans()) else parse_gmap(said)
            again = True


@settings(SETTINGS, max_examples=300)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data())
def test_a_host_marked_by_validate_rewrites_as_an_unmarked_copy(seed, n, data):
    # a valid map, or one with a link taken out, which validate() leaves unmarked
    host = random_valid_gmap(seed, n=n, max_darts=24)
    links = [(l.dim, l.ends) for l in host.graph.links]
    if data.draw(st.booleans()):
        del links[data.draw(st.integers(0, len(links) - 1))]
    host = Gmap(LabeledGraph.build(n, host.darts, links))
    if data.draw(st.booleans()):
        host = _tagged(host, OrbitType(tuple(sorted(data.draw(st.sets(st.integers(0, n)))))), data.draw)
    rules = st.sampled_from(RULES + [DUAL]) | pendant_rules(n) | erase_rules(n)
    for _ in range(data.draw(st.integers(1, 3))):
        report = host.validate()
        assert host._known_valid == report.ok
        plain = parse_gmap(serialize_gmap(host))
        assert not plain._known_valid
        rule = data.draw(rules)
        anchor = data.draw(st.sampled_from(sorted(host.darts)))
        outcomes = []
        directives = None
        for g in (host, plain):
            try:  # instantiated on each: the re-parsed map numbers its links anew
                inst = instantiate_rule(rule, g, anchor)
                match = complete_match(inst, g)
            except GmapError as exc:
                outcomes.append((None, (type(exc), str(exc))))
                continue
            if directives is None:  # drawn once, for the names both instances create
                created = sorted({split_instance(q)[1] for q in inst.right_only} if g.embeddings else ())
                matched = sorted({split_instance(x)[1] for x in inst.left.nodes})
                kinds = st.sampled_from(["constant(0)", "constant(1)"] + [f"inherit({m})" for m in matched])
                directives = [parse_directive(f"tag:{c}={data.draw(kinds)}") for c in created]
            outcomes.append(_outcome(apply_rule, inst, g, match, directives))
            if g is host:  # and as the set definition, checked in full, has it
                assert outcomes[0][1] == _outcome(oracle_apply, inst, g, match, directives)[1]
        (out, said), (plain_out, plain_said) = outcomes
        assert said == plain_said
        if out is None or not out.darts:
            break
        assert out._known_valid and plain_out._known_valid
        host = parse_gmap(said)
