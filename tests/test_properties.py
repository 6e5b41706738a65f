"""Property tests: no text reaches a traceback, serialize∘parse is the
identity on random valid maps with string and point layers, and a
rewrite either gives a valid map or raises, leaving its host as it was."""

from hypothesis import given, settings, strategies as st

from gmapkit import (
    EmbeddingLayer,
    Gmap,
    GmapError,
    OrbitType,
    apply_rule,
    instantiate_rule,
    parse_gmap,
    parse_rule_scheme,
    serialize_gmap,
)

from conftest import FIXTURES, fixture_text
from oracle import random_valid_gmap

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


@st.composite
def layered_gmaps(draw):
    g = random_valid_gmap(draw(st.integers(0, 10_000)), n=2, max_darts=8)
    darts = sorted(g.darts)
    coords = st.floats(allow_nan=False, allow_infinity=False)
    labels = {d: draw(st.text(alphabet=st.sampled_from('"\\\n\t') | st.characters())) for d in darts}
    points = {d: draw(st.tuples(coords, coords, coords)) for d in darts}
    # one orbit per dart, so the layers keep the map valid
    none = OrbitType(())
    return Gmap(
        g.graph,
        [
            EmbeddingLayer("label", none, "string", labels),
            EmbeddingLayer("pos", none, "point3d", points),
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
