"""The record-scanning ``parse_gmap`` against the frozen token parser.

Both parsers read the same texts: canonical documents of random maps
with a layer of every value type, the same documents reflowed (blanks
and line breaks of every kind, ``#`` comments, no blank next to a
symbol), planted faults, and random edits of all of these.  They must
give the same map, per-dart link lists and link ids included, or raise
the same exception class with the same message.  ``parse_gmap`` lexes
a document only to place an error, so a document that is only reflowed
must parse with the lexer switched off.
"""

import re
from unittest import mock

from hypothesis import given, settings, strategies as st

from gmapkit import EmbeddingLayer, Gmap, GmapError, OrbitType, parse_gmap, serialize_gmap, textio
from gmapkit.gmap import VALUE_TYPES

from oracle import random_valid_gmap
from reference_parse import reference_parse_gmap
from test_properties import mutated

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
VALUES = {
    "string": st.text(alphabet=st.sampled_from('"\\\n\t\r #:{}a') | st.characters(), max_size=4),
    "scalar": FLOATS,
    "point2d": st.tuples(FLOATS, FLOATS),
    "point3d": st.tuples(FLOATS, FLOATS, FLOATS),
    "color_rgb": st.tuples(*[st.integers(-(2**70), 2**70)] * 3),
}


@st.composite
def layered_maps(draw):
    n = draw(st.integers(0, 3))
    g = random_valid_gmap(draw(st.integers(0, 10_000)), n=n, max_darts=6)
    layers = []
    if draw(st.integers(0, 3)):  # most maps have layers
        for k, value_type in enumerate(draw(st.permutations(VALUE_TYPES))):
            domain = OrbitType(tuple(sorted(draw(st.sets(st.integers(0, n))))))
            values = {d: draw(VALUES[value_type]) for d in g.darts}
            layers.append(EmbeddingLayer(f"L{k}", domain, value_type, values))
    return Gmap(g.graph, layers)


def _plant(fault: str, text: str, g: Gmap) -> str:
    """``text``, the canonical document of ``g``, with one fault."""
    lines = text.splitlines()
    dart = min(g.darts)
    links_at = lines.index("links {") + 1
    value_at = [k for k, line in enumerate(lines) if line.startswith("      ")]
    number_at = [k for k in value_at if not lines[k].endswith('"')]
    if fault == "duplicate dart":
        lines.insert(2, f"  {dart}")
    elif fault == "unknown first end":
        lines.insert(links_at, f"  0: zz {dart}")
    elif fault == "unknown second end":
        lines.insert(links_at, f"  0: {dart} zz")
    elif fault == "dim out of range":
        lines.insert(links_at, f"  {g.n + 1}: {dart}")
    elif fault == "-1":
        lines.insert(links_at, f"  -1: {dart}")
    elif fault == "1.0":  # 1.0, or 0.0 in dimension 0: in range if read as a natural
        lines.insert(links_at, f"  {min(g.n, 1)}.0: {dart}")
    elif fault == "two values" and value_at:
        lines.insert(value_at[-1], lines[value_at[-1]])
    elif fault == "missing value" and value_at:
        del lines[value_at[0]]
    elif fault == "1e999" and number_at:
        name, _, rest = lines[number_at[0]].partition(": ")
        lines[number_at[0]] = f"{name}: {rest.replace(rest.split()[0], '1e999', 1)}"
    elif fault == "exponent glued to a name" and number_at:
        # 3e5e5: the number 3e5, then a value for a dart e5
        name, _, rest = lines[number_at[0]].partition(": ")
        *first, _ = rest.split()
        lines[number_at[0]] = f"{name}: {' '.join(first + ['3e5'])}e5: {rest}"
    elif fault == "type glued to values" and "    values {" in lines:
        at = lines.index("    values {")
        lines[at - 1 : at + 1] = [lines[at - 1] + "values{"]
    else:  # a trailing token, or a layer fault on a map with no layers
        lines.append("x")
    return "\n".join(lines) + "\n"


FAULTS = [
    "duplicate dart",
    "unknown first end",
    "unknown second end",
    "dim out of range",
    "-1",
    "1.0",
    "two values",
    "missing value",
    "1e999",
    "exponent glued to a name",
    "type glued to values",
    "trailing token",
]

# a canonical document's blanks are spaces and newlines outside strings
_PIECES = re.compile(r'("(?:[^"\\\n]|\\.)*")|([ \n]+)|([^ \n"]+)', re.S)
BLANKS = [" ", "\t", "\r\n", "\r", "\n", " \t ", " # note\n", "\n#\n", "\t# {x} : 1\r\n"]


def _reflow(text: str, rng) -> str:
    """``text`` with every blank replaced by blanks and comments, and
    dropped at random next to a symbol."""
    pieces = [m.group() for m in _PIECES.finditer(text)]
    out = []
    for k, piece in enumerate(pieces):
        if piece[0] not in " \n":
            out.append(piece)
            continue
        before = pieces[k - 1] if k else ""
        after = pieces[k + 1] if k + 1 < len(pieces) else ""
        beside_symbol = before[-1:] in ("{", "}", ":") or after[:1] in ("{", "}")
        out.append("" if beside_symbol and rng.random() < 0.3 else rng.choice(BLANKS))
    if rng.random() < 0.2:
        out.append("# no newline at the end")
    return "".join(out)


@st.composite
def documents(draw):
    """A document, and whether it is a valid map's reflowed canonical text."""
    g = draw(layered_maps())
    text = serialize_gmap(g)
    fault = draw(st.sampled_from([None] * 4 + FAULTS))
    if fault:
        text = _plant(fault, text, g)
    if draw(st.booleans()):
        text = _reflow(text, draw(st.randoms(use_true_random=False)))
    edited = draw(st.integers(0, 2)) == 0
    if edited:
        text = draw(mutated([text]))
    return text, fault is None and not edited


def _outcome(parse, text):
    try:
        g = parse(text)
    except (GmapError, ValueError) as exc:
        return type(exc), str(exc)
    try:
        canonical = serialize_gmap(g)
    except GmapError as exc:  # a layer name the tokens allow but serializing does not
        canonical = str(exc)
    adjacency = {d: g.graph.incident_links(d) for d in g.darts}
    return canonical, g.darts, g.graph.links, adjacency


@settings(max_examples=500, deadline=None, database=None)
@given(documents())
def test_scan_agrees_with_the_token_parser(document):
    text, clean = document
    expected = _outcome(reference_parse_gmap, text)
    assert _outcome(parse_gmap, text) == expected
    if clean:
        with mock.patch.object(textio, "_Tokenizer", side_effect=AssertionError("lexed")):
            assert _outcome(parse_gmap, text) == expected
