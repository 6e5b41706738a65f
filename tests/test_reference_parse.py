"""``parse_gmap``, canonical runs and then the token reader, against the
frozen token parser, and ``parse_rule_scheme`` against the frozen
token-list one.

Both ``.gmap`` parsers read the same texts: canonical documents of
random maps with a layer of every value type, the same documents
reflowed (blanks and line breaks of every kind, ``#`` comments, no
blank next to a symbol), planted faults, and random edits of all of
these.  They must give the same map, per-dart link lists and link ids
included, or raise the same exception class with the same message.
``parse_gmap`` lexes a document only to place an error, so a document
that is only reflowed must parse with the lexer switched off.

``parse_gmap`` reads a canonical section in runs of up to 64 records and
reads on token by token where a run stops, so both parsers also read
a unified grid of a few hundred records per section with a few lines
edited past the first run: comments, blank lines, CRLF, a link's last
end on the next line, huge link dimensions, repeated darts and values
spelled apart.  A document that parses must do so without the lexer,
and its darts whose values are spelled alike, and only those, must
share one value object.

Canonical runs take integers of up to 640 digits, the lowest limit
``sys.set_int_max_str_digits`` accepts, and leave longer ones to the
token reader; documents with numbers at either side of that bound read
as the frozen parser reads them, and under that limit the longer one is
a syntax error at its own place.

Both ``.jrule`` parsers read random edits of the fixture rules and must
give equal schemes or the same exception class and message; a rule that
parses must do so without the lexer.
"""

import re
import sys
from contextlib import contextmanager
from functools import cache
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from gmapkit import (
    EmbeddingLayer,
    Gmap,
    GmapError,
    OrbitType,
    ParseError,
    RuleScheme,
    parse_gmap,
    parse_rule_scheme,
    serialize_gmap,
    textio,
)
from gmapkit.gmap import VALUE_TYPES
from gmapkit.mesh import unify

from oracle import random_valid_gmap
from reference_parse import reference_parse_gmap, reference_parse_rule_scheme
from test_graph import grid_mesh
from test_properties import RULE_TEXTS, mutated

# no explain phase: on a failing run, tracing the lines that each failing
# example runs grew this module past 1.3 GB within five minutes; without
# it the same failing run ended in 21 s at 95 MB
SETTINGS = settings(
    max_examples=500, deadline=None, database=None, phases=[p for p in Phase if p is not Phase.explain]
)

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


@SETTINGS
@given(documents())
def test_scan_agrees_with_the_token_parser(document):
    text, clean = document
    expected = _outcome(reference_parse_gmap, text)
    assert _outcome(parse_gmap, text) == expected
    if clean:
        with mock.patch.object(textio, "_lex", side_effect=AssertionError("lexed")):
            assert _outcome(parse_gmap, text) == expected


#: value type -> the value of the k-th dart, one of a few, so darts share
SCALE_VALUES = {
    "string": lambda k: ["", 'say "hi"\n', "x\\y", "a: b"][k % 4],
    "scalar": lambda k: [0.0, -0.0, 1.0, 1e-05, 2.5e20][k % 5],
    "point2d": lambda k: (float(k % 3), -0.5),
    "color_rgb": lambda k: (k % 7, 255, -(k % 2)),
}


@cache
def scale_lines() -> tuple[str, ...]:
    """The lines of the canonical document of a unified 324-dart grid
    (510 links) with its ``pos`` layer and a layer of every other value
    type."""
    g = unify(grid_mesh(6))
    darts = sorted(g.darts)
    layers = [
        EmbeddingLayer(kind, OrbitType(()), kind, {d: value(k) for k, d in enumerate(darts)})
        for kind, value in SCALE_VALUES.items()
    ]
    return tuple(serialize_gmap(Gmap(g.graph, [*g.embeddings.values(), *layers])).split("\n"))


def _sections(lines) -> dict[str, list[int]]:
    """Section -> the indices of its record lines: ``darts``, ``links``
    and each layer by name."""
    sections, records, layer = {}, None, None
    for k, line in enumerate(lines):
        word = line.strip(" {")
        if word in ("darts", "links"):
            records = sections[word] = []
        elif word == "values":
            records = sections[layer] = []
        elif line.endswith("{"):
            layer = word
        elif word == "}":
            records = None
        elif records is not None:
            records.append(k)
    return sections


HUGE = "1" * 5000  # past int()'s 4,300-digit limit
EVERYWHERE = ["comment", "blank line", "CRLF"]
SECTION_EDITS = {
    "darts": EVERYWHERE + ["repeated dart"],
    "links": EVERYWHERE + ["last end on the next line", "ten-digit dimension", "dimension past int()"],
    # a value's tokens all spelled as one of these
    "values": EVERYWHERE + ["repeated dart", "1e5e5", "-0.0", "0.0", "1.0", "1.00", HUGE],
}


@st.composite
def scale_documents(draw):
    """The scale document with one to three records past the first run
    of their section edited."""
    lines = list(scale_lines())
    sections = _sections(lines)
    edits = {}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(SECTION_EDITS)))
        layers = [name for name in sections if name not in SECTION_EDITS]
        records = sections[kind if kind != "values" else draw(st.sampled_from(layers))]
        k = draw(st.integers(64, len(records) - 1))
        edit = draw(st.sampled_from(SECTION_EDITS[kind]))
        edits[records[k]] = edit, records[draw(st.integers(0, k))]
    for at in sorted(edits, reverse=True):
        (edit, earlier), line = edits[at], lines[at]
        before, _, last = line.rpartition(" ")  # a link without its last end
        head, _, value = line.partition(": ")
        lines[at : at + 1] = {
            "comment": ["# a comment", line],
            "blank line": ["", line],
            "CRLF": [line + "\r"],
            "repeated dart": [line, lines[earlier]],
            "last end on the next line": [before, "  " + last],
            "ten-digit dimension": ["  1234567890: " + value],
            "dimension past int()": [f"  {HUGE}: {value}"],
        }.get(edit, [f"{head}: {' '.join([edit] * len(value.split()))}"])
    return "\n".join(lines)


def _spellings(text: str) -> dict[str, dict[str, str]]:
    """Layer -> dart -> the text of its value, in a document with one
    record a line."""
    spelled, values = {}, None
    for line in text.splitlines():
        if m := re.fullmatch(r"  (\S+) \{", line):
            values = spelled[m[1]] = {}
        elif m := re.fullmatch(r"      (\S+): (.*)", line):
            values[m[1]] = m[2]
    return spelled


def _classes(key_of: dict) -> set[frozenset]:
    """The keys of ``key_of`` grouped by their value."""
    classes = {}
    for dart, key in key_of.items():
        classes.setdefault(key, set()).add(dart)
    return set(map(frozenset, classes.values()))


def _expected(text: str):
    """The frozen parser's outcome; where it lets int() raise past the
    digit limit, the syntax error that ``parse_gmap`` raises at the number."""
    outcome = _outcome(reference_parse_gmap, text)
    if outcome[0] is ValueError:
        at = text.index(HUGE)
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        return ParseError, str(ParseError(f"number of {len(HUGE)} digits is too long", line, column))
    return outcome


@settings(SETTINGS, max_examples=100)
@given(scale_documents())
def test_scan_agrees_with_the_token_parser_at_scale(text):
    expected = _expected(text)
    if not isinstance(expected[0], str):  # an error
        assert _outcome(parse_gmap, text) == expected
        return
    with mock.patch.object(textio, "_lex", side_effect=AssertionError("lexed")):
        assert _outcome(parse_gmap, text) == expected
        g = parse_gmap(text)
    spellings = _spellings(text)
    for name, layer in g.embeddings.items():
        shared = _classes({d: id(v) for d, v in layer.values.items()})
        assert shared == _classes(spellings[name]), name


def _rule_outcome(parse, text):
    try:
        return parse(text)
    except (GmapError, ValueError) as exc:
        return type(exc), str(exc)


def _long_number_documents(digits: int) -> dict[str, tuple[str, str]]:
    """Canonical documents with a number of ``digits`` digits, each with
    the place of its first such number: a color component in the second
    of two values, and the dimension of the second of two links with an
    equally long ``dimension``."""
    big = "9" * digits
    color = (
        "dimension 0\ndarts {\n  a\n  b\n}\nlinks {\n  0: a\n  0: b\n}\n"
        "embeddings {\n  c {\n    orbit: 0\n    type: color_rgb\n    values {\n"
        f"      a: 1 2 3\n      b: 4 -{big} 6\n    }}\n  }}\n}}\n"
    )
    link = f"dimension {big}\ndarts {{\n  a\n  b\n}}\nlinks {{\n  0: a\n  {big}: b\n}}\n"
    return {"color": (color, "line 16, column 12"), "link": (link, "line 1, column 11")}


@contextmanager
def _int_digit_limit(limit: int):
    """``int()``'s digit limit set to ``limit``, then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("kind", ["color", "link"])
def test_runs_take_numbers_of_up_to_640_digits(kind):
    with _int_digit_limit(sys.int_info.default_max_str_digits):
        for digits in (640, 641):
            text, _ = _long_number_documents(digits)[kind]
            expected = _outcome(reference_parse_gmap, text)
            assert expected[0] == text, digits  # canonical
            assert _outcome(parse_gmap, text) == expected, digits
    with _int_digit_limit(640):
        text, _ = _long_number_documents(640)[kind]
        expected = _outcome(reference_parse_gmap, text)
        assert expected[0] == text and _outcome(parse_gmap, text) == expected
        text, place = _long_number_documents(641)[kind]
        with pytest.raises(ParseError) as exc:
            parse_gmap(text)
    assert f"{exc.value.code} {exc.value}" == f"E_SYNTAX number of 641 digits is too long ({place})"


@SETTINGS
@given(mutated(RULE_TEXTS))
def test_rule_parser_agrees_with_the_token_list_parser(text):
    expected = _rule_outcome(reference_parse_rule_scheme, text)
    assert _rule_outcome(parse_rule_scheme, text) == expected
    if isinstance(expected, RuleScheme):
        with mock.patch.object(textio, "_lex", side_effect=AssertionError("lexed")):
            assert parse_rule_scheme(text) == expected
