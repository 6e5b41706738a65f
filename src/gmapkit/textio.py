"""Text formats: .gmap documents, the .jrule scheme DSL, OFF import,
OBJ export.

Both text formats are whitespace-insensitive with ``#`` line comments
and round-trip byte-identically through their canonical serialization:
darts lexicographic, links by (dim, ends), embeddings by name, scheme
nodes by name.  All output uses LF line endings.

A ``.gmap`` document is read record by record (the header, a dart name,
a link, a layer header, one dart's value) with patterns built from the
tokenizer's own, and the map is built in one step.  Only an error lexes
the text, once, to raise it with the message, line and column of reading
the document token by token.  ``.jrule`` schemes are read token by token.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from typing import Any, NoReturn

from .errors import (
    EmbeddingError,
    GmapError,
    ParseError,
    PostValidationError,
    SchemeError,
    UnknownLayerError,
)
from .gmap import _GMAP_CHAR, _GMAP_IDENT, EmbeddingLayer, Gmap
from .graph import LabeledGraph
from .orbits import REMOVE, GeneralizedOrbitType, OrbitType
from .scheme import _NAME, GraphScheme, RuleScheme, SchemeArc

_NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_COMMENT = r"#[^\n]*"
_SKIP = rf"(?P<NL>\n)|(?P<WS>[ \t\r]+)|(?P<COMMENT>{_COMMENT})"
# re.S lets an escape in a string take a newline
_GMAP_TOKENS = re.compile(
    rf'{_SKIP}|(?P<STRING>{_STRING})|(?P<OPEN>")|(?P<IDENT>{_GMAP_IDENT.pattern})'
    rf"|(?P<NUMBER>{_NUMBER})|(?P<SYMBOL>[{{}}:])|(?P<BAD>.)",
    re.S,
)
_RULE_TOKENS = re.compile(
    rf"{_SKIP}|(?P<IDENT>{_NAME.pattern})|(?P<NUMBER>\d+)|(?P<SYMBOL>[{{}}<>,:-])|(?P<BAD>.)"
)
_ESCAPE = re.compile(r"\\(.)", re.S)
_ESCAPES = {"n": "\n", "t": "\t"}


def _integer(text: str, line: int, column: int) -> int:
    """``int(text)``; a syntax error at ``line``, ``column`` when ``text``
    has more digits than the interpreter converts (4,300 by default)."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ParseError(f"number of {digits} digits is too long", line, column) from None


def _unquote(string: str) -> str:
    """The text of a quoted ``.gmap`` string token."""
    return _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), string[1:-1])


# slots, not a NamedTuple: a 3.6k-dart map has ~43k tokens, and the
# larger tuple raised peak RSS by ~2 MB
@dataclass(slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int
    start: int  # offset of its first character in the text


class _Tokenizer:
    """Scanner shared by the two text formats.

    ``pattern`` is the format's master pattern, ``_GMAP_TOKENS`` or
    ``_RULE_TOKENS``; its alternatives are tried in order: newline,
    blanks, ``#`` comment, string (``.gmap`` only), identifier, number,
    symbol, and any other character, which is an error.  A string that
    fails to close before a raw newline or the end of the text is an
    error at its opening quote.  Symbols are their own token kind.
    Columns count characters from 1, but a comment does not advance the
    column and a backslash-newline inside a string does not advance the
    line.
    """

    def __init__(self, text: str, pattern: re.Pattern):
        self._tokens: list[_Token] = []
        line, col = 1, 1
        for m in pattern.finditer(text):
            kind, s = m.lastgroup, m.group()
            if kind == "NL":
                line, col = line + 1, 1
                continue
            if kind == "COMMENT":
                continue
            if kind == "OPEN":
                raise ParseError("unterminated string", line, col)
            if kind == "BAD":
                raise ParseError(f"unexpected character {s!r}", line, col)
            if kind == "STRING":
                self._tokens.append(_Token(kind, _unquote(s), line, col, m.start()))
            elif kind != "WS":
                self._tokens.append(_Token(s if kind == "SYMBOL" else kind, s, line, col, m.start()))
            col += len(s)
        self._tokens.append(_Token("EOF", "", line, col, len(text)))
        self._pos = 0

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {kind}, found {tok.text!r}")
        return self.next()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            self.error(f"expected {word!r}, found {tok.text!r}")
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or not tok.text.isdigit():
            self.error(f"expected a natural number, found {tok.text!r}")
        self.next()
        return _integer(tok.text, tok.line, tok.column)


# ---------------------------------------------------------------------------
# .gmap documents


def _format_value(value_type: str, value: Any) -> str:
    if value_type == "string":
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if value_type == "scalar":
        return repr(value)
    if value_type == "color_rgb":
        return " ".join(str(c) for c in value)
    return " ".join(repr(c) for c in value)


def serialize_gmap(g: Gmap) -> str:
    """Canonical document for ``g``; parsing it back yields an equal map."""
    for d in g.darts:
        if not _GMAP_IDENT.fullmatch(d):
            raise GmapError(f"dart name {d!r} is not serializable")
    lines = [f"dimension {g.n}"]
    lines.append("darts {")
    lines.extend(f"  {d}" for d in sorted(g.darts))
    lines.append("}")
    lines.append("links {")
    for dim, ends in sorted((l.dim, l.ends) for l in g.graph.links):
        lines.append(f"  {dim}: {' '.join(ends)}")
    lines.append("}")
    if g.embeddings:
        lines.append("embeddings {")
        for name in sorted(g.embeddings):
            layer = g.embeddings[name]
            if not _GMAP_IDENT.fullmatch(name):
                raise GmapError(f"layer name {name!r} is not serializable")
            lines.append(f"  {name} {{")
            dims = " ".join(str(d) for d in layer.domain)
            lines.append(f"    orbit:{' ' + dims if dims else ''}")
            lines.append(f"    type: {layer.value_type}")
            lines.append("    values {")
            for dart in sorted(layer.values):
                lines.append(f"      {dart}: {_format_value(layer.value_type, layer.values[dart])}")
            lines.append("    }")
            lines.append("  }")
        lines.append("}")
    return "\n".join(lines) + "\n"


# Record patterns of a .gmap document, built from the tokenizer's own
# sub-patterns.  Each token ends where the tokenizer's would: the
# lookaheads forbid a character that would extend it, so a record
# matches the tokens _GMAP_TOKENS makes of the same text or does not
# match at all.  A comment must run to the end of its line, so blanks
# and comments split in one way only and a failed match backtracks
# through them in time linear in their length.
_B = rf"[ \t\r\n]*(?:{_COMMENT}(?![^\n])[ \t\r\n]*)*"
_WORD_END = rf"(?!{_GMAP_CHAR})"
_NUMBER_END = r"(?!\d|\.\d|[eE][+-]?\d)"
_ID = rf"({_GMAP_IDENT.pattern}){_WORD_END}"
_NAT = rf"(\d+){_NUMBER_END}"
# the tokenizer's number takes an exponent where one follows, and a name
# may follow an exponent: 3e5e5 is the number 3e5, then the name e5
_NUM = r"(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+(?!\d)|(?![eE][+-]?\d)))(?!\d|\.\d)"
_INT = rf"(-?\d+){_NUMBER_END}"
_STR = rf"({_STRING})"

_HEADER = ("dimension", _NAT, "darts", r"\{")
_LINK = (_NAT, ":", _ID)
_LAYER = (_ID, r"\{", "orbit", ":")
_TYPE = ("type", ":", _ID)

#: record part -> the kind of its token, and the token's name in an error;
#: a keyword part is an IDENT of that text
_PART_TOKENS = {
    _ID: ("IDENT", "IDENT"),
    _NAT: ("NUMBER", "a natural number"),
    _NUM: ("NUMBER", "a number"),
    _INT: ("NUMBER", "a number"),
    _STR: ("STRING", "a quoted string"),
    r"\{": ("{", "{"),
    r"\}": ("}", "}"),
    ":": (":", ":"),
    r"\Z": ("EOF", "EOF"),
}


@cache
def _record(*parts: str) -> re.Pattern:
    """Tokens in sequence, blanks before each; a keyword is a bare word.
    Compiled at first use, so a process that reads no .gmap document
    does not pay for it."""
    tokens = (rf"{p}{_WORD_END}" if p.isalpha() else p for p in parts)
    return re.compile("".join(_B + t for t in tokens), re.S)


#: value type -> (the tokens of one value, the value from their groups)
_VALUE_TOKENS = {
    "string": ((_STR,), lambda v: _unquote(v[0])),
    "scalar": ((_NUM,), lambda v: float(v[0])),
    "point2d": ((_NUM, _NUM), lambda v: tuple(map(float, v))),
    "point3d": ((_NUM, _NUM, _NUM), lambda v: tuple(map(float, v))),
    "color_rgb": ((_INT, _INT, _INT), lambda v: tuple(map(int, v))),
}


def _fail(text: str, pos: int, parts: tuple = (), loop: tuple = (), message: str = "") -> NoReturn:
    """Raise the first error of a document whose record at ``pos`` the
    scan could not read: the error, line and column of reading the
    document token by token.

    A lexical error anywhere comes first.  Then the record's tokens are
    read one by one: ``loop``'s, if the token at ``pos`` can start it,
    else ``parts``'.  The first token that is not what its part reads
    is the error; if there is none, ``message`` is, at the token after
    the record."""
    tz = _Tokenizer(text, _GMAP_TOKENS)
    tz._pos = bisect_left(tz._tokens, pos, key=attrgetter("start"))
    if loop:
        first = loop[0]
        if tz.at_keyword(first) if first.isalpha() else tz.peek().kind == _PART_TOKENS[first][0]:
            parts = loop
    for part in parts:
        if part.isalpha():
            tz.expect_keyword(part)
            continue
        tok, (kind, name) = tz.peek(), _PART_TOKENS[part]
        if tok.kind != kind or part == _NAT and not tok.text.isdigit():
            tz.error(f"expected {name}, found {tok.text!r}")
        tz.next()
        if part == _INT and not tok.text.lstrip("-").isdigit():
            tz.error(f"color components must be integers, found {tok.text!r}")
        if part in (_NAT, _INT):
            _integer(tok.text, tok.line, tok.column)
    if message:
        tz.error(message)
    raise AssertionError(f"the scan stopped at a record that reads as tokens: {tz.peek()}")


def _build(text: str, n: int, darts: list[str], links: list) -> LabeledGraph:
    """The graph of a document's darts and links.  A repeated dart is a
    syntax error at its token, a bad link an error naming its line."""
    graph = LabeledGraph(n)
    try:
        graph._edit(nodes=darts, links=links)
    except GmapError as exc:
        # the edits before the error are done: the count of nodes, or
        # else of links, added is the index of the failing one
        tokens = _Tokenizer(text, _GMAP_TOKENS)._tokens  # a lexical error comes first
        if len(graph) < len(darts):
            tok = tokens[len(_HEADER) + len(graph)]
            raise ParseError(str(exc), tok.line, tok.column) from exc
        k = len(_HEADER) + len(darts) + 3  # the first link's first token
        for _ in graph.links:
            k += 4 if tokens[k + 3].kind == "IDENT" else 3
        exc.args = (f"{exc.args[0]} (line {tokens[k].line})",) + exc.args[1:]
        raise
    return graph


def parse_gmap(text: str) -> Gmap:
    """Parse a .gmap document; structural invariants are enforced, the
    topological constraints are not (run ``validate`` separately).

    The document is read record by record; its first error is raised
    as reading it token by token raises it, with its position."""
    pos, reading = 0, _HEADER  # the record a number past int()'s digit limit is in
    try:
        if not (m := _record(*_HEADER).match(text)):
            _fail(text, pos, _HEADER)
        n, pos = int(m[1]), m.end()
        darts, links, dart = [], [], _record(_ID).match
        # the graph is built even when a record fails to read, so that an
        # error at a dart or link before that record comes first
        try:
            while m := dart(text, pos):
                darts.append(m[1])
                pos = m.end()
            if not (m := _record(r"\}", "links", r"\{").match(text, pos)):
                _fail(text, pos, (r"\}", "links", r"\{"))
            pos, reading = m.end(), _LINK
            link = _record(*_LINK, f"(?:{_ID})?").match
            while m := link(text, pos):
                dim, a, b = m.groups()
                links.append((int(dim), (a,) if b is None else (a, b)))
                pos = m.end()
            if not (m := _record(r"\}").match(text, pos)):
                _fail(text, pos, (r"\}",), _LINK)
            pos = m.end()
        finally:
            graph = _build(text, n, darts, links)
        layers = []
        if embeddings := _record("embeddings", r"\{").match(text, pos):
            pos = embeddings.end()
            while m := _record(*_LAYER).match(text, pos):
                name, pos = m[1], m.end()
                dims, reading = [], (_NAT,)
                while m := _record(_NAT).match(text, pos):
                    dims.append(int(m[1]))
                    pos = m.end()
                if not (m := _record(*_TYPE).match(text, pos)):
                    _fail(text, pos, _TYPE, (_NAT,))
                value_type, pos = m[1], m.end()
                if value_type not in _VALUE_TOKENS:
                    _fail(text, m.start(1), message=f"unknown value type {value_type!r}")
                if not (m := _record("values", r"\{").match(text, pos)):
                    _fail(text, pos, ("values", r"\{"))
                pos = m.end()
                tokens, value = _VALUE_TOKENS[value_type]
                reading = (_ID, ":", *tokens)
                values, record = {}, _record(*reading).match
                while m := record(text, pos):
                    dart_name, *parts = m.groups()
                    if dart_name in values:
                        break
                    values[dart_name] = value(parts)
                    pos = m.end()
                if not (m := _record(r"\}", r"\}").match(text, pos)):
                    if (m := dart(text, pos)) and m[1] in values:
                        _fail(text, pos, message=f"dart {m[1]!r} has two values in layer {name!r}")
                    _fail(text, pos, (r"\}", r"\}"), reading)
                pos = m.end()
                try:
                    layers.append(EmbeddingLayer(name, OrbitType(tuple(dims)), value_type, values))
                except GmapError:
                    _Tokenizer(text, _GMAP_TOKENS)  # a lexical error comes first
                    raise
            if not (m := _record(r"\}").match(text, pos)):
                _fail(text, pos, (r"\}",), _LAYER)
            pos = m.end()
        if not _record(r"\Z").match(text, pos):
            _fail(text, pos, (r"\Z",), () if embeddings else ("embeddings", r"\{"))
    except ValueError:  # int() of a number past the digit limit
        _fail(text, pos, reading)
    return Gmap(graph, layers)


# ---------------------------------------------------------------------------
# .jrule rule schemes


def serialize_rule_scheme(rule: RuleScheme) -> str:
    """Canonical .jrule text: nodes sorted by name, arcs normalized."""
    lines = [f"rule {rule.name} {rule.parameter!r} {{"]
    for side_name, scheme in (("left", rule.left), ("right", rule.right)):
        lines.append(f"  {side_name} {{")
        for node, deco in sorted(scheme.nodes):
            hook = " hook" if side_name == "left" and node == rule.hook else ""
            lines.append(f"    {node}: {deco!r}{hook}")
        arcs = sorted(
            (min(a.a, a.b), a.dim, max(a.a, a.b)) for a in scheme.arcs
        )
        for a, dim, b in arcs:
            lines.append(f"    {a} -{dim}- {b}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_gorbit(tz: _Tokenizer) -> GeneralizedOrbitType:
    tz.expect("<")
    entries: list = []
    while True:
        tok = tz.peek()
        if tok.kind == "IDENT" and tok.text == "_":
            tz.next()
            entries.append(REMOVE)
        else:
            entries.append(tz.expect_nat())
        if tz.peek().kind == ",":
            tz.next()
            continue
        break
    tz.expect(">")
    return GeneralizedOrbitType(tuple(entries))


def _parse_block(tz: _Tokenizer, side: str):
    tz.expect_keyword(side)
    tz.expect("{")
    nodes: list[tuple[str, GeneralizedOrbitType]] = []
    arcs: list[SchemeArc] = []
    hooks: list[str] = []
    while tz.peek().kind == "IDENT" and tz.peek().text not in ("left", "right"):
        name_tok = tz.expect("IDENT")
        sep = tz.peek()
        if sep.kind == ":":
            tz.next()
            deco = _parse_gorbit(tz)
            if tz.at_keyword("hook"):
                tz.next()
                hooks.append(name_tok.text)
            nodes.append((name_tok.text, deco))
        elif sep.kind == "-":
            tz.next()
            dim = tz.expect_nat()
            tz.expect("-")
            other = tz.expect("IDENT").text
            arcs.append(SchemeArc(name_tok.text, dim, other))
        else:
            tz.error(f"expected ':' or '-' after {name_tok.text!r}")
    tz.expect("}")
    return nodes, arcs, hooks


def parse_rule_scheme(text: str) -> RuleScheme:
    """Parse the rule DSL::

        rule NAME <dims> { left { decls } right { decls } }

    where a declaration is either ``node: <entries> [hook]`` (entries
    are naturals or ``_``) or an arc ``node -dim- node``.  Exactly one
    hook, in the left block.
    """
    tz = _Tokenizer(text, _RULE_TOKENS)
    tz.expect_keyword("rule")
    name = tz.expect("IDENT").text
    tz.expect("<")
    dims = [tz.expect_nat()]
    while tz.peek().kind == ",":
        tz.next()
        dims.append(tz.expect_nat())
    tz.expect(">")
    parameter = OrbitType(tuple(dims))
    tz.expect("{")
    left_nodes, left_arcs, left_hooks = _parse_block(tz, "left")
    right_nodes, right_arcs, right_hooks = _parse_block(tz, "right")
    tz.expect("}")
    tz.expect("EOF")

    if right_hooks:
        raise SchemeError(f"hook {right_hooks[0]!r} must be declared in the left block")
    if not left_hooks:
        raise SchemeError(f"rule {name!r} has no hook")
    if len(left_hooks) > 1:
        raise SchemeError(f"rule {name!r} has multiple hooks: {', '.join(left_hooks)}")

    left = GraphScheme(parameter, tuple(left_nodes), tuple(left_arcs))
    right = GraphScheme(parameter, tuple(right_nodes), tuple(right_arcs))
    return RuleScheme(name, parameter, left, right, left_hooks[0])


# ---------------------------------------------------------------------------
# OFF / OBJ meshes


def import_off(text: str):
    """Parse an ASCII OFF file into a :class:`PolygonalMesh`."""
    from .mesh import PolygonalMesh

    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows or rows[0][1] != ["OFF"]:
        raise ParseError("missing OFF header", rows[0][0] if rows else 1, 1)
    if len(rows) < 2:
        raise ParseError("missing OFF counts line", rows[0][0], 1)
    lineno, counts = rows[1]
    if len(counts) != 3 or not all(c.isdecimal() for c in counts):
        raise ParseError("counts line must be three naturals", lineno, 1)
    n_vertices, n_faces, _ = (_integer(c, lineno, 1) for c in counts)
    body_rows = rows[2:]
    if len(body_rows) != n_vertices + n_faces:
        raise ParseError(
            f"expected {n_vertices} vertex and {n_faces} face lines, found {len(body_rows)}",
            rows[-1][0],
            1,
        )
    vertices = []
    for lineno, fields in body_rows[:n_vertices]:
        if len(fields) != 3:
            raise ParseError("vertex line must have three coordinates", lineno, 1)
        try:
            vertices.append(tuple(float(f) for f in fields))
        except ValueError:
            raise ParseError(f"bad vertex coordinates {' '.join(fields)!r}", lineno, 1) from None
    faces = []
    for lineno, fields in body_rows[n_vertices:]:
        if not all(f.lstrip("-").isdecimal() for f in fields):
            raise ParseError("face line must contain integers", lineno, 1)
        nums = [_integer(f, lineno, 1) for f in fields]
        if not nums or len(nums) != nums[0] + 1:
            raise ParseError("face line must start with its vertex count", lineno, 1)
        faces.append(tuple(nums[1:]))
    return PolygonalMesh(tuple(vertices), tuple(faces))


def export_obj(g: Gmap, pos_layer: str = "pos") -> str:
    """Wavefront OBJ text for a valid 2-Gmap with a point3d vertex layer.

    One ``v`` line per vertex cell (least-dart order), one ``f`` line
    per face cell with 1-based indices, corners walked by alternating
    the 0- and 1-involutions from the face's least dart.
    """
    if g.n != 2:
        raise GmapError(f"OBJ export needs a 2-Gmap, got dimension {g.n}")
    if pos_layer not in g.embeddings:
        raise UnknownLayerError(f"unknown embedding layer {pos_layer!r}")
    layer = g.embeddings[pos_layer]
    if layer.value_type != "point3d" or layer.domain != OrbitType((1, 2)):
        raise EmbeddingError(
            f"layer {pos_layer!r} must be point3d on the vertex orbit type <1,2>"
        )
    report = g.validate()
    if not report.ok:
        raise PostValidationError("cannot export an invalid map", report)

    vertex_cells = g.cells(0)
    vertex_index = {}
    lines = []
    for idx, cell in enumerate(vertex_cells, start=1):
        for dart in cell:
            vertex_index[dart] = idx
        x, y, z = layer.values[cell[0]]
        lines.append(f"v {x!r} {y!r} {z!r}")
    for cell in g.cells(2):
        corners = len(cell) // 2
        if corners < 3:
            raise GmapError(f"face cell of {cell[0]!r} has {corners} corners, need >= 3")
        indices = []
        dart = cell[0]
        for _ in range(corners):
            indices.append(vertex_index[dart])
            dart = g.alpha(g.alpha(dart, 0), 1)
        if dart != cell[0]:
            raise GmapError(f"face walk from {cell[0]!r} did not close")
        lines.append("f " + " ".join(str(i) for i in indices))
    return "\n".join(lines) + "\n"
