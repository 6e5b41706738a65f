"""Text formats: .gmap documents, the .jrule scheme DSL, OFF import,
OBJ export.

Both text formats are whitespace-insensitive with ``#`` line comments
and round-trip byte-identically through their canonical serialization:
darts lexicographic, links by (dim, ends), embeddings by name, scheme
nodes by name.  All output uses LF line endings.

A ``.gmap`` document is read record by record (the header, a dart name,
a link, a layer header, one dart's value) with patterns built from the
tokenizer's own, and the map is built in one step.  Any record the scan
cannot read, or a map that cannot be built, hands the whole document to
the tokenizer, which reports the error and its position.  ``.jrule``
schemes are read token by token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import Any

from .errors import (
    EmbeddingError,
    GmapError,
    ParseError,
    PostValidationError,
    SchemeError,
    UnknownLayerError,
)
from .gmap import EmbeddingLayer, Gmap, VALUE_TYPES
from .graph import LabeledGraph
from .orbits import REMOVE, GeneralizedOrbitType, OrbitType
from .scheme import GraphScheme, RuleScheme, SchemeArc

_GMAP_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_@#-]*")
_RULE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
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
    rf"{_SKIP}|(?P<IDENT>{_RULE_IDENT.pattern})|(?P<NUMBER>\d+)|(?P<SYMBOL>[{{}}<>,:-])|(?P<BAD>.)"
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
                self._tokens.append(_Token(kind, _unquote(s), line, col))
            elif kind != "WS":
                self._tokens.append(_Token(s if kind == "SYMBOL" else kind, s, line, col))
            col += len(s)
        self._tokens.append(_Token("EOF", "", line, col))
        self._pos = 0

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
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

    def expect_number(self) -> tuple[str, float]:
        tok = self.peek()
        if tok.kind != "NUMBER":
            self.error(f"expected a number, found {tok.text!r}")
        self.next()
        return tok.text, float(tok.text)


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
            if not _RULE_IDENT.fullmatch(name):
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


def _parse_value(tz: _Tokenizer, value_type: str) -> Any:
    if value_type == "string":
        tok = tz.peek()
        if tok.kind != "STRING":
            tz.error(f"expected a quoted string, found {tok.text!r}")
        tz.next()
        return tok.text
    if value_type == "scalar":
        return tz.expect_number()[1]
    arity = {"point2d": 2, "point3d": 3, "color_rgb": 3}[value_type]
    out = []
    for _ in range(arity):
        tok = tz.peek()
        text, num = tz.expect_number()
        if value_type == "color_rgb":
            if not text.lstrip("-").isdigit():
                tz.error(f"color components must be integers, found {text!r}")
            out.append(_integer(text, tok.line, tok.column))
        else:
            out.append(num)
    return tuple(out)


# Record patterns of a .gmap document, built from the tokenizer's own
# sub-patterns.  Each token ends where the tokenizer's would: the
# lookaheads forbid a character that would extend it, so a record
# matches the tokens _GMAP_TOKENS makes of the same text or does not
# match at all.  A comment must run to the end of its line, so blanks
# and comments split in one way only and a failed match backtracks
# through them in time linear in their length.
_B = rf"[ \t\r\n]*(?:{_COMMENT}(?![^\n])[ \t\r\n]*)*"
_WORD_END = r"(?![A-Za-z0-9_@#-])"
_NUMBER_END = r"(?!\d|\.\d|[eE][+-]?\d)"
_ID = rf"({_GMAP_IDENT.pattern}){_WORD_END}"
_NAT = rf"(\d+){_NUMBER_END}"
_NUM = rf"({_NUMBER}){_NUMBER_END}"
_INT = rf"(-?\d+){_NUMBER_END}"


@cache
def _record(*parts: str) -> re.Pattern:
    """Tokens in sequence, blanks before each; a keyword is a bare word.
    Compiled at first use, so a process that reads no .gmap document
    does not pay for it."""
    tokens = (rf"{p}{_WORD_END}" if p.isalpha() else p for p in parts)
    return re.compile("".join(_B + t for t in tokens), re.S)


#: value type -> (the tokens of one value, the value from their groups)
_VALUE_TOKENS = {
    "string": ((f"({_STRING})",), lambda v: _unquote(v[0])),
    "scalar": ((_NUM,), lambda v: float(v[0])),
    "point2d": ((_NUM, _NUM), lambda v: tuple(map(float, v))),
    "point3d": ((_NUM, _NUM, _NUM), lambda v: tuple(map(float, v))),
    "color_rgb": ((_INT, _INT, _INT), lambda v: tuple(map(int, v))),
}


def _scan_gmap(text: str) -> Gmap | None:
    """The map of a .gmap document read record by record, or ``None`` at
    the first record that does not match or a dart's second value."""
    if not (m := _record("dimension", _NAT, "darts", r"\{").match(text)):
        return None
    n, pos = int(m[1]), m.end()
    darts, dart = [], _record(_ID).match
    while m := dart(text, pos):
        darts.append(m[1])
        pos = m.end()
    if not (m := _record(r"\}", "links", r"\{").match(text, pos)):
        return None
    pos = m.end()
    links, link = [], _record(_NAT, ":", _ID, f"(?:{_ID})?").match
    while m := link(text, pos):
        dim, a, b = m.groups()
        links.append((int(dim), (a,) if b is None else (a, b)))
        pos = m.end()
    if not (m := _record(r"\}").match(text, pos)):
        return None
    pos = m.end()
    layers = []
    if m := _record("embeddings", r"\{").match(text, pos):
        pos = m.end()
        while m := _record(_ID, r"\{", "orbit", ":").match(text, pos):
            name, pos = m[1], m.end()
            dims = []
            while m := _record(_NAT).match(text, pos):
                dims.append(int(m[1]))
                pos = m.end()
            m = _record("type", ":", _ID, "values", r"\{").match(text, pos)
            if not m or m[1] not in _VALUE_TOKENS:
                return None
            value_type, pos = m[1], m.end()
            tokens, value = _VALUE_TOKENS[value_type]
            values, record = {}, _record(_ID, ":", *tokens).match
            while m := record(text, pos):
                dart_name, *parts = m.groups()
                if dart_name in values:
                    return None
                values[dart_name] = value(parts)
                pos = m.end()
            if not (m := _record(r"\}", r"\}").match(text, pos)):
                return None
            pos = m.end()
            layers.append(EmbeddingLayer(name, OrbitType(tuple(dims)), value_type, values))
        if not (m := _record(r"\}").match(text, pos)):
            return None
        pos = m.end()
    if not _record(r"\Z").match(text, pos):
        return None
    return Gmap(LabeledGraph.build(n, darts, links), layers)


def parse_gmap(text: str) -> Gmap:
    """Parse a .gmap document; structural invariants are enforced, the
    topological constraints are not (run ``validate`` separately).

    The document is read record by record.  If a record does not match,
    or the map it describes cannot be built, the whole text is parsed
    again token by token, which raises its first error with the position.
    """
    try:
        g = _scan_gmap(text)
    except (GmapError, ValueError):  # ValueError: int() of over 4300 digits
        g = None
    return _parse_gmap_tokens(text) if g is None else g


def _parse_gmap_tokens(text: str) -> Gmap:
    """Token by token: the parse that reports a document's first error."""
    tz = _Tokenizer(text, _GMAP_TOKENS)
    tz.expect_keyword("dimension")
    n = tz.expect_nat()
    graph = LabeledGraph(n)

    tz.expect_keyword("darts")
    tz.expect("{")
    while tz.peek().kind == "IDENT":
        tok = tz.next()
        try:
            graph._add_node(tok.text)
        except GmapError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from exc
    tz.expect("}")

    tz.expect_keyword("links")
    tz.expect("{")
    while tz.peek().kind == "NUMBER":
        tok = tz.peek()
        dim = tz.expect_nat()
        tz.expect(":")
        ends = [tz.expect("IDENT").text]
        if tz.peek().kind == "IDENT":
            ends.append(tz.next().text)
        try:
            graph._add_link(ends, dim)
        except GmapError as exc:
            exc.args = (f"{exc.args[0]} (line {tok.line})",) + exc.args[1:]
            raise
    tz.expect("}")

    layers = []
    if tz.at_keyword("embeddings"):
        tz.next()
        tz.expect("{")
        while tz.peek().kind == "IDENT":
            name = tz.next().text
            tz.expect("{")
            tz.expect_keyword("orbit")
            tz.expect(":")
            dims = []
            while tz.peek().kind == "NUMBER":
                dims.append(tz.expect_nat())
            tz.expect_keyword("type")
            tz.expect(":")
            vt_tok = tz.expect("IDENT")
            if vt_tok.text not in VALUE_TYPES:
                tz.error(f"unknown value type {vt_tok.text!r}", vt_tok)
            tz.expect_keyword("values")
            tz.expect("{")
            values = {}
            while tz.peek().kind == "IDENT":
                dart = tz.next()
                if dart.text in values:
                    tz.error(f"dart {dart.text!r} has two values in layer {name!r}", dart)
                tz.expect(":")
                values[dart.text] = _parse_value(tz, vt_tok.text)
            tz.expect("}")
            tz.expect("}")
            layers.append(EmbeddingLayer(name, OrbitType(tuple(dims)), vt_tok.text, values))
        tz.expect("}")
    tz.expect("EOF")
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
