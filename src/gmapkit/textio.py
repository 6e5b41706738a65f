"""Text formats: .gmap documents, the .jrule scheme DSL, OFF import,
OBJ export.

Both text formats are whitespace-insensitive with ``#`` line comments
and round-trip byte-identically through their canonical serialization:
darts lexicographic, links by (dim, ends), embeddings by name, scheme
nodes by name.  All output uses LF line endings.

A ``.gmap`` document is read record by record (the header, a dart name,
a link, a layer header, one dart's value) with patterns built from the
tokenizer's own, and the map is built in one step.  The darts, links and
each layer's values are first read in canonical runs: up to 64 records
as ``serialize_gmap`` writes them, integers of up to 640 digits, matched
at once and split at their line breaks.  The record loop reads on from
where a run stops, so hand-formatted text and every error take the
record-by-record path.  ``.jrule`` schemes are read token by token.
Only an error lexes the text, in one pass that raises its first lexical
error or places the error (no other code counts lines and columns); a
``.gmap`` error reads its record again token by token, for the message.

A layer holds a value per dart, but the darts whose values are spelled
alike share one object: parsing converts each distinct value text once,
and serializing formats each value object once.  Neither is keyed by the
value, as ``-0.0 == 0.0`` and ``1 == 1.0`` are written apart.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import filterfalse
from typing import Any, Callable, NoReturn

from .errors import (
    EmbeddingError,
    GmapError,
    ParseError,
    PostValidationError,
    RelabelingError,
    SchemeError,
    UnknownLayerError,
)
from .gmap import _GMAP_CHAR, _GMAP_IDENT, EmbeddingLayer, Gmap
from .graph import LabeledGraph, _collector_paused
from .orbits import REMOVE, GeneralizedOrbitType, OrbitType
from .scheme import _NAME, GraphScheme, RuleScheme, SchemeArc

_NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_COMMENT = r"#[^\n]*"
# a format's tokens by kind, in the order they are tried
_SKIP = (("NL", r"\n"), ("WS", r"[ \t\r]+"), ("COMMENT", _COMMENT))
_GMAP_TOKENS = (*_SKIP, ("STRING", _STRING), ("IDENT", _GMAP_IDENT.pattern), ("NUMBER", _NUMBER),
                ("SYMBOL", "[{}:]"))
_RULE_TOKENS = (*_SKIP, ("IDENT", _NAME.pattern), ("NUMBER", r"\d+"), ("SYMBOL", "[{}<>,:-]"))
_ESCAPE = re.compile(r"\\(.)", re.S)
_ESCAPES = {"n": "\n", "t": "\t"}


def _integer(text: str, place: Callable[[], tuple[int, int]]) -> int:
    """``int(text)``; past the interpreter's digit limit (4,300 by
    default), a syntax error at the line and column ``place()`` gives."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ParseError(f"number of {digits} digits is too long", *place()) from None


def _unquote(string: str) -> str:
    """The text of a quoted ``.gmap`` string token."""
    return _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), string[1:-1])


@cache
def _scanner(tokens: tuple) -> tuple[re.Pattern, re.Pattern]:
    """A format's master pattern, each token in a group named by its kind,
    and its run: up to 64 tokens (the bound keeps the match state small)
    with no groups, and no string that breaks a line, as only the master
    pattern's re.S lets one."""
    master = re.compile("|".join(f"(?P<{kind}>{p})" for kind, p in tokens), re.S)
    return master, re.compile(f"(?:{'|'.join(p for _, p in tokens)}){{0,64}}")


def _lex(text: str, tokens: tuple, at: int = 0) -> tuple[int, int]:
    """Lex ``text`` into a format's ``tokens`` in one pass that makes no
    token: raise its first lexical error, else return the line and
    column of offset ``at``, a token's start or end.

    The tokens are tried in order: newline, blanks, ``#`` comment,
    string (``.gmap`` only), identifier, number, symbol.  A lexical
    error is where none matches: an unterminated string at its opening
    quote, or else an unexpected character.  Columns count characters
    from 1, but a comment does not advance the column (only a newline or
    the end of the text follows it on its line) and a backslash-newline
    inside a string does not advance the line."""
    master, run = _scanner(tokens)
    line, start, pos, place = 1, 0, 0, None  # start: the offset of the line's first character
    while True:
        end = run.match(text, pos).end()
        if place is None and at <= end:
            column = at - max(start, text.rfind("\n", pos, at) + 1) + 1
            place = line + text.count("\n", pos, at), column
        line += text.count("\n", pos, end)
        start = max(start, text.rfind("\n", pos, end) + 1)
        if end == len(text):
            return place
        if end > pos:
            pos = end
        elif m := master.match(text, end):  # a string with a line break
            pos = m.end()
        else:
            quote = text[end] == '"' and "STRING" in master.groupindex
            message = "unterminated string" if quote else f"unexpected character {text[end]!r}"
            raise ParseError(message, line, end - start + 1)


class _Tokenizer:
    """Reader of the ``tokens`` of ``text`` from offset ``pos`` on, one
    at a time: its current token's ``kind`` (a symbol's is itself, ``BAD``
    where nothing lexes), ``text`` (a string's unquoted) and ``start``
    offset (at ``EOF`` after a trailing comment, the comment's start)."""

    def __init__(self, text: str, tokens: tuple, pos: int = 0):
        self._doc, self._tokens, self._pattern = text, tokens, _scanner(tokens)[0]
        self.kind, self.text, self.start = "", "", pos  # an empty token at pos, to step over
        self.next()

    def next(self) -> str:
        """Step over the current token, unless it is ``EOF`` or ``BAD``; its text."""
        passed, pos = self.text, self.start + len(self.text)  # EOF and BAD have no text
        if self.kind == "STRING":  # its text is unquoted
            pos = self._pattern.match(self._doc, self.start).end()
        start = pos
        while m := self._pattern.match(self._doc, pos):
            kind, token = m.lastgroup, m.group()
            if kind not in ("NL", "WS", "COMMENT"):
                self.kind = token if kind == "SYMBOL" else kind
                self.text = _unquote(token) if kind == "STRING" else token
                self.start = pos
                return passed
            start, pos = pos if kind == "COMMENT" else m.end(), m.end()
        self.kind, self.text, self.start = "EOF" if pos == len(self._doc) else "BAD", "", start
        return passed

    def place(self) -> tuple[int, int]:
        """The current token's line and column; a lexical error comes first."""
        return _lex(self._doc, self._tokens, self.start)

    def error(self, message: str) -> NoReturn:
        raise ParseError(message, *self.place())

    def expect(self, kind: str) -> str:
        if self.kind != kind:
            self.error(f"expected {kind}, found {self.text!r}")
        return self.next()

    def expect_keyword(self, word: str) -> None:
        if not self.accept(word):
            self.error(f"expected {word!r}, found {self.text!r}")

    def at(self, word: str) -> bool:
        """Whether the current token is the symbol or keyword ``word``."""
        return self.text == word and self.kind in (word, "IDENT")

    def accept(self, word: str) -> bool:
        """Step over the current token if it is ``word``; whether it was."""
        found = self.at(word)
        if found:
            self.next()
        return found

    def expect_nat(self) -> int:
        if self.kind != "NUMBER" or not self.text.isdigit():
            self.error(f"expected a natural number, found {self.text!r}")
        number = _integer(self.text, self.place)
        self.next()
        return number


# ---------------------------------------------------------------------------
# .gmap documents


def _format_value(value_type: str, value: Any) -> str:
    if value_type == "string":
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if value_type == "scalar":
        return repr(value)
    return " ".join(repr(c) for c in value)  # a color's components are exact ints


def serialize_gmap(g: Gmap) -> str:
    """Canonical document for ``g``; parsing it back yields an equal map.

    A layer's value is formatted once per object (darts that share one
    share its text), keyed by ``id``: the layer keeps every object alive."""
    for d in filterfalse(_GMAP_IDENT.fullmatch, g.darts):
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
            values, formatted = layer.values, {}
            for dart in sorted(values):
                if (value := formatted.get(id(values[dart]))) is None:
                    value = formatted[id(values[dart])] = _format_value(layer.value_type, values[dart])
                lines.append(f"      {dart}: {value}")
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
_LINK_RECORD = (*_LINK, f"(?:{_ID})?")  # and its second end, if any
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


#: value type -> (the tokens of one value, the value from its key: the
#: tokens' texts joined by single spaces, by which darts share one object)
_VALUE_TOKENS = {
    "string": ((_STR,), _unquote),
    "scalar": ((_NUM,), float),
    "point2d": ((_NUM, _NUM), lambda v: tuple(map(float, v.split()))),
    "point3d": ((_NUM, _NUM, _NUM), lambda v: tuple(map(float, v.split()))),
    "color_rgb": ((_INT, _INT, _INT), lambda v: tuple(map(int, v.split()))),
}

# Canonical runs: records as serialize_gmap writes them, a line break and
# a two- or six-space indent, then their tokens with single spaces and a
# line break after the last.  A run's token is the tokenizer's own, as a
# blank, ':' or line break follows it, so a run reads the records the
# record loop would, split at the same places.  A link with one end must
# be followed by a link or the section's end, where the record loop's
# reading of its second end would find no name.  A run's integers have
# at most 640 ASCII digits, the lowest limit sys.set_int_max_str_digits
# accepts, so int() takes them all; the record loop reads the rest.
_LINE, _VALUE_LINE = "\n  ", "\n      "  # the start of a canonical record
_RUN_NAT = r"\d{1,640}"
_DART_RUN = rf"{_LINE}{_GMAP_IDENT.pattern}(?=\n)"
_LINK_RUN = rf"{_LINE}{_RUN_NAT}: {_GMAP_IDENT.pattern}(?: {_GMAP_IDENT.pattern})?(?=\n(?:  \d|\}}))"
#: a value part -> its token in a run
_RUN_TOKENS = {_NUM: _NUMBER, _INT: f"-?{_RUN_NAT}", _STR: _STRING}


@cache
def _run(record: str) -> re.Pattern:
    """Up to 64 ``record``s in a row (the bound keeps the match state
    small), with ASCII digits."""
    return re.compile(f"(?:{record}){{0,64}}", re.A)


def _fail(text: str, pos: int, parts: tuple = (), loop: tuple = (), message: str = "") -> NoReturn:
    """Raise the first error of a document whose record at ``pos`` the
    scan could not read: the error, line and column of reading the
    document token by token.

    A lexical error anywhere comes first.  Then the record's tokens are
    read one by one from ``pos``: ``loop``'s, if the token there can
    start it, else ``parts``'.  The first token that is not what its
    part reads is the error; if there is none, ``message`` is, at the
    token after the record."""
    tz = _Tokenizer(text, _GMAP_TOKENS, pos)
    if loop:
        first = loop[0]
        if tz.at(first) if first.isalpha() else tz.kind == _PART_TOKENS[first][0]:
            parts = loop
    for part in parts:
        if part.isalpha():
            tz.expect_keyword(part)
            continue
        kind, name = _PART_TOKENS[part]
        if tz.kind != kind or part == _NAT and not tz.text.isdigit():
            tz.error(f"expected {name}, found {tz.text!r}")
        if part in (_NAT, _INT) and tz.text.lstrip("-").isdigit():
            _integer(tz.text, tz.place)
        found = tz.next()
        if part == _INT and not found.lstrip("-").isdigit():  # an error at the token after it
            tz.error(f"color components must be integers, found {found!r}")
    if message:
        tz.error(message)
    raise AssertionError(f"the scan stopped at a record that reads as tokens, before {tz.text!r}")


def _build(text: str, n: int, darts: list[str], links: list) -> LabeledGraph:
    """The graph of a document's darts and links.  A repeated dart is a
    syntax error at its token, a bad link an error naming its line; the
    records are matched again to find the failing one."""
    graph = LabeledGraph(n)
    try:
        graph._edit(nodes=darts, links=links)
    except GmapError as exc:
        # the edits before the error are done: the count of nodes, or
        # else of links, added is the index of the failing one
        pos = _record(*_HEADER).match(text).end()
        for _ in range(len(graph)):
            pos = _record(_ID).match(text, pos).end()
        if len(graph) < len(darts):
            _fail(text, pos, message=str(exc))
        pos = _record(r"\}", "links", r"\{").match(text, pos).end()
        for _ in graph.links:
            pos = _record(*_LINK_RECORD).match(text, pos).end()
        line, _ = _Tokenizer(text, _GMAP_TOKENS, pos).place()
        exc.args = (f"{exc.args[0]} (line {line})",) + exc.args[1:]
        raise
    return graph


@_collector_paused
def parse_gmap(text: str) -> Gmap:
    """Parse a .gmap document; structural invariants are enforced, the
    topological constraints are not (run ``validate`` separately).

    The document is read in canonical runs and record by record where
    they stop; its first error is raised as reading it token by token
    raises it, with its position.  In a layer, the darts whose values
    are spelled alike share one value object, converted once: ``-0.0``
    and ``0.0`` are two objects."""
    pos, reading = 0, _HEADER  # the record a number past int()'s digit limit is in
    try:
        if not (m := _record(*_HEADER).match(text)):
            _fail(text, pos, _HEADER)
        n, pos = int(m[1]), m.end()
        darts, links, dart = [], [], _record(_ID).match
        # the graph is built even when a record fails to read, so that an
        # error at a dart or link before that record comes first
        try:
            run = _run(_DART_RUN).match
            while (end := run(text, pos).end()) > pos:
                darts += text[pos:end].split(_LINE)[1:]
                pos = end
            while m := dart(text, pos):
                darts.append(m[1])
                pos = m.end()
            if not (m := _record(r"\}", "links", r"\{").match(text, pos)):
                _fail(text, pos, (r"\}", "links", r"\{"))
            pos, reading = m.end(), _LINK
            run = _run(_LINK_RUN).match
            while (end := run(text, pos).end()) > pos:
                for line in text[pos:end].split(_LINE)[1:]:
                    dim, _, ends = line.partition(": ")
                    links.append((int(dim), tuple(ends.split(" "))))  # split's list has spare room
                pos = end
            link = _record(*_LINK_RECORD).match
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
                values, by_text, record = {}, {}, _record(*reading).match
                value_run = " ".join(_RUN_TOKENS[t] for t in tokens)
                run = _run(rf"{_VALUE_LINE}{_GMAP_IDENT.pattern}: {value_run}(?=\n)").match
                while (end := run(text, pos).end()) > pos:
                    size, lines = len(values), text[pos:end].split(_VALUE_LINE)[1:]
                    for line in lines:
                        dart_name, _, key = line.partition(": ")
                        if (v := by_text.get(key)) is None:
                            v = by_text[key] = value(key)
                        values[dart_name] = v
                    if len(values) < size + len(lines):
                        # a repeated dart: the run's darts are taken out,
                        # and the record loop reads the run to the error
                        while len(values) > size:
                            values.popitem()
                        break
                    pos = end
                while m := record(text, pos):
                    dart_name, *parts = m.groups()
                    if dart_name in values:
                        break
                    if (v := by_text.get(key := " ".join(parts))) is None:
                        v = by_text[key] = value(key)
                    values[dart_name] = v
                    pos = m.end()
                if not (m := _record(r"\}", r"\}").match(text, pos)):
                    if (m := dart(text, pos)) and m[1] in values:
                        _fail(text, pos, message=f"dart {m[1]!r} has two values in layer {name!r}")
                    _fail(text, pos, (r"\}", r"\}"), reading)
                pos = m.end()
                try:
                    layers.append(EmbeddingLayer(name, OrbitType(tuple(dims)), value_type, values))
                except GmapError:
                    _lex(text, _GMAP_TOKENS)  # a lexical error comes first
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


def _parse_list(tz: _Tokenizer, entry) -> tuple:
    """The comma-separated entries of a ``<...>`` list, each read by ``entry``."""
    tz.expect("<")
    entries = [entry()]
    while tz.accept(","):
        entries.append(entry())
    tz.expect(">")
    return tuple(entries)


def _parse_block(tz: _Tokenizer, side: str):
    tz.expect_keyword(side)
    tz.expect("{")
    nodes: list[tuple[str, GeneralizedOrbitType]] = []
    arcs: list[SchemeArc] = []
    hooks: list[str] = []
    while tz.kind == "IDENT" and tz.text not in ("left", "right"):
        name = tz.next()
        if tz.accept(":"):
            entries = _parse_list(tz, lambda: REMOVE if tz.accept("_") else tz.expect_nat())
            if tz.accept("hook"):
                hooks.append(name)
            nodes.append((name, GeneralizedOrbitType(entries)))
        elif tz.accept("-"):
            dim = tz.expect_nat()
            tz.expect("-")
            other = tz.expect("IDENT")
            arcs.append(SchemeArc(name, dim, other))
        else:
            tz.error(f"expected ':' or '-' after {name!r}")
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
    try:
        tz.expect_keyword("rule")
        name = tz.expect("IDENT")
        parameter = OrbitType(_parse_list(tz, tz.expect_nat))
        tz.expect("{")
        left_nodes, left_arcs, left_hooks = _parse_block(tz, "left")
        right_nodes, right_arcs, right_hooks = _parse_block(tz, "right")
        tz.expect("}")
        tz.expect("EOF")
    except RelabelingError:  # a bad orbit type
        _lex(text, _RULE_TOKENS)  # a lexical error comes first
        raise

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
    place = lambda: (lineno, 1)  # a number's place is the start of the line being read
    n_vertices, n_faces, _ = (_integer(c, place) for c in counts)
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
        nums = [_integer(f, place) for f in fields]
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
