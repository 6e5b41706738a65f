"""The token-by-token .gmap and .jrule parsers, frozen as the
references for ``gmapkit.textio.parse_gmap`` and ``parse_rule_scheme``.

These are the parsers as they stood before documents were read record
by record and before errors were placed without a token list: every
character becomes part of a token, and the grammar reads one token at
a time from the list.  The test suite gives the kernel and its
reference the same texts and requires the same map (text, per-dart
link lists and link ids) or scheme, or the same exception class and
message.  Do not change them to follow the kernel; change them only
where a format itself changes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from gmapkit.errors import GmapError, ParseError, SchemeError
from gmapkit.gmap import EmbeddingLayer, Gmap, VALUE_TYPES
from gmapkit.graph import LabeledGraph
from gmapkit.orbits import REMOVE, GeneralizedOrbitType, OrbitType
from gmapkit.scheme import GraphScheme, RuleScheme, SchemeArc

_GMAP_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_@#-]*")
_SKIP = r"(?P<NL>\n)|(?P<WS>[ \t\r]+)|(?P<COMMENT>#[^\n]*)"
# re.S lets an escape in a string take a newline
_GMAP_TOKENS = re.compile(
    rf'{_SKIP}|(?P<STRING>"(?:[^"\\\n]|\\.)*")|(?P<OPEN>")|(?P<IDENT>{_GMAP_IDENT.pattern})'
    r"|(?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<SYMBOL>[{}:])|(?P<BAD>.)",
    re.S,
)
_RULE_TOKENS = re.compile(
    rf"{_SKIP}|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<NUMBER>\d+)|(?P<SYMBOL>[{{}}<>,:-])|(?P<BAD>.)"
)
_ESCAPE = re.compile(r"\\(.)", re.S)
_ESCAPES = {"n": "\n", "t": "\t"}


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
                unescaped = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), s[1:-1])
                self._tokens.append(_Token(kind, unescaped, line, col))
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
        return int(tok.text)

    def expect_number(self) -> tuple[str, float]:
        tok = self.peek()
        if tok.kind != "NUMBER":
            self.error(f"expected a number, found {tok.text!r}")
        self.next()
        return tok.text, float(tok.text)


# ---------------------------------------------------------------------------
# .gmap documents


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
        text, num = tz.expect_number()
        if value_type == "color_rgb":
            if not text.lstrip("-").isdigit():
                tz.error(f"color components must be integers, found {text!r}")
            out.append(int(text))
        else:
            out.append(num)
    return tuple(out)


def reference_parse_gmap(text: str) -> Gmap:
    """Parse a .gmap document; structural invariants are enforced, the
    topological constraints are not (run ``validate`` separately)."""
    tz = _Tokenizer(text, _GMAP_TOKENS)
    tz.expect_keyword("dimension")
    n = tz.expect_nat()
    graph = LabeledGraph(n)

    tz.expect_keyword("darts")
    tz.expect("{")
    while tz.peek().kind == "IDENT":
        tok = tz.next()
        try:
            graph._edit(nodes=(tok.text,))
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
            graph._edit(links=((dim, ends),))
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


def _integer(text: str, line: int, column: int) -> int:
    """``int(text)``; a syntax error at ``line``, ``column`` when ``text``
    has more digits than the interpreter converts (4,300 by default)."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ParseError(f"number of {digits} digits is too long", line, column) from None


class _RuleTokenizer(_Tokenizer):
    """The scanner as the .jrule parser read it: a natural past
    ``int()``'s digit limit is a syntax error at its token."""

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or not tok.text.isdigit():
            self.error(f"expected a natural number, found {tok.text!r}")
        self.next()
        return _integer(tok.text, tok.line, tok.column)


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


def reference_parse_rule_scheme(text: str) -> RuleScheme:
    """Parse the rule DSL::

        rule NAME <dims> { left { decls } right { decls } }

    where a declaration is either ``node: <entries> [hook]`` (entries
    are naturals or ``_``) or an arc ``node -dim- node``.  Exactly one
    hook, in the left block.
    """
    tz = _RuleTokenizer(text, _RULE_TOKENS)
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
