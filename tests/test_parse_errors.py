"""Parse errors are part of the output contract: pin the exact
``E_SYNTAX`` line (message, line, column) for malformed documents.

The corpus covers both scanners and their quirks: a backslash-newline
inside a string does not advance the line, and a comment does not
advance the column, so ``EOF`` after a trailing comment with no newline
reports the column where the comment starts.  ``-`` is part of a number
in ``.gmap`` and a symbol in ``.jrule``.  An integer with more digits
than the interpreter's ``int()`` converts is an error at its first
character, in every format, OFF included.
"""

import pytest

from gmapkit import ParseError, import_off, parse_gmap, parse_rule_scheme

BIG = "1" * 5000
HEAD = "dimension 2\ndarts { a }\nlinks {\n  0: a\n  1: a\n  2: a\n}\n"


def layer(value_type: str, values: str) -> str:
    """A one-dart map whose layer ``L`` opens its values on line 12."""
    return HEAD + f"embeddings {{\n  L {{\n    orbit: 0 1 2\n    type: {value_type}\n    values {{\n{values}"


GMAP_CASES = {
    "unexpected_character": (
        "dimension 2\ndarts { a $ }\n",
        "unexpected character '$' (line 2, column 11)",
    ),
    "string_raw_newline": (
        layer("string", '      a: "ab\ncd"\n    }\n  }\n}\n'),
        "unterminated string (line 13, column 10)",
    ),
    "string_at_eof": (
        layer("string", '      a: "abc'),
        "unterminated string (line 13, column 10)",
    ),
    "string_trailing_backslash": (
        layer("string", '      a: "abc\\'),
        "unterminated string (line 13, column 10)",
    ),
    "backslash_newline_then_error": (
        layer("string", '      a: "ab\\\ncd"\n    }\n  } $\n}\n'),
        "unexpected character '$' (line 15, column 5)",
    ),
    "trailing_comment_at_eof": (
        "dimension 2\ndarts { a }\nlinks {  # open",
        "expected }, found '' (line 3, column 10)",
    ),
    "tabs_and_carriage_returns": (
        "dimension\t2\r\ndarts {\ta\r\n\t\r $ }\r\n",
        "unexpected character '$' (line 3, column 4)",
    ),
    "negative_dimension": (
        "dimension -2\n",
        "expected a natural number, found '-2' (line 1, column 11)",
    ),
    "negative_link_dimension": (
        "dimension 2\ndarts { a }\nlinks { -3: a }\n",
        "expected a natural number, found '-3' (line 3, column 9)",
    ),
    "lone_minus": (
        "dimension 2\ndarts { a }\nlinks { 0: a - }\n",
        "unexpected character '-' (line 3, column 14)",
    ),
    "exponent_dimension": (
        "dimension 1e5\n",
        "expected a natural number, found '1e5' (line 1, column 11)",
    ),
    "exponent_color": (
        layer("color_rgb", "      a: 1e5 0 0\n"),
        "color components must be integers, found '1e5' (line 13, column 14)",
    ),
    "trailing_dot": (
        layer("point3d", "      a: 1. 0 0\n"),
        "unexpected character '.' (line 13, column 11)",
    ),
    "inf_coordinate": (
        layer("point3d", "      a: inf 0 0\n"),
        "expected a number, found 'inf' (line 13, column 10)",
    ),
    "dart_with_two_values": (
        layer("scalar", "      a: 1\n      a: 2\n"),
        "dart 'a' has two values in layer 'L' (line 14, column 7)",
    ),
    # past the interpreter's 4,300-digit limit of int()
    "huge_dimension": (
        f"dimension {BIG}\n",
        "number of 5000 digits is too long (line 1, column 11)",
    ),
    "huge_link_dimension": (
        f"dimension 2\ndarts {{ a }}\nlinks {{ {BIG}: a }}\n",
        "number of 5000 digits is too long (line 3, column 9)",
    ),
    "huge_layer_orbit_dimension": (
        HEAD + f"embeddings {{\n  L {{\n    orbit: 0 {BIG}\n",
        "number of 5000 digits is too long (line 10, column 14)",
    ),
    "huge_color": (
        layer("color_rgb", f"      a: 0 -{BIG} 0\n"),
        "number of 5000 digits is too long (line 13, column 12)",
    ),
    # an error is the first in token order: a dart error before a later
    # syntax error, a lexical error before any other
    "duplicate_dart_then_syntax": (
        "dimension 2\ndarts { a b a }\nlinks { 0: a }\n}\n",
        "node 'a' already present (line 2, column 13)",
    ),
    "duplicate_dart_then_character": (
        "dimension 2\ndarts { a b a }\nlinks { 0: a $ }\n",
        "unexpected character '$' (line 3, column 14)",
    ),
    # the value type is its own token, checked before 'values'
    "value_type_glued_to_values": (
        HEAD + "embeddings {\n  L {\n    orbit: 0 1 2\n    type:strivalues{\n",
        "unknown value type 'strivalues' (line 11, column 10)",
    ),
}

RULE_CASES = {
    "unexpected_character": (
        "rule r <0> {\n  left { a: <0> hook $ }\n}\n",
        "unexpected character '$' (line 2, column 22)",
    ),
    "quote_is_not_a_string": (
        'rule r <0> { left { a: <"0"> } }\n',
        "unexpected character '\"' (line 1, column 25)",
    ),
    "trailing_comment_at_eof": (
        "rule r <0> {\n  left { a: <0> hook }\n  right { a: <0> }  # done",
        "expected }, found '' (line 3, column 21)",
    ),
    "tabs_and_carriage_returns": (
        "rule\tr <0> {\r\n\tleft {\r\n\t\ta: <0> hook\r\n\t}\r\n\tright { a: <0> } \t$\r\n}\r\n",
        "unexpected character '$' (line 5, column 20)",
    ),
    "minus_is_a_symbol": (
        "rule r <-3> { }\n",
        "expected a natural number, found '-' (line 1, column 9)",
    ),
    "arc_missing_end": (
        "rule r <0> {\n  left { a: <0> hook a -1- }\n}\n",
        "expected IDENT, found '}' (line 2, column 28)",
    ),
    "exponent": (
        "rule r <1e5> { }\n",
        "expected >, found 'e5' (line 1, column 10)",
    ),
    "trailing_dot": (
        "rule r <1.> { }\n",
        "unexpected character '.' (line 1, column 10)",
    ),
    "huge_dimension": (
        f"rule r <{BIG}> {{ }}\n",
        "number of 5000 digits is too long (line 1, column 9)",
    ),
    "huge_decoration": (
        f"rule r <0> {{\n  left {{ a: <_, {BIG}> hook }}\n}}\n",
        "number of 5000 digits is too long (line 2, column 17)",
    ),
    "huge_arc_dimension": (
        f"rule r <0> {{\n  left {{ a: <0> hook a -{BIG}- a }}\n}}\n",
        "number of 5000 digits is too long (line 2, column 25)",
    ),
    # a lexical error comes before an earlier syntax error ('lef')
    "character_after_a_syntax_error": (
        "rule r <0> { lef { } } $",
        "unexpected character '$' (line 1, column 24)",
    ),
}

OFF_CASES = {
    "huge_count": (
        f"OFF\n3 {BIG} 0\n",
        "number of 5000 digits is too long (line 2, column 1)",
    ),
    "huge_index": (
        f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -{BIG}\n",
        "number of 5000 digits is too long (line 6, column 1)",
    ),
    # digit characters that int() does not read: superscript two, circled one
    "superscript_count": (
        "OFF\n\u00b2 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "counts line must be three naturals (line 2, column 1)",
    ),
    "circled_index": (
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 \u2460\n",
        "face line must contain integers (line 6, column 1)",
    ),
}


def _syntax_line(parse, text: str) -> str:
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value).endswith(f"(line {exc.value.line}, column {exc.value.column})")
    return f"{exc.value.code} {exc.value}"


@pytest.mark.parametrize("name", sorted(GMAP_CASES))
def test_gmap_syntax_error_is_pinned(name):
    text, expected = GMAP_CASES[name]
    assert _syntax_line(parse_gmap, text) == f"E_SYNTAX {expected}"


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_rule_syntax_error_is_pinned(name):
    text, expected = RULE_CASES[name]
    assert _syntax_line(parse_rule_scheme, text) == f"E_SYNTAX {expected}"


@pytest.mark.parametrize("name", sorted(OFF_CASES))
def test_off_syntax_error_is_pinned(name):
    text, expected = OFF_CASES[name]
    assert _syntax_line(import_off, text) == f"E_SYNTAX {expected}"
