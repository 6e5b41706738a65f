"""Formats: canonical round-trips, parse errors, OFF/OBJ."""

import math
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from gmapkit import (
    DimensionError,
    EmbeddingError,
    EmbeddingLayer,
    Gmap,
    GmapError,
    OrbitType,
    ParseError,
    SchemeError,
    UnknownLayerError,
    UnknownNodeError,
    export_obj,
    import_off,
    parse_gmap,
    parse_rule_scheme,
    serialize_gmap,
    serialize_rule_scheme,
)
from gmapkit.gmap import _GMAP_IDENT
from gmapkit.mesh import unify
from gmapkit.textio import _format_value

from conftest import FIXTURES, fixture_text, free_edge_graph
from oracle import random_valid_gmap
from test_graph import grid_mesh

GMAP_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.gmap"))
RULE_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.jrule"))
OFF_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.off"))


def test_fixture_corpus_is_large_enough():
    assert len(GMAP_FIXTURES) + len(RULE_FIXTURES) >= 12


@pytest.mark.parametrize("name", GMAP_FIXTURES)
def test_gmap_round_trip_byte_identical(name):
    text = fixture_text(name)
    g = parse_gmap(text)
    assert serialize_gmap(g) == text
    assert parse_gmap(serialize_gmap(g)) == g


@pytest.mark.parametrize("name", RULE_FIXTURES)
def test_rule_round_trip_byte_identical(name):
    text = fixture_text(name)
    rule = parse_rule_scheme(text)
    assert serialize_rule_scheme(rule) == text
    assert parse_rule_scheme(serialize_rule_scheme(rule)) == rule


def test_free_edge_document_shape():
    g = parse_gmap(fixture_text("free_edge.gmap"))
    assert len(g.darts) == 2
    assert len(g.graph.links) == 3


def test_whitespace_and_comments_are_insignificant():
    wild = """
    # a free edge
    dimension 2
    darts { a   b }
    links { 0: a b   2: a
            2: b }
    """
    assert parse_gmap(wild) == parse_gmap(fixture_text("free_edge.gmap"))
    assert serialize_gmap(parse_gmap(wild)) == fixture_text("free_edge.gmap")


def test_unknown_dart_in_link():
    doc = "dimension 2\ndarts { a }\nlinks { 0: a z }\n"
    with pytest.raises(UnknownNodeError):
        parse_gmap(doc)


def test_unknown_link_end_before_a_later_syntax_error():
    doc = "dimension 2\ndarts { a b }\nlinks {\n  0: a b\n  1: a z\n  2: b\n}\n}\n"
    with pytest.raises(UnknownNodeError) as exc:
        parse_gmap(doc)
    assert str(exc.value) == "unknown node 'z' (line 5)"


def test_a_link_after_a_loop_and_a_comment_names_its_line():
    doc = "dimension 1\ndarts { a b }\nlinks { 0: a 1: a b 0: b # c\n 2: b\n}\n"
    with pytest.raises(DimensionError) as exc:
        parse_gmap(doc)
    assert f"{exc.value.code} {exc.value}" == "E_DOMAIN dimension 2 out of range 0..1 (line 4)"


def test_duplicate_dart_before_a_huge_color_component():
    doc = (
        "dimension 2\ndarts { a a }\nlinks {\n  0: a\n}\n"
        "embeddings {\n  L {\n    orbit: 0\n    type: color_rgb\n"
        f"    values {{\n      a: 0 {'1' * 5000} 0\n    }}\n  }}\n}}\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_gmap(doc)
    assert str(exc.value) == "node 'a' already present (line 2, column 11)"


def test_exponent_glued_to_a_dart_named_like_an_exponent():
    # 3e5e5 is the number 3e5 and then the dart e5
    doc = (
        "dimension 2\ndarts { a e5 }\nlinks { 0: a e5 1: a 1: e5 2: a 2: e5 }\n"
        "embeddings {\n  pos {\n    orbit: 1 2\n    type: point3d\n"
        "    values {\n      a: 1 2 3e5e5: 4 5 6\n    }\n  }\n}\n"
    )
    g = parse_gmap(doc)
    assert g == parse_gmap(doc.replace("3e5e5", "3e5 e5"))
    assert g.embeddings["pos"].values == {"a": (1.0, 2.0, 3e5), "e5": (4.0, 5.0, 6.0)}


def test_unknown_dart_in_values():
    doc = (
        "dimension 2\ndarts { a }\nlinks { 0: a }\n"
        "embeddings { pos { orbit: 1 2\n type: point3d\n values { z: 0.0 0.0 0.0 } } }\n"
    )
    with pytest.raises(UnknownNodeError):
        parse_gmap(doc)


def test_partial_values_rejected():
    doc = (
        "dimension 2\ndarts { a b }\nlinks { 0: a b }\n"
        "embeddings { pos { orbit: 1 2\n type: point3d\n values { a: 0.0 0.0 0.0 } } }\n"
    )
    with pytest.raises(EmbeddingError):
        parse_gmap(doc)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_gmap("dimension 2\ndarts { a\nlinks { }\n")
    assert exc.value.line == 3


def test_all_value_types_round_trip():
    graph = free_edge_graph()
    layers = [
        EmbeddingLayer("pos", OrbitType((1, 2)), "point3d", {"a": (0.0, 1e-20, -2.5), "b": (1.0, 0.0, 0.0)}),
        EmbeddingLayer("uv", OrbitType((1, 2)), "point2d", {"a": (0.25, 0.75), "b": (1.0, 0.0)}),
        EmbeddingLayer("col", OrbitType((0, 1)), "color_rgb", {"a": (255, 0, 10), "b": (255, 0, 10)}),
        EmbeddingLayer("mass", OrbitType((0, 2)), "scalar", {"a": 0.125, "b": 0.125}),
        EmbeddingLayer("tag", OrbitType(()), "string", {"a": 'say "hi"\n', "b": "x\\y"}),
    ]
    g = Gmap(graph, layers)
    text = serialize_gmap(g)
    again = parse_gmap(text)
    assert again == g
    assert serialize_gmap(again) == text


SIGNED_ZEROS = """\
dimension 1
darts {
  a
  b
  c
  d
}
links {
  0: a b
  0: c d
  1: a
  1: b
  1: c
  1: d
}
embeddings {
  mass {
    orbit:
    type: scalar
    values {
      a: -0.0
      b: 0.0
      c: 1.0
      d: 1.00
    }
  }
  tag {
    orbit:
    type: string
    values {
      a: "say \\"hi\\"\\n"
      b: "x\\\\y"
      c: "say \\"hi\\"\\n"
      d: "x\\\\y"
    }
  }
}
"""


def test_equal_values_of_different_text_are_parsed_apart():
    # values are shared by their text: -0.0 keeps its sign next to 0.0
    g = parse_gmap(SIGNED_ZEROS)
    mass, tag = g.embeddings["mass"].values, g.embeddings["tag"].values
    assert math.copysign(1.0, mass["a"]) == -1.0 and math.copysign(1.0, mass["b"]) == 1.0
    assert mass["c"] == mass["d"] == 1.0 and mass["c"] is not mass["d"]
    assert tag == {"a": 'say "hi"\n', "b": "x\\y", "c": 'say "hi"\n', "d": "x\\y"}
    assert tag["a"] is tag["c"] and tag["b"] is tag["d"]
    assert serialize_gmap(g) == SIGNED_ZEROS.replace("1.00", "1.0")


def test_parse_makes_one_object_per_distinct_value_text():
    text, _ = grid_document()
    g = parse_gmap(text)
    layer = g.embeddings["pos"].values
    texts = text[text.index("values {") :].splitlines()[1:-3]
    assert len(texts) == len(layer) == 3600
    distinct = len({line.split(": ", 1)[1] for line in texts})
    assert len(set(map(id, layer.values()))) == distinct == len(g.cells(0))


def per_dart_serialize(g: Gmap) -> str:
    """The reference for ``serialize_gmap``: each dart's value formatted
    on its own."""
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


# signed zeros and 1.0 (equal to the int 1) drawn often
COORDS = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(allow_nan=False, allow_infinity=False)
VALUES = {
    "string": st.text(alphabet=st.sampled_from('"\\\n\t') | st.characters()),
    "scalar": COORDS,
    "point2d": st.tuples(COORDS, COORDS),
    "point3d": st.tuples(COORDS, COORDS, COORDS),
    "color_rgb": st.tuples(*[st.integers(0, 255)] * 3),
}


def _equal_copy(value):
    """An object equal to ``value``, with the same spelling, made anew
    (a string of one character or none is the interpreter's own)."""
    if isinstance(value, tuple):
        return tuple(list(value))
    if isinstance(value, float):
        return float(repr(value))
    return (value + "x")[:-1]


@st.composite
def shared_value_gmaps(draw):
    """A map with a layer of each value type; each dart's value is the
    layer's one shared object, an equal copy of it or a value of its own."""
    g = random_valid_gmap(draw(st.integers(0, 10_000)), n=2, max_darts=8)
    layers = []
    for kind, values in VALUES.items():
        shared, chosen = draw(values), {}
        for d in g.darts:
            how = draw(st.sampled_from(["shared", "copy", "own"]))
            chosen[d] = shared if how == "shared" else _equal_copy(shared) if how == "copy" else draw(values)
        layers.append(EmbeddingLayer(kind, OrbitType(()), kind, chosen))
    return Gmap(g.graph, layers)


@settings(max_examples=150, deadline=None, database=None)
@given(shared_value_gmaps())
def test_serialize_formats_as_the_per_dart_reference(g):
    assert serialize_gmap(g) == per_dart_serialize(g)


def test_rule_dsl_parses_reference_rules():
    rule = parse_rule_scheme(
        "rule VI <0,2> { left { n0: <0,2> hook } "
        "right { n0: <_,2>  n1: <1,2>  n0 -0- n1 } }"
    )
    assert rule.name == "VI"
    assert rule.parameter == OrbitType((0, 2))
    assert rule.hook == "n0"
    assert rule.preserved_nodes == ("n0",)
    # a single-dimension parameter with a chain right side is grammatical
    chain = parse_rule_scheme(
        "rule VI2 <2> { left { n0: <2> hook } right { "
        "n0: <2> n1: <2> n2: <2> n3: <2> n0 -0- n1 n1 -1- n2 n2 -0- n3 } }"
    )
    assert len(chain.right.arcs) == 3


def test_rule_dsl_comments():
    rule = parse_rule_scheme(
        "# vertex insertion\nrule VI <0,2> {\n"
        "  left { n0: <0,2> hook }  # anchor\n"
        "  right { n0: <_,2> n1: <1,2> n0 -0- n1 }\n}"
    )
    assert rule.hook == "n0"


def test_rule_dsl_missing_hook():
    with pytest.raises(SchemeError, match="no hook"):
        parse_rule_scheme("rule R <0> { left { n0: <0> } right { n0: <0> } }")


def test_rule_dsl_hook_in_right():
    with pytest.raises(SchemeError):
        parse_rule_scheme("rule R <0> { left { n0: <0> } right { n0: <0> hook } }")


def test_rule_dsl_two_hooks():
    with pytest.raises(SchemeError):
        parse_rule_scheme(
            "rule R <0> { left { n0: <0> hook n1: <0> hook } right { n0: <0> } }"
        )


def test_rule_dsl_hook_with_removing_symbol():
    with pytest.raises(SchemeError):
        parse_rule_scheme("rule R <0> { left { n0: <_> hook } right { n0: <0> } }")


def test_rule_dsl_self_arc():
    with pytest.raises(SchemeError):
        parse_rule_scheme(
            "rule R <0> { left { n0: <0> hook n0 -1- n0 } right { n0: <0> } }"
        )


def test_rule_dsl_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_rule_scheme("rule R <0,> { left { n0: <0> hook } right { } }")
    assert exc.value.line == 1


# -- OFF / OBJ -------------------------------------------------------------------


def test_import_off_unit_square():
    mesh = import_off(fixture_text("square.off"))
    assert len(mesh.vertices) == 4
    assert mesh.faces == ((0, 1, 2, 3),)


def test_import_off_rejects_bad_header():
    with pytest.raises(ParseError):
        import_off("OFFX\n1 0 0\n0 0 0\n")


def test_import_off_rejects_bad_counts():
    with pytest.raises(ParseError):
        import_off("OFF\n4 1\n")


def test_import_off_rejects_wrong_line_count():
    with pytest.raises(ParseError):
        import_off("OFF\n2 0 0\n0.0 0.0 0.0\n")


def test_import_off_skips_comments():
    text = "# comment\nOFF\n3 1 0\n0 0 0\n1 0 0 # inline\n0 1 0\n3 0 1 2\n"
    mesh = import_off(text)
    assert len(mesh.faces[0]) == 3


def test_export_obj_square(square_gmap):
    out = export_obj(square_gmap)
    lines = out.strip().split("\n")
    assert [l for l in lines if l.startswith("v ")] == [
        "v 0.0 0.0 0.0",
        "v 1.0 0.0 0.0",
        "v 1.0 1.0 0.0",
        "v 0.0 1.0 0.0",
    ]
    (face_line,) = [l for l in lines if l.startswith("f ")]
    indices = [int(i) for i in face_line.split()[1:]]
    assert sorted(indices) == [1, 2, 3, 4]


def test_export_obj_after_vertex_insertion(vi_rule, square_gmap):
    from gmapkit import apply_rule, instantiate_rule, parse_directive

    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    out = apply_rule(inst, square_gmap, directives=[parse_directive("pos:n1=midpoint(n0)")])
    obj = export_obj(out)
    lines = obj.strip().split("\n")
    assert len([l for l in lines if l.startswith("v ")]) == 5
    (face_line,) = [l for l in lines if l.startswith("f ")]
    assert len(face_line.split()) == 6  # "f" + five corners


def test_export_obj_requires_valid_map(broken_incidence_gmap):
    from gmapkit import PostValidationError

    g = Gmap(
        broken_incidence_gmap.graph,
        [
            EmbeddingLayer(
                "pos",
                OrbitType((1, 2)),
                "point3d",
                {d: (0.0, 0.0, 0.0) for d in broken_incidence_gmap.darts},
            )
        ],
    )
    with pytest.raises(PostValidationError):
        export_obj(g)


def test_export_obj_requires_point3d_vertex_layer(square_gmap):
    with pytest.raises(UnknownLayerError):
        export_obj(square_gmap, "nope")
    bad = Gmap(
        square_gmap.graph,
        [
            EmbeddingLayer(
                "pos",
                OrbitType((0, 1)),
                "point3d",
                {d: (0.0, 0.0, 0.0) for d in square_gmap.darts},
            )
        ],
    )
    with pytest.raises(EmbeddingError):
        export_obj(bad)


@pytest.mark.parametrize("name", OFF_FIXTURES)
def test_obj_preserves_counts_from_off(name):
    mesh = import_off(fixture_text(name))
    obj = export_obj(unify(mesh))
    lines = obj.strip().split("\n")
    assert len([l for l in lines if l.startswith("v ")]) == len(mesh.vertices)
    face_sizes = sorted(len(l.split()) - 1 for l in lines if l.startswith("f "))
    assert face_sizes == sorted(len(f) for f in mesh.faces)


@pytest.mark.parametrize("section", ["links {", "    values {"])
def test_a_number_past_the_digit_limit_inside_a_run_is_placed_at_its_record(section):
    # a run stops before a number of more than 640 digits; one past
    # int()'s limit is the record loop's to place, not the run's start
    g = unify(grid_mesh(20))
    rgb = EmbeddingLayer("rgb", OrbitType(()), "color_rgb", {d: (1, 2, 3) for d in g.darts})
    lines = serialize_gmap(Gmap(g.graph, [rgb])).split("\n")
    at = lines.index(section) + 100  # a record inside the second run
    huge = "1" * 5000
    # a link's dimension, or a value's first component
    lines[at] = "  " + huge + lines[at][3:] if section == "links {" else lines[at].replace(": 1", ": " + huge)
    place = f"line {at + 1}, column {lines[at].index(huge) + 1}"
    with pytest.raises(ParseError, match=rf"^number of 5000 digits is too long \({place}\)$"):
        parse_gmap("\n".join(lines))


def test_parse_peak_memory_stays_near_what_the_map_keeps():
    # canonical runs are bounded: with an unbounded repeat, which keeps
    # match state per record and splits a whole section at once, the peak
    # was 3.7x what the map keeps (1.39x with runs of 64)
    text = serialize_gmap(unify(grid_mesh(40)))
    parse_gmap(grid_document()[0])  # patterns compiled before tracing
    tracemalloc.start()
    try:
        g = parse_gmap(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.darts) == 14_400
    assert peak <= 1.6 * kept, f"peak {peak / kept:.2f}x what the parsed map keeps"


@cache
def grid_document() -> tuple[str, str]:
    """The canonical document of a 3.6k-dart grid, and its last dart."""
    g = unify(grid_mesh(20))
    assert len(g.darts) == 3600
    return serialize_gmap(g), max(g.darts)


def _faulty(fault: str) -> tuple[str, str, str]:
    """A clean document, the same with ``fault``, and the start of its error."""
    text, last = grid_document()
    one_line = text.replace("\n", " ")
    return {
        "trailing token": (text, text + "x\n", "expected EOF, found 'x'"),
        "late $": (text, text[:-6] + "$" + text[-6:], "unexpected character '$'"),
        "duplicate dart": (
            text,
            text.replace("}\nlinks {", f"  {last}\n}}\nlinks {{", 1),
            f"node {last!r} already present",
        ),
        "unknown link end": (
            text,
            text.replace("}\nembeddings {", "  0: zz\n}\nembeddings {", 1),
            "unknown node 'zz'",
        ),
        "whole map on one line": (one_line, one_line + "x", "expected EOF, found 'x'"),
    }[fault]


def _traced_peak(text: str) -> tuple[int, str]:
    """The tracemalloc peak of parsing ``text``, and its error, if any."""
    tracemalloc.start()
    try:
        parse_gmap(text)
        error = ""
    except GmapError as exc:
        error = str(exc)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


@pytest.mark.parametrize(
    "fault",
    ["trailing token", "late $", "duplicate dart", "unknown link end", "whole map on one line"],
)
def test_a_parse_error_costs_little_more_memory_than_a_clean_parse(fault):
    # placing an error must not lex the document into per-token objects
    clean, faulty, error = _faulty(fault)
    clean_peak, clean_error = _traced_peak(clean)
    peak, found = _traced_peak(faulty)
    assert not clean_error and found.startswith(error)
    assert peak <= 1.25 * clean_peak, f"{peak / clean_peak:.2f}x the clean parse's peak"
