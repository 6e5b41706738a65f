"""Formats: canonical round-trips, parse errors, OFF/OBJ."""

import pytest

from gmapkit import (
    EmbeddingError,
    EmbeddingLayer,
    Gmap,
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
from gmapkit.mesh import unify

from conftest import FIXTURES, fixture_text, free_edge_graph

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
