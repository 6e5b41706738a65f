"""The checks of public constructors that no other test reaches, each
pinned to its error class and text (or, for a constant that is no
number, to the value it gives)."""

import pytest

from gmapkit import (
    DimensionError,
    DirectiveError,
    EmbeddingError,
    EmbeddingLayer,
    Gmap,
    LabeledGraph,
    MalformedFaceError,
    OrbitType,
    RelabelingError,
    SchemeError,
    UnknownNodeError,
    apply_rule,
    instantiate_rule,
    parse_directive,
    parse_gmap,
    parse_rule_scheme,
)
from gmapkit.gmap import normalize_value
from gmapkit.mesh import PolygonalMesh
from gmapkit.orbits import GeneralizedOrbitType
from gmapkit.rewrite import EmbeddingDirective
from gmapkit.scheme import GraphScheme, RuleScheme, SchemeArc, split_instance

from conftest import fixture_text

PARAMETER = OrbitType((0,))
NODE = ("n0", GeneralizedOrbitType((0,)))
LEFT = GraphScheme(PARAMETER, (NODE,))


def constant_on_a_string_layer() -> list[str]:
    """The values of a string layer after a vertex insertion that sets
    ``constant(hello)`` on the new darts."""
    g = parse_gmap(fixture_text("square.gmap"))
    label = EmbeddingLayer("label", OrbitType(()), "string", {d: "old" for d in g.darts})
    g = Gmap(g.graph, [*g.embeddings.values(), label])
    rule = instantiate_rule(parse_rule_scheme(fixture_text("vertex_insert_02.jrule")), g, "v0e0-1f0")
    directives = [parse_directive("pos:n1=midpoint(n0)"), parse_directive("label:n1=constant(hello)")]
    out = apply_rule(rule, g, directives=directives)
    return sorted(set(out.embeddings["label"].values.values()))


CHECKS = {
    "directive with a bad kind": (
        lambda: EmbeddingDirective("pos", "n1", "copy"),
        (DirectiveError, "unknown directive kind 'copy'"),
    ),
    "directive with no ref": (
        lambda: EmbeddingDirective("pos", "n1", "midpoint"),
        (DirectiveError, "directive midpoint needs a reference node"),
    ),
    "constant(hello) on a string layer": (constant_on_a_string_layer, ["hello", "old"]),
    "vertex with two coordinates": (
        lambda: PolygonalMesh([(0, 0)], []),
        (MalformedFaceError, "vertex must have 3 coordinates, got (0.0, 0.0)"),
    ),
    "name that is no instance name": (
        lambda: split_instance("abc"),
        (SchemeError, "'abc' is not an instance name"),
    ),
    "bad scheme node name": (
        lambda: GraphScheme(PARAMETER, (("n-0", GeneralizedOrbitType((0,))),)),
        (SchemeError, "bad scheme node name 'n-0'"),
    ),
    "arc of a negative dimension": (
        lambda: GraphScheme(PARAMETER, (NODE, ("n1", NODE[1])), (SchemeArc("n0", -1, "n1"),)),
        (SchemeError, "arc n0 --1- n1 has a negative dimension"),
    ),
    "bad rule name": (
        lambda: RuleScheme("bad name", PARAMETER, LEFT, LEFT, "n0"),
        (SchemeError, "bad rule name 'bad name'"),
    ),
    "sides of another parameter": (
        lambda: RuleScheme("R", PARAMETER, GraphScheme(OrbitType((1,)), ()), LEFT, "n0"),
        (SchemeError, "left/right schemes must share the rule parameter"),
    ),
    "hook that is no left node": (
        lambda: RuleScheme("R", PARAMETER, LEFT, LEFT, "n9"),
        (SchemeError, "hook 'n9' is not a left node"),
    ),
    "value of an unknown type": (
        lambda: normalize_value("vector", 1.0),
        (EmbeddingError, "unknown embedding value type 'vector'"),
    ),
    "layer of an unknown type": (
        lambda: EmbeddingLayer("p", OrbitType(()), "vector", {}),
        (EmbeddingError, "unknown embedding value type 'vector'"),
    ),
    "two layers of one name": (
        lambda: Gmap(LabeledGraph(0), [EmbeddingLayer("p", OrbitType(()), "scalar", {})] * 2),
        (EmbeddingError, "duplicate embedding layer 'p'"),
    ),
    "negative ambient dimension": (
        lambda: LabeledGraph(-1),
        (DimensionError, "ambient dimension must be >= 0"),
    ),
    "empty node name": (
        lambda: LabeledGraph.build(1, [""]),
        (UnknownNodeError, "node name must be non-empty"),
    ),
    "negative orbit entry": (
        lambda: GeneralizedOrbitType((-1,)),
        (RelabelingError, "bad generalized orbit entry -1"),
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_a_constructor_check_is_pinned(name):
    call, expected = CHECKS[name]
    if isinstance(expected, list):
        assert call() == expected
        return
    error, text = expected
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == text
