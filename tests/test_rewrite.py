"""Rule application: topology edits, directives, failure modes."""

import pytest

from gmapkit import (
    DanglingDartError,
    DirectiveError,
    EmbeddingViolation,
    Gmap,
    IncidenceViolation,
    LabeledGraph,
    MissingDirectiveError,
    PostValidationError,
    apply_rule,
    complete_match,
    instantiate_rule,
    parse_directive,
    parse_gmap,
    parse_rule_scheme,
    serialize_gmap,
)

from conftest import fixture_text, square_mesh
from gmapkit.mesh import unify

MIDPOINT = parse_directive("pos:n1=midpoint(n0)")

# per rule name: what the created nodes need for the position layer
DIRECTIVES = {
    "VI": [MIDPOINT],
    "VI2": [MIDPOINT, parse_directive("pos:n2=midpoint(n0)")],
}


def test_vertex_insertion_on_square(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    out = apply_rule(inst, square_gmap, directives=[MIDPOINT])
    assert len(out.darts) == 10
    assert [len(out.cells(i)) for i in range(3)] == [5, 5, 1]
    assert out.validate().ok
    new_vertex = out.embeddings["pos"].values["v0e0-1f0@n1"]
    assert new_vertex == (0.5, 0.0, 0.0)


def test_vertex_insertion_at_every_dart(vi_rule, square_gmap):
    for anchor in square_gmap.darts:
        inst = instantiate_rule(vi_rule, square_gmap, anchor)
        out = apply_rule(inst, square_gmap, directives=[MIDPOINT])
        assert len(out.darts) == 10
        assert [len(out.cells(i)) for i in range(3)] == [5, 5, 1]


def test_vertex_insertion_on_shared_edge(vi_rule, two_triangles_gmap):
    inst = instantiate_rule(vi_rule, two_triangles_gmap, "v0e0-2f0")
    out = apply_rule(inst, two_triangles_gmap, directives=[MIDPOINT])
    assert len(out.darts) == 16
    assert [len(out.cells(i)) for i in range(3)] == [5, 6, 2]
    assert out.validate().ok


def test_insertion_preserves_euler_everywhere(vi_rule, vi2_rule, two_triangles_gmap):
    # one more vertex and one more edge: the characteristic is unchanged
    for rule in (vi_rule, vi2_rule):
        for anchor in two_triangles_gmap.darts:
            inst = instantiate_rule(rule, two_triangles_gmap, anchor)
            out = apply_rule(inst, two_triangles_gmap, directives=DIRECTIVES[rule.name])
            assert out.validate().ok
            v, e, f = (len(out.cells(i)) for i in range(3))
            assert v - e + f == 1
            assert len(out.darts) in (14, 16)  # free edge vs shared edge


def test_identity_rule_is_a_noop(identity_rule, square_gmap):
    inst = instantiate_rule(identity_rule, square_gmap, "v0e0-1f0")
    out = apply_rule(inst, square_gmap)
    assert out == square_gmap


def test_broken_scheme_fails_post_validation(broken_rule, square_gmap):
    inst = instantiate_rule(broken_rule, square_gmap, "v0e0-1f0")
    with pytest.raises(PostValidationError) as exc:
        apply_rule(inst, square_gmap, directives=[MIDPOINT])
    incidences = [
        v for v in exc.value.report.violations if isinstance(v, IncidenceViolation)
    ]
    assert incidences, exc.value.report.lines()
    # the kept 0-links double up with the instantiated 0-arc
    assert any(v.dim == 0 and v.found == 2 for v in incidences)


def test_deleting_connected_darts_dangles(square_gmap):
    erase = parse_rule_scheme(
        "rule Erase <0,2> { left { n0: <0,2> hook } right { } }"
    )
    inst = instantiate_rule(erase, square_gmap, "v0e0-1f0")
    with pytest.raises(DanglingDartError):
        apply_rule(inst, square_gmap)


def test_conservativity_outside_the_match(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    match = complete_match(inst, square_gmap)
    out = apply_rule(inst, square_gmap, match, directives=[MIDPOINT])
    untouched = set(square_gmap.darts) - set(match.image)
    pos_before = square_gmap.embeddings["pos"].values
    pos_after = out.embeddings["pos"].values
    for dart in untouched:
        assert pos_after[dart] == pos_before[dart]
        before = sorted(
            (l.dim, l.ends) for l in square_gmap.graph.incident_links(dart)
        )
        after = sorted((l.dim, l.ends) for l in out.graph.incident_links(dart))
        assert before == after
    # matched-but-preserved darts also keep their values
    for dart in match.image:
        assert pos_after[dart] == pos_before[dart]


def test_a_rewrite_copies_only_the_link_lists_it_writes(vi_rule, two_triangles_gmap):
    host = two_triangles_gmap
    for anchor in ("v0e0-2f0", "v2e0-2f0"):  # the second host is known-valid
        inst = instantiate_rule(vi_rule, host, anchor)
        match = complete_match(inst, host)
        out = apply_rule(inst, host, match, directives=[MIDPOINT])
        # preserved and deleted darts are the match image
        touched = set(match.image) | (set(out.darts) - set(host.darts))
        shared = {d for d in host.darts if d in out.graph and out.graph._adj[d] is host.graph._adj[d]}
        assert shared == set(host.darts) - touched
        host = out


def test_missing_directive_is_an_error(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    with pytest.raises(MissingDirectiveError):
        apply_rule(inst, square_gmap)


def test_constant_directive(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    out = apply_rule(
        inst,
        square_gmap,
        directives=[parse_directive("pos:n1=constant(0.5,0.0,0.0)")],
    )
    assert out.embeddings["pos"].values["v1e0-1f0@n1"] == (0.5, 0.0, 0.0)
    assert out.validate().ok


def test_inherit_directive_on_face_color(vi_rule):
    g = parse_gmap(fixture_text("square_colored.gmap"))
    inst = instantiate_rule(vi_rule, g, "v0e0-1f0")
    out = apply_rule(
        inst,
        g,
        directives=[MIDPOINT, parse_directive("col:n1=inherit(n0)")],
    )
    assert out.validate().ok
    assert out.embeddings["col"].values["v0e0-1f0@n1"] == (200, 40, 40)


def test_inconsistent_inherit_fails_post_validation(vi_rule, square_gmap):
    # inheriting positions per-dart splits the new vertex's values
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    with pytest.raises(PostValidationError) as exc:
        apply_rule(inst, square_gmap, directives=[parse_directive("pos:n1=inherit(n0)")])
    assert any(isinstance(v, EmbeddingViolation) for v in exc.value.report.violations)


def test_midpoint_rejects_many_distinct_values(square_gmap):
    spread = parse_rule_scheme(
        "rule Spread <0,1> { left { n0: <0,1> hook } right { n0: <0,1>  n1: <_,_> } }"
    )
    inst = instantiate_rule(spread, square_gmap, "v0e0-1f0")
    with pytest.raises(DirectiveError):
        apply_rule(inst, square_gmap, directives=[parse_directive("pos:n1=midpoint(n0)")])


def test_duplicate_directive_rejected(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    with pytest.raises(DirectiveError):
        apply_rule(
            inst,
            square_gmap,
            directives=[MIDPOINT, parse_directive("pos:n1=constant(0,0,0)")],
        )


def test_directive_for_unknown_layer_rejected(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    with pytest.raises(DirectiveError):
        apply_rule(
            inst,
            square_gmap,
            directives=[MIDPOINT, parse_directive("nope:n1=midpoint(n0)")],
        )


def test_apply_output_is_byte_stable(vi_rule, square_gmap):
    def run():
        inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
        return serialize_gmap(apply_rule(inst, square_gmap, directives=[MIDPOINT]))

    assert run() == run()


def test_fresh_names_get_suffixed_on_collision(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    once = apply_rule(inst, square_gmap, directives=[MIDPOINT])
    # the anchor dart still exists; a second insertion reuses instance names
    inst2 = instantiate_rule(vi_rule, once, "v0e0-1f0")
    twice = apply_rule(inst2, once, directives=[MIDPOINT])
    assert len(twice.darts) == 12
    assert [len(twice.cells(i)) for i in range(3)] == [6, 6, 1]
    assert any("#1" in d for d in twice.darts)
    assert twice.validate().ok


# -- local post-validation of known-valid hosts ------------------------------------


def test_local_check_reaches_a_pivot_two_links_from_the_new_link(identity_rule):
    # a sewn edge a,b,c,d plus a lone dart e, so the checked region is not
    # the whole map; the rule 2-links a to a new dart a@n1
    g = Gmap.build(
        2,
        "abcde",
        [(0, "ab"), (0, "cd"), (2, "ac"), (2, "bd"), (0, "e"), (2, "e")]
        + [(1, d) for d in "abcde"],
    )
    host = apply_rule(instantiate_rule(identity_rule, g, "e"), g)
    assert host._known_valid and host == g
    pendant = parse_rule_scheme("rule P <1> { left { n0: <1> hook } right { n0: <1> n1: <_> n0 -2- n1 } }")
    with pytest.raises(PostValidationError) as local:
        apply_rule(instantiate_rule(pendant, host, "a"), host)
    with pytest.raises(PostValidationError) as full:
        apply_rule(instantiate_rule(pendant, g, "a"), g)
    assert local.value.report.lines() == full.value.report.lines()
    # its pivot d is two links from a and a@n1, the ends of the only new link
    assert "E_CYCLE i=0 j=2 path: c-0-d . b-2-d . a-0-b . a-2-a@n1" in local.value.report.lines()


def test_unmarked_broken_host_gets_a_full_report(vi_rule):
    square = unify(square_mesh())
    # a lone dart z with no 2-link, far from the rewrite
    links = [(l.dim, l.ends) for l in square.graph.links] + [(0, ["z"]), (1, ["z"])]
    broken = Gmap(LabeledGraph.build(2, square.darts + ("z",), links))
    assert broken.validate().lines() == ["E_INCIDENCE dart=z dim=2 found=0"]
    for g in (broken, broken.copy(), parse_gmap(serialize_gmap(broken))):
        assert not g._known_valid
        with pytest.raises(PostValidationError) as exc:
            apply_rule(instantiate_rule(vi_rule, g, "v0e0-1f0"), g)
        assert exc.value.report.lines() == ["E_INCIDENCE dart=z dim=2 found=0"]
        assert not g._known_valid


def test_failed_rewrite_leaves_a_known_valid_host_as_it_was(broken_rule, vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    host = apply_rule(inst, square_gmap, directives=[MIDPOINT])
    assert host._known_valid and not square_gmap._known_valid
    before = serialize_gmap(host)
    with pytest.raises(PostValidationError):
        apply_rule(instantiate_rule(broken_rule, host, "v0e0-1f0"), host, directives=[MIDPOINT])
    assert host._known_valid and serialize_gmap(host) == before
