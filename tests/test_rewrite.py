"""Rule application: topology edits, directives, failure modes."""

import gc
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import pytest

from gmapkit import (
    DanglingDartError,
    DimensionError,
    DirectiveError,
    EmbeddingViolation,
    Gmap,
    IncidenceViolation,
    LabeledGraph,
    MatchError,
    MissingDirectiveError,
    PostValidationError,
    RelabelingFunction,
    UnknownNodeError,
    apply_rule,
    complete_match,
    instantiate_rule,
    instantiate_scheme,
    parse_directive,
    parse_gmap,
    parse_rule_scheme,
    serialize_gmap,
)

from conftest import RIGHT_DIM_RULES, fixture_text, square_mesh
from gmapkit.mesh import PolygonalMesh, unify

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
        # a read returns the shared tuple itself, not a copy of it
        for d in shared:
            assert out.graph.incident_links(d) is host.graph.incident_links(d)
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


@pytest.mark.parametrize(
    "directives, message",
    [
        ([MIDPOINT, "pos:n1=constant(0,0,0)"], "duplicate directive for layer 'pos', node 'n1'"),
        ([MIDPOINT, "nope:n1=midpoint(n0)"], "directive references unknown layer 'nope'"),
        ([MIDPOINT, "pos:n0=midpoint(n0)"], "directive references node 'n0', which creates no darts"),
        # the duplicate is found while the table is built, before any reference check
        (["nope:n1=midpoint(n0)", MIDPOINT, "pos:n1=constant(0,0,0)"], "duplicate directive for layer 'pos', node 'n1'"),
    ],
)
def test_directive_errors_are_pinned(vi_rule, square_gmap, directives, message):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    parsed = [parse_directive(d) if isinstance(d, str) else d for d in directives]
    with pytest.raises(DirectiveError) as exc:
        apply_rule(inst, square_gmap, directives=parsed)
    assert str(exc.value) == message


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
    # the full side: the rewritten map is scanned whole
    full_check = lambda self, touched, host=None: self.validate()
    with mock.patch.object(Gmap, "_validate_rewritten", full_check):
        with pytest.raises(PostValidationError) as full:
            apply_rule(instantiate_rule(pendant, g, "a"), g)
    assert local.value.report.lines() == full.value.report.lines()
    # its pivot d is two links from a and a@n1, the ends of the only new link
    assert "E_CYCLE i=0 j=2 path: c-0-d . b-2-d . a-0-b . a-2-a@n1" in local.value.report.lines()


def test_local_check_finds_a_dart_with_a_repeated_dim_as_the_full_check_does():
    # a 2x2 grid of quads; the rule turns the 1-link at a corner dart into
    # a 0-link, so both its ends have n+1 links with dims (0, 0, 2)
    grid = [(float(x), float(y), 0.0) for y in range(3) for x in range(3)]
    host = unify(PolygonalMesh(grid, [(0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 7, 6), (4, 5, 8, 7)]))
    assert host.validate().ok and host._known_valid
    relabel = parse_rule_scheme("rule R <1> { left { n0: <1> hook } right { n0: <0> } }")
    d = min(host.darts)
    ends = {d, host.alpha(d, 1)}
    assert len(host._ball(host._ball(ends, 2), 2)) < len(host.darts)  # a local check
    with pytest.raises(PostValidationError) as local:
        apply_rule(instantiate_rule(relabel, host, d), host)
    full_check = lambda self, touched, host=None: self.validate()
    with mock.patch.object(Gmap, "_validate_rewritten", full_check):
        with pytest.raises(PostValidationError) as full:
            apply_rule(instantiate_rule(relabel, host, d), host)
    assert local.value.report.lines() == full.value.report.lines()
    for e in ends:
        assert f"E_INCIDENCE dart={e} dim=1 found=0" in local.value.report.lines()


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
    # the clean unmarked host was validated once, which marks it
    assert host._known_valid and square_gmap._known_valid
    before = serialize_gmap(host)
    with pytest.raises(PostValidationError):
        apply_rule(instantiate_rule(broken_rule, host, "v0e0-1f0"), host, directives=[MIDPOINT])
    assert host._known_valid and serialize_gmap(host) == before


def _strip(k):
    """k unit squares in a row: a map on which a vertex insertion's check
    region is not the whole map."""
    verts = tuple((float(x), float(y), 0.0) for y in (0, 1) for x in range(k + 1))
    return unify(PolygonalMesh(verts, tuple((x, x + 1, k + 2 + x, k + 1 + x) for x in range(k))))


@pytest.fixture
def full_scans(monkeypatch):
    """The calls of ``Gmap._report`` on a whole map, by map."""
    calls = []
    report = Gmap._report

    def counted(self, *args):
        if not args:
            calls.append(self)
        return report(self, *args)

    monkeypatch.setattr(Gmap, "_report", counted)
    return calls


def test_ten_rewrites_of_one_parsed_host_scan_it_once(vi_rule, full_scans):
    host = parse_gmap(serialize_gmap(_strip(8)))
    assert not host._known_valid
    for dart in sorted(host.darts)[::6][:10]:
        out = apply_rule(instantiate_rule(vi_rule, host, dart), host, directives=[MIDPOINT])
        assert out._known_valid and len(out.darts) in (len(host.darts) + 2, len(host.darts) + 4)
    assert full_scans == [host] and host._known_valid


def test_dual_of_an_unmarked_host_is_one_full_scan(full_scans):
    dual = parse_rule_scheme("rule Dual <0,1,2> { left { n0: <0,1,2> hook } right { n0: <2,1,0> } }")
    host = Gmap(_strip(3).graph)
    out = apply_rule(instantiate_rule(dual, host, sorted(host.darts)[0]), host)
    assert full_scans == [out] and out._known_valid and not host._known_valid


def test_broken_host_stays_unmarked_and_its_rewrite_gets_a_full_report(vi_rule, full_scans):
    strip = _strip(8)
    # a lone dart z with no 2-link, far from every rewrite
    links = [(l.dim, l.ends) for l in strip.graph.links] + [(0, ["z"]), (1, ["z"])]
    broken = Gmap(LabeledGraph.build(2, strip.darts + ("z",), links))
    want = ["E_INCIDENCE dart=z dim=2 found=0"]
    for dart in sorted(strip.darts)[:2]:
        with pytest.raises(PostValidationError) as exc:
            apply_rule(instantiate_rule(vi_rule, broken, dart), broken)
        assert exc.value.report.lines() == want and not broken._known_valid
    # each rewrite scans the host, then its result
    assert full_scans[0::2] == [broken, broken] and broken not in full_scans[1::2]
    assert broken.validate().lines() == want and not broken._known_valid


@pytest.mark.parametrize("name", sorted(RIGHT_DIM_RULES))
def test_a_right_side_dim_above_the_map_fails_at_instantiation(square_gmap, name):
    text, dim = RIGHT_DIM_RULES[name]
    with pytest.raises(DimensionError) as exc:
        instantiate_rule(parse_rule_scheme(text), square_gmap, "v0e0-1f0")
    assert str(exc.value) == f"dimension {dim} out of range 0..2"


def test_a_rewrite_builds_no_instance_graph():
    dual = parse_rule_scheme("rule Dual <0,1,2> { left { n0: <0,1,2> hook } right { n0: <2,1,0> } }")
    host = parse_gmap(fixture_text("square.gmap").replace("    orbit: 1 2\n", "    orbit: 1\n"))
    with mock.patch.object(LabeledGraph, "build", wraps=LabeledGraph.build) as build:
        inst = instantiate_rule(dual, host, "v0e0-1f0")
        out = apply_rule(inst, host, complete_match(inst, host))
    assert build.call_count == 0 and len(out.darts) == len(host.darts)
    # each side, read later, is the graph instantiate_scheme builds
    for side, scheme in ((inst.left, dual.left), (inst.right, dual.right)):
        want = instantiate_scheme(scheme, inst.orbit_graph)
        assert side.nodes == want.nodes
        assert [(l.dim, l.ends, l.id) for l in side.links] == [(l.dim, l.ends, l.id) for l in want.links]


def test_a_match_onto_a_dart_the_host_lacks_is_refused(vi_rule, square_gmap):
    inst = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    match = complete_match(inst, square_gmap)
    x = sorted(match.mapping)[-1]
    gone = replace(match, mapping={**match.mapping, x: "nowhere"})
    with pytest.raises(UnknownNodeError) as exc:
        apply_rule(inst, square_gmap, gone, [MIDPOINT])
    assert str(exc.value) == "unknown node 'nowhere'"


def _square_of_four(extra=False):
    """Darts a, b, c, d on one <0,2> cycle (0: a-b, c-d; 2: a-c, b-d) with
    1-loops; with ``extra``, d's 2-link goes to a new dart f and b's to e,
    so the cycle no longer closes."""
    if not extra:
        return Gmap.build(2, "abcd", [(0, "ab"), (0, "cd"), (2, "ac"), (2, "bd")] + [(1, u) for u in "abcd"])
    links = [(0, "ab"), (0, "cd"), (0, "ef"), (2, "ac"), (2, "be"), (2, "df")]
    return Gmap.build(2, "abcdef", links + [(1, u) for u in "abcdef"])


def _calls(step, vi_rule, broken_rule, square_gmap):
    """``step``'s call that returns and its call that raises, as
    ``(call, error)`` pairs."""
    if step == "instantiate_rule":
        right_dim_3 = parse_rule_scheme(RIGHT_DIM_RULES["decoration"][0])
        return [
            (lambda: instantiate_rule(vi_rule, square_gmap, "v0e0-1f0"), None),
            (lambda: instantiate_rule(right_dim_3, square_gmap, "v0e0-1f0"), DimensionError),
        ]
    if step == "complete_match":
        inst = instantiate_rule(vi_rule, _square_of_four(), "a")
        return [
            (lambda: complete_match(inst, _square_of_four()), None),
            (lambda: complete_match(inst, _square_of_four(extra=True)), MatchError),
        ]
    good = instantiate_rule(vi_rule, square_gmap, "v0e0-1f0")
    bad = instantiate_rule(broken_rule, square_gmap, "v0e0-1f0")
    return [
        (lambda: apply_rule(good, square_gmap, None, [MIDPOINT]), None),
        (lambda: apply_rule(bad, square_gmap, None, [MIDPOINT]), PostValidationError),
    ]


@pytest.mark.parametrize("outcome", ["returns", "raises"])
@pytest.mark.parametrize("step", ["instantiate_rule", "complete_match", "apply_rule"])
def test_each_rewrite_step_restores_the_callers_collector_setting(
    step, outcome, collecting, vi_rule, broken_rule, square_gmap
):
    call, error = _calls(step, vi_rule, broken_rule, square_gmap)[outcome == "raises"]
    # each step walks or reads a graph, or relabels a scheme node's links,
    # which notes the collector's state
    seen: list[bool] = []

    def recording(method):
        def noted(graph, *args):
            seen.append(gc.isenabled())
            return method(graph, *args)

        return noted

    with (
        mock.patch.object(LabeledGraph, "reach", recording(LabeledGraph.reach)),
        mock.patch.object(LabeledGraph, "incident_links", recording(LabeledGraph.incident_links)),
        mock.patch.object(RelabelingFunction, "mapping", property(recording(RelabelingFunction.mapping.fget))),
        pytest.raises(error) if error else nullcontext() as exc,
    ):
        call()
    if error:
        codes = {"instantiate_rule": "E_DOMAIN", "complete_match": "E_MATCH", "apply_rule": "E_POSTVALID"}
        assert exc.value.code == codes[step]
        assert step != "complete_match" or "conflicting images" in str(exc.value)
    assert gc.isenabled() is collecting
    assert seen and not any(seen)
