"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact (tolerance 0 / exact integers); the only numeric
tolerance in the system is the 1e-9 embedding comparison, which these
fixtures never exercise at the boundary.
"""

import random

import pytest

from gmapkit import (
    GeneralizedOrbitType,
    GraphScheme,
    OrbitType,
    apply_rule,
    export_obj,
    import_off,
    instantiate_rule,
    instantiate_scheme,
    parse_directive,
    parse_gmap,
    parse_rule_scheme,
    serialize_gmap,
    serialize_rule_scheme,
)
from gmapkit.gmap import CycleViolation, IncidenceViolation
from gmapkit.mesh import unify

from conftest import (
    FIXTURES,
    fixture_text,
    free_edge_graph,
    sewn_edge_graph,
    vertex_insert_rhs_free,
    vertex_insert_rhs_sewn,
)
from iso import iso_check
from oracle import (
    check_match_agreement,
    check_orbit_agreement,
    check_validate_agreement,
    random_valid_gmap,
)
from test_scheme import expected_link_count, random_scheme


def report(num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f"  [{'; '.join(failures[:3])}]" if failures else ""
    print(f"{status} criterion {num}: {description}{detail}")
    assert not failures, f"criterion {num}: {failures}"


def links_of(g):
    return sorted((l.dim, l.ends) for l in g.links)


@pytest.fixture(scope="module")
def random_maps():
    maps = []
    for s in range(200):
        n = (s % 3) + 1
        maps.append((s, random_valid_gmap(s, n=n, max_darts=24)))
    return maps


def test_criterion_1_golden_free_edge_insertion(vi_rule):
    failures = []
    right = instantiate_scheme(vi_rule.right, free_edge_graph())
    if len(right.nodes) != 4:
        failures.append(f"expected 4 darts, got {len(right.nodes)}")
    parts = links_of(right)
    zero = [e for d, e in parts if d == 0]
    one = [e for d, e in parts if d == 1]
    two = [e for d, e in parts if d == 2]
    if zero != [("a@n0", "a@n1"), ("b@n0", "b@n1")]:
        failures.append(f"0-links {zero}")
    if len(one) != 1:
        failures.append(f"expected one 1-link, got {one}")
    if len(two) != 4 or any(len(e) != 1 for e in two):
        failures.append(f"expected four 2-loops, got {two}")
    if iso_check(right, vertex_insert_rhs_free()) is None:
        failures.append("not isomorphic to the free-edge insertion right side")
    report(1, "golden vertex insertion on the free edge", failures)


def test_criterion_2_golden_sewn_edge_insertion(vi_rule):
    failures = []
    right = instantiate_scheme(vi_rule.right, sewn_edge_graph())
    if len(right.nodes) != 8:
        failures.append(f"expected 8 darts, got {len(right.nodes)}")
    zero = [e for d, e in links_of(right) if d == 0]
    wanted = [
        ("a@n0", "a@n1"),
        ("b@n0", "b@n1"),
        ("c@n0", "c@n1"),
        ("d@n0", "d@n1"),
    ]
    if zero != wanted:
        failures.append(f"0-links {zero}")
    if iso_check(right, vertex_insert_rhs_sewn()) is None:
        failures.append("not isomorphic to the sewn-edge insertion right side")
    report(2, "golden vertex insertion on the sewn edge", failures)


def test_criterion_3_identity_instantiation_law():
    failures = []
    rng = random.Random(303)
    for case in range(50):
        n = rng.choice([1, 2, 3])
        host = random_valid_gmap(1000 + case, n=n, max_darts=16)
        size = rng.randint(1, n + 1)
        param = OrbitType(tuple(sorted(rng.sample(range(n + 1), size))))
        dart = rng.choice(sorted(host.darts))
        orbit_graph = host.orbit(param, dart)
        scheme = GraphScheme(param, (("n", GeneralizedOrbitType(param.dims)),))
        out = instantiate_scheme(scheme, orbit_graph)
        if iso_check(out, orbit_graph) != {f"{u}@n": u for u in orbit_graph.nodes}:
            failures.append(f"case {case}: not the expected isomorphic copy")
    report(3, "identity instantiation reproduces 50 random orbits", failures)


def test_criterion_4_count_laws():
    failures = []
    rng = random.Random(404)
    done = 0
    while done < 100:
        n = rng.choice([2, 3])
        scheme = random_scheme(rng, n)
        host = random_valid_gmap(2000 + done, n=n, max_darts=16)
        dart = rng.choice(sorted(host.darts))
        orbit_graph = host.orbit(scheme.parameter, dart)
        out = instantiate_scheme(scheme, orbit_graph)
        if len(out.nodes) != len(scheme.nodes) * len(orbit_graph.nodes):
            failures.append(f"case {done}: node count law broken")
        if len(out.links) != expected_link_count(scheme, orbit_graph):
            failures.append(f"case {done}: link count law broken")
        done += 1
    report(4, "node and link count laws on 100 random (scheme, orbit) pairs", failures)


def test_criterion_5_end_to_end_square(vi_rule):
    failures = []
    g = unify(import_off(fixture_text("square.off")))
    if len(g.darts) != 8:
        failures.append(f"unify darts {len(g.darts)}")
    if not g.validate().ok:
        failures.append("unify output invalid")
    if [len(g.cells(i)) for i in range(3)] != [4, 4, 1]:
        failures.append(f"unify cells {[len(g.cells(i)) for i in range(3)]}")
    directive = parse_directive("pos:n1=midpoint(n0)")
    for anchor in sorted(g.darts):
        inst = instantiate_rule(vi_rule, g, anchor)
        out = apply_rule(inst, g, directives=[directive])
        if len(out.darts) != 10:
            failures.append(f"{anchor}: darts {len(out.darts)}")
        if not out.validate().ok:
            failures.append(f"{anchor}: invalid result")
        if [len(out.cells(i)) for i in range(3)] != [5, 5, 1]:
            failures.append(f"{anchor}: cells {[len(out.cells(i)) for i in range(3)]}")
        obj = export_obj(out)
        v_lines = [l for l in obj.splitlines() if l.startswith("v ")]
        f_lines = [l for l in obj.splitlines() if l.startswith("f ")]
        if len(v_lines) != 5:
            failures.append(f"{anchor}: {len(v_lines)} vertices exported")
        if len(f_lines) != 1 or len(f_lines[0].split()) != 6:
            failures.append(f"{anchor}: face line {f_lines}")
    report(5, "unify square, insert a vertex at all 8 darts, export the 5-gon", failures)


def test_criterion_6_oracle_equivalence(random_maps, vi_rule, vi2_rule, identity_rule):
    failures = []
    rng = random.Random(606)
    for s, g in random_maps:
        rep = check_validate_agreement(g, f"map{s}")
        if not rep.passed:
            failures.append(rep.witness)
        dart = rng.choice(sorted(g.darts))
        dims = tuple(sorted(rng.sample(range(g.n + 1), rng.randint(1, g.n + 1))))
        rep = check_orbit_agreement(g, OrbitType(dims), dart, f"map{s}")
        if not rep.passed:
            failures.append(rep.witness)
    rules = [vi_rule, vi2_rule, identity_rule]
    done = 0
    while done < 100:
        host = random_valid_gmap(3000 + done, n=2, max_darts=20)
        darts = sorted(host.darts)
        rule = rng.choice(rules)
        anchor = rng.choice(darts)
        inst = instantiate_rule(rule, host, anchor)
        seed = inst.seed() if rng.random() < 0.5 else {inst.hook_instances[0]: rng.choice(darts)}
        rep = check_match_agreement(inst, host, seed, f"triple{done}")
        if not rep.passed:
            failures.append(rep.witness)
        done += 1
    report(6, "kernel agrees with oracles on 200 maps and 100 match triples", failures)


def test_criterion_7_involution_and_cycle_closure(random_maps):
    failures = []
    for s, g in random_maps:
        for d in g.darts:
            for i in range(g.n + 1):
                if g.alpha(g.alpha(d, i), i) != d:
                    failures.append(f"map{s}: alpha_{i} not an involution at {d}")
        if g.n == 2:
            for d in g.darts:
                e = g.alpha(g.alpha(g.alpha(g.alpha(d, 0), 2), 0), 2)
                if e != d:
                    failures.append(f"map{s}: 0202 walk open at {d}")
    report(7, "involutions and the 0202 closure hold on all 200 maps", failures)


def test_criterion_8_round_trips():
    failures = []
    gmap_files = sorted(FIXTURES.glob("*.gmap"))
    rule_files = sorted(FIXTURES.glob("*.jrule"))
    if len(gmap_files) + len(rule_files) < 12:
        failures.append("fixture corpus too small")
    for path in gmap_files:
        text = path.read_text(encoding="utf-8")
        if serialize_gmap(parse_gmap(text)) != text:
            failures.append(f"{path.name} does not round-trip")
    for path in rule_files:
        text = path.read_text(encoding="utf-8")
        if serialize_rule_scheme(parse_rule_scheme(text)) != text:
            failures.append(f"{path.name} does not round-trip")
    report(8, f"{len(gmap_files) + len(rule_files)} fixtures round-trip byte-identically", failures)


def test_criterion_9_negative_validation():
    failures = []
    three = parse_gmap(fixture_text("broken_three_faces.gmap")).validate()
    if three.ok:
        failures.append("three-faces fixture validated clean")
    if not any(isinstance(v, IncidenceViolation) for v in three.violations):
        failures.append("three-faces fixture lacks an incidence violation")
    if not any("E_INCIDENCE" in line for line in three.lines()):
        failures.append("three-faces report lacks E_INCIDENCE")
    cycle = parse_gmap(fixture_text("broken_cycle.gmap")).validate()
    if cycle.ok:
        failures.append("open-path fixture validated clean")
    if not any(isinstance(v, CycleViolation) for v in cycle.violations):
        failures.append("open-path fixture lacks a cycle violation")
    if not any("E_CYCLE" in line for line in cycle.lines()):
        failures.append("open-path report lacks E_CYCLE")
    report(9, "broken fixtures report E_INCIDENCE / E_CYCLE", failures)
