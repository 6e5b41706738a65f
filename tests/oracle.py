"""Naive reference implementations used by the test suite.

Everything here trades speed for obviousness: validation enumerates raw
link 4-tuples, orbits are a reachability fixpoint, instantiation is the
set definition of a scheme's instance, application is the set
definition of a rewrite, and matching is an exhaustive backtracking
search, next to a queue-based reference completion.  The test suite
checks that the kernel agrees with these on generated instances; none
of this is reachable from the CLI.  Instances are capped at desk scale
(tens of darts).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from gmapkit.errors import (
    ConstraintViolationError,
    DanglingDartError,
    DimensionError,
    DirectiveError,
    MatchError,
    MissingDirectiveError,
    PostValidationError,
    UnknownNodeError,
)
from gmapkit.gmap import (
    CycleViolation,
    EmbeddingLayer,
    EmbeddingViolation,
    Gmap,
    IncidenceViolation,
    ValidationReport,
    values_equal,
)
from gmapkit.graph import LabeledGraph, Link
from gmapkit.orbits import REMOVE, OrbitType, RelabelingFunction
from gmapkit.rewrite import EmbeddingDirective, Match, extend_match
from gmapkit.scheme import GraphScheme, InstantiatedRule, instance_name, split_instance

from iso import links_between


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one kernel-versus-oracle comparison."""

    prop: str
    instance: str
    passed: bool
    witness: str = ""

    def __post_init__(self):
        if not self.passed and not self.witness:
            raise ValueError("failed oracle report needs a witness")


def oracle_validate(g: Gmap) -> ValidationReport:
    """Both topological constraints checked by brute enumeration, plus
    the embedding condition via fixpoint orbits."""
    violations = []
    links = g.graph.links
    for d in g.darts:
        for i in range(g.n + 1):
            found = sum(1 for l in links if d in l.ends and l.dim == i)
            if found != 1:
                violations.append(IncidenceViolation(d, i, found))
    for i in range(g.n + 1):
        for j in range(i + 2, g.n + 1):
            li = [l for l in links if l.dim == i]
            lj = [l for l in links if l.dim == j]
            seen = set()
            for l0 in li:
                for l1 in lj:
                    if not set(l0.ends) & set(l1.ends):
                        continue
                    for l2 in li:
                        if not set(l1.ends) & set(l2.ends):
                            continue
                        for l3 in lj:
                            if not set(l2.ends) & set(l3.ends):
                                continue
                            if set(l0.ends) & set(l3.ends):
                                continue
                            key = (l0.id, l1.id, l2.id, l3.id)
                            if key in seen:
                                continue
                            seen.add(key)
                            chain = tuple((l.dim, l.ends) for l in (l0, l1, l2, l3))
                            violations.append(
                                CycleViolation(i, j, key, chain)
                            )
    for layer in g.embeddings.values():
        remaining = set(g.darts)
        while remaining:
            d = min(remaining)
            orbit = tuple(sorted(oracle_orbit(g, layer.domain, d)))
            remaining.difference_update(orbit)
            rep = orbit[0]
            bad = tuple(
                x
                for x in orbit[1:]
                if not values_equal(layer.value_type, layer.values[x], layer.values[rep])
            )
            if bad:
                violations.append(EmbeddingViolation(layer.name, orbit, bad))
    return ValidationReport(tuple(violations))


def oracle_reach(graph: LabeledGraph, starts, dims=None) -> frozenset[str]:
    """Reachability fixpoint from ``starts`` over links whose dimension
    lies in ``dims`` (every link when ``None``)."""
    members = set(starts)
    changed = True
    while changed:
        changed = False
        for link in graph.links:
            if dims is not None and link.dim not in dims:
                continue
            if set(link.ends) & members and not set(link.ends) <= members:
                members |= set(link.ends)
                changed = True
    return frozenset(members)


def oracle_orbit(g: Gmap, o: OrbitType, dart: str) -> frozenset[str]:
    """Reachability fixpoint over links whose dimension lies in ``o``."""
    return oracle_reach(g.graph, [dart], set(o))


def reference_orbit_graph(g: Gmap, o: OrbitType, dart: str) -> LabeledGraph:
    """The orbit graph rebuilt with links of its own: ``LabeledGraph.build``
    over :meth:`Gmap.orbit_darts` and the ``(dim, ends)`` of the orbit's
    links, each at the first of its ends in that order, with fresh ids."""
    order = g.orbit_darts(o, dart)
    dims = set(o)
    links = []
    seen: set[str] = set()
    for u in order:
        for link in g.graph.incident_links(u):
            if link.dim in dims and seen.isdisjoint(link.ends):
                links.append((link.dim, link.ends))
        seen.add(u)
    return LabeledGraph.build(g.n, order, links)


def oracle_instantiate(
    scheme: GraphScheme, orbit_graph: LabeledGraph
) -> tuple[frozenset[str], tuple[tuple[int, tuple[str, ...]], ...]]:
    """The node set and the sorted ``(dim, ends)`` link multiset of the
    instance of ``scheme`` on ``orbit_graph``, by its set definition:

    - nodes: ``u@n`` for each scheme node ``n`` and each orbit dart ``u``;
    - for each orbit link ``u -i- v`` whose ``f_n(i)`` is not ``_``, the
      link ``u@n -f_n(i)- v@n``;
    - for each scheme arc ``a -k- b`` and each orbit dart ``u``, the link
      ``u@a -k- u@b``.

    A link dimension above the orbit graph's raises ``DimensionError``.
    """
    nodes = frozenset(instance_name(u, n) for n in scheme.node_names for u in orbit_graph.nodes)
    links = []
    for n, decoration in scheme.nodes:
        f = RelabelingFunction(scheme.parameter, decoration).mapping
        for link in orbit_graph.links:
            if f[link.dim] is not REMOVE:
                ends = {instance_name(u, n) for u in link.ends}
                links.append((f[link.dim], tuple(sorted(ends))))
    for arc in scheme.arcs:
        for u in orbit_graph.nodes:
            ends = {instance_name(u, arc.a), instance_name(u, arc.b)}
            links.append((arc.dim, tuple(sorted(ends))))
    for dim, ends in links:
        if dim > orbit_graph.ambient_dimension:
            raise DimensionError(f"{ends} link of dimension {dim} > {orbit_graph.ambient_dimension}")
    return nodes, tuple(sorted(links))


def _oracle_value(
    directive: EmbeddingDirective,
    layer: EmbeddingLayer,
    rule: InstantiatedRule,
    m: Mapping[str, str],
    q: str,
):
    """The value ``directive`` gives the dart created for ``q``: its
    literal, the host value of the matched same-origin copy of the
    reference node, or the mean of the (at most two) distinct host values
    on the reference node's images."""
    if directive.kind == "constant":
        return directive.value
    ref = directive.ref
    if directive.kind == "inherit":
        origins = [split_instance(q)[0]]
    else:
        origins = sorted(rule.orbit_graph.nodes)
    found = []
    for u in origins:
        source = instance_name(u, ref)
        if source not in m:
            raise DirectiveError(
                f"{directive.kind}({ref}) for layer {layer.name!r}: {source!r} is not matched"
            )
        found.append(layer.values[m[source]])
    if directive.kind == "inherit":
        return found[0]
    distinct = []
    for v in found:
        if not any(values_equal(layer.value_type, v, r) for r in distinct):
            distinct.append(v)
    if len(distinct) > 2:
        raise DirectiveError(
            f"midpoint({ref}) for layer {layer.name!r} found {len(distinct)} distinct values"
        )
    if layer.value_type == "scalar":
        return sum(distinct) / len(distinct)
    if layer.value_type in ("point2d", "point3d"):
        return tuple(sum(c) / len(distinct) for c in zip(*distinct))
    raise DirectiveError(f"midpoint is not defined for {layer.value_type} values")


def oracle_apply(
    rule: InstantiatedRule,
    host: Gmap,
    match: Match,
    directives: Iterable[EmbeddingDirective] = (),
) -> Gmap:
    """The rewrite of ``host`` by ``rule`` at ``match``, by the set
    definition of application, with ``m`` the match:

    - darts: ``(D \\ m(L_only)) ∪ C``, where ``C`` holds one name per
      right-only node ``q``, in ``right_only`` order: the first of ``q``,
      ``q#1``, ``q#2``, ... that no kept or earlier created dart has;
    - links: the multiset ``(E_host \\ M) ⊎ r(E_R)``, where ``M`` is the
      set of host links that left links land on, and ``r`` routes
      preserved names through ``m`` and created names to ``C``;
    - values: each kept dart keeps its host value, and each created dart
      takes its directive's value.

    Errors: a deleted dart with a link outside ``M`` raises
    ``DanglingDartError`` (the first by left node name, then link order);
    a created dart with no directive for a layer raises
    ``MissingDirectiveError``; a result that :func:`oracle_validate`
    rejects raises ``PostValidationError`` with that report.
    ``directives`` must name known layers and nodes that create darts,
    once each.
    """
    m = match.mapping
    images = {(l.dim, tuple(sorted({m[x] for x in l.ends}))) for l in rule.left.links}
    hit = {h.id for h in host.graph.links if (h.dim, h.ends) in images}

    deleted = {m[x] for x in rule.left_only}
    for x in sorted(rule.left_only):
        a = m[x]
        for h in sorted(l for l in host.graph.links if a in l.ends):
            if h.id not in hit:
                raise DanglingDartError(
                    f"deleting dart {a!r} would dangle link "
                    f"{'-'.join(h.ends)} of dimension {h.dim}"
                )

    kept = [d for d in host.darts if d not in deleted]
    taken = set(kept)
    created: dict[str, str] = {}
    for q in rule.right_only:
        name, k = q, 0
        while name in taken:
            k += 1
            name = f"{q}#{k}"
        taken.add(name)
        created[q] = name
    r = {**{p: m[p] for p in rule.preserved}, **created}

    links = [(h.dim, h.ends) for h in host.graph.links if h.id not in hit]
    links += [(l.dim, {r[u] for u in l.ends}) for l in rule.right.links]

    table = {(d.layer, d.node): d for d in directives}
    layers = []
    for layer in host.embeddings.values():
        values = {d: layer.values[d] for d in kept}
        for q, name in created.items():
            node = split_instance(q)[1]
            directive = table.get((layer.name, node))
            if directive is None:
                raise MissingDirectiveError(
                    f"no directive for layer {layer.name!r} on created node {node!r}"
                )
            values[name] = _oracle_value(directive, layer, rule, m, q)
        layers.append(EmbeddingLayer(layer.name, layer.domain, layer.value_type, values))

    out = Gmap.build(host.n, kept + list(created.values()), links, layers)
    report = oracle_validate(out)
    if not report.ok:
        raise PostValidationError(
            f"rewrite by {rule.rule.name!r} produced {len(report)} constraint violations", report
        )
    return out


def _other_end(link: Link, node: str) -> str:
    """The end of ``link`` opposite ``node``; the node itself for a loop."""
    first, last = link.ends[0], link.ends[-1]
    if node == first:
        return last
    if node == last:
        return first
    raise UnknownNodeError(f"node {node!r} is not an end of link {link.id}")


def oracle_match(
    pattern: LabeledGraph, g: Gmap, seed: Mapping[str, str]
) -> list[dict[str, str]]:
    """All injective, dimension- and incidence-preserving maps of
    ``pattern`` into ``g`` extending ``seed``, by exhaustive search."""
    nodes = sorted(pattern.nodes)
    for x in seed:
        if x not in pattern:
            return []
    mapping = dict(seed)
    if len(set(mapping.values())) != len(mapping):
        return []

    def ok_so_far(y: str) -> bool:
        # check every pattern link between y and an assigned node
        for link in pattern.incident_links(y):
            if len(link.ends) == 1:
                if not links_between(g.graph, mapping[y], mapping[y], link.dim):
                    return False
                continue
            z = _other_end(link, y)
            if z not in mapping:
                continue
            if mapping[y] == mapping[z]:
                return False
            if not links_between(g.graph, mapping[y], mapping[z], link.dim):
                return False
        return True

    for x in seed:
        if not ok_so_far(x):
            return []

    results: list[dict[str, str]] = []

    def pick_next() -> str | None:
        # prefer nodes adjacent to the assigned region: forced candidates
        for x in nodes:
            if x in mapping:
                continue
            for link in pattern.incident_links(x):
                if len(link.ends) != 1 and _other_end(link, x) in mapping:
                    return x
        for x in nodes:
            if x not in mapping:
                return x
        return None

    def candidates(x: str) -> list[str]:
        for link in pattern.incident_links(x):
            if len(link.ends) != 1 and _other_end(link, x) in mapping:
                anchor = mapping[_other_end(link, x)]
                return sorted(
                    _other_end(l, anchor)
                    for l in g.graph.incident_links(anchor, link.dim)
                )
        return sorted(g.darts)

    def search() -> None:
        x = pick_next()
        if x is None:
            results.append(dict(mapping))
            return
        used = set(mapping.values())
        for d in candidates(x):
            if d in used:
                continue
            mapping[x] = d
            if ok_so_far(x):
                search()
            del mapping[x]

    search()
    return results


# ---------------------------------------------------------------------------
# reference match completion: a BFS queue with its own component search,
# which pins the key order, the checks and the first error of extend_match


def pattern_components(pattern: LabeledGraph) -> list[tuple[str, ...]]:
    """Components under all links, each as a sorted node tuple."""
    seen: set[str] = set()
    components = []
    for start in sorted(pattern.nodes):
        if start in seen:
            continue
        stack = [start]
        component = {start}
        seen.add(start)
        while stack:
            u = stack.pop()
            for link in pattern.incident_links(u):
                for v in link.ends:
                    if v not in seen:
                        seen.add(v)
                        component.add(v)
                        stack.append(v)
        components.append(tuple(sorted(component)))
    return components


def _forced(gmap: Gmap, dart: str, dim: int) -> str:
    try:
        return gmap.alpha(dart, dim)
    except ConstraintViolationError as exc:
        raise MatchError(f"host is not well-formed at dart {dart!r}, dim {dim}: {exc}") from exc


def reference_extend_match(pattern: LabeledGraph, gmap: Gmap, seed: Mapping[str, str]) -> Match:
    """``extend_match`` as a seed-checked BFS queue over the pattern; the
    host link of each pattern link is then the one link between the
    images of its ends."""
    for x, a in seed.items():
        if x not in pattern:
            raise MatchError(f"seed key {x!r} is not a pattern node")
        if a not in gmap.graph:
            raise UnknownNodeError(f"seed value {a!r} is not a dart of the host")
    seeded = set(seed)
    for component in pattern_components(pattern):
        if not seeded.intersection(component):
            raise MatchError(
                f"no seed for the pattern component containing {component[0]!r}"
            )

    mapping = dict(sorted(seed.items()))
    queue = deque(mapping)
    while queue:
        x = queue.popleft()
        a = mapping[x]
        for link in pattern.incident_links(x):
            b = _forced(gmap, a, link.dim)
            if len(link.ends) == 1:
                if b != a:
                    raise MatchError(
                        f"pattern has a {link.dim}-loop at {x!r} but host dart "
                        f"{a!r} is {link.dim}-linked to {b!r}"
                    )
                continue
            y = _other_end(link, x)
            if b == a:
                raise MatchError(
                    f"pattern link {x!r}-{link.dim}-{y!r} cannot map onto the "
                    f"{link.dim}-loop at host dart {a!r}"
                )
            if y in mapping:
                if mapping[y] != b:
                    raise MatchError(
                        f"conflicting images for {y!r}: {mapping[y]!r} vs {b!r}"
                    )
            else:
                mapping[y] = b
                queue.append(y)
    if len(set(mapping.values())) != len(mapping):
        raise MatchError("completed match is not injective")
    links = {}
    for link in pattern.links:
        (links[link.id],) = links_between(
            gmap.graph, mapping[link.ends[0]], mapping[link.ends[-1]], link.dim
        )
    return Match(mapping, links)


# ---------------------------------------------------------------------------
# kernel/oracle comparisons


def check_validate_agreement(g: Gmap, instance: str) -> OracleReport:
    kernel = g.validate()
    reference = oracle_validate(g)
    if kernel.violations == reference.violations:
        return OracleReport("validate-agreement", instance, True)
    extra = set(kernel.violations) ^ set(reference.violations)
    witness = "; ".join(sorted(v.line() for v in extra))
    return OracleReport("validate-agreement", instance, False, witness)


def check_orbit_agreement(g: Gmap, o: OrbitType, dart: str, instance: str) -> OracleReport:
    kernel = frozenset(g.orbit_darts(o, dart))
    reference = oracle_orbit(g, o, dart)
    if kernel == reference:
        return OracleReport("orbit-agreement", instance, True)
    witness = f"kernel={sorted(kernel)} oracle={sorted(reference)}"
    return OracleReport("orbit-agreement", instance, False, witness)


def check_match_agreement(
    rule: InstantiatedRule, g: Gmap, seed: Mapping[str, str], instance: str
) -> OracleReport:
    """Completion must agree with exhaustive search, including failures,
    and a per-component seed must admit at most one morphism."""
    prop = "match-agreement"
    morphisms = oracle_match(rule.left, g, seed)
    if len(morphisms) > 1:
        return OracleReport(prop, instance, False, f"{len(morphisms)} morphisms from one seed")
    try:
        completed = extend_match(rule.left, g, seed).mapping
    except MatchError as exc:
        if morphisms:
            return OracleReport(
                prop, instance, False, f"kernel failed ({exc}) but oracle found {morphisms[0]}"
            )
        return OracleReport(prop, instance, True)
    if morphisms == [completed]:
        return OracleReport(prop, instance, True)
    return OracleReport(
        prop, instance, False, f"kernel={completed} oracle={morphisms}"
    )


# ---------------------------------------------------------------------------
# random valid maps


def _far_dims(n: int, i: int) -> list[int]:
    return [j for j in range(n + 1) if abs(j - i) >= 2]


def _loop_at(graph: LabeledGraph, dart: str, dim: int) -> bool:
    links = graph.incident_links(dart, dim)
    return len(links) == 1 and len(links[0].ends) == 1


def _sew_map(g: Gmap, d1: str, d2: str, dims: list[int]) -> dict[str, str] | None:
    """Joint traversal pairing the two far-orbits, or None if they clash."""
    pairing = {d1: d2}
    queue = [d1]
    while queue:
        x = queue.pop()
        y = pairing[x]
        for j in dims:
            x2 = g.alpha(x, j)
            y2 = g.alpha(y, j)
            if x2 in pairing:
                if pairing[x2] != y2:
                    return None
            else:
                pairing[x2] = y2
                queue.append(x2)
    if len(set(pairing.values())) != len(pairing):
        return None
    if set(pairing) & set(pairing.values()):
        return None
    return pairing


def random_valid_gmap(seed: int, n: int = 2, max_darts: int = 16) -> Gmap:
    """A random valid n-Gmap grown by elementary sews of free darts.

    Starts from isolated darts carrying loops in every dimension, then
    repeatedly i-sews two free darts together with their whole far-orbit
    (dimensions at distance >= 2), which preserves both constraints.
    Each accepted sew is re-validated, so the output always passes
    :func:`oracle_validate`.  Fixed seeds reproduce the same map.
    """
    if not 0 <= n <= 3:
        raise ValueError("generator supports dimensions 0..3")
    rng = random.Random(seed)
    k = rng.randint(1, max_darts)
    darts = [f"d{idx:02d}" for idx in range(k)]
    graph = LabeledGraph.build(n, darts, [(i, {d}) for d in darts for i in range(n + 1)])

    for _ in range(rng.randint(0, 3 * k)):
        i = rng.randrange(n + 1)
        gmap = Gmap(graph)
        free = [d for d in darts if _loop_at(graph, d, i)]
        if len(free) < 2:
            continue
        d1, d2 = rng.sample(free, 2)
        pairing = _sew_map(gmap, d1, d2, _far_dims(n, i))
        if pairing is None:
            continue
        if not all(_loop_at(graph, x, i) and _loop_at(graph, y, i) for x, y in pairing.items()):
            continue
        candidate = graph.copy()
        for x, y in pairing.items():
            candidate._edit(drop=[candidate.incident_links(x, i)[0].id])
            candidate._edit(drop=[candidate.incident_links(y, i)[0].id])
            candidate._edit(links=((i, {x, y}),))
        if Gmap(candidate).validate().ok:  # safety net; sews should preserve validity
            graph = candidate

    return Gmap(graph)
