"""Match completion and rule application on generalized maps.

A match of an instantiated rule is an injective, dimension- and
incidence-preserving map of the left side into a host map.  Because
every host dart has a unique i-link per dimension, one seed pair per
connected component of the left side determines the whole match; the
completion is a joint traversal of the pattern and the host, which reads
each host dart's link tuple once and keeps the host link each left link
lands on.

Application is defined on sets.  With ``m`` the match and ``M`` the host
links it keeps, the result has the darts ``(D \\ m(L_only)) ∪ C``, where
``C`` names each created dart ``q``, or ``q#k`` on a clash; the links
``(E_host \\ M) ⊎ r(E_R)``, where ``r`` routes preserved names through
``m`` and created names to ``C``; the host values of kept darts; and
directive values for created darts; a directive whose value does not
depend on the orbit dart is computed once per layer and node.  The
links and darts change in one :meth:`LabeledGraph._edit` of a copy of
the host, which never changes the host: the copy's graph shares each
dart's link tuple with the host (:meth:`LabeledGraph.copy`), and the
edit builds one new tuple per dart it touches.  Instantiation, matching
and application each run with the cyclic collector paused, the collector
rule of :mod:`gmapkit.graph`.  The result is then
validated: instantiation alone does not guarantee it is a generalized
map, so the check is mandatory.  On a valid host it covers only the
darts near the rewrite (``Gmap._validate_rewritten``), with the same
report.  A host is known valid once a clean ``Gmap.validate`` or this
module has marked it; an unmarked host is validated in full once, which
marks it if it is clean, and an invalid one's result in full.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .errors import (
    ConstraintViolationError,
    DanglingDartError,
    DirectiveError,
    MatchError,
    MissingDirectiveError,
    PostValidationError,
    UnknownNodeError,
)
from .gmap import _GMAP_IDENT, EmbeddingLayer, Gmap, normalize_value, values_equal
from .graph import LabeledGraph, Link, _collector_paused
from .scheme import _NAME, InstantiatedRule, instance_name, split_instance


@dataclass(frozen=True)
class Match:
    """Injective map from left-side names to host darts, with the host
    link that each left link lands on, keyed by the left link's id."""

    mapping: dict[str, str]
    links: dict[str, Link]

    @property
    def image(self) -> frozenset[str]:
        return frozenset(self.mapping.values())

    def __getitem__(self, name: str) -> str:
        return self.mapping[name]


def _forced(gmap: Gmap, dart: str, dim: int) -> Link:
    try:
        return gmap.alpha_link(dart, dim)
    except ConstraintViolationError as exc:
        raise MatchError(f"host is not well-formed at dart {dart!r}, dim {dim}: {exc}") from exc


@_collector_paused
def extend_match(pattern: LabeledGraph, gmap: Gmap, seed: Mapping[str, str]) -> Match:
    """Extend ``seed`` to the unique total match of ``pattern`` into ``gmap``.

    Raises :class:`MatchError` when a component has no seed, when forced
    images conflict, when a pattern loop lands on a non-loop (or the
    reverse), or when the extension is not injective.
    """
    for x, a in seed.items():
        if x not in pattern:
            raise MatchError(f"seed key {x!r} is not a pattern node")
        if a not in gmap.graph:
            raise UnknownNodeError(f"seed value {a!r} is not a dart of the host")
    mapping = dict(sorted(seed.items()))
    order = pattern.reach(mapping)
    if len(order) < len(pattern):
        missed = min(set(pattern.nodes).difference(order))
        raise MatchError(f"no seed for the pattern component containing {missed!r}")

    # reach finds each non-seed x through an earlier node's link, which maps it
    links: dict[str, Link] = {}
    for x in order:
        a = mapping[x]
        at = gmap.graph.incident_links(a)
        one = {h.dim: h for h in at}
        if len(one) < len(at):
            one = {}  # a dim repeats at a: _forced tells the dims apart
        for link in pattern.incident_links(x):
            host = links[link.id] = one.get(link.dim) or _forced(gmap, a, link.dim)
            e, f = host.ends, link.ends
            b = e[0] if e[-1] == a else e[-1]
            if len(f) == 1:
                if b != a:
                    raise MatchError(
                        f"pattern has a {link.dim}-loop at {x!r} but host dart "
                        f"{a!r} is {link.dim}-linked to {b!r}"
                    )
                continue
            y = f[0] if f[-1] == x else f[-1]
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
    if len(set(mapping.values())) != len(mapping):
        raise MatchError("completed match is not injective")
    return Match(mapping, links)


def complete_match(rule: InstantiatedRule, gmap: Gmap) -> Match:
    """Complete a match of ``rule.left`` seeded with the hook copy of the
    anchor dart on the anchor itself."""
    return extend_match(rule.left, gmap, rule.seed())


# ---------------------------------------------------------------------------
# embedding directives


# a layer is a .gmap name, a node a scheme name
_DIRECTIVE = re.compile(
    rf"""\s*(?P<layer>{_GMAP_IDENT.pattern})\s*:\s*(?P<node>{_NAME.pattern})\s*=\s*
        (?P<kind>inherit|constant|midpoint)\s*\(\s*(?P<arg>[^()]*)\s*\)\s*\Z""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class EmbeddingDirective:
    """How created darts of one scheme node get values for one layer.

    kind ``inherit``: copy the value of the same-origin copy under a
    matched scheme node.  kind ``midpoint``: average the distinct values
    found on a matched node's images (at most two).  kind ``constant``:
    a literal value.
    """

    layer: str
    node: str
    kind: str
    ref: str | None = None
    value: Any = None

    def __post_init__(self):
        if self.kind not in ("inherit", "constant", "midpoint"):
            raise DirectiveError(f"unknown directive kind {self.kind!r}")
        if self.kind in ("inherit", "midpoint") and not self.ref:
            raise DirectiveError(f"directive {self.kind} needs a reference node")


def parse_directive(text: str) -> EmbeddingDirective:
    """Parse the mini-syntax ``layer:node=inherit(ref)`` /
    ``constant(literal)`` / ``midpoint(ref)``."""
    m = _DIRECTIVE.match(text)
    if m is None:
        raise DirectiveError(f"cannot parse embedding directive {text!r}")
    layer, node, kind, arg = m.group("layer", "node", "kind", "arg")
    arg = arg.strip()
    if kind == "constant":
        return EmbeddingDirective(layer, node, kind, value=_parse_literal(arg))
    if not arg:
        raise DirectiveError(f"directive {kind} needs a reference node in {text!r}")
    return EmbeddingDirective(layer, node, kind, ref=arg)


def _parse_literal(arg: str) -> Any:
    parts = [p.strip() for p in arg.split(",")]
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        return arg  # opaque string payload
    if len(nums) == 1:
        return nums[0]
    if all(float(p).is_integer() and "." not in p and "e" not in p.lower() for p in parts):
        return tuple(int(p) for p in parts)
    return tuple(nums)


def _average(value_type: str, values: list[Any]) -> Any:
    if value_type == "scalar":
        return sum(values) / len(values)
    if value_type in ("point2d", "point3d"):
        arity = len(values[0])
        return tuple(sum(v[k] for v in values) / len(values) for k in range(arity))
    raise DirectiveError(f"midpoint is not defined for {value_type} values")


def _directive_table(
    directives: Iterable[EmbeddingDirective],
    right_only: Iterable[str],
    layers: Mapping[str, EmbeddingLayer],
) -> dict[tuple[str, str], EmbeddingDirective]:
    """``{(layer, node): directive}``, once no pair repeats and every
    directive names one of ``layers`` and a node that creates darts."""
    table: dict[tuple[str, str], EmbeddingDirective] = {}
    for d in directives:
        if (d.layer, d.node) in table:
            raise DirectiveError(f"duplicate directive for layer {d.layer!r}, node {d.node!r}")
        table[d.layer, d.node] = d
    created = {split_instance(q)[1] for q in right_only}
    for layer, node in table:
        if layer not in layers:
            raise DirectiveError(f"directive references unknown layer {layer!r}")
        if node not in created:
            raise DirectiveError(
                f"directive references node {node!r}, which creates no darts"
            )
    return table


def _directive_value(
    directive: EmbeddingDirective,
    layer: EmbeddingLayer,
    orbit_dart: str,
    rule: InstantiatedRule,
    match: Match,
) -> Any:
    if directive.kind == "constant":
        return directive.value
    ref = directive.ref
    if directive.kind == "inherit":
        source = instance_name(orbit_dart, ref)
        if source not in match.mapping:
            raise DirectiveError(
                f"inherit({ref}) for layer {layer.name!r}: {source!r} is not matched"
            )
        return layer.values[match.mapping[source]]
    # midpoint: all images of the reference node, deduplicated by value
    reps: list[Any] = []
    for u in sorted(rule.orbit_graph.nodes):
        source = instance_name(u, ref)
        if source not in match.mapping:
            raise DirectiveError(
                f"midpoint({ref}) for layer {layer.name!r}: {source!r} is not matched"
            )
        v = layer.values[match.mapping[source]]
        if not any(values_equal(layer.value_type, v, r) for r in reps):
            reps.append(v)
    if len(reps) > 2:
        raise DirectiveError(
            f"midpoint({ref}) for layer {layer.name!r} found {len(reps)} distinct values"
        )
    return _average(layer.value_type, reps)


# ---------------------------------------------------------------------------
# application


@_collector_paused
def apply_rule(
    rule: InstantiatedRule,
    gmap: Gmap,
    match: Match | None = None,
    directives: Iterable[EmbeddingDirective] = (),
) -> Gmap:
    """Rewrite ``gmap`` by ``rule`` at ``match`` and return the new map,
    as defined on sets in the module docstring.

    The host links it removes are the ones ``match`` kept; a match that
    disagrees with the links of ``gmap`` raises :class:`MatchError`.
    Raises :class:`DanglingDartError` when a deleted dart still has links
    outside the match image, :class:`MissingDirectiveError` when a
    created dart lacks a value for some layer, and
    :class:`PostValidationError` (carrying the full report) when the
    result violates the generalized-map constraints.  When ``gmap`` is
    valid, only the darts near the rewrite are checked, which finds the
    same violations; an unmarked ``gmap`` is validated first, which
    marks it when it is clean (see :class:`Gmap`).  Returned maps are
    marked; the host is never changed, only marked.
    """
    if match is None:
        match = complete_match(rule, gmap)
    mapping, links, left = match.mapping, match.links, rule.left
    covered = len(mapping) == len(left) and all(map(mapping.__contains__, left.nodes))
    if not covered or links.keys() != {link.id for link in left.links}:
        raise MatchError("match does not cover the left side exactly")
    if len(match.image) != len(mapping):
        raise MatchError("match is not injective")

    right_only, left_only = rule.right_only, rule.left_only
    table = _directive_table(directives, right_only, gmap.embeddings)

    # each left link is the unique host link of its dim at each end's image
    graph = gmap.graph
    for x, a in mapping.items():
        at = graph.incident_links(a)
        one = {h.dim: h for h in at}
        if len(one) < len(at):  # a repeated dim has no unique link
            one = {d: h for d, h in one.items() if [l.dim for l in at].count(d) == 1}
        for link in left.incident_links(x):
            h, g = links[link.id], one.get(link.dim)
            if (g is not h and g != h) or len(h.ends) != len(link.ends):
                raise MatchError("match does not agree with the host's links")
    matched_ids = {link.id for link in links.values()}

    deleted_darts = {mapping[x] for x in left_only}
    for x in sorted(left_only):
        a = mapping[x]
        for host_link in graph.incident_links(a):
            if host_link.id not in matched_ids:
                raise DanglingDartError(
                    f"deleting dart {a!r} would dangle link "
                    f"{'-'.join(host_link.ends)} of dimension {host_link.dim}"
                )

    # resolve right-side names: preserved through the match, created fresh
    # among the darts that stay
    resolve: dict[str, str] = {p: mapping[p] for p in rule.preserved}
    created: list[tuple[str, str]] = []  # (right name, host name)
    for q in right_only:
        candidate = q
        k = 0
        while candidate in graph and candidate not in deleted_darts:
            k += 1
            candidate = f"{q}#{k}"
        resolve[q] = candidate
        created.append((q, candidate))

    result = gmap.copy()
    result.graph._edit(
        matched_ids,
        deleted_darts,
        [name for _, name in created],
        ((dim, [resolve[u] for u in ends]) for dim, ends in rule.right_links),
    )

    for layer in gmap.embeddings.values():
        values = result.embeddings[layer.name].values
        for a in deleted_darts:
            del values[a]
        same: dict[str, Any] = {}  # node -> its value, where the orbit dart does not matter
        for q, host_name in created:
            orbit_dart, node = split_instance(q)
            directive = table.get((layer.name, node))
            if directive is None:
                raise MissingDirectiveError(
                    f"no directive for layer {layer.name!r} on created node {node!r}"
                )
            value = same.get(node)
            if value is None:
                value = _directive_value(directive, layer, orbit_dart, rule, match)
                value = normalize_value(layer.value_type, value)
                if directive.kind != "inherit":
                    same[node] = value
            values[host_name] = value

    # links changed only at preserved and created darts
    touched = set(resolve.values())
    report = result._validate_rewritten(touched, gmap)
    if not report.ok:
        raise PostValidationError(
            f"rewrite by {rule.rule.name!r} produced {len(report)} constraint violations",
            report,
        )
    result._known_valid = True
    return result
