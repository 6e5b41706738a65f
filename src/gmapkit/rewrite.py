"""Match completion and rule application on generalized maps.

A match of an instantiated rule is an injective, dimension- and
incidence-preserving map of the left side into a host map.  Because
every host dart has a unique i-link per dimension, one seed pair per
connected component of the left side determines the whole match; the
completion is a joint traversal of the pattern and the host.

Application edits a copy of the host and never changes the host.  The
copy's graph shares each dart's link list with the host until it first
writes to it (:meth:`LabeledGraph.copy`), so only the lists of the darts
a rewrite touches are copied.  It deletes the images of left-only darts
and of every left link, adds the right side (routing preserved names
through the match), fills embedding values of created darts from
directives, and then validates: instantiation alone does not guarantee
the result is a generalized map, so the check is mandatory.  Its result
is marked known-valid, and on such a host the check covers only the
darts near the rewrite (``Gmap._validate_rewritten``), with the same
report; any other host is validated in full.
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
from .gmap import EmbeddingLayer, Gmap, normalize_value, values_equal
from .graph import LabeledGraph
from .scheme import InstantiatedRule, instance_name, split_instance


@dataclass(frozen=True)
class Match:
    """Injective map from left-side names to host darts."""

    mapping: dict[str, str]

    @property
    def image(self) -> frozenset[str]:
        return frozenset(self.mapping.values())

    def __getitem__(self, name: str) -> str:
        return self.mapping[name]

    def __len__(self) -> int:
        return len(self.mapping)


def _forced(gmap: Gmap, dart: str, dim: int) -> str:
    try:
        return gmap.alpha(dart, dim)
    except ConstraintViolationError as exc:
        raise MatchError(f"host is not well-formed at dart {dart!r}, dim {dim}: {exc}") from exc


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
    for x in order:
        a = mapping[x]
        for link in pattern.incident_links(x):
            b = _forced(gmap, a, link.dim)
            if link.is_loop:
                if b != a:
                    raise MatchError(
                        f"pattern has a {link.dim}-loop at {x!r} but host dart "
                        f"{a!r} is {link.dim}-linked to {b!r}"
                    )
                continue
            y = link.other_end(x)
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
    return Match(mapping)


def complete_match(rule: InstantiatedRule, gmap: Gmap, seed: Mapping[str, str] | None = None) -> Match:
    """Complete a match of ``rule.left``; defaults to seeding the hook
    copy of the anchor dart onto the anchor itself."""
    if seed is None:
        seed = rule.seed()
    return extend_match(rule.left, gmap, seed)


# ---------------------------------------------------------------------------
# embedding directives


_DIRECTIVE = re.compile(
    r"""\s*(?P<layer>[A-Za-z_][\w-]*)\s*:\s*(?P<node>[A-Za-z_]\w*)\s*=\s*
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


class _DirectiveTable:
    def __init__(self, directives: Iterable[EmbeddingDirective]):
        self._table: dict[tuple[str, str], EmbeddingDirective] = {}
        for d in directives:
            key = (d.layer, d.node)
            if key in self._table:
                raise DirectiveError(f"duplicate directive for layer {d.layer!r}, node {d.node!r}")
            self._table[key] = d

    def get(self, layer: str, node: str) -> EmbeddingDirective | None:
        return self._table.get((layer, node))

    def check_against(self, rule: InstantiatedRule, layers: Iterable[str]) -> None:
        layer_names = set(layers)
        created = {split_instance(q)[1] for q in rule.right_only}
        for layer, node in self._table:
            if layer not in layer_names:
                raise DirectiveError(f"directive references unknown layer {layer!r}")
            if node not in created:
                raise DirectiveError(
                    f"directive references node {node!r}, which creates no darts"
                )


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


def _matched_link_ids(rule: InstantiatedRule, gmap: Gmap, match: Match) -> dict[str, str]:
    """Map each left link id to the host link id it lands on."""
    out: dict[str, str] = {}
    for link in rule.left.links:
        x, y = link.ends[0], link.ends[-1]
        a, b = match[x], match[y]
        host = gmap.graph.links_between(a, b, link.dim)
        if len(host) != 1:
            raise MatchError(
                f"left link {x!r}-{link.dim}-{y!r} maps onto "
                f"{len(host)} host links between {a!r} and {b!r}"
            )
        out[link.id] = host[0].id
    return out


def apply_rule(
    rule: InstantiatedRule,
    gmap: Gmap,
    match: Match | None = None,
    directives: Iterable[EmbeddingDirective] = (),
) -> Gmap:
    """Rewrite ``gmap`` by ``rule`` at ``match`` and return the new map.

    Raises :class:`DanglingDartError` when a deleted dart still has
    links outside the match image, :class:`MissingDirectiveError` when a
    created dart lacks a value for some layer, and
    :class:`PostValidationError` (carrying the full report) when the
    result violates the generalized-map constraints.  When ``gmap`` is
    itself a result of this function, only the darts near the rewrite
    are checked, which finds the same violations.  Returned maps are
    marked as such; the host is never changed.
    """
    if match is None:
        match = complete_match(rule, gmap)
    if set(match.mapping) != set(rule.left.nodes):
        raise MatchError("match does not cover the left side exactly")
    if len(match.image) != len(match.mapping):
        raise MatchError("match is not injective")

    table = _DirectiveTable(directives)
    table.check_against(rule, gmap.embeddings)

    link_images = _matched_link_ids(rule, gmap, match)
    matched_ids = set(link_images.values())

    deleted_darts = {match[x] for x in rule.left_only}
    for x in sorted(rule.left_only):
        a = match[x]
        for host_link in gmap.graph.incident_links(a):
            if host_link.id not in matched_ids:
                raise DanglingDartError(
                    f"deleting dart {a!r} would dangle link "
                    f"{'-'.join(host_link.ends)} of dimension {host_link.dim}"
                )

    result = gmap.copy()
    graph = result.graph
    for link_id in sorted(matched_ids):
        graph._remove_link(link_id)
    for a in sorted(deleted_darts):
        graph._remove_node(a)

    # resolve right-side names: preserved through the match, created fresh
    resolve: dict[str, str] = {p: match[p] for p in rule.preserved}
    created: list[tuple[str, str]] = []  # (right name, host name)
    for q in rule.right_only:
        candidate = q
        k = 0
        while candidate in graph:
            k += 1
            candidate = f"{q}#{k}"
        graph._add_node(candidate)
        resolve[q] = candidate
        created.append((q, candidate))

    for link in rule.right.links:
        graph._add_link({resolve[u] for u in link.ends}, link.dim)

    for layer in gmap.embeddings.values():
        values = result.embeddings[layer.name].values
        for a in deleted_darts:
            del values[a]
        for q, host_name in created:
            orbit_dart, node = split_instance(q)
            directive = table.get(layer.name, node)
            if directive is None:
                raise MissingDirectiveError(
                    f"no directive for layer {layer.name!r} on created node {node!r}"
                )
            value = _directive_value(directive, layer, orbit_dart, rule, match)
            values[host_name] = normalize_value(layer.value_type, value)

    # links changed only at preserved and created darts
    touched = set(resolve.values())
    report = result._validate_rewritten(touched) if gmap._known_valid else result.validate()
    if not report.ok:
        raise PostValidationError(
            f"rewrite by {rule.rule.name!r} produced {len(report)} constraint violations",
            report,
        )
    result._known_valid = True
    return result
