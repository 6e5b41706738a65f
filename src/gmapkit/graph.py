"""Undirected multigraphs with dimension-labeled arcs and named nodes.

This is the substrate everything else is built on: generalized maps,
orbit graphs, and the two sides of an instantiated rule are all
instances of :class:`LabeledGraph`.  Links carry stable ids so that
parallel arcs and loops can be deleted individually; semantic equality
ignores ids.

Callers build a graph in one step with :meth:`LabeledGraph.build`.
Only the library itself uses the underscore-prefixed in-place mutators:
its constructors, and rule application on a :meth:`~LabeledGraph.copy`
of the host graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    ArityError,
    DimensionError,
    DuplicateNodeError,
    UnknownLinkError,
    UnknownNodeError,
)


@dataclass(frozen=True)
class Link:
    """One undirected arc. ``ends`` has 1 element (loop) or 2."""

    id: str
    ends: frozenset[str]
    dim: int

    @property
    def is_loop(self) -> bool:
        return len(self.ends) == 1

    def other_end(self, node: str) -> str:
        """The end opposite ``node``; the node itself for a loop."""
        if node not in self.ends:
            raise UnknownNodeError(f"node {node!r} is not an end of link {self.id}")
        if self.is_loop:
            return node
        (other,) = self.ends - {node}
        return other

    def sorted_ends(self) -> tuple[str, ...]:
        return tuple(sorted(self.ends))


class LabeledGraph:
    """Multigraph with loops, node names, and arc dimensions in ``0..n``."""

    def __init__(self, ambient_dimension: int):
        if ambient_dimension < 0:
            raise DimensionError("ambient dimension must be >= 0")
        self.ambient_dimension = ambient_dimension
        self._nodes: dict[str, None] = {}
        self._links: dict[str, Link] = {}
        self._incidence: dict[str, list[str]] = {}
        self._next_link = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        ambient_dimension: int,
        nodes: Iterable[str] = (),
        links: Iterable[tuple[int, Iterable[str]]] = (),
    ) -> "LabeledGraph":
        """Build a graph in one go from ``nodes`` and ``(dim, ends)`` pairs."""
        g = cls(ambient_dimension)
        for name in nodes:
            g._add_node(name)
        for dim, ends in links:
            g._add_link(ends, dim)
        return g

    def copy(self) -> "LabeledGraph":
        g = LabeledGraph(self.ambient_dimension)
        g._nodes = dict(self._nodes)
        g._links = dict(self._links)
        g._incidence = {u: list(ids) for u, ids in self._incidence.items()}
        g._next_link = self._next_link
        return g

    # -- in-place mutators (library-internal) ----------------------------

    def _add_node(self, name: str) -> None:
        if not name:
            raise UnknownNodeError("node name must be non-empty")
        if name in self._nodes:
            raise DuplicateNodeError(f"node {name!r} already present")
        self._nodes[name] = None
        self._incidence[name] = []

    def _add_link(self, ends: Iterable[str], dim: int) -> str:
        ends = frozenset(ends)
        if len(ends) not in (1, 2):
            raise ArityError(f"link must have 1 or 2 ends, got {len(ends)}")
        for u in ends:
            if u not in self._nodes:
                raise UnknownNodeError(f"unknown node {u!r}")
        if not 0 <= dim <= self.ambient_dimension:
            raise DimensionError(
                f"dimension {dim} out of range 0..{self.ambient_dimension}"
            )
        link_id = f"L{self._next_link}"
        self._next_link += 1
        link = Link(link_id, ends, dim)
        self._links[link_id] = link
        for u in ends:
            self._incidence[u].append(link_id)
        return link_id

    def _remove_link(self, link_id: str) -> None:
        link = self._links.pop(link_id, None)
        if link is None:
            raise UnknownLinkError(f"unknown link id {link_id!r}")
        for u in link.ends:
            self._incidence[u].remove(link_id)

    def _remove_node(self, name: str) -> None:
        """Remove a node together with every link incident to it."""
        if name not in self._nodes:
            raise UnknownNodeError(f"unknown node {name!r}")
        for link_id in list(self._incidence[name]):
            self._remove_link(link_id)
        del self._nodes[name]
        del self._incidence[name]

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._links.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def incident_links(self, node: str, dim: int | None = None) -> tuple[Link, ...]:
        """Links whose end set contains ``node`` (loops count once).

        With ``dim`` given, only links of that dimension are returned.
        The result is sorted by (dim, ends, id) so iteration is stable.
        """
        if node not in self._nodes:
            raise UnknownNodeError(f"unknown node {node!r}")
        found = [self._links[i] for i in self._incidence[node]]
        if dim is not None:
            found = [l for l in found if l.dim == dim]
        return tuple(sorted(found, key=lambda l: (l.dim, l.sorted_ends(), l.id)))

    def links_between(self, u: str, v: str, dim: int | None = None) -> tuple[Link, ...]:
        """All links whose end set is exactly ``{u, v}`` (``u == v``: loops)."""
        wanted = frozenset((u, v))
        return tuple(
            l
            for l in self.incident_links(u, dim)
            if l.ends == wanted
        )

    def connected_components(self) -> list[tuple[str, ...]]:
        """Components under all links, each as a sorted node tuple."""
        seen: set[str] = set()
        components = []
        for start in sorted(self._nodes):
            if start in seen:
                continue
            stack = [start]
            component = {start}
            seen.add(start)
            while stack:
                u = stack.pop()
                for link_id in self._incidence[u]:
                    for v in self._links[link_id].ends:
                        if v not in seen:
                            seen.add(v)
                            component.add(v)
                            stack.append(v)
            components.append(tuple(sorted(component)))
        return components

    def link_signature(self) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """Sorted multiset of (dim, sorted ends) — the semantic link content."""
        return tuple(sorted((l.dim, l.sorted_ends()) for l in self._links.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self.ambient_dimension == other.ambient_dimension
            and set(self._nodes) == set(other._nodes)
            and self.link_signature() == other.link_signature()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(n={self.ambient_dimension}, "
            f"|D|={len(self._nodes)}, |L|={len(self._links)})"
        )


def _node_profile(g: LabeledGraph, node: str) -> tuple:
    # invariant under isomorphism: multiset of (dim, is_loop) around the node
    return tuple(sorted((l.dim, l.is_loop) for l in g.incident_links(node)))


def _pair_counts(g: LabeledGraph, u: str, v: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for l in g.links_between(u, v):
        counts[l.dim] = counts.get(l.dim, 0) + 1
    return counts


def iso_check(g1: LabeledGraph, g2: LabeledGraph) -> dict[str, str] | None:
    """Dimension- and incidence-preserving node bijection, or ``None``.

    Exact backtracking over node assignments; candidates are tried in
    sorted order, so the returned bijection is deterministic for a fixed
    pair of inputs.  Intended for desk-scale graphs (rule sides, orbit
    graphs), not large meshes.
    """
    if g1.ambient_dimension != g2.ambient_dimension:
        return None
    nodes1 = sorted(g1.nodes)
    nodes2 = sorted(g2.nodes)
    if len(nodes1) != len(nodes2):
        return None
    if len(g1.links) != len(g2.links):
        return None

    profiles2: dict[str, list[str]] = {}
    for v in nodes2:
        profiles2.setdefault(repr(_node_profile(g2, v)), []).append(v)

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(u: str, v: str) -> bool:
        # check link multiplicities against every already-assigned node,
        # including the loop multiplicities on u itself
        if _pair_counts(g1, u, u) != _pair_counts(g2, v, v):
            return False
        for u2, v2 in mapping.items():
            if _pair_counts(g1, u, u2) != _pair_counts(g2, v, v2):
                return False
        return True

    def candidates(k: int):
        return iter(profiles2.get(repr(_node_profile(g1, nodes1[k])), []))

    if not nodes1:
        return {}
    # depth-first search over nodes1 in order; the explicit stack holds
    # the candidate iterator of each node assigned so far plus the next
    stack = [candidates(0)]
    while stack:
        u = nodes1[len(stack) - 1]
        v = next((v for v in stack[-1] if v not in used and consistent(u, v)), None)
        if v is None:
            stack.pop()
            if stack:
                used.remove(mapping.pop(nodes1[len(stack) - 1]))
            continue
        mapping[u] = v
        used.add(v)
        if len(mapping) == len(nodes1):
            return mapping
        stack.append(candidates(len(stack)))
    return None
