"""Undirected multigraphs with dimension-labeled arcs and named nodes.

This is the substrate everything else is built on: generalized maps,
orbit graphs, and the two sides of an instantiated rule are all
instances of :class:`LabeledGraph`.  Links carry stable ids so that
parallel arcs and loops can be deleted individually; semantic equality
ignores ids.

Each node keeps one list of its incident links (a loop once), kept in
the canonical order ``(dim, ends, id)`` as links are inserted.  That is
the natural order of :class:`Link`, so no read has to sort.

:meth:`LabeledGraph.reach` is the one traversal, for orbits, orbit-graph
connectivity and match completion.  Its BFS order is a contract: the
starts first, in order and deduplicated, then at each node its links in
canonical order, each link's ends in sorted order.

Callers build a graph in one step with :meth:`LabeledGraph.build`, which
appends every link to its ends' lists and sorts each list once at the
end.  Only the library itself uses the underscore-prefixed in-place
mutators: rule application on a :meth:`~LabeledGraph.copy` of the host
graph, and the token parser that reports a ``.gmap`` document's first
error.

A copy shares every per-node list with its original, so copying costs
two dict copies, not one list per node.  A graph copies a node's list
the first time it writes to it after a copy; until then neither side
owns it.  A rewrite therefore copies only the lists of the darts it
touches, and no edit of either graph shows in the other.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Collection, Iterable

from .errors import (
    ArityError,
    DimensionError,
    DuplicateNodeError,
    UnknownLinkError,
    UnknownNodeError,
)


@dataclass(frozen=True, order=True, slots=True)
class Link:
    """One undirected arc.  ``ends`` is the sorted tuple of its 1 (loop)
    or 2 nodes, so links order canonically by ``(dim, ends, id)``."""

    dim: int
    ends: tuple[str, ...]
    id: str

    @property
    def is_loop(self) -> bool:
        return len(self.ends) == 1

    def other_end(self, node: str) -> str:
        """The end opposite ``node``; the node itself for a loop."""
        first, last = self.ends[0], self.ends[-1]
        if node == first:
            return last
        if node == last:
            return first
        raise UnknownNodeError(f"node {node!r} is not an end of link {self.id}")


#: sort key of the canonical link order, the order of :class:`Link`
_CANONICAL = attrgetter("dim", "ends", "id")


class LabeledGraph:
    """Multigraph with loops, node names, and arc dimensions in ``0..n``."""

    def __init__(self, ambient_dimension: int):
        if ambient_dimension < 0:
            raise DimensionError("ambient dimension must be >= 0")
        self.ambient_dimension = ambient_dimension
        self._adj: dict[str, list[Link]] = {}
        self._links: dict[str, Link] = {}
        self._next_link = 0
        # nodes whose list this graph may write in place; None: all of them
        self._owned: set[str] | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        ambient_dimension: int,
        nodes: Iterable[str] = (),
        links: Iterable[tuple[int, Iterable[str]]] = (),
    ) -> "LabeledGraph":
        """Build a graph in one go from ``nodes`` and ``(dim, ends)`` pairs.

        The result, link ids and per-node lists included, and the first
        error raised are those of adding the nodes and then the links one
        by one with :meth:`_add_node` and :meth:`_add_link`."""
        g = cls(ambient_dimension)
        for name in nodes:
            g._add_node(name)
        adj, made = g._adj, g._links
        for dim, ends in links:
            link = Link(dim, g._checked_ends(ends, dim), f"L{len(made)}")
            made[link.id] = link
            for u in link.ends:
                adj[u].append(link)
        g._next_link = len(made)
        for incident in adj.values():
            if len(incident) > 1:
                incident.sort(key=_CANONICAL)
        return g

    def copy(self) -> "LabeledGraph":
        """An equal graph sharing the per-node lists with this one.  Both
        give up ownership of them: each copies a list before its first
        write, so no edit of one is seen by the other."""
        g = LabeledGraph(self.ambient_dimension)
        # dict.copy() clones the table, holes left by removals included;
        # dict() re-inserts each entry of a table with holes, 5x slower
        # on the 48.6k links of a rewritten 32.4k-dart map
        g._adj = self._adj.copy()
        g._links = self._links.copy()
        g._next_link = self._next_link
        self._owned, g._owned = set(), set()
        return g

    # -- in-place mutators (library-internal) ----------------------------

    def _add_node(self, name: str) -> None:
        if not name:
            raise UnknownNodeError("node name must be non-empty")
        if name in self._adj:
            raise DuplicateNodeError(f"node {name!r} already present")
        self._adj[name] = []

    def _own(self, u: str) -> list[Link]:
        """``u``'s list, copied first if another graph may share it."""
        links = self._adj[u]
        if self._owned is not None and u not in self._owned:
            links = self._adj[u] = links.copy()
            self._owned.add(u)
        return links

    def _checked_ends(self, ends: Iterable[str], dim: int) -> tuple[str, ...]:
        """The sorted distinct ends of a new link, after its checks."""
        ends = tuple(ends)
        if len(ends) == 2:
            a, b = ends
            unique = (a,) if a == b else (a, b) if a < b else (b, a)
        else:
            unique = tuple(sorted(set(ends)))
        if len(unique) not in (1, 2):
            raise ArityError(f"link must have 1 or 2 ends, got {len(unique)}")
        # in the order given, so the unknown end reported is deterministic
        for u in ends:
            if u not in self._adj:
                raise UnknownNodeError(f"unknown node {u!r}")
        if not 0 <= dim <= self.ambient_dimension:
            raise DimensionError(
                f"dimension {dim} out of range 0..{self.ambient_dimension}"
            )
        return unique

    def _add_link(self, ends: Iterable[str], dim: int) -> str:
        link = Link(dim, self._checked_ends(ends, dim), f"L{self._next_link}")
        self._next_link += 1
        self._links[link.id] = link
        for u in link.ends:
            insort(self._own(u), link)
        return link.id

    def _remove_link(self, link_id: str) -> None:
        link = self._links.pop(link_id, None)
        if link is None:
            raise UnknownLinkError(f"unknown link id {link_id!r}")
        for u in link.ends:
            self._own(u).remove(link)

    def _remove_node(self, name: str) -> None:
        """Remove a node together with every link incident to it."""
        if name not in self._adj:
            raise UnknownNodeError(f"unknown node {name!r}")
        for link in tuple(self._adj[name]):
            self._remove_link(link.id)
        del self._adj[name]

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._adj)

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._links.values())

    def __contains__(self, name: str) -> bool:
        return name in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def incident_links(self, node: str, dim: int | None = None) -> tuple[Link, ...]:
        """Links whose ends contain ``node`` (loops count once), in
        canonical order; with ``dim`` given, only those of that dimension."""
        links = self._adj.get(node)
        if links is None:
            raise UnknownNodeError(f"unknown node {node!r}")
        if dim is None:
            return tuple(links)
        return tuple([l for l in links if l.dim == dim])

    def links_between(self, u: str, v: str, dim: int | None = None) -> tuple[Link, ...]:
        """All links whose ends are exactly ``{u, v}`` (``u == v``: loops)."""
        wanted = (u,) if u == v else (min(u, v), max(u, v))
        return tuple(l for l in self.incident_links(u, dim) if l.ends == wanted)

    def reach(self, starts: Iterable[str], dims: Collection[int] | None = None) -> tuple[str, ...]:
        """Nodes reachable from ``starts`` over links with dims in ``dims`` (all
        if ``None``), in BFS order: the starts first, in order and deduplicated,
        then at each node its links in canonical order, each one's ends sorted."""
        order = list(dict.fromkeys(starts))
        for u in order:
            if u not in self._adj:
                raise UnknownNodeError(f"unknown node {u!r}")
        seen = set(order)
        for u in order:  # the list grows while read: it is the BFS queue
            for link in self._adj[u]:
                if dims is None or link.dim in dims:
                    for v in link.ends:
                        if v not in seen:
                            seen.add(v)
                            order.append(v)
        return tuple(order)

    def link_signature(self) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """Sorted multiset of (dim, ends) — the semantic link content."""
        return tuple(sorted((l.dim, l.ends) for l in self._links.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self.ambient_dimension == other.ambient_dimension
            and self._adj.keys() == other._adj.keys()
            and self.link_signature() == other.link_signature()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(n={self.ambient_dimension}, "
            f"|D|={len(self._adj)}, |L|={len(self._links)})"
        )

