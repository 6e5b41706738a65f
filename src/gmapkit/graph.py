"""Undirected multigraphs with dimension-labeled arcs and named nodes.

This is the substrate everything else is built on: generalized maps,
orbit graphs, and the left side of an instantiated rule are all
instances of :class:`LabeledGraph`, and so is its right side once read.
Links carry stable ids so that parallel arcs and loops can be deleted
individually; semantic equality ignores ids.

Each node keeps one tuple of its incident links (a loop once), in the
canonical order ``(dim, ends, id)``.  That is the natural order of
:class:`Link`, so no read has to sort.

:meth:`LabeledGraph.reach` is the one traversal, for orbits, embedding
checks, orbit-graph connectivity and match completion.  Its BFS order
is a contract: the starts first, in order and deduplicated, then at each
node its links in canonical order, each link's ends in sorted order.

There is one write, the in-place :meth:`LabeledGraph._edit`: it removes
links by id and nodes, then adds nodes and links.  The first time it
touches a node, the node's tuple becomes a list in the adjacency; the
dropped links leave the lists in one pass once the removals end, added
links join them, and at the end each list is sorted once and becomes the
node's new tuple.  So the edit is linear in each node's links.
:meth:`LabeledGraph.build` is that edit on an empty graph.  Only the
library itself edits in place: rule application on a
:meth:`~LabeledGraph.copy` of the host graph, and ``parse_gmap``.  A
one-item edit, ``_edit(nodes=(name,))`` or ``_edit(links=((dim, ends),))``,
adds one node or link.

The collector rule: a bulk build runs under :func:`_collector_paused`,
which pauses the cyclic garbage collector and restores the caller's
setting when the build returns or raises.  The builds are ``_edit``, the
``parse_gmap`` and ``unify`` around it, and the three steps of a rewrite:
``instantiate_rule``, ``extend_match`` (so ``complete_match``) and
``apply_rule``.  A build makes tracked objects (a ``Link`` and a tuple
per link, the records it reads) and frees few, so a collection during
one walks a heap that grows with the map and finds little to free.

A node's tuple never changes.  A copy shares every tuple with its
original, so copying costs two dict copies; an orbit graph (``_sub``)
shares its host's ``Link`` objects, ids, next id and each tuple with no
link outside the orbit.  An edit replaces only the tuples of the nodes
it touches, so no edit of one of these graphs shows in another.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import wraps
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


#: sort key of the canonical link order, the order of :class:`Link`
_CANONICAL = attrgetter("dim", "ends", "id")

# A frozen dataclass's __init__ sets each field through object.__setattr__.
# _edit makes its links through the slot descriptors instead, which sets
# the same fields at under half the cost (0.34 against 0.85 us per link,
# Python 3.11); a whole-map Dual makes each link four times.
_new = object.__new__
_set_dim, _set_ends, _set_id = Link.dim.__set__, Link.ends.__set__, Link.id.__set__


def _collector_paused(build):
    """``build``, run with the cyclic collector paused and the caller's
    setting restored when it returns or raises (the collector rule)."""

    @wraps(build)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


def dimension_error(dim: int, top: int) -> DimensionError:
    """The error of a link of dimension ``dim`` in a graph of dimension ``top``."""
    return DimensionError(f"dimension {dim} out of range 0..{top}")


class LabeledGraph:
    """Multigraph with loops, node names, and arc dimensions in ``0..n``."""

    def __init__(self, ambient_dimension: int):
        if ambient_dimension < 0:
            raise DimensionError("ambient dimension must be >= 0")
        self.ambient_dimension = ambient_dimension
        self._adj: dict[str, tuple[Link, ...]] = {}
        self._links: dict[str, Link] = {}
        self._next_link = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        ambient_dimension: int,
        nodes: Iterable[str] = (),
        links: Iterable[tuple[int, Iterable[str]]] = (),
    ) -> "LabeledGraph":
        """Build a graph in one go from ``nodes`` and ``(dim, ends)`` pairs.

        The result, link ids and per-node tuples included, and the first
        error raised are those of adding the nodes and then the links one
        by one, each with a one-item :meth:`_edit`."""
        g = cls(ambient_dimension)
        g._edit(nodes=nodes, links=links)
        return g

    def _sub(self, nodes: Iterable[str], dims: Collection[int]) -> "LabeledGraph":
        """The subgraph on ``nodes``, a :meth:`reach` over ``dims``, with its
        links in first-encounter order along ``nodes``: this graph's own, with
        their ids and next id, and each tuple with no link outside ``dims``."""
        g, dims = LabeledGraph(self.ambient_dimension), set(dims)
        g._adj = {u: self._adj[u] for u in nodes}
        if not dims.issuperset(range(self.ambient_dimension + 1)):
            for u, at in g._adj.items():
                kept = tuple([l for l in at if l.dim in dims])
                if len(kept) < len(at):
                    g._adj[u] = kept
        g._links = {l.id: l for at in g._adj.values() for l in at}  # a repeat keeps its place
        g._next_link = self._next_link
        return g

    def copy(self) -> "LabeledGraph":
        """An equal graph sharing every per-node tuple with this one."""
        g = LabeledGraph(self.ambient_dimension)
        # dict.copy() clones the table, holes left by removals included;
        # dict() re-inserts each entry of a table with holes, 5x slower
        # on the 48.6k links of a rewritten 32.4k-dart map
        g._adj = self._adj.copy()
        g._links = self._links.copy()
        g._next_link = self._next_link
        return g

    # -- in-place edit (library-internal) --------------------------------

    @_collector_paused
    def _edit(
        self,
        drop: Iterable[str] = (),
        drop_nodes: Iterable[str] = (),
        nodes: Iterable[str] = (),
        links: Iterable[tuple[int, Iterable[str]]] = (),
    ) -> None:
        """Remove the links with ids in ``drop``, then the nodes in
        ``drop_nodes`` with every link still at them, then add ``nodes``
        and ``(dim, ends)`` links, each new link taking the next id.

        The result and the first error are those of the single edits in
        that order; an error leaves the edits before it done.  Each node
        whose links change gets one new tuple, built once at the end."""
        adj, made = self._adj, self._links
        top, next_id = self.ambient_dimension, self._next_link
        lists: list[str] = []  # nodes whose entries in adj became lists, sorted at the end
        try:
            try:
                for link_id in drop:
                    link = made.pop(link_id, None)
                    if link is None:
                        raise UnknownLinkError(f"unknown link id {link_id!r}")
                    for u in link.ends:
                        if adj[u].__class__ is tuple:
                            adj[u] = list(adj[u])
                            lists.append(u)
                for name in drop_nodes:
                    at = adj.pop(name, None)
                    if at is None:
                        raise UnknownNodeError(f"unknown node {name!r}")
                    for link in at:
                        if made.pop(link.id, None) is not None:  # not dropped before
                            for u in link.ends:
                                if adj.get(u).__class__ is tuple:
                                    adj[u] = list(adj[u])
                                    lists.append(u)
            finally:
                for u in lists:  # dropped links leave in one pass, linear in the node's links
                    if u in adj:
                        adj[u] = [l for l in adj[u] if l.id in made]
            for name in nodes:
                if not name:
                    raise UnknownNodeError("node name must be non-empty")
                if name in adj:
                    raise DuplicateNodeError(f"node {name!r} already present")
                adj[name] = []
                lists.append(name)
            for dim, ends in links:
                # the usual link is checked inline; any other one goes
                # through _checked_ends, which raises the first error.
                # Its ends are a new tuple, made next to the link.
                ends = tuple(ends)
                if len(ends) == 2 and ends[0] in adj and ends[1] in adj and 0 <= dim <= top:
                    a, b = ends
                    ends = (a,) if a == b else (a, b) if a < b else (b, a)
                else:
                    ends = self._checked_ends(ends, dim)
                link_id = f"L{next_id}"
                next_id += 1
                link = _new(Link)
                _set_dim(link, dim)
                _set_ends(link, ends)
                _set_id(link, link_id)
                made[link_id] = link
                for u in ends:
                    at = adj[u]
                    if at.__class__ is tuple:
                        at = adj[u] = list(at)
                        lists.append(u)
                    at.append(link)
        finally:
            self._next_link = next_id
            for u in lists:  # a dropped node has no entry; a repeat is done
                at = adj.get(u)
                if at.__class__ is list:
                    at.sort(key=_CANONICAL)
                    adj[u] = tuple(at)

    def _checked_ends(self, ends: tuple[str, ...], dim: int) -> tuple[str, ...]:
        """The sorted distinct ends of a new link, after its checks."""
        unique = tuple(sorted(set(ends)))
        if len(unique) not in (1, 2):
            raise ArityError(f"link must have 1 or 2 ends, got {len(unique)}")
        # in the order given, so the unknown end reported is deterministic
        for u in ends:
            if u not in self._adj:
                raise UnknownNodeError(f"unknown node {u!r}")
        if not 0 <= dim <= self.ambient_dimension:
            raise dimension_error(dim, self.ambient_dimension)
        return unique

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
        canonical order; with ``dim`` given, only those of that dimension.
        Without ``dim`` this is the node's stored tuple itself."""
        links = self._adj.get(node)
        if links is None:
            raise UnknownNodeError(f"unknown node {node!r}")
        if dim is None:
            return links
        return tuple([l for l in links if l.dim == dim])

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

