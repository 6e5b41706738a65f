"""Generalized maps: constraint validation, orbits, cells, embeddings.

A generalized map of dimension n is a labeled graph over darts where
every dart has exactly one incident i-link for each i in 0..n (the
incidence constraint) and every path alternating two dimensions at
distance >= 2 closes into a cycle (the cycle constraint).  Validation
returns data, not exceptions: invalid maps are a normal intermediate
state during rewriting.

Validation fills α arrays from the link table, each link writing its
entry at both ends, and tests the cycle constraint on them; only the
darts that fail that test go through the exhaustive enumeration of link
4-tuples, which names the open chains (``Gmap._report``).

Geometric data lives in embedding layers: a layer assigns one value per
dart, and all darts of one orbit of the layer's domain type must agree.
A full scan compares the values across every domain link with exact
``!=`` and walks only the orbits of darts at an unequal link or without
α entries: exact, as equality within a tolerance is not transitive.  The
local check after a rewrite walks the orbits of its touched darts whole,
as a new link can join orbits whose values drifted apart.
"""

from __future__ import annotations

import copy
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import ne
from typing import Any, Iterable

from .errors import (
    ConstraintViolationError,
    DimensionError,
    EmbeddingError,
    UnknownNodeError,
)
from .graph import LabeledGraph, Link
from .orbits import OrbitType

#: A .gmap name (a dart or a layer), and a character of one after its first.
_GMAP_CHAR = "[A-Za-z0-9_@#-]"
_GMAP_IDENT = re.compile(rf"[A-Za-z_]{_GMAP_CHAR}*")

#: Componentwise tolerance for comparing numeric embedding values.
POINT_TOLERANCE = 1e-9

#: Links from a rewrite's darts to the pivot of a cycle it broke (Gmap._validate_rewritten).
_PIVOT_RADIUS = 2

#: Links from a dart to the farthest dart whose α entries its α test reads (Gmap._report).
_TEST_RADIUS = 2

#: value type name -> (element python type, arity); "string" is special-cased.
_NUMERIC_TYPES = {
    "point2d": (float, 2),
    "point3d": (float, 3),
    "color_rgb": (int, 3),
    "scalar": (float, 1),
}

VALUE_TYPES = tuple(_NUMERIC_TYPES) + ("string",)


def normalize_value(value_type: str, value: Any) -> Any:
    """Coerce ``value`` to the canonical form for ``value_type`` or raise."""
    if value_type == "string":
        if not isinstance(value, str):
            raise EmbeddingError(f"expected a string value, got {value!r}")
        return value
    if value_type not in _NUMERIC_TYPES:
        raise EmbeddingError(f"unknown embedding value type {value_type!r}")
    elem, arity = _NUMERIC_TYPES[value_type]
    if value_type == "scalar":
        seq = (value,)
    else:
        seq = tuple(value) if isinstance(value, (tuple, list)) else None
        if seq is None or len(seq) != arity:
            raise EmbeddingError(f"{value_type} value must have {arity} components, got {value!r}")
    out = []
    for c in seq:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise EmbeddingError(f"bad {value_type} component {c!r}")
        if elem is int and not isinstance(c, int):
            raise EmbeddingError(f"{value_type} components must be integers, got {c!r}")
        try:
            x = elem(c)
        except OverflowError:  # an int too large for a float
            x = float("inf")
        # inf and nan have no .gmap spelling, and nan never equals itself
        if not abs(x) < float("inf"):
            raise EmbeddingError(f"{value_type} components must be finite, got {c!r}")
        out.append(x)
    if value_type == "scalar":
        return out[0]
    return tuple(out)


def _canonical(value_type: str, values: Iterable[Any]) -> bool:
    """Whether every value is already what :func:`normalize_value` returns
    for it: an exact ``str``, ``float`` or tuple of the type's arity of
    exact ``float`` (``int`` for colors), every float finite.  Checked in
    bulk; ``False`` sends the values through :func:`normalize_value`."""
    if value_type == "string":
        return set(map(type, values)) <= {str}
    elem, arity = _NUMERIC_TYPES[value_type]
    if value_type == "scalar":
        comps = values
    elif set(map(type, values)) <= {tuple} and set(map(len, values)) <= {arity}:
        comps = list(chain.from_iterable(values))
    else:
        return False
    if elem is int:
        return set(map(type, comps)) <= {int}
    return set(map(type, comps)) <= {float} and all(map(math.isfinite, comps))


def values_equal(value_type: str, a: Any, b: Any) -> bool:
    """Equality used by the embedding condition: exact for colors and
    strings, within ``POINT_TOLERANCE`` componentwise for points and scalars."""
    if value_type in ("string", "color_rgb"):
        return a == b
    if value_type == "scalar":
        return abs(a - b) <= POINT_TOLERANCE
    return len(a) == len(b) and all(abs(x - y) <= POINT_TOLERANCE for x, y in zip(a, b))


@dataclass
class EmbeddingLayer:
    """Per-dart storage of one embedding function.

    ``domain`` is the orbit type whose orbits must carry equal values;
    ``values`` maps every dart of the owning map to a value of
    ``value_type``.
    """

    name: str
    domain: OrbitType
    value_type: str
    values: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        kind, values = self.value_type, self.values
        if kind not in VALUE_TYPES:
            raise EmbeddingError(f"unknown embedding value type {kind!r}")
        if _canonical(kind, values.values()):
            self.values = dict(values)
        else:  # finds, and raises, the first bad value
            self.values = {d: normalize_value(kind, v) for d, v in values.items()}

    def copy(self) -> "EmbeddingLayer":
        """A copy with its own ``values`` dict, not normalized again."""
        layer = copy.copy(self)
        layer.values = self.values.copy()
        return layer


# ---------------------------------------------------------------------------
# validation report


@dataclass(frozen=True)
class IncidenceViolation:
    """Dart ``dart`` has ``found`` links of dimension ``dim`` instead of one."""

    dart: str
    dim: int
    found: int

    def line(self) -> str:
        return f"E_INCIDENCE dart={self.dart} dim={self.dim} found={self.found}"


def _segment(dim: int, ends: tuple[str, ...]) -> str:
    if len(ends) == 1:
        return f"{ends[0]}-{dim}-{ends[0]}"
    return f"{ends[0]}-{dim}-{ends[1]}"


@dataclass(frozen=True)
class CycleViolation:
    """A link 4-tuple labeled i,j,i,j chains up but fails to close."""

    i: int
    j: int
    links: tuple[str, str, str, str]
    chain: tuple[tuple[int, tuple[str, ...]], ...]

    def line(self) -> str:
        path = " . ".join(_segment(d, e) for d, e in self.chain)
        return f"E_CYCLE i={self.i} j={self.j} path: {path}"


@dataclass(frozen=True)
class EmbeddingViolation:
    """An orbit of the layer's domain carries more than one value."""

    layer: str
    orbit: tuple[str, ...]
    mismatched: tuple[str, ...]

    def line(self) -> str:
        return (
            f"E_EMBED layer={self.layer} orbit={{{','.join(self.orbit)}}} "
            f"darts={','.join(self.mismatched)}"
        )


Violation = IncidenceViolation | CycleViolation | EmbeddingViolation


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    _lines: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        # each line is made once and kept; repr breaks ties between violations
        # that render identically (e.g. parallel links), keeping the order total
        if self.violations:
            lines = [v.line() for v in self.violations]
            count = Counter(lines)
            tie = lambda p: (p[0], repr(p[1]) if count[p[0]] > 1 else "")
            ranked = sorted(zip(lines, self.violations), key=tie)
            object.__setattr__(self, "violations", tuple(v for _, v in ranked))
            object.__setattr__(self, "_lines", tuple(l for l, _ in ranked))

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return list(self._lines)

    def __len__(self) -> int:
        return len(self.violations)


# ---------------------------------------------------------------------------
# the map itself


class Gmap:
    """A labeled graph plus embedding layers, interpreted as an n-Gmap.

    Construction checks only shape-level requirements (layer totality,
    dimensions in range); the topological constraints are checked by
    :meth:`validate`, which reports violations as data.

    A clean :meth:`validate` marks a map known-valid (``_known_valid``),
    as does the clean check of a rewrite's result, so a rewrite of it
    checks only the darts near the rewrite.  New, parsed and copied maps
    are unmarked; a marked map edited in place must be validated again
    before it is rewritten.
    """

    def __init__(self, graph: LabeledGraph, embeddings: Iterable[EmbeddingLayer] = ()):
        self.graph = graph
        self._known_valid = False
        self.embeddings: dict[str, EmbeddingLayer] = {}
        for layer in embeddings:
            if layer.name in self.embeddings:
                raise EmbeddingError(f"duplicate embedding layer {layer.name!r}")
            self._check_layer_shape(layer)
            self.embeddings[layer.name] = layer

    def _check_layer_shape(self, layer: EmbeddingLayer) -> None:
        for dim in layer.domain:
            if dim > self.graph.ambient_dimension:
                raise DimensionError(
                    f"layer {layer.name!r} domain {layer.domain!r} exceeds dimension "
                    f"{self.graph.ambient_dimension}"
                )
        darts = set(self.graph.nodes)
        have = set(layer.values)
        if have - darts:
            extra = sorted(have - darts)[0]
            raise UnknownNodeError(f"layer {layer.name!r} values unknown dart {extra!r}")
        if darts - have:
            missing = sorted(darts - have)[0]
            raise EmbeddingError(f"layer {layer.name!r} has no value for dart {missing!r}")

    @classmethod
    def build(
        cls,
        ambient_dimension: int,
        darts: Iterable[str] = (),
        links: Iterable[tuple[int, Iterable[str]]] = (),
        embeddings: Iterable[EmbeddingLayer] = (),
    ) -> "Gmap":
        return cls(LabeledGraph.build(ambient_dimension, darts, links), embeddings)

    @property
    def n(self) -> int:
        return self.graph.ambient_dimension

    @property
    def darts(self) -> tuple[str, ...]:
        return self.graph.nodes

    def copy(self) -> "Gmap":
        """An equal map, not marked known-valid.  Its graph shares the
        per-dart link tuples with this one's (see :meth:`LabeledGraph.copy`),
        and an edit of either map never shows in the other."""
        g = Gmap(self.graph.copy())
        g.embeddings = {name: layer.copy() for name, layer in self.embeddings.items()}
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gmap):
            return NotImplemented
        if self.graph != other.graph or set(self.embeddings) != set(other.embeddings):
            return False
        for name, layer in self.embeddings.items():
            o = other.embeddings[name]
            if (layer.domain, layer.value_type, layer.values) != (o.domain, o.value_type, o.values):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Gmap(n={self.n}, |D|={len(self.darts)}, |L|={len(self.graph.links)})"

    # -- involutions -----------------------------------------------------

    def alpha_link(self, dart: str, dim: int) -> Link:
        """The unique i-link of ``dart``."""
        links = self.graph.incident_links(dart, dim)
        if len(links) != 1:
            raise ConstraintViolationError(
                f"dart {dart!r} has {len(links)} links of dimension {dim}, expected 1"
            )
        return links[0]

    def alpha(self, dart: str, dim: int) -> str:
        """The unique dart i-linked to ``dart``; ``dart`` itself on a loop."""
        e = self.alpha_link(dart, dim).ends
        return e[0] if e[-1] == dart else e[-1]

    # -- orbits and cells --------------------------------------------------

    def orbit_darts(self, o: OrbitType, dart: str) -> tuple[str, ...]:
        """The darts reachable from ``dart`` through links with dims in ``o``,
        in the BFS discovery order of :meth:`LabeledGraph.reach`."""
        if dart not in self.graph:
            raise UnknownNodeError(f"unknown dart {dart!r}")
        return self.graph.reach((dart,), set(o))

    def orbit(self, o: OrbitType, dart: str) -> LabeledGraph:
        """The sub-map reachable from ``dart`` through links with dims in ``o``.

        Nodes appear in :meth:`orbit_darts` order, links in first-encounter
        order along it; both are deterministic.  Its links are the host's
        own ``Link`` objects, with the host's ids (:meth:`LabeledGraph._sub`)."""
        return self.graph._sub(self.orbit_darts(o, dart), o)

    def cell_type(self, i: int) -> OrbitType:
        """Orbit type of i-cells: all dimensions of 0..n except ``i``."""
        if not 0 <= i <= self.n:
            raise DimensionError(f"cell dimension {i} out of range 0..{self.n}")
        return OrbitType(tuple(d for d in range(self.n + 1) if d != i))

    def cells(self, i: int) -> list[tuple[str, ...]]:
        """Partition of the darts into i-cells, each a sorted dart tuple."""
        return self.orbit_partition(self.cell_type(i))

    def orbit_partition(self, o: OrbitType) -> list[tuple[str, ...]]:
        """All orbits of type ``o``, each a sorted dart tuple."""
        seen: set[str] = set()
        out: list[tuple[str, ...]] = []
        for d in sorted(self.darts):
            if d in seen:
                continue
            members = self.orbit_darts(o, d)
            seen.update(members)
            out.append(tuple(sorted(members)))
        return out

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Full scan for incidence, cycle, and embedding violations.  Marks
        the map known-valid exactly when it finds none; the report is not
        kept, so every call scans the whole map."""
        report = self._report()
        self._known_valid = report.ok
        return report

    def _report(
        self,
        darts: set[str] | None = None,
        pivots: set[str] | None = None,
        scope: set[str] | None = None,
    ) -> ValidationReport:
        """The validation kernel: incidence and embeddings at ``darts``, cycles
        pivoted at ``pivots``, from the links of the darts of ``scope``; each
        is every dart when ``None``.

        The α arrays are filled once per link, at both its ends: from the
        link table on a full scan, from the link tuples of ``scope`` on a
        local one.  A dart of ``darts`` without n+1 links, or with n+1 and a
        repeated dim (so it lacks an entry), is an incidence violation, and
        its entries are dropped; the other darts of ``scope`` must have one
        link per dimension, as they do after a rewrite of a valid map.  So
        for ``d`` in ``scope``, ``alpha[i][d]`` exists exactly when ``d`` has
        one i-link for each i in 0..n, and is then exact.  A local scan also
        leaves entries at darts outside ``scope``, which the α test never
        reads: it reads entries at most 2 links from a pivot
        (``_TEST_RADIUS``), and ``scope`` holds them all.

        A pivot fails the α test when α_j α_i α_j(d) != α_i(d) for some
        j >= i+2, a missing entry included.  Every pivot ``d`` of a violated
        i,j,i,j tuple fails it.  Let ``x`` and ``y`` be the darts the tuple
        pivots on at its next two junctions.  If ``d``, ``x`` and ``y`` have
        entries, then ``x`` = α_j(d) and ``y`` = α_i(x), as otherwise the
        third link is the first or the fourth is the second and the tuple
        closes; so the fourth link's ends are ``y`` and α_j(y), and neither is
        ``d`` or α_i(d).  If one of them has none, the test reads it.  A
        failing pivot need not start a violated tuple (a fixed point of α_j
        can fail alone), so these suspects go through
        :meth:`_cycle_violations`, which names each violated tuple's chain.

        Embeddings are checked on the orbits of ``darts``.  A full scan
        compares the values across every domain link with exact ``!=``
        first and walks only the orbits of the darts that screen returns
        (:meth:`_embedding_screen`).  A local check walks the orbits of
        ``darts`` whole: a new link can join orbits whose values have
        drifted apart while every link at ``darts`` joins equal values.
        """
        adj = self.graph._adj
        n1 = self.n + 1
        nodes = adj.keys() if darts is None else darts
        invalid = {u for u in nodes if len(adj[u]) != n1}
        # made only if a dart has n + 1 links, so it never outgrows them
        alpha = [{} for _ in range(n1)] if len(invalid) < len(nodes) else []
        links = self.graph._links.values() if scope is None else chain.from_iterable(map(adj.get, scope))
        for l in links if alpha else ():
            e, a = l.ends, alpha[l.dim]
            a[e[0]] = e[-1]
            a[e[-1]] = e[0]
        for a in alpha:  # n + 1 links with a repeated dim leave one entry out
            if darts is not None or len(a) < len(nodes):
                invalid |= nodes - a.keys()
        for a in alpha:
            for u in invalid:
                a.pop(u, None)

        violations: list[Violation] = []
        for u in invalid:
            found = Counter(l.dim for l in adj[u])
            violations.extend(IncidenceViolation(u, i, found[i]) for i in range(n1) if found[i] != 1)

        pivots = adj.keys() if pivots is None else pivots
        suspects = set(pivots) if not alpha else set()  # no α arrays: test nothing
        for i, ai in enumerate(alpha):
            for aj in alpha[i + 2 :]:
                suspects |= {
                    d for d in pivots if (e := ai.get(d)) is None or aj.get(ai.get(aj[d])) != e
                }
        violations.extend(self._cycle_violations(suspects))

        for layer in self.embeddings.values():
            starts = self._embedding_screen(layer, alpha, invalid) if darts is None else darts
            violations.extend(self._embedding_violations(layer, starts))
        return ValidationReport(tuple(violations))

    def _cycle_violations(self, pivots: Iterable[str]) -> list[CycleViolation]:
        # Enumerates exactly the link 4-tuples (l0,l1,l2,l3) labeled
        # i,j,i,j (j >= i+2) whose consecutive end sets intersect, by
        # pivoting on a shared dart at each junction; flags tuples whose
        # outer end sets are disjoint.  The pairs (i, j) come from each
        # pivot's own links, so the declared dimension costs nothing.
        # Exhaustive at each pivot, whatever its links.
        found: dict[tuple, CycleViolation] = {}
        g = self.graph
        for x1 in pivots:
            links = g.incident_links(x1)
            for l0 in links:
                i = l0.dim
                for l1 in links:
                    j = l1.dim
                    if j < i + 2:
                        continue
                    for x2 in l1.ends:
                        for l2 in g.incident_links(x2, i):
                            for x3 in l2.ends:
                                for l3 in g.incident_links(x3, j):
                                    e0, e3 = l0.ends, l3.ends
                                    if e3[0] in e0 or e3[-1] in e0:
                                        continue
                                    key = (i, j, l0.id, l1.id, l2.id, l3.id)
                                    if key not in found:
                                        chain = tuple((l.dim, l.ends) for l in (l0, l1, l2, l3))
                                        found[key] = CycleViolation(i, j, key[2:], chain)
        return list(found.values())

    def _embedding_screen(
        self, layer: EmbeddingLayer, alpha: list[dict[str, str]], invalid: set[str]
    ) -> set[str]:
        """A dart of every orbit of the layer's domain that may violate it:
        the darts ``invalid``, which have no α entries, and each dart whose
        value is not exactly equal (``!=``) to that across one of its
        domain links, from the α arrays of a full :meth:`_report`.

        An orbit without such a dart is walked by its darts' entries, and
        all its links join equal values, so it holds one value.  Equality
        within the tolerance would not do: it is not transitive, and an
        orbit whose links all agree within it can hold values farther
        apart.
        """
        get = layer.values.__getitem__
        starts = set(invalid)
        for k in layer.domain if alpha else ():
            ak = alpha[k]
            starts.update(compress(ak, map(ne, map(get, ak), map(get, ak.values()))))
        return starts

    def _embedding_violations(
        self, layer: EmbeddingLayer, darts: Iterable[str]
    ) -> list[EmbeddingViolation]:
        """The layer's violations on the orbits of ``darts``, each walked by
        :meth:`LabeledGraph.reach`.  An orbit violates the layer when a
        value differs from its first dart's by more than the tolerance of
        :func:`values_equal`.  ``darts`` are those of the exact screen on a
        full scan, and the touched darts, whose orbits may have drifted, on
        a local one."""
        reach, dims = self.graph.reach, set(layer.domain)
        values, kind = layer.values, layer.value_type
        out = []
        seen: set[str] = set()
        for d in darts:
            if d in seen:
                continue
            orbit = tuple(sorted(reach((d,), dims)))
            seen.update(orbit)
            found = [values[x] for x in orbit]
            rep = found[0]
            if found.count(rep) == len(found):  # all equal: the usual case, in C
                continue
            bad = tuple(x for x in orbit[1:] if not values_equal(kind, values[x], rep))
            if bad:
                out.append(EmbeddingViolation(layer.name, orbit, bad))
        return out

    def _validate_rewritten(self, touched: set[str], host: "Gmap") -> ValidationReport:
        """:meth:`validate` of a map made from ``host`` by a rewrite that
        changed links only at the darts ``touched``; if ``host`` is valid,
        by :meth:`_report` near them.

        Other darts keep one link per dimension, and orbits without a
        touched dart keep their values: incidence and embeddings are
        checked at ``touched``.  As old i,j,i,j paths closed, a violated
        one has a new link; its pivot (the dart its first two links share)
        is 0, 1 or 2 links from the ends of the first new link on it, as
        that is its first or second, third, or fourth link.  The α test of
        a pivot reads entries up to 2 links from it, so the α arrays are
        filled that far past the pivots.  A pivot region that reaches the
        whole map gets the full scan alone.  Otherwise an unmarked ``host``
        is validated first (and so marked if clean); an invalid one's
        result gets the full scan.  A clean report marks this map.
        """
        pivots = self._ball(touched, _PIVOT_RADIUS)
        whole = len(pivots) == len(self.graph)
        if whole or not (host._known_valid or host.validate().ok):
            return self.validate()
        report = self._report(touched, pivots, self._ball(pivots, _TEST_RADIUS))
        self._known_valid = report.ok
        return report

    def _ball(self, darts: set[str], radius: int) -> set[str]:
        """The darts at most ``radius`` links from ``darts``."""
        adj = self.graph._adj
        ball, frontier = set(darts), darts
        for _ in range(radius):
            if len(ball) == len(adj):
                break
            frontier = {v for u in frontier for link in adj[u] for v in link.ends} - ball
            ball |= frontier
        return ball
