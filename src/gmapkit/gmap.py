"""Generalized maps: constraint validation, orbits, cells, embeddings.

A generalized map of dimension n is a labeled graph over darts where
every dart has exactly one incident i-link for each i in 0..n (the
incidence constraint) and every path alternating two dimensions at
distance >= 2 closes into a cycle (the cycle constraint).  Validation
is exhaustive and returns data, not exceptions: invalid maps are a
normal intermediate state during rewriting.

Geometric data lives in embedding layers: a layer assigns one value per
dart, and all darts of one orbit of the layer's domain type must agree.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Iterable

from .errors import (
    ConstraintViolationError,
    DimensionError,
    EmbeddingError,
    UnknownNodeError,
)
from .graph import LabeledGraph
from .orbits import OrbitType

#: Componentwise tolerance for comparing numeric embedding values.
POINT_TOLERANCE = 1e-9

#: Links from a rewrite's darts to the pivot of a cycle it broke (Gmap._validate_rewritten).
_PIVOT_RADIUS = 2

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
        if self.value_type not in VALUE_TYPES:
            raise EmbeddingError(f"unknown embedding value type {self.value_type!r}")
        self.values = {d: normalize_value(self.value_type, v) for d, v in self.values.items()}

    def copy(self) -> "EmbeddingLayer":
        """A copy with its own ``values`` dict, not normalized again."""
        layer = copy.copy(self)
        layer.values = dict(self.values)
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

    def __post_init__(self):
        # repr breaks ties between violations that render identically
        # (e.g. parallel links), keeping the order total and stable
        object.__setattr__(
            self,
            "violations",
            tuple(sorted(self.violations, key=lambda v: (v.line(), repr(v)))),
        )

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [v.line() for v in self.violations]

    def __len__(self) -> int:
        return len(self.violations)


# ---------------------------------------------------------------------------
# the map itself


class Gmap:
    """A labeled graph plus embedding layers, interpreted as an n-Gmap.

    Construction checks only shape-level requirements (layer totality,
    dimensions in range); the topological constraints are checked by
    :meth:`validate`, which reports violations as data.

    Only :func:`~gmapkit.rewrite.apply_rule` marks the maps it returns
    known-valid (``_known_valid``); editing one in place voids the mark.
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
        """An equal map, not marked known-valid.  Its graph shares per-dart
        link lists with this one's, each copied on its first write (see
        :meth:`LabeledGraph.copy`), so an edit of either map never shows
        in the other."""
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

    def alpha(self, dart: str, dim: int) -> str:
        """The unique dart i-linked to ``dart``; ``dart`` itself on a loop."""
        links = self.graph.incident_links(dart, dim)
        if len(links) != 1:
            raise ConstraintViolationError(
                f"dart {dart!r} has {len(links)} links of dimension {dim}, expected 1"
            )
        return links[0].other_end(dart)

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
        order along it; both are deterministic.
        """
        order = self.orbit_darts(o, dart)
        dims = set(o)
        links = {l.id: l for u in order for l in self.graph.incident_links(u) if l.dim in dims}
        return LabeledGraph.build(self.n, order, ((l.dim, l.ends) for l in links.values()))

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
        return self._orbits(o, self.darts)

    def _orbits(self, o: OrbitType, darts: Iterable[str]) -> list[tuple[str, ...]]:
        seen: set[str] = set()
        out: list[tuple[str, ...]] = []
        for d in sorted(darts):
            if d in seen:
                continue
            members = self.orbit_darts(o, d)
            seen.update(members)
            out.append(tuple(sorted(members)))
        return out

    # -- validation --------------------------------------------------------

    def _incidence_violations(self, darts: set[str] | None = None) -> list[IncidenceViolation]:
        out = []
        for d in self.darts if darts is None else darts:
            for i in range(self.n + 1):
                found = len(self.graph.incident_links(d, i))
                if found != 1:
                    out.append(IncidenceViolation(d, i, found))
        return out

    def _cycle_violations(self, pivots: set[str] | None = None) -> list[CycleViolation]:
        # Enumerates exactly the link 4-tuples (l0,l1,l2,l3) labeled
        # i,j,i,j (j >= i+2) whose consecutive end sets intersect, by
        # pivoting on a shared dart at each junction; flags tuples whose
        # outer end sets are disjoint.  The pairs (i, j) come from each
        # pivot's own links, so the declared dimension costs nothing.
        # Near-linear on valid maps, still exhaustive on broken ones.
        found: dict[tuple, CycleViolation] = {}
        g = self.graph
        for x1 in g.nodes if pivots is None else pivots:
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

    def _embedding_violations(
        self, layer: EmbeddingLayer, darts: set[str] | None = None
    ) -> list[EmbeddingViolation]:
        out = []
        for orbit in self._orbits(layer.domain, self.darts if darts is None else darts):
            rep = orbit[0]
            bad = tuple(
                d
                for d in orbit[1:]
                if not values_equal(layer.value_type, layer.values[d], layer.values[rep])
            )
            if bad:
                out.append(EmbeddingViolation(layer.name, orbit, bad))
        return out

    def validate(self) -> ValidationReport:
        """Full scan for incidence, cycle, and embedding violations."""
        return self._report()

    def _report(self, darts: set[str] | None = None, pivots: set[str] | None = None) -> ValidationReport:
        violations: list[Violation] = []
        violations.extend(self._incidence_violations(darts))
        violations.extend(self._cycle_violations(pivots))
        for layer in self.embeddings.values():
            violations.extend(self._embedding_violations(layer, darts))
        return ValidationReport(tuple(violations))

    def _validate_rewritten(self, touched: set[str]) -> ValidationReport:
        """:meth:`validate` of a map made from a valid map by a rewrite that
        changed links only at the darts ``touched``.

        Other darts keep one link per dimension, and orbits without a
        touched dart keep their values: incidence and embeddings are
        checked at ``touched``.  As old i,j,i,j paths closed, a violated
        one has a new link; its pivot (the dart its first two links share)
        is 0, 1 or 2 links from the ends of the first new link on it, as
        that is its first or second, third, or fourth link.  The region
        walk stops at the whole map, which gets the full scan.
        """
        region = set(touched)
        for _ in range(_PIVOT_RADIUS):
            if len(region) < len(self.graph):
                region |= {v for u in region for link in self.graph.incident_links(u) for v in link.ends}
        if len(region) == len(self.graph):
            return self.validate()
        return self._report(touched, region)
