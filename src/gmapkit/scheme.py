"""Graph schemes, rule schemes, and their instantiation on orbit graphs.

A graph scheme is a folded pattern over a parameter orbit type: each
node carries a generalized orbit type of the parameter's length, read
as a relabeling ``f_n``, and each arc ``a -k- b`` joins two nodes.  Its
instance on an orbit graph is defined on sets:

- nodes: ``u@n`` for each scheme node ``n`` and each orbit dart ``u``;
- relabeled links: ``u@n -f_n(i)- v@n`` for each scheme node ``n`` and
  each orbit link ``u -i- v`` whose ``f_n(i)`` is not ``_``;
- arc links: ``u@a -k- u@b`` for each arc ``a -k- b`` and orbit dart ``u``.

A rule scheme pairs two graph schemes over one parameter; instantiating
both on the orbit of an anchor dart yields a concrete rewrite rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SchemeError, UnknownNodeError
from .graph import LabeledGraph
from .orbits import GeneralizedOrbitType, OrbitType, RelabelingFunction

if TYPE_CHECKING:
    from .gmap import Gmap

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def instance_name(orbit_dart: str, scheme_node: str) -> str:
    """The canonical name of the copy of ``orbit_dart`` under ``scheme_node``."""
    return f"{orbit_dart}@{scheme_node}"


def split_instance(name: str) -> tuple[str, str]:
    """Inverse of :func:`instance_name`; scheme node names contain no '@'."""
    dart, _, node = name.rpartition("@")
    if not dart or not node:
        raise SchemeError(f"{name!r} is not an instance name")
    return dart, node


@dataclass(frozen=True)
class SchemeArc:
    a: str
    dim: int
    b: str

    def __repr__(self) -> str:
        return f"{self.a} -{self.dim}- {self.b}"


@dataclass(frozen=True)
class GraphScheme:
    """Nodes decorated with generalized orbit types plus labeled arcs."""

    parameter: OrbitType
    nodes: tuple[tuple[str, GeneralizedOrbitType], ...]
    arcs: tuple[SchemeArc, ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.nodes]
        if len(set(names)) != len(names):
            raise SchemeError(f"duplicate scheme node in {names}")
        for name, decoration in self.nodes:
            if not _NAME.match(name):
                raise SchemeError(f"bad scheme node name {name!r}")
            if len(decoration) != len(self.parameter):
                raise SchemeError(
                    f"decoration {decoration!r} of node {name!r} does not match "
                    f"parameter {self.parameter!r} in length"
                )
        known = set(names)
        for arc in self.arcs:
            if arc.a not in known or arc.b not in known:
                raise SchemeError(f"arc {arc!r} references an unknown node")
            if arc.a == arc.b:
                raise SchemeError(f"self-arc {arc!r} is not allowed")
            if arc.dim < 0:
                raise SchemeError(f"arc {arc!r} has a negative dimension")

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.nodes)

    def decoration(self, name: str) -> GeneralizedOrbitType:
        for n, deco in self.nodes:
            if n == name:
                return deco
        raise SchemeError(f"unknown scheme node {name!r}")


@dataclass(frozen=True)
class RuleScheme:
    """A left and right graph scheme over one parameter, plus the hook.

    The hook is a left node whose decoration is free of the removing
    symbol; it anchors the rule on an object: the orbit of the selected
    dart, of the parameter's type, is the graph both sides unfold with.
    """

    name: str
    parameter: OrbitType
    left: GraphScheme
    right: GraphScheme
    hook: str

    def __post_init__(self):
        if not _NAME.match(self.name):
            raise SchemeError(f"bad rule name {self.name!r}")
        if self.left.parameter != self.parameter or self.right.parameter != self.parameter:
            raise SchemeError("left/right schemes must share the rule parameter")
        if self.hook not in self.left.node_names:
            raise SchemeError(f"hook {self.hook!r} is not a left node")
        if self.left.decoration(self.hook).has_remove:
            raise SchemeError(f"hook {self.hook!r} must not carry the removing symbol")

    @property
    def preserved_nodes(self) -> tuple[str, ...]:
        right = set(self.right.node_names)
        return tuple(n for n in self.left.node_names if n in right)


def _check_orbit_graph(o: OrbitType, orbit_graph: LabeledGraph) -> None:
    dims = set(o)
    for link in orbit_graph.links:
        if link.dim not in dims:
            raise SchemeError(
                f"orbit graph has a {link.dim}-link outside the parameter {o!r}"
            )
    if len(orbit_graph.reach(orbit_graph.nodes[:1])) < len(orbit_graph):
        raise SchemeError("orbit graph must be connected")


def instantiate_scheme(scheme: GraphScheme, orbit_graph: LabeledGraph) -> LabeledGraph:
    """The instance of ``scheme`` on ``orbit_graph``, as the module
    docstring defines it.

    Nodes come scheme node by scheme node, each in orbit dart order.
    Links come scheme node by scheme node in orbit link order, then arc
    by arc in sorted dart order; link ids follow that order.
    """
    _check_orbit_graph(scheme.parameter, orbit_graph)
    return _instance(scheme, orbit_graph)


def _instance(scheme: GraphScheme, orbit_graph: LabeledGraph) -> LabeledGraph:
    darts = orbit_graph.nodes
    links = []
    for name, decoration in scheme.nodes:
        f = RelabelingFunction(scheme.parameter, decoration).mapping
        for link in orbit_graph.links:
            dim = f[link.dim]
            if isinstance(dim, int):
                links.append((dim, [instance_name(u, name) for u in link.ends]))
    for arc in scheme.arcs:
        for u in sorted(darts):
            links.append((arc.dim, (instance_name(u, arc.a), instance_name(u, arc.b))))
    nodes = [instance_name(u, name) for name in scheme.node_names for u in darts]
    return LabeledGraph.build(orbit_graph.ambient_dimension, nodes, links)


@dataclass(frozen=True)
class InstantiatedRule:
    """A concrete rewrite rule unfolded at one anchor dart.

    Node names carry their provenance (``origDart@schemeNode``); the
    preserved set is the expansion of the scheme nodes present on both
    sides.
    """

    rule: RuleScheme
    anchor: str
    orbit_graph: LabeledGraph
    left: LabeledGraph
    right: LabeledGraph
    preserved: frozenset[str]

    @property
    def left_only(self) -> tuple[str, ...]:
        return tuple(u for u in self.left.nodes if u not in self.preserved)

    @property
    def right_only(self) -> tuple[str, ...]:
        return tuple(u for u in self.right.nodes if u not in self.preserved)

    def seed(self) -> dict[str, str]:
        """The canonical partial match: the anchor's hook copy onto itself."""
        return {instance_name(self.anchor, self.rule.hook): self.anchor}


def instantiate_rule(rule: RuleScheme, gmap: "Gmap", dart: str) -> InstantiatedRule:
    """Unfold both sides of ``rule`` with the parameter orbit of ``dart``."""
    if dart not in gmap.graph:
        raise UnknownNodeError(f"unknown dart {dart!r}")
    # the orbit holds only parameter dims and is connected by construction
    orbit_graph = gmap.orbit(rule.parameter, dart)
    left = _instance(rule.left, orbit_graph)
    right = _instance(rule.right, orbit_graph)
    preserved = frozenset(
        instance_name(u, node)
        for node in rule.preserved_nodes
        for u in orbit_graph.nodes
    )
    return InstantiatedRule(rule, dart, orbit_graph, left, right, preserved)
