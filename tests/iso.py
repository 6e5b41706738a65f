"""Graph isomorphism for the tests: compares rule sides and orbit graphs.

Reads graphs only through ``incident_links``.
"""

from __future__ import annotations

from gmapkit.graph import LabeledGraph, Link


def links_between(g: LabeledGraph, u: str, v: str, dim: int | None = None) -> tuple[Link, ...]:
    """All links whose ends are exactly ``{u, v}`` (``u == v``: loops)."""
    wanted = (u,) if u == v else (min(u, v), max(u, v))
    return tuple(l for l in g.incident_links(u, dim) if l.ends == wanted)


def _node_profile(g: LabeledGraph, node: str) -> tuple:
    # invariant under isomorphism: multiset of (dim, is a loop) around the node
    return tuple(sorted((l.dim, len(l.ends) == 1) for l in g.incident_links(node)))


def _pair_counts(g: LabeledGraph, u: str, v: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for l in links_between(g, u, v):
        counts[l.dim] = counts.get(l.dim, 0) + 1
    return counts


def _neighbours(g: LabeledGraph, node: str) -> set[str]:
    return {e for l in g.incident_links(node) for e in l.ends if e != node}


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
    inverse: dict[str, str] = {}

    def consistent(u: str, v: str) -> bool:
        # compare link multiplicities with the loops on u itself and with
        # every assigned node linked to u in g1 or to v in g2; any other
        # assigned pair has no link on either side
        if _pair_counts(g1, u, u) != _pair_counts(g2, v, v):
            return False
        pairs = {(u2, mapping[u2]) for u2 in _neighbours(g1, u) if u2 in mapping}
        pairs.update((inverse[v2], v2) for v2 in _neighbours(g2, v) if v2 in inverse)
        return all(_pair_counts(g1, u, u2) == _pair_counts(g2, v, v2) for u2, v2 in pairs)

    def candidates(k: int):
        return iter(profiles2.get(repr(_node_profile(g1, nodes1[k])), []))

    if not nodes1:
        return {}
    # depth-first search over nodes1 in order; the explicit stack holds
    # the candidate iterator of each node assigned so far plus the next
    stack = [candidates(0)]
    while stack:
        u = nodes1[len(stack) - 1]
        v = next((v for v in stack[-1] if v not in inverse and consistent(u, v)), None)
        if v is None:
            stack.pop()
            if stack:
                del inverse[mapping.pop(nodes1[len(stack) - 1])]
            continue
        mapping[u] = v
        inverse[v] = u
        if len(mapping) == len(nodes1):
            return mapping
        stack.append(candidates(len(stack)))
    return None
