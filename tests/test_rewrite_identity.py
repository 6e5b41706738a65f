"""The graph identity of a rewritten map is part of the output contract.

Serialized documents do not show link ids, the order of ``graph.links``
or each dart's link tuple, yet the next rewrite's names and ids follow
them.  ``fixtures/rewrite_identity.txt`` pins them after every step of
three chains:

- two Duals on ``two_triangles.gmap`` with the vertex layer on ``<1>``,
  as the ``global-dual`` benchmark runs them;
- ten vertex insertions on ``square.gmap``;
- an erase of one component of a two-component map, after a vertex
  insertion in the other, then a rename of the rest: darts go, and
  created darts take their links.

A block is the header ``case step rule anchor``, then ``next_link``,
the nodes in order, the links in order as ``id dim:ends``, and per dart
the ids of its link tuple in order.  Blocks are separated by a blank line.

Regenerate with ``PYTHONPATH=src python tests/test_rewrite_identity.py``,
and only when the identity is meant to change.
"""

from gmapkit import (
    Gmap,
    apply_rule,
    complete_match,
    instantiate_rule,
    parse_gmap,
    parse_rule_scheme,
)
from gmapkit.gmap import EmbeddingLayer
from gmapkit.rewrite import parse_directive

from conftest import FIXTURES, fixture_text

GOLDEN = "rewrite_identity.txt"

DUAL = parse_rule_scheme(
    "rule Dual <0,1,2> { left { n0: <0,1,2> hook } right { n0: <2,1,0> } }"
)
VI = parse_rule_scheme(fixture_text("vertex_insert_02.jrule"))
ERASE = parse_rule_scheme("rule Erase <0,1,2> { left { n0: <0,1,2> hook } right { } }")
RENAME = parse_rule_scheme(
    "rule Rename <0,1,2> { left { n0: <0,1,2> hook } right { n1: <0,1,2> } }"
)
MIDPOINT = parse_directive("pos:n1=midpoint(n0)")
INHERIT = parse_directive("pos:n1=inherit(n0)")


def _vertex_layer_on_1(name):
    return parse_gmap(fixture_text(name).replace("    orbit: 1 2\n", "    orbit: 1\n"))


def _two_components():
    """``two_triangles.gmap`` next to ``square.gmap`` with its darts prefixed ``s``."""
    a, b = parse_gmap(fixture_text("two_triangles.gmap")), parse_gmap(fixture_text("square.gmap"))
    links = [(l.dim, l.ends) for l in a.graph.links]
    links += [(l.dim, [f"s{u}" for u in l.ends]) for l in b.graph.links]
    la, lb = a.embeddings["pos"], b.embeddings["pos"]
    values = dict(la.values) | {f"s{d}": v for d, v in lb.values.items()}
    darts = list(a.darts) + [f"s{d}" for d in b.darts]
    return Gmap.build(2, darts, links, [EmbeddingLayer("pos", la.domain, la.value_type, values)])


def _nth(k):
    """The anchor picker of the k-th sorted dart, counted around the map."""
    return lambda g: sorted(g.darts)[k % len(g.darts)]


def _chains():
    """``(case, [(rule name, rule, anchor picker, directives), ...], host)``."""
    middle = lambda g: sorted(g.darts)[len(g.darts) // 2]
    steps = [("Dual", DUAL, _nth(0), ()), ("Dual", DUAL, middle, ())]
    yield "two_triangles-dual", steps, _vertex_layer_on_1("two_triangles.gmap")
    steps = [("VI", VI, _nth(7 * k), (MIDPOINT,)) for k in range(10)]
    yield "square-vi", steps, parse_gmap(fixture_text("square.gmap"))
    steps = [
        ("VI", VI, lambda g: "sv0e0-1f0", (MIDPOINT,)),
        ("Erase", ERASE, lambda g: "v0e0-2f0", ()),
        ("Rename", RENAME, middle, (INHERIT,)),
    ]
    yield "two_components-erase", steps, _two_components()


def _block(case, step, rule_name, anchor, g):
    graph = g.graph
    lines = [f"{case} {step} {rule_name} {anchor}", f"next_link {graph._next_link}"]
    lines.append("nodes: " + " ".join(graph.nodes))
    lines.append("links: " + " ".join(f"{l.id} {l.dim}:{','.join(l.ends)}" for l in graph.links))
    lines.extend(f"{u}: " + " ".join(l.id for l in graph.incident_links(u)) for u in graph.nodes)
    return "\n".join(lines)


def _blocks():
    for case, steps, g in _chains():
        for step, (rule_name, rule, pick, directives) in enumerate(steps, 1):
            anchor = pick(g)
            inst = instantiate_rule(rule, g, anchor)
            g = apply_rule(inst, g, complete_match(inst, g), directives)
            yield _block(case, step, rule_name, anchor, g)


def _text():
    return "\n\n".join(_blocks()) + "\n"


def test_rewritten_graph_identity_is_pinned():
    assert _text() == fixture_text(GOLDEN)


if __name__ == "__main__":
    (FIXTURES / GOLDEN).write_text(_text(), encoding="utf-8", newline="\n")
