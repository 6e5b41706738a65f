"""Instance order is part of the output contract: pin it exactly.

Link ids, the names of created darts and ``Gmap.darts`` after a rewrite
all follow the order in which ``instantiate_rule`` lays out its graphs.
``fixtures/instance_order.txt`` holds one block per (fixture map,
fixture rule, dart), blocks separated by a blank line.  A block is the
header ``map rule dart`` followed by the nodes and the ``dim:ends``
links, in order, of ``orbit_graph``, ``left`` and ``right``.  The darts
are the first, middle and last of each map in sorted order.

Regenerate with ``PYTHONPATH=src python tests/test_instance_order.py``,
and only when the order is meant to change.
"""

import pytest

from gmapkit import instantiate_rule, parse_gmap, parse_rule_scheme

from conftest import FIXTURES, fixture_text

GOLDEN = "instance_order.txt"
MAPS = sorted(p.name for p in FIXTURES.glob("*.gmap"))
RULES = sorted(p.name for p in FIXTURES.glob("*.jrule"))


def _darts(gmap_name):
    darts = sorted(parse_gmap(fixture_text(gmap_name)).darts)
    return sorted({darts[0], darts[len(darts) // 2], darts[-1]})


def _block(gmap_name, rule_name, dart):
    g = parse_gmap(fixture_text(gmap_name))
    rule = parse_rule_scheme(fixture_text(rule_name))
    inst = instantiate_rule(rule, g, dart)
    lines = [f"{gmap_name} {rule_name} {dart}"]
    for part in ("orbit_graph", "left", "right"):
        graph = getattr(inst, part)
        lines.append(f"{part} nodes: " + " ".join(graph.nodes))
        lines.append(f"{part} links: " + " ".join(f"{l.dim}:{','.join(l.ends)}" for l in graph.links))
    return lines


CASES = [(m, r, d) for m in MAPS for r in RULES for d in _darts(m)]


def _golden():
    blocks = {}
    for text in fixture_text(GOLDEN).split("\n\n"):
        lines = text.strip("\n").split("\n")
        blocks[tuple(lines[0].split())] = lines
    return blocks


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("gmap_name", MAPS)
def test_instance_order_is_pinned(gmap_name):
    golden = _golden()
    for m, r, d in CASES:
        if m == gmap_name:
            assert _block(m, r, d) == golden[m, r, d]


if __name__ == "__main__":
    text = "\n\n".join("\n".join(_block(*case)) for case in CASES) + "\n"
    (FIXTURES / GOLDEN).write_text(text, encoding="utf-8", newline="\n")
