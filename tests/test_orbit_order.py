"""Orbit order is part of the output contract: pin it exactly.

``fixtures/orbit_order.txt`` holds one block of three lines per
(fixture, orbit type, dart): the header, the exact stdout line of
``gmapkit orbits`` (BFS discovery order, dimensions ascending at each
dart), and the ``dim:sorted,ends`` link order of ``Gmap.orbit``.  It
covers every dart of ``square.gmap`` and ``two_triangles.gmap`` for the
types ``0,1``, ``0,2`` and ``1,2``.
"""

import pytest

from gmapkit import OrbitType, parse_gmap
from gmapkit.cli import main

from conftest import FIXTURES, fixture_text


def _golden():
    lines = fixture_text("orbit_order.txt").splitlines()
    assert len(lines) % 3 == 0
    blocks = {}
    for k in range(0, len(lines), 3):
        fixture, dims, dart = lines[k].split()
        blocks[(fixture, dims, dart)] = (lines[k + 1], lines[k + 2])
    return blocks


GOLDEN = _golden()


def test_golden_covers_every_dart_and_type():
    for fixture in ("square.gmap", "two_triangles.gmap"):
        darts = parse_gmap(fixture_text(fixture)).darts
        for dims in ("0,1", "0,2", "1,2"):
            assert {d for f, t, d in GOLDEN if (f, t) == (fixture, dims)} == set(darts)


CASES = sorted({(f, t) for f, t, _ in GOLDEN})


@pytest.mark.parametrize("fixture,dims", CASES)
def test_orbits_command_output_is_pinned(fixture, dims, capsys, monkeypatch):
    monkeypatch.setenv("GMAP_COLOR", "0")
    for f, t, dart in sorted(GOLDEN):
        if (f, t) != (fixture, dims):
            continue
        assert main(["orbits", str(FIXTURES / fixture), "--type", dims, "--dart", dart]) == 0
        assert capsys.readouterr().out == GOLDEN[f, t, dart][0] + "\n"


@pytest.mark.parametrize("fixture,dims", CASES)
def test_orbit_graph_link_order_is_pinned(fixture, dims):
    g = parse_gmap(fixture_text(fixture))
    o = OrbitType(tuple(int(p) for p in dims.split(",")))
    for f, t, dart in sorted(GOLDEN):
        if (f, t) != (fixture, dims):
            continue
        orbit = g.orbit(o, dart)
        assert " ".join(orbit.nodes) == GOLDEN[f, t, dart][0]
        links = " ".join(f"{l.dim}:{','.join(l.ends)}" for l in orbit.links)
        assert links == GOLDEN[f, t, dart][1]
