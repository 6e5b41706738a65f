"""Seeded inputs: grid meshes as OFF text and broken maps as .gmap text.

Everything here is the benchmark's own code and depends only on the
seed it is given.  The program under test sees the generated text only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from check import Alphas, RawMap, segment

VI_RULE = """\
rule VI <0,2> {
  left {
    n0: <0,2> hook
  }
  right {
    n0: <_,2>
    n1: <1,2>
    n0 -0- n1
  }
}
"""

DUAL_RULE = """\
rule Dual <0,1,2> {
  left {
    n0: <0,1,2> hook
  }
  right {
    n0: <2,1,0>
  }
}
"""

VI_DIRECTIVE = "pos:n1=midpoint(n0)"


@dataclass
class Mesh:
    vertices: list  # (x, y, z) floats
    faces: list  # vertex-index cycles

    def edge_uses(self) -> Counter:
        uses = Counter()
        for face in self.faces:
            for p, a in enumerate(face):
                b = face[(p + 1) % len(face)]
                uses[(min(a, b), max(a, b))] += 1
        return uses

    def corners(self) -> int:
        return sum(len(f) for f in self.faces)

    def off_text(self) -> str:
        lines = ["OFF", f"{len(self.vertices)} {len(self.faces)} 0"]
        lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in self.vertices)
        lines.extend(f"{len(f)} " + " ".join(str(i) for i in f) for f in self.faces)
        return "\n".join(lines) + "\n"


def grid_mesh(k: int, rng) -> Mesh:
    """A k x k grid of quads with jittered corners; a seeded quarter of the
    quads is split into two triangles along a seeded diagonal."""
    vertices = [
        (x + rng.uniform(-0.2, 0.2), y + rng.uniform(-0.2, 0.2), rng.uniform(0.0, 1.0))
        for y in range(k + 1)
        for x in range(k + 1)
    ]
    split = set(rng.sample(range(k * k), (k * k) // 4))
    faces = []
    for cell in range(k * k):
        y, x = divmod(cell, k)
        a = y * (k + 1) + x
        b, c, d = a + 1, a + k + 2, a + k + 1
        if cell not in split:
            faces.append((a, b, c, d))
        elif rng.random() < 0.5:
            faces.extend([(a, b, c), (a, c, d)])
        else:
            faces.extend([(a, b, d), (b, c, d)])
    return Mesh(vertices, faces)


def dart_name(vertex: int, edge: tuple, face: int) -> str:
    """The documented unify naming scheme ``v{i}e{j}-{k}f{m}``."""
    return f"v{vertex}e{min(edge)}-{max(edge)}f{face}"


# ---------------------------------------------------------------------------
# broken maps


@dataclass
class Expected:
    """What validating one broken map must report."""

    lines: Counter = field(default_factory=Counter)  # exact E_INCIDENCE / E_EMBED lines
    resewn: list = field(default_factory=list)  # segments that must show in E_CYCLE lines
    cycle_region: set = field(default_factory=set)  # darts E_CYCLE lines may name


# defects per dart of the host: about 1% of darts are touched in total
_DEFECT_RATES = (("resew", 1 / 1440), ("missing", 1 / 800), ("duplicate", 1 / 800), ("moved", 1 / 480))

# Defects sit on vertex orbits more than this many links apart, so no
# 4-link cycle path and no vertex orbit involves two of them and each
# defect's report lines can be predicted on its own.
_SEPARATION = 4


def _ball(alphas: Alphas, start: list, radius: int) -> set:
    seen = set(start)
    frontier = list(start)
    for _ in range(radius):
        nxt = []
        for d in frontier:
            for row in alphas.alpha:
                e = row[d]
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return seen


def _key(dim: int, ends) -> tuple:
    return (dim, tuple(sorted(set(ends))))


def _incidence(dart: str, dim: int, found: int) -> str:
    return f"E_INCIDENCE dart={dart} dim={dim} found={found}"


def break_map(raw: RawMap, alphas: Alphas, rng) -> tuple[str, Expected]:
    """Plant separated defects in a valid 2-map with a ``pos`` layer on <1,2>.

    Kinds: missing 2-links, duplicated links, re-sewn pairs of 2-links at
    one vertex (``E_CYCLE``) and moved positions (``E_EMBED``).  Returns
    the broken document and what its report must contain.
    """
    names = alphas.names
    a0, a1, a2 = alphas.alpha
    _, _, pos = raw.layers["pos"]
    pos = dict(pos)
    removed: Counter = Counter()
    added: list = []
    expected = Expected()

    orbits = alphas.orbits((1, 2))
    rng.shuffle(orbits)
    reserved: set = set()
    plan = [kind for kind, rate in _DEFECT_RATES for _ in range(max(1, round(len(names) * rate)))]
    cursor = 0
    for kind in plan:
        while True:
            if cursor == len(orbits):
                raise RuntimeError(f"no room left for a {kind} defect")
            orbit = orbits[cursor]
            cursor += 1
            if reserved.isdisjoint(orbit):
                pairs = sorted({(min(d, a2[d]), max(d, a2[d])) for d in orbit if a2[d] != d})
                if kind != "resew" or len(pairs) >= 2:
                    break
        ball = _ball(alphas, orbit, _SEPARATION)
        reserved |= ball
        if kind == "missing":
            a = rng.choice(orbit)
            b = a2[a]
            removed[_key(2, (names[a], names[b]))] += 1
            for d in {a, b}:
                expected.lines[_incidence(names[d], 2, 0)] += 1
        elif kind == "duplicate":
            dim = rng.randrange(3)
            a = rng.choice(orbit)
            b = (a0, a1, a2)[dim][a]
            added.append((dim, tuple(sorted({names[a], names[b]}))))
            for d in {a, b}:
                expected.lines[_incidence(names[d], dim, 2)] += 1
        elif kind == "resew":
            (a, b), (c, d) = rng.sample(pairs, 2)
            for x, y in ((a, b), (c, d)):
                removed[_key(2, (names[x], names[y]))] += 1
            for x, y in ((a, c), (b, d)):
                added.append((2, (names[x], names[y])))
                expected.resewn.append(segment(2, names[x], names[y]))
            expected.cycle_region |= {names[e] for e in ball}
        else:  # moved
            x = rng.choice(orbit)
            px, py, pz = pos[names[x]]
            pos[names[x]] = (px, py, pz + 1.5)
            members = sorted(names[d] for d in orbit)
            mismatched = members[1:] if names[x] == members[0] else [names[x]]
            expected.lines[
                f"E_EMBED layer=pos orbit={{{','.join(members)}}} darts={','.join(mismatched)}"
            ] += 1

    links = []
    for dim, ends in raw.links:
        key = _key(dim, ends)
        if removed[key]:
            removed[key] -= 1
            continue
        links.append((dim, ends))
    links.extend(added)
    lines = ["dimension 2", "darts {"]
    lines.extend(f"  {d}" for d in raw.darts)
    lines.append("}")
    lines.append("links {")
    lines.extend(f"  {dim}: {' '.join(ends)}" for dim, ends in links)
    lines.extend(["}", "embeddings {", "  pos {", "    orbit: 1 2", "    type: point3d", "    values {"])
    lines.extend(f"      {d}: {x!r} {y!r} {z!r}" for d, (x, y, z) in pos.items())
    lines.extend(["    }", "  }", "}"])
    return "\n".join(lines) + "\n", expected
