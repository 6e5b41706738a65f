"""Output checker for the benchmark, independent of the program's own checks.

Nothing here calls ``Gmap.validate`` or ``gmapkit.oracle``.  Maps are read
either from ``.gmap`` text with the small reader below or from the raw
link list of an in-memory map, turned into one integer array per
involution, and checked directly: every dart has exactly one i-link per
dimension, each alpha_i is an involution, and alpha_i alpha_j alpha_i alpha_j
is the identity whenever |i - j| >= 2.
"""

from __future__ import annotations

from collections import Counter


class CheckFailure(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# raw maps


class RawMap:
    """Darts, ``(dim, ends)`` links and point3d layers of one generalized map."""

    def __init__(self, n, darts, links, layers=None):
        self.n = n
        self.darts = list(darts)
        self.links = [(dim, tuple(ends)) for dim, ends in links]
        # name -> (domain dims, value type, {dart: (x, y, z)})
        self.layers = layers or {}

    @classmethod
    def of_gmap(cls, g) -> "RawMap":
        """Raw copy of an in-memory ``Gmap``'s darts and links."""
        return cls(g.n, g.darts, [(l.dim, tuple(l.ends)) for l in g.graph.links])

    def link_multiset(self) -> list:
        return sorted((dim, tuple(sorted(ends))) for dim, ends in self.links)


def read_gmap(text: str) -> RawMap:
    """Read a canonical ``.gmap`` document whose layers are all point3d."""
    tokens = text.split()
    pos = 0

    def take(expected=None):
        nonlocal pos
        require(pos < len(tokens), "gmap text ends early")
        tok = tokens[pos]
        pos += 1
        if expected is not None:
            require(tok == expected, f"gmap text: expected {expected!r}, found {tok!r}")
        return tok

    take("dimension")
    n = int(take())
    take("darts")
    take("{")
    darts = []
    while tokens[pos] != "}":
        darts.append(take())
    take("}")
    take("links")
    take("{")
    links = []
    while tokens[pos] != "}":
        head = take()
        require(head.endswith(":"), f"gmap text: bad link head {head!r}")
        ends = []
        while not tokens[pos].endswith(":") and tokens[pos] != "}":
            ends.append(take())
        require(len(ends) in (1, 2), f"gmap text: link with {len(ends)} ends")
        links.append((int(head[:-1]), tuple(ends)))
    take("}")
    layers = {}
    if pos < len(tokens) and tokens[pos] == "embeddings":
        take()
        take("{")
        while tokens[pos] != "}":
            name = take()
            take("{")
            take("orbit:")
            dims = []
            while tokens[pos] != "type:":
                dims.append(int(take()))
            take("type:")
            value_type = take("point3d")
            take("values")
            take("{")
            values = {}
            while tokens[pos] != "}":
                dart = take()[:-1]
                values[dart] = (float(take()), float(take()), float(take()))
            take("}")
            take("}")
            layers[name] = (tuple(dims), value_type, values)
        take("}")
    require(pos == len(tokens), "gmap text has trailing tokens")
    return RawMap(n, darts, links, layers)


# ---------------------------------------------------------------------------
# involutions


class Alphas:
    """One integer array per dimension: ``alpha[i][d]`` is the i-neighbour of d."""

    def __init__(self, raw: RawMap):
        self.names = list(raw.darts)
        self.index = {d: k for k, d in enumerate(self.names)}
        require(len(self.index) == len(self.names), "duplicate dart names")
        size = len(self.names)
        self.n = raw.n
        self.alpha = [[-1] * size for _ in range(raw.n + 1)]
        for dim, ends in raw.links:
            require(0 <= dim <= raw.n, f"link dimension {dim} out of range")
            ids = [self.index[e] for e in ends]
            a, b = ids[0], ids[-1]
            row = self.alpha[dim]
            require(row[a] == -1 and row[b] == -1, f"dart has two {dim}-links: {ends}")
            row[a] = b
            row[b] = a
        for dim, row in enumerate(self.alpha):
            require(-1 not in row, f"some dart has no {dim}-link")

    def check(self) -> None:
        """alpha_i is an involution; alpha_i alpha_j alpha_i alpha_j = id for |i-j| >= 2."""
        alpha = self.alpha
        for row in alpha:
            require(all(row[row[d]] == d for d in range(len(row))), "alpha is not an involution")
        for i in range(self.n + 1):
            for j in range(i + 2, self.n + 1):
                ai, aj = alpha[i], alpha[j]
                for d in range(len(ai)):
                    require(aj[ai[aj[ai[d]]]] == d, f"alpha{i} alpha{j} cycle open at {self.names[d]}")

    def orbits(self, dims) -> list[list[int]]:
        """Orbits of the given dimensions, as lists of dart indices."""
        rows = [self.alpha[i] for i in dims]
        seen = [False] * len(self.names)
        out = []
        for start in range(len(self.names)):
            if seen[start]:
                continue
            seen[start] = True
            members = [start]
            stack = [start]
            while stack:
                d = stack.pop()
                for row in rows:
                    e = row[d]
                    if not seen[e]:
                        seen[e] = True
                        members.append(e)
                        stack.append(e)
            out.append(members)
        return out

    def cell_counts(self) -> tuple[int, int, int]:
        """(vertices, edges, faces) of a 2-map."""
        require(self.n == 2, "cell counts need a 2-map")
        return (len(self.orbits((1, 2))), len(self.orbits((0, 2))), len(self.orbits((0, 1))))


def checked_alphas(raw: RawMap) -> Alphas:
    alphas = Alphas(raw)
    alphas.check()
    return alphas


# ---------------------------------------------------------------------------
# per-workload checks


def check_obj(text: str, vertices: list, faces: int, corners: int) -> None:
    """OBJ text has exactly ``vertices`` (as a multiset), ``faces`` f-lines
    and ``corners`` face corners in total."""
    got_v = []
    got_f = 0
    got_corners = 0
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            got_v.append(tuple(float(p) for p in parts[1:]))
        elif parts and parts[0] == "f":
            got_f += 1
            got_corners += len(parts) - 1
            require(all(1 <= int(p) <= len(vertices) for p in parts[1:]), "f index out of range")
    require(len(got_v) == len(vertices), f"OBJ has {len(got_v)} vertices, expected {len(vertices)}")
    require(got_f == faces, f"OBJ has {got_f} faces, expected {faces}")
    require(got_corners == corners, f"OBJ has {got_corners} corners, expected {corners}")
    require(Counter(got_v) == Counter(tuple(v) for v in vertices), "OBJ vertex positions differ")


def segment(dim: int, a: str, b: str) -> str:
    """How a violation report writes a link: sorted ends around the dimension."""
    a, b = sorted((a, b))
    return f"{a}-{dim}-{b}"


def cycle_darts(line: str) -> tuple[set, set]:
    """Segments and darts named by one ``E_CYCLE`` line."""
    head, _, path = line.partition(" path: ")
    fields = dict(f.split("=", 1) for f in head.split()[1:])
    dims = (int(fields["i"]), int(fields["j"]))
    segments = path.split(" . ")
    darts = set()
    for k, seg in enumerate(segments):
        darts.update(seg.split(f"-{dims[k % 2]}-"))
    return set(segments), darts


def check_report(lines: list[str], expected) -> None:
    """A violation report of a broken map matches its planted defects.

    ``expected.lines`` are the exact ``E_INCIDENCE`` and ``E_EMBED`` lines;
    every re-sewn link in ``expected.resewn`` appears in some ``E_CYCLE``
    line, and every ``E_CYCLE`` line stays inside ``expected.cycle_region``.
    """
    plain = Counter(l for l in lines if not l.startswith("E_CYCLE"))
    require(plain == expected.lines, f"incidence/embedding lines differ: {sorted((plain - expected.lines) + (expected.lines - plain))[:4]}")
    seen_segments = set()
    for line in lines:
        if line.startswith("E_CYCLE"):
            segs, darts = cycle_darts(line)
            require(darts <= expected.cycle_region, f"E_CYCLE far from any re-sewn link: {line}")
            seen_segments |= segs
    missing = [s for s in expected.resewn if s not in seen_segments]
    require(not missing, f"re-sewn links without an E_CYCLE line: {missing[:4]}")
