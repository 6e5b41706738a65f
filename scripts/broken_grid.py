#!/usr/bin/env python3
"""Write a seeded broken grid map, as the benchmark's validate-broken makes them.

    python3 scripts/broken_grid.py K SEED OUT.gmap

The k×k grid mesh and its planted defects (missing, doubled and re-sewn
links, moved positions) come from ``perfbench/inputs.py``, which this
script imports and does not change; the same K and SEED give the same
document.  Run it from the root of a checkout with ``src`` importable.
"""

import random
import sys
from pathlib import Path

from gmapkit import import_off, serialize_gmap
from gmapkit.mesh import unify

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from check import Alphas, read_gmap
from inputs import break_map, grid_mesh


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 scripts/broken_grid.py K SEED OUT.gmap", file=sys.stderr)
        return 2
    k, seed, out = int(argv[0]), argv[1], argv[2]
    rng = random.Random(f"{seed}:inputs")
    raw = read_gmap(serialize_gmap(unify(import_off(grid_mesh(k, rng).off_text()))))
    text, _ = break_map(raw, Alphas(raw), rng)
    Path(out).write_text(text, encoding="utf-8", newline="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
