"""Golden validation reports of the benchmark's seeded broken grids.

``scripts/broken_grid.py`` writes the k×k grid with the defects that the
validate-broken workload plants (it imports ``perfbench/`` read-only);
``gmapkit validate`` must report on it byte for byte as recorded in
``tests/fixtures/broken_grid_reports.txt``.  Each section of that file is
a ``== k=K seed=S exit=E`` header followed by the command's stdout.

Regenerate the fixture (only when a report is meant to change) with::

    PYTHONPATH=src python3 tests/test_broken_grid_reports.py > tests/fixtures/broken_grid_reports.txt
"""

import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

from gmapkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "broken_grid_reports.txt"
CASES = [(20, seed) for seed in (1, 2, 3)]


def _broken_grid_main():
    # no bytecode is written next to the scripts or the benchmark sources
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    try:
        return runpy.run_path(str(ROOT / "scripts" / "broken_grid.py"))["main"]
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def render() -> str:
    """The golden file's text: one section per (k, seed) of ``CASES``."""
    write_grid = _broken_grid_main()
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, seed in CASES:
            path = str(Path(tmp) / f"grid_{k}_{seed}.gmap")
            assert write_grid([str(k), str(seed), path]) == 0
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["validate", path])
            out.append(f"== k={k} seed={seed} exit={code}\n{buf.getvalue()}")
    return "".join(out)


def test_broken_grid_reports_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(render())
