"""Validation reports of the benchmark's seeded broken grids.

``scripts/broken_grid.py`` writes the k×k grid with the defects that the
validate-broken workload plants (it imports ``perfbench/`` read-only);
``gmapkit validate`` must report on it byte for byte as the
``$ gmapkit validate broken_grid_K_S.gmap`` blocks of
``tests/fixtures/cli_transcript.txt`` record.  Regenerate that file (only
when a report is meant to change) with ``scripts/cli_transcript.py``.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

from gmapkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "cli_transcript.txt"
CASES = [(20, seed) for seed in (1, 2, 3)]


def _broken_grid_main():
    # no bytecode is written next to the scripts or the benchmark sources
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    try:
        return runpy.run_path(str(ROOT / "scripts" / "broken_grid.py"))["main"]
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def _block(name: str) -> str:
    """The transcript block of ``validate NAME``, without its command line."""
    for block in GOLDEN.read_text(encoding="utf-8").split("\n\n"):
        command, _, rest = block.partition("\n")
        if command == f"$ gmapkit validate {name}":
            return rest.rstrip("\n")
    raise AssertionError(f"no validate {name} block in the transcript")


def test_broken_grid_reports_match_golden(tmp_path):
    write_grid = _broken_grid_main()
    for k, seed in CASES:
        name = f"broken_grid_{k}_{seed}.gmap"
        assert write_grid([str(k), str(seed), str(tmp_path / name)]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["validate", str(tmp_path / name)])
        lines = [f"exit {code}"] + [f"out| {line}" for line in buf.getvalue().splitlines()]
        assert "\n".join(lines) == _block(name)
