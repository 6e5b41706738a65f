#!/usr/bin/env python3
"""Write the CLI transcript: a fixed list of gmapkit commands and what each did.

    python3 scripts/cli_transcript.py

Run it from the root of a checkout with ``src`` importable.  It runs every
command in-process through ``gmapkit.cli.main``, in a temporary directory
that holds copies of the fixtures and the inputs it generates, and writes
``tests/fixtures/cli_transcript.txt``.  That file is the output contract:
``tests/test_cli_transcript.py`` compares it with a fresh rendering, and an
intended change of an output is a reviewed diff of it.

The file starts with every input file, as its name, line count and
sha256.  Then each command is one block: ``$ gmapkit ARGV``, ``exit N``,
one ``out|`` line per stdout line and one ``err|`` line per stderr line,
and one ``wrote`` line per file the command wrote (name, line count and
sha256).  An exception that escapes ``main`` is one ``exception`` line.
Every argv names files relatively, so the text does not depend on where
it ran.  Nothing here reads the time, the environment or the hash seed.
"""

import contextlib
import hashlib
import io
import os
import random
import runpy
import shlex
import sys
import tempfile
from pathlib import Path

from gmapkit import parse_gmap
from gmapkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = FIXTURES / "cli_transcript.txt"

# the --ebd set each fixture rule is applied with; a map without the layer
# reports an E_EMBED line, which the transcript pins too
EBD = {
    "broken_double_zero.jrule": ["pos:n1=midpoint(n0)"],
    "identity_edge.jrule": [],
    "vertex_insert_02.jrule": ["pos:n1=midpoint(n0)"],
    "vertex_insert_2.jrule": ["pos:n1=midpoint(n0)", "pos:n2=midpoint(n0)"],
}

# a whole-map rewrite
DUAL = "rule Dual <0,1,2> {\n  left { n0: <0,1,2> hook }\n  right { n0: <2,1,0> }\n}\n"
# a right side with a 3-link on a 2-map: the error comes before the match
RIGHT_DIM = (
    "rule V <0> { left { n0: <0> hook  n1: <0>  n0 -2- n1 }\n"
    "  right { n0: <0>  n1: <3>  n0 -2- n1 } }\n"
)
# rules that delete darts: a whole component, and an edge whose darts keep
# 1-links outside the match, which the dangling condition refuses
ERASE = "rule Erase <0,1,2> {\n  left { n0: <0,1,2> hook }\n  right { }\n}\n"
ERASE_EDGE = "rule EraseEdge <0,2> {\n  left { n0: <0,2> hook }\n  right { }\n}\n"
VI2 = "vertex_insert_2.jrule"
SQUARE_DART = "v0e0-1f0"


def _broken_grid():
    """``scripts/broken_grid.py``'s globals: its ``main`` and the benchmark's
    ``grid_mesh``, which it imports from ``perfbench/`` without changing it."""
    # no bytecode is written next to the scripts or the benchmark sources
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    try:
        return runpy.run_path(str(ROOT / "scripts" / "broken_grid.py"))
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def _write_inputs(tmp: Path) -> None:
    """Copy the fixtures and write the generated inputs into ``tmp``."""
    for path in sorted(FIXTURES.glob("*")):
        if path.suffix in (".gmap", ".off", ".jrule"):
            (tmp / path.name).write_bytes(path.read_bytes())
    write = lambda name, text: (tmp / name).write_bytes(text.encode())
    square = (FIXTURES / "square.gmap").read_text(encoding="utf-8")
    grid = _broken_grid()
    # the benchmark's planted defects: on 3.6k darts the sets of suspect
    # darts are not tiny, and on 14.4k darts some 21.8k links fill the α arrays
    for k, seed in ((20, 1), (20, 2), (20, 3), (40, 1)):
        assert grid["main"]([str(k), str(seed), str(tmp / f"broken_grid_{k}_{seed}.gmap")]) == 0
    # placing an error after 14.4k darts lexes the whole document once
    trailing = (tmp / "broken_grid_40_1.gmap").read_text(encoding="utf-8") + "x\n"
    write("trailing_x.gmap", trailing)
    # the benchmark's grid as OFF, unified and rewritten by the identity rule below
    write("grid_40.off", grid["grid_mesh"](40, random.Random(1)).off_text())
    write("dual.jrule", DUAL)
    write("right_dim.jrule", RIGHT_DIM)
    write("erase.jrule", ERASE)
    write("erase_edge.jrule", ERASE_EDGE)
    # Dual keeps a vertex layer only on <1>
    for name in ("square", "two_triangles"):
        text = (FIXTURES / f"{name}.gmap").read_text(encoding="utf-8")
        write(f"{name}_corners.gmap", text.replace("\n    orbit: 1 2\n", "\n    orbit: 1\n"))
    # a layer name with '@' and '#', which --ebd reads as the .gmap format does
    write("square_at_hash.gmap", square.replace("\n  pos {\n", "\n  l@1#2 {\n"))
    # a comment line, the map on one tab-separated line, CRLF line ends and
    # a last comment with no line end
    write("square_crlf_tabs.gmap", "# a square\r\n" + square.replace("\n", "\t") + "\r\n# end")
    # a declared dimension far past the darts: one line per missing (dart, dim)
    write("dim5_one_dart.gmap", "dimension 5 darts { a } links { }\n")
    write("dim5_empty.gmap", "dimension 5 darts { } links { }\n")


def _darts(g) -> list[str]:
    """The first, middle and last dart of a map in sorted order."""
    darts = sorted(g.darts)
    return sorted({darts[0], darts[len(darts) // 2], darts[-1]})


def _commands(tmp: Path):
    """Every argv, in order.  A generator, so that a later argv can read
    a file that an earlier command wrote."""
    maps = sorted(FIXTURES.glob("*.gmap"))
    rules = sorted(FIXTURES.glob("*.jrule"))
    for m in maps:
        yield ["validate", m.name]
        yield ["info", m.name]
        for i in range(parse_gmap(m.read_text(encoding="utf-8")).n + 1):
            yield ["cells", m.name, "--dim", str(i)]
        yield ["export-obj", m.name, "-o", f"{m.stem}.obj"]
    for off in sorted(FIXTURES.glob("*.off")):
        yield ["unify", off.name, "-o", f"{off.stem}_unified.gmap"]
    for m in maps:
        darts = _darts(parse_gmap(m.read_text(encoding="utf-8")))
        for r in rules:
            ebd = [arg for text in EBD[r.name] for arg in ("--ebd", text)]
            for d in darts:
                out = f"{r.stem}_{m.stem}_{d}"
                yield ["instantiate", r.name, m.name, "--dart", d, "-o", f"{out}_left.gmap,{out}_right.gmap"]
                yield ["apply", r.name, m.name, "--dart", d, *ebd, "-o", f"{out}_applied.gmap"]

    for k, seed in ((20, 1), (20, 2), (20, 3), (40, 1)):
        yield ["validate", f"broken_grid_{k}_{seed}.gmap"]
    for m in ("square", "two_triangles"):
        out = f"dual_{m}_corners"
        yield ["apply", "dual.jrule", f"{m}_corners.gmap", "--dart", SQUARE_DART, "-o", f"{out}.gmap"]
        yield ["instantiate", "dual.jrule", f"{m}_corners.gmap", "--dart", SQUARE_DART, "-o", f"{out}_left.gmap,{out}_right.gmap"]
    yield ["apply", "right_dim.jrule", "square.gmap", "--dart", SQUARE_DART, "-o", "right_dim_square.gmap"]
    first = min(parse_gmap((tmp / "square_colored.gmap").read_text(encoding="utf-8")).darts)
    yield ["apply", "erase.jrule", "square_colored.gmap", "--dart", first, "-o", "erase_square_colored.gmap"]
    yield ["apply", "erase_edge.jrule", "square.gmap", "--dart", SQUARE_DART, "-o", "erase_edge_square.gmap"]
    # the other two directive kinds; inherit copies n0's value, which differs around the vertex
    for kind, arg in (("constant", "0.5,0.5,0"), ("inherit", "n0")):
        ebd, out = f"pos:n1={kind}({arg})", f"vertex_insert_02_square_{kind}.gmap"
        yield ["apply", "vertex_insert_02.jrule", "square.gmap", "--dart", SQUARE_DART, "--ebd", ebd, "-o", out]
    ebd = ["--ebd", "l@1#2:n1=midpoint(n0)", "--ebd", "l@1#2:n2=midpoint(n0)"]
    yield ["apply", VI2, "square_at_hash.gmap", "--dart", SQUARE_DART, *ebd, "-o", "square_at_hash_applied.gmap"]
    yield ["validate", "square_at_hash_applied.gmap"]
    yield ["apply", VI2, "broken_three_faces.gmap", "--dart", "a1", "-o", "broken_three_faces_a1.gmap"]
    yield ["orbits", "square.gmap", "--type", "0,2", "--dart", SQUARE_DART]
    yield ["orbits", "square.gmap", "--type", "0,9", "--dart", SQUARE_DART]
    yield ["orbits", "square.gmap", "--type", "0,x", "--dart", SQUARE_DART]
    yield ["orbits", "square.gmap", "--type", "2,0", "--dart", SQUARE_DART]

    yield ["validate", "square_crlf_tabs.gmap"]
    yield ["validate", "trailing_x.gmap"]
    yield ["unify", "grid_40.off", "-o", "grid_40.gmap"]
    yield ["validate", "grid_40.gmap"]
    # the identity rule at the document's first dart writes the input again
    first = (tmp / "grid_40.gmap").read_text(encoding="utf-8").split("\n")[2].strip()
    yield ["apply", "identity_edge.jrule", "grid_40.gmap", "--dart", first, "-o", "grid_40_identity.gmap"]

    yield ["validate", "dim5_one_dart.gmap"]
    yield ["info", "dim5_empty.gmap"]


def _file_line(tag: str, path: Path) -> str:
    data = path.read_bytes()
    lines = data.count(b"\n")
    return f"{tag} {path.name} {lines} lines {hashlib.sha256(data).hexdigest()}"


def _stream_lines(prefix: str, text: str) -> list[str]:
    *lines, last = text.split("\n")
    tail = [f"{prefix} {last}", f"{prefix} \\ no newline at end"] if last else []
    return [f"{prefix} {line}" for line in lines] + tail


def _run(argv: list[str], tmp: Path) -> list[str]:
    """One block: the command, its exit code, its output and its files."""
    outputs = []
    if "-o" in argv:
        outputs = [tmp / name for name in argv[argv.index("-o") + 1].split(",")]
        assert not any(p.exists() for p in outputs), f"output name used twice: {argv}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = f"exit {main(argv)}"
        except Exception as exc:
            code = f"exception {type(exc).__name__}: {exc}"
    block = [f"$ gmapkit {shlex.join(argv)}", code]
    block += _stream_lines("out|", out.getvalue()) + _stream_lines("err|", err.getvalue())
    return block + [_file_line("wrote", p) for p in outputs if p.exists()]


def render() -> str:
    """The transcript's text."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _write_inputs(tmp)
        lines = [
            "# gmapkit CLI transcript; regenerate with: python3 scripts/cli_transcript.py",
            "# inputs: name, line count, sha256",
        ]
        lines += [_file_line("input", p) for p in sorted(tmp.iterdir())]
        os.chdir(tmp)
        try:
            for argv in _commands(tmp):
                lines += [""] + _run(argv, tmp)
        finally:
            os.chdir(cwd)
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8", newline="\n")
