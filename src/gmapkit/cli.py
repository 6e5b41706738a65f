"""Command-line driver.

Exit codes: 0 on success, 1 on domain errors (validation failures print
the full report), 2 on usage or syntax errors.  Set ``GMAP_COLOR=0`` to
disable ANSI colors.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from .errors import DimensionError, GmapError, ParseError, PostValidationError
from .mesh import unify
from .orbits import OrbitType
from .gmap import Gmap
from .rewrite import apply_rule, complete_match, parse_directive
from .scheme import instantiate_rule
from .textio import (
    export_obj,
    import_off,
    parse_gmap,
    parse_rule_scheme,
    serialize_gmap,
)


def _say(text: str, code: str, file=None) -> None:
    """Print ``text`` to ``file`` (stdout when ``None``), in ANSI color
    ``code`` when that stream is a terminal and ``GMAP_COLOR`` is not 0."""
    file = file or sys.stdout
    if os.environ.get("GMAP_COLOR", "1") != "0" and file.isatty():
        text = f"\x1b[{code}m{text}\x1b[0m"
    print(text, file=file)


def _fail(exc: GmapError) -> int:
    _say(f"{exc.code} {exc}", "31", sys.stderr)
    if isinstance(exc, PostValidationError):
        for line in exc.report.lines():
            print(line, file=sys.stderr)
    return 2 if isinstance(exc, ParseError) else 1


def _read(path: str) -> str:
    # newline="": a lone \r stays a blank, as for parse_gmap, not a line break
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _load_gmap(path: str) -> Gmap:
    return parse_gmap(_read(path))


def _parse_dims(text: str) -> OrbitType:
    try:
        return OrbitType(tuple(int(p) for p in text.split(",") if p != ""))
    except ValueError:
        raise ParseError(f"cannot parse orbit type {text!r}") from None


def cmd_validate(args) -> int:
    report = _load_gmap(args.file).validate()
    if report.ok:
        _say("ok", "32")
        return 0
    for line in report.lines():
        _say(line, "31")
    return 1


def cmd_orbits(args) -> int:
    g = _load_gmap(args.file)
    o = _parse_dims(args.type)
    if o.dims and o.dims[-1] > g.n:
        raise DimensionError(f"orbit dimension {o.dims[-1]} out of range 0..{g.n}")
    print(" ".join(g.orbit_darts(o, args.dart)))
    return 0


def cmd_cells(args) -> int:
    g = _load_gmap(args.file)
    for cell in g.cells(args.dim):
        print(" ".join(cell))
    return 0


def cmd_unify(args) -> int:
    mesh = import_off(_read(args.file))
    _write(args.output, serialize_gmap(unify(mesh)))
    return 0


def cmd_instantiate(args) -> int:
    rule = parse_rule_scheme(_read(args.rule))
    g = _load_gmap(args.file)
    paths = args.output.split(",")
    if len(paths) != 2:
        raise ParseError("-o needs two comma-separated paths: left,right")
    inst = instantiate_rule(rule, g, args.dart)
    _write(paths[0], serialize_gmap(Gmap(inst.left)))
    _write(paths[1], serialize_gmap(Gmap(inst.right)))
    return 0


def cmd_apply(args) -> int:
    rule = parse_rule_scheme(_read(args.rule))
    g = _load_gmap(args.file)
    directives = [parse_directive(text) for text in args.ebd or ()]
    inst = instantiate_rule(rule, g, args.dart)
    match = complete_match(inst, g)
    result = apply_rule(inst, g, match, directives)
    _write(args.output, serialize_gmap(result))
    return 0


def cmd_export_obj(args) -> int:
    g = _load_gmap(args.file)
    _write(args.output, export_obj(g, args.pos))
    return 0


def cmd_info(args) -> int:
    g = _load_gmap(args.file)
    print(f"dimension: {g.n}")
    print(f"darts: {len(g.darts)}")
    print(f"links: {len(g.graph.links)}")
    for i in range(g.n + 1):
        print(f"cells[{i}]: {len(g.cells(i))}")
    for name in sorted(g.embeddings):
        layer = g.embeddings[name]
        dims = ",".join(str(d) for d in layer.domain)
        print(f"embedding: {name} ({layer.value_type} on <{dims}>)")
    print(f"valid: {'yes' if g.validate().ok else 'no'}")
    return 0


@cache  # one parser per process; it holds no state between parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmapkit",
        description="Topology-based modeling kernel: generalized maps and rule schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the topological and embedding constraints")
    p.add_argument("file")

    p = sub.add_parser("orbits", help="print the orbit of a dart")
    p.add_argument("file")
    p.add_argument("--type", required=True, help="orbit type, e.g. 0,2")
    p.add_argument("--dart", required=True)

    p = sub.add_parser("cells", help="print the i-cells, one per line")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)

    p = sub.add_parser("unify", help="rebuild the 2-Gmap of an OFF mesh")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("instantiate", help="unfold a rule scheme at a dart")
    p.add_argument("rule")
    p.add_argument("file")
    p.add_argument("--dart", required=True)
    p.add_argument("-o", "--output", required=True, help="left.gmap,right.gmap")

    p = sub.add_parser("apply", help="apply a rule scheme at a dart")
    p.add_argument("rule")
    p.add_argument("file")
    p.add_argument("--dart", required=True)
    p.add_argument("--ebd", action="append", help='directive, e.g. "pos:n1=midpoint(n0)"')
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("export-obj", help="write an OBJ file from a valid 2-Gmap")
    p.add_argument("file")
    p.add_argument("--pos", default="pos", help="name of the point3d vertex layer")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("info", help="print summary statistics")
    p.add_argument("file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the command's function is looked up when it runs, not held by the
        # parser, so a replaced cmd_* attribute is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except GmapError as exc:
        return _fail(exc)
    except OSError as exc:
        _say(f"E_IO {exc}", "31", sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
