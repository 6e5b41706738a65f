"""Command-line driver.

Exit codes: 0 on success, 1 on domain errors (validation failures print
the full report), 2 on usage or syntax errors.  Set ``GMAP_COLOR=0`` to
disable ANSI colors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import GmapError, ParseError, PostValidationError
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


def _color_enabled() -> bool:
    return os.environ.get("GMAP_COLOR", "1") != "0" and sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _fail(exc: GmapError) -> int:
    print(_paint(f"{exc.code} {exc}", "31"), file=sys.stderr)
    if isinstance(exc, PostValidationError):
        for line in exc.report.lines():
            print(line, file=sys.stderr)
    return 2 if isinstance(exc, ParseError) else 1


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


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
        print(_paint("ok", "32"))
        return 0
    for line in report.lines():
        print(_paint(line, "31"))
    return 1


def cmd_orbits(args) -> int:
    g = _load_gmap(args.file)
    print(" ".join(g.orbit_darts(_parse_dims(args.type), args.dart)))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmapkit",
        description="Topology-based modeling kernel: generalized maps and rule schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the topological and embedding constraints")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("orbits", help="print the orbit of a dart")
    p.add_argument("file")
    p.add_argument("--type", required=True, help="orbit type, e.g. 0,2")
    p.add_argument("--dart", required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("cells", help="print the i-cells, one per line")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("unify", help="rebuild the 2-Gmap of an OFF mesh")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_unify)

    p = sub.add_parser("instantiate", help="unfold a rule scheme at a dart")
    p.add_argument("rule")
    p.add_argument("file")
    p.add_argument("--dart", required=True)
    p.add_argument("-o", "--output", required=True, help="left.gmap,right.gmap")
    p.set_defaults(func=cmd_instantiate)

    p = sub.add_parser("apply", help="apply a rule scheme at a dart")
    p.add_argument("rule")
    p.add_argument("file")
    p.add_argument("--dart", required=True)
    p.add_argument("--ebd", action="append", help='directive, e.g. "pos:n1=midpoint(n0)"')
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("export-obj", help="write an OBJ file from a valid 2-Gmap")
    p.add_argument("file")
    p.add_argument("--pos", default="pos", help="name of the point3d vertex layer")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export_obj)

    p = sub.add_parser("info", help="print summary statistics")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GmapError as exc:
        return _fail(exc)
    except (OSError, UnicodeDecodeError) as exc:
        print(_paint(f"E_IO {exc}", "31"), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
