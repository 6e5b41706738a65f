"""CLI contract: exit codes, stable error lines, file outputs."""

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gmapkit
from gmapkit import ParseError, parse_gmap
from gmapkit.cli import main

from conftest import FIXTURES, RIGHT_DIM_RULES, fixture_text
from reference_parse import reference_parse_gmap


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in (
        "square.gmap",
        "square.off",
        "square_colored.gmap",
        "broken_incidence.gmap",
        "broken_cycle.gmap",
        "vertex_insert_02.jrule",
        "broken_double_zero.jrule",
    ):
        shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GMAP_COLOR", "0")
    return tmp_path


def test_validate_ok(workdir, capsys):
    assert main(["validate", "square.gmap"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_incidence(workdir, capsys):
    assert main(["validate", "broken_incidence.gmap"]) == 1
    out = capsys.readouterr().out
    assert "E_INCIDENCE" in out
    assert "dart=a dim=1" in out


def test_validate_reports_cycle(workdir, capsys):
    assert main(["validate", "broken_cycle.gmap"]) == 1
    assert "E_CYCLE" in capsys.readouterr().out


def test_validate_is_idempotent(workdir, capsys):
    main(["validate", "broken_cycle.gmap"])
    first = capsys.readouterr().out
    main(["validate", "broken_cycle.gmap"])
    second = capsys.readouterr().out
    assert first == second


def test_validate_empty_map_of_huge_dimension(workdir, capsys):
    (workdir / "big.gmap").write_text("dimension 1000000\ndarts {\n}\nlinks {\n}\n")
    assert main(["validate", "big.gmap"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_cells_prints_one_cell_per_line(workdir, capsys):
    assert main(["cells", "square.gmap", "--dim", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert all(len(line.split()) == 2 for line in lines)


def test_orbits_prints_reachable_darts(workdir, capsys):
    assert main(["orbits", "square.gmap", "--type", "0,1", "--dart", "v0e0-1f0"]) == 0
    darts = capsys.readouterr().out.split()
    assert len(darts) == 8
    assert darts[0] == "v0e0-1f0"


def test_orbits_with_a_dimension_past_the_map_is_a_domain_error(workdir, capsys):
    assert main(["orbits", "square.gmap", "--type", "0,9", "--dart", "v0e0-1f0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "E_DOMAIN orbit dimension 9 out of range 0..2\n"


def test_unify_writes_canonical_document(workdir, capsys):
    assert main(["unify", "square.off", "-o", "out.gmap"]) == 0
    assert (workdir / "out.gmap").read_text() == fixture_text("square.gmap")


def test_instantiate_writes_both_sides(workdir):
    rc = main(
        [
            "instantiate",
            "vertex_insert_02.jrule",
            "square.gmap",
            "--dart",
            "v0e0-1f0",
            "-o",
            "left.gmap,right.gmap",
        ]
    )
    assert rc == 0
    from gmapkit import parse_gmap

    left = parse_gmap((workdir / "left.gmap").read_text())
    right = parse_gmap((workdir / "right.gmap").read_text())
    assert len(left.darts) == 2
    assert len(right.darts) == 4


def test_apply_end_to_end(workdir, capsys):
    rc = main(
        [
            "apply",
            "vertex_insert_02.jrule",
            "square.gmap",
            "--dart",
            "v0e0-1f0",
            "--ebd",
            "pos:n1=midpoint(n0)",
            "-o",
            "out.gmap",
        ]
    )
    assert rc == 0
    from gmapkit import parse_gmap

    out = parse_gmap((workdir / "out.gmap").read_text())
    assert len(out.darts) == 10
    # applying then validating always succeeds: apply already post-validates
    assert main(["validate", "out.gmap"]) == 0


def test_apply_writes_a_layer_name_the_gmap_identifier_reads(workdir, capsys):
    shutil.copy(FIXTURES / "vertex_insert_2.jrule", workdir)
    text = (workdir / "square.gmap").read_text().replace("  pos {", "  my-pos {")
    (workdir / "it.gmap").write_text(text)
    assert main(["validate", "it.gmap"]) == 0
    ebd = ["--ebd", "my-pos:n1=midpoint(n0)", "--ebd", "my-pos:n2=midpoint(n0)"]
    argv = ["apply", "vertex_insert_2.jrule", "it.gmap", "--dart", "v0e0-1f0"]
    assert main(argv + ebd + ["-o", "out.gmap"]) == 0
    assert capsys.readouterr().err == ""
    out = parse_gmap((workdir / "out.gmap").read_text())
    assert list(out.embeddings) == ["my-pos"]
    assert main(["validate", "out.gmap"]) == 0


def test_apply_reads_a_layer_name_with_at_and_hash(workdir, capsys):
    # --ebd reads a layer as a .gmap name, so '@' and '#' are part of it
    shutil.copy(FIXTURES / "vertex_insert_2.jrule", workdir)
    rename = lambda text: text.replace("  pos {", "  l@1#2 {")
    (workdir / "it.gmap").write_text(rename((workdir / "square.gmap").read_text()))
    for layer, host, out in (("pos", "square.gmap", "pos.gmap"), ("l@1#2", "it.gmap", "it-out.gmap")):
        ebd = ["--ebd", f"{layer}:n1=midpoint(n0)", "--ebd", f"{layer}:n2=midpoint(n0)"]
        argv = ["apply", "vertex_insert_2.jrule", host, "--dart", "v0e0-1f0", "-o", out]
        assert main(argv + ebd) == 0
        assert capsys.readouterr().err == ""
    assert main(["validate", "it-out.gmap"]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert (workdir / "it-out.gmap").read_text() == rename((workdir / "pos.gmap").read_text())


def test_apply_broken_scheme_reports_postvalidation(workdir, capsys):
    rc = main(
        [
            "apply",
            "broken_double_zero.jrule",
            "square.gmap",
            "--dart",
            "v0e0-1f0",
            "--ebd",
            "pos:n1=midpoint(n0)",
            "-o",
            "out.gmap",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "E_POSTVALID" in err
    assert "E_INCIDENCE" in err
    assert not (workdir / "out.gmap").exists()


def test_apply_on_a_broken_host_is_one_match_line(workdir, capsys):
    for name in ("vertex_insert_2.jrule", "broken_three_faces.gmap"):
        shutil.copy(FIXTURES / name, workdir / name)
    argv = ["apply", "vertex_insert_2.jrule", "broken_three_faces.gmap", "--dart", "a1"]
    assert main(argv + ["-o", "out.gmap"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "E_MATCH host is not well-formed at dart 'a1', dim 2: "
        "dart 'a1' has 2 links of dimension 2, expected 1\n"
    )
    assert not (workdir / "out.gmap").exists()


def test_export_obj(workdir):
    assert main(["export-obj", "square.gmap", "--pos", "pos", "-o", "out.obj"]) == 0
    text = (workdir / "out.obj").read_text()
    assert text.count("v ") == 4
    assert text.count("f ") == 1


def _one_error_line(capsys, argv, code, line):
    """``main(argv)`` exits with ``code``, prints nothing to stdout and
    exactly ``line`` to stderr."""
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == line + "\n"


@pytest.mark.parametrize("name", sorted(RIGHT_DIM_RULES))
def test_a_right_side_dim_above_the_map_is_one_domain_line(workdir, capsys, name):
    text, dim = RIGHT_DIM_RULES[name]
    (workdir / "it.jrule").write_text(text + "\n")
    argv = ["apply", "it.jrule", "square.gmap", "--dart", "v0e0-1f0", "-o", "out.gmap"]
    _one_error_line(capsys, argv, 1, f"E_DOMAIN dimension {dim} out of range 0..2")
    assert not (workdir / "out.gmap").exists()


VI2 = ["apply", "vertex_insert_2.jrule", "square.gmap", "--dart", "v0e0-1f0", "-o", "out.gmap"]

EBD_ERRORS = {
    "garbage": ("garbage", "cannot parse embedding directive 'garbage'"),
    "inherit_without_reference": (
        "pos:n1=inherit()",
        "directive inherit needs a reference node in 'pos:n1=inherit()'",
    ),
    "inherit_of_an_unmatched_node": (
        "pos:n1=inherit(zz)",
        "inherit(zz) for layer 'pos': 'v0e0-1f0@zz' is not matched",
    ),
    "midpoint_of_an_unmatched_node": (
        "pos:n1=midpoint(zz)",
        "midpoint(zz) for layer 'pos': 'v0e0-1f0@zz' is not matched",
    ),
    # a node is a scheme name, so a non-ASCII one does not parse
    "node_outside_the_scheme_names": (
        "pos:n\u00f6=constant(1,2,3)",
        "cannot parse embedding directive 'pos:n\u00f6=constant(1,2,3)'",
    ),
}


@pytest.mark.parametrize("name", sorted(EBD_ERRORS))
def test_directive_error_is_one_line(workdir, capsys, name):
    shutil.copy(FIXTURES / "vertex_insert_2.jrule", workdir)
    directive, message = EBD_ERRORS[name]
    _one_error_line(capsys, VI2 + ["--ebd", directive], 1, f"E_EMBED {message}")
    assert not (workdir / "out.gmap").exists()


def test_midpoint_of_colors_is_one_line(workdir, capsys):
    shutil.copy(FIXTURES / "vertex_insert_2.jrule", workdir)
    argv = ["apply", "vertex_insert_2.jrule", "square_colored.gmap", "--dart", "v0e0-1f0", "-o", "out.gmap"]
    ebd = ["--ebd", "pos:n1=midpoint(n0)", "--ebd", "col:n1=midpoint(n0)"]
    _one_error_line(capsys, argv + ebd, 1, "E_EMBED midpoint is not defined for color_rgb values")


OFF_ERRORS = {
    "no_counts": ("OFF\n", "missing OFF counts line (line 1, column 1)"),
    "two_coordinates": ("OFF\n1 0 0\n1 2\n", "vertex line must have three coordinates (line 3, column 1)"),
    "bad_coordinate": ("OFF\n1 0 0\n1 x 2\n", "bad vertex coordinates '1 x 2' (line 3, column 1)"),
    "wrong_vertex_count": (
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n",
        "face line must start with its vertex count (line 6, column 1)",
    ),
}


@pytest.mark.parametrize("name", sorted(OFF_ERRORS))
def test_off_error_is_one_line(workdir, capsys, name):
    text, message = OFF_ERRORS[name]
    (workdir / "bad.off").write_text(text)
    _one_error_line(capsys, ["unify", "bad.off", "-o", "out.gmap"], 2, f"E_SYNTAX {message}")
    assert not (workdir / "out.gmap").exists()


# both valid: a two-cornered face, and a face of three corners whose walk
# ends at a 1-loop
DIGON = (
    "dimension 2 darts { a b c d } links { 0: a b 0: c d 1: a d 1: b c 2: a 2: b 2: c 2: d }"
    " embeddings { pos { orbit: 1 2 type: point3d values {"
    " a: 0 0 0 b: 1 0 0 c: 1 0 0 d: 0 0 0 } } }"
)
OPEN_FACE = (
    "dimension 2 darts { d0 d1 d2 d3 d4 d5 }"
    " links { 0: d0 d1 0: d2 d3 0: d4 d5 1: d0 1: d1 d2 1: d3 d4 1: d5"
    " 2: d0 2: d1 2: d2 2: d3 2: d4 2: d5 }"
    " embeddings { pos { orbit: 1 2 type: point3d values {"
    " d0: 0 0 0 d1: 1 0 0 d2: 1 0 0 d3: 1 1 0 d4: 1 1 0 d5: 0 1 0 } } }"
)
OBJ_ERRORS = {
    "one_dimensional": (None, "OBJ export needs a 2-Gmap, got dimension 1"),
    "digon": (DIGON, "face cell of 'a' has 2 corners, need >= 3"),
    "open_face": (OPEN_FACE, "face walk from 'd0' did not close"),
}


@pytest.mark.parametrize("name", sorted(OBJ_ERRORS))
def test_export_obj_error_is_one_line(workdir, capsys, name):
    text, message = OBJ_ERRORS[name]
    source = FIXTURES / "segment_1d.gmap"
    (workdir / "it.gmap").write_text(source.read_text() if text is None else text)
    assert main(["validate", "it.gmap"]) == 0
    capsys.readouterr()
    _one_error_line(capsys, ["export-obj", "it.gmap", "-o", "out.obj"], 1, f"E_DOMAIN {message}")
    assert not (workdir / "out.obj").exists()


def test_layer_domain_past_the_dimension_is_one_line(workdir, capsys):
    text = (workdir / "square.gmap").read_text().replace("orbit: 1 2\n", "orbit: 1 5\n")
    (workdir / "it.gmap").write_text(text)
    line = "E_DOMAIN layer 'pos' domain <1,5> exceeds dimension 2"
    _one_error_line(capsys, ["validate", "it.gmap"], 1, line)


@pytest.mark.parametrize("old, new", [("type: color_rgb", "type color_rgb"), ("values {", "vals {")])
def test_bad_layer_header_is_the_reference_parsers_error(workdir, capsys, old, new):
    text = (workdir / "square_colored.gmap").read_text().replace(old, new, 1)
    (workdir / "it.gmap").write_text(text)
    with pytest.raises(ParseError) as exc:
        reference_parse_gmap(text)
    _one_error_line(capsys, ["validate", "it.gmap"], 2, f"E_SYNTAX {exc.value}")


def test_info(workdir, capsys):
    assert main(["info", "square.gmap"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 2" in out
    assert "darts: 8" in out
    assert "cells[0]: 4" in out
    assert "valid: yes" in out


def test_usage_error_exits_2(workdir, capsys):
    # a usage error is argparse's own output, not an E_* line
    for argv in (
        [],
        ["frobnicate"],
        ["validate", "square.gmap", "--frobnicate"],
        ["orbits", "square.gmap", "--type", "0,1"],  # no --dart
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: gmapkit"), err
        assert not any(line.startswith("E_") for line in err), err


def test_unknown_dart_is_a_domain_error(workdir, capsys):
    assert main(["orbits", "square.gmap", "--type", "0,1", "--dart", "zz"]) == 1


def test_instantiate_needs_two_output_paths(workdir, capsys):
    rc = main(
        [
            "instantiate",
            "vertex_insert_02.jrule",
            "square.gmap",
            "--dart",
            "v0e0-1f0",
            "-o",
            "only_one.gmap",
        ]
    )
    assert rc == 2


def test_apply_supports_multiple_directives(workdir):
    rc = main(
        [
            "apply",
            "vertex_insert_02.jrule",
            "square_colored.gmap",
            "--dart",
            "v0e0-1f0",
            "--ebd",
            "pos:n1=midpoint(n0)",
            "--ebd",
            "col:n1=inherit(n0)",
            "-o",
            "out.gmap",
        ]
    )
    assert rc == 0
    assert main(["validate", "out.gmap"]) == 0


def test_syntax_error_exits_2(workdir, capsys):
    (workdir / "bad.gmap").write_text("dimension 2\ndarts {\n")
    assert main(["validate", "bad.gmap"]) == 2
    assert "E_SYNTAX" in capsys.readouterr().err


def test_dart_with_two_values_in_a_layer_exits_2(workdir, capsys):
    (workdir / "twice.gmap").write_text(
        "dimension 0\ndarts { a }\nlinks { 0: a }\nembeddings {\n  p {\n"
        "    orbit: 0\n    type: scalar\n    values {\n      a: 1\n      a: 2\n"
        "    }\n  }\n}\n"
    )
    assert main(["validate", "twice.gmap"]) == 2
    assert capsys.readouterr().err == (
        "E_SYNTAX dart 'a' has two values in layer 'p' (line 10, column 7)\n"
    )


@pytest.mark.parametrize(
    "name, command, text, line",
    [
        ("huge.gmap", "validate", "dimension " + "7" * 5000 + "\n", "line 1, column 11"),
        ("huge.off", "unify", "OFF\n" + "7" * 5000 + " 0 0\n", "line 2, column 1"),
    ],
)
def test_number_past_the_int_digit_limit_exits_2(workdir, capsys, name, command, text, line):
    (workdir / name).write_text(text)
    argv = [command, name] + (["-o", "out.gmap"] if command == "unify" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"E_SYNTAX number of 5000 digits is too long ({line})\n"


def test_lone_carriage_return_reads_as_for_parse_gmap(workdir, capsys):
    text = "dimension 2\rdarts { $ }"
    (workdir / "cr.gmap").write_bytes(text.encode())
    with pytest.raises(ParseError) as exc:
        parse_gmap(text)
    assert main(["validate", "cr.gmap"]) == 2
    assert capsys.readouterr().err == f"E_SYNTAX {exc.value}\n"


def test_crlf_document_validates(workdir, capsys):
    crlf = fixture_text("square.gmap").replace("\n", "\r\n")
    (workdir / "crlf.gmap").write_bytes(crlf.encode())
    assert main(["validate", "crlf.gmap"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_missing_file_reported(workdir, capsys):
    assert main(["validate", "nope.gmap"]) == 1
    assert "E_IO" in capsys.readouterr().err


def test_undecodable_file_reported(workdir, capsys):
    (workdir / "bytes.gmap").write_bytes(b"dimension 2\n\xff\xfe\n")
    assert main(["validate", "bytes.gmap"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("E_IO bytes.gmap: ")
    assert out.err.count("\n") == 1
    # of two inputs, the line names the one that failed
    argv = ["apply", "vertex_insert_02.jrule", "bytes.gmap", "--dart", "a", "-o", "out.gmap"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("E_IO bytes.gmap: ")
    assert "vertex_insert_02.jrule" not in out.err
    assert out.err.count("\n") == 1


def test_non_finite_coordinate_is_an_embedding_error(workdir, capsys):
    (workdir / "inf.off").write_text("OFF\n3 1 0\ninf 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert main(["unify", "inf.off", "-o", "out.gmap"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "E_EMBED point3d components must be finite, got inf\n"
    assert not (workdir / "out.gmap").exists()


def test_directory_path_reported(workdir, capsys):
    (workdir / "folder.gmap").mkdir()
    assert main(["validate", "folder.gmap"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("E_IO ")
    assert out.err.count("\n") == 1


def test_no_ansi_when_disabled(workdir, capsys):
    main(["validate", "broken_incidence.gmap"])
    out = capsys.readouterr()
    assert "\x1b[" not in out.out + out.err


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_only_a_terminal_stream_is_colored(workdir, capsys, monkeypatch):
    # stdout is a terminal, stderr a file: the error line has no color codes
    monkeypatch.setenv("GMAP_COLOR", "1")
    monkeypatch.setattr(sys, "stdout", _Terminal())
    assert main(["validate", "nope.gmap"]) == 1
    assert capsys.readouterr().err.startswith("E_IO ")
    assert main(["validate", "broken_incidence.gmap"]) == 1
    assert sys.stdout.getvalue().startswith("\x1b[31mE_INCIDENCE")
    assert main(["apply", "broken_double_zero.jrule", "square.gmap", "--dart", "v0e0-1f0", "-o", "o.gmap"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_") and "\x1b[" not in err


def test_unknown_link_end_is_named_in_written_order(tmp_path):
    # both ends are unknown; the line names the first one written under
    # every hash seed, so a set of ends must not decide the order
    (tmp_path / "both.gmap").write_text("dimension 2 darts { } links { 0: a b }\n")
    src = str(Path(gmapkit.__file__).parent.parent)
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src, "GMAP_COLOR": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "gmapkit.cli", "validate", "both.gmap"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "E_DOMAIN unknown node 'a' (line 1)\n"
