"""CLI contract: exit codes, stable error lines, file outputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gmapkit
from gmapkit import ParseError, parse_gmap
from gmapkit.cli import main

from conftest import FIXTURES, fixture_text


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


def test_export_obj(workdir):
    assert main(["export-obj", "square.gmap", "--pos", "pos", "-o", "out.obj"]) == 0
    text = (workdir / "out.obj").read_text()
    assert text.count("v ") == 4
    assert text.count("f ") == 1


def test_info(workdir, capsys):
    assert main(["info", "square.gmap"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 2" in out
    assert "darts: 8" in out
    assert "cells[0]: 4" in out
    assert "valid: yes" in out


def test_usage_error_exits_2(workdir, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


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
