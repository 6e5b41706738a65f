"""CLI contract: exit codes, stable error lines, file outputs."""

import shutil

import pytest

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


def test_missing_file_reported(workdir, capsys):
    assert main(["validate", "nope.gmap"]) == 1
    assert "E_IO" in capsys.readouterr().err


def test_undecodable_file_reported(workdir, capsys):
    (workdir / "bytes.gmap").write_bytes(b"dimension 2\n\xff\xfe\n")
    assert main(["validate", "bytes.gmap"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("E_IO ")
    assert out.err.count("\n") == 1


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
