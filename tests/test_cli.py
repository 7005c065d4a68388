"""CLI integration: exit codes, report files, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stardelta import cli
from stardelta import synthesis as syn
from stardelta import transforms as tr
from stardelta import verifier as vf
from stardelta.cli import main, parse_float_grid, parse_int_grid
from stardelta.domain import SCHEMA, MomentumPair, check_pole, make_config


def test_parse_int_grid():
    assert parse_int_grid("3..6") == [3, 4, 5, 6]
    assert parse_int_grid("4") == [4]
    assert parse_int_grid("3,5,8") == [3, 5, 8]
    with pytest.raises(ValueError):
        parse_int_grid("6..3")


def test_parse_float_grid():
    assert parse_float_grid("1.5") == [1.5]
    assert parse_float_grid("0.2,0.4") == [0.2, 0.4]
    assert parse_float_grid("0.0..1.0:3") == [0.0, 0.5, 1.0]


def test_verify_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--n", "3", "--c", "1.0", "--k1", "0.6", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["overall"] is True
    assert payload["element_count"] == 12
    assert payload["schema"] == 1
    assert "12 elements" in capsys.readouterr().out


def test_verify_guard_small_n(capsys):
    assert main(["verify", "--n", "2", "--c", "1.0", "--k1", "0.6"]) == 2
    assert "at least 3 edges" in capsys.readouterr().err


def test_verify_guard_zero_coupling(capsys):
    assert main(["verify", "--n", "3", "--c", "0", "--k1", "0.6"]) == 2
    assert "c = 0" in capsys.readouterr().err


def test_verify_guard_bad_momentum(capsys):
    assert main(["verify", "--n", "3", "--c", "1.0", "--k1", "1.5"]) == 2


@pytest.mark.parametrize("d", [0.5e-6, 0.8e-6, 1.1e-6])
def test_one_pole_verdict_everywhere(d, tmp_path, capsys):
    # every layer refuses a fold momentum within 1e-6 of 1/sqrt(2) and
    # accepts one outside that zone; the CLI refusals print one message
    k = 1.0 / math.sqrt(2.0) - d

    def refuses(call):
        try:
            call()
        except ValueError:
            return True
        return False

    point = ["--n", "3", "--c", "1.0", "--k1", repr(k)]
    codes, errors = {}, {}
    for command in ("verify", "mutate"):
        codes[command] = main([command, *point])
        errors[command] = capsys.readouterr().err
    sweep = tmp_path / "s.csv"
    main(["sweep", *point, "--out", str(sweep)])
    verdicts = {
        "verify": codes["verify"] == 2,
        "mutate": codes["mutate"] == 2,
        "sweep": sweep.read_text().splitlines()[1].endswith(",SKIPPED(singularity)"),
        "coupling_scalars": refuses(lambda: tr.coupling_scalars(k, 1.0)),
        "diagonal_condition_matrices": refuses(lambda: tr.diagonal_condition_matrices(k, 1.0)),
        "QuadratureRule": refuses(lambda: syn.QuadratureRule(nodes=np.array([k]), weights=np.array([1.0]))),
    }
    inside = d < 1e-6
    assert verdicts == dict.fromkeys(verdicts, inside)
    assert set(codes.values()) <= {0, 2}
    expected = ""
    if inside:
        with pytest.raises(ValueError) as refusal:
            check_pole(k, 1.0)
        expected = f"error: {refusal.value}\n"
    assert errors == dict.fromkeys(errors, expected)


def test_kernels_grid(tmp_path, capsys):
    outdir = tmp_path / "reports"
    code = main(["kernels", "--n", "3..5", "--out", str(outdir)])
    assert code == 0
    for n, dims in ((3, (5, 4, 2, 2)), (4, (10, 6, 3, 2)), (5, (17, 8, 4, 2))):
        payload = json.loads((outdir / f"kernels_n{n}.json").read_text())
        got = (
            payload["dims"]["ker_Q_minus"],
            payload["dims"]["ker_Q_plus"],
            payload["dims"]["K_minus"],
            payload["dims"]["K_plus"],
        )
        assert got == dims
        assert payload["pass"] is True
    text = capsys.readouterr().out
    assert "n=3: PASS" in text and "total=13" in text


@pytest.mark.parametrize("basis", [tr.EDGE, tr.SPECTRAL])
def test_kernels_include_bases(tmp_path, basis):
    # the exported columns are orthonormal, are annihilated by Q (ker_Q_*)
    # or P (K_*) built in the requested basis, and match the dims
    args = ["kernels", "--n", "3,4", "--basis", basis, "--include-bases", "--out", str(tmp_path)]
    assert main(args) == 0
    for n in (3, 4):
        payload = json.loads((tmp_path / f"kernels_n{n}.json").read_text())
        assert set(payload["bases"]) == set(payload["dims"])
        F = tr.change_of_basis(n)
        to_basis = np.kron(np.eye(2), np.kron(F, F)) if basis == tr.SPECTRAL else np.eye(2 * n * n)
        for name, cols in payload["bases"].items():
            V = np.array(cols).T
            assert V.shape == (2 * n * n, payload["dims"][name])
            assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-12
            sign = 1 if name.endswith("plus") else -1
            if name.startswith("ker_Q"):
                op = tr.build_q_operator(n, sign, basis)
            else:
                op = to_basis @ tr.build_p_operator(n, sign) @ to_basis
            assert np.max(np.abs(op @ V)) <= 1e-12, name


def test_sweep_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--n", "3", "--c", "1.0,-2.0", "--k1", "0.3,0.6", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "n,c,k1,family,check,max_residual,tolerance,status"


def test_sweep_skips_singular_momentum(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--n", "3", "--c", "1.0,0.0", "--k1", "0.7071067811865476", "--out", str(out)])
    assert code == 0
    statuses = [row.split(",")[-1] for row in out.read_text().splitlines()[1:]]
    assert statuses == ["SKIPPED(singularity)", "SKIPPED(c=0)"]


def test_sweep_skips_a_coupling_whose_tables_overflow(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--n", "3", "--c", "1e-310,1e-307", "--k1", "0.6", "--out", str(out)]) == 1
    statuses = [row.split(",")[-1] for row in out.read_text().splitlines()[1:]]
    assert statuses[0] == "SKIPPED(overflow)" and "SKIPPED(overflow)" not in statuses[1:]


def test_sweep_json_format(tmp_path):
    out = tmp_path / "s.json"
    code = main(["sweep", "--n", "3", "--c", "1.0", "--k1", "0.6", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert all(row["status"] == "PASS" for row in payload["rows"])


def test_synthesize_with_grid_export(tmp_path):
    out = tmp_path / "syn.json"
    grid = tmp_path / "grid.csv"
    code = main([
        "synthesize", "--n", "3", "--c", "1.0", "--element", "9",
        "--nodes", "24", "--out", str(out), "--grid-out", str(grid),
        "--grid-span", "2.0", "--grid-step", "1.0",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["refinement_change"] < 1e-9
    lines = grid.read_text().splitlines()
    assert lines[0] == "quadrant_i,quadrant_j,sector,x,y,re,im"
    assert len(lines) == 1 + 9 * 12


def test_mutate_detects_all(tmp_path):
    out = tmp_path / "mut.json"
    code = main(["mutate", "--n", "3", "--c", "1.0", "--k1", "0.6", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["mutations"]) == 12
    assert all(rec["detected"] for rec in payload["mutations"])


def test_mutate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["mutate", "--n", "3", "--c", "-1.0", "--k1", "0.45", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


SYN3 = ["synthesize", "--n", "3", "--c", "1.0", "--nodes", "8"]
VERIFY3 = ["verify", "--n", "3", "--c", "1.0", "--k1", "0.6"]
MUTATE3 = ["mutate", "--n", "3", "--c", "1.0", "--k1", "0.6"]
TINY_C = ("coupling c = 1e-310 is too small at n = 3: the 1/c terms of the basis tables would overflow "
          "(need |c| >= 6.68e-308)")


@pytest.mark.parametrize(
    "argv",
    [
        VERIFY3,
        ["kernels", "--n", "3"],
        ["sweep", "--n", "3", "--c", "1.0", "--k1", "0.6", "--format", "json"],
        SYN3,
        MUTATE3,
    ],
    ids=lambda argv: argv[0],
)
def test_every_report_carries_the_one_schema(tmp_path, argv):
    # kernels takes a directory and writes one report per n into it
    kernels = argv[0] == "kernels"
    report = tmp_path / ("kernels_n3.json" if kernels else "report.json")
    assert main(argv + ["--out", str(tmp_path if kernels else report)]) == 0
    assert json.loads(report.read_text())["schema"] == SCHEMA


@pytest.mark.parametrize(
    "argv",
    [
        SYN3 + ["--grid-step", "0"],
        SYN3 + ["--grid-step", "-1"],
        SYN3 + ["--profile", "gaussian:0.3"],
        SYN3 + ["--profile", "poly:"],
        SYN3 + ["--profile", "gaussian:0.3,0"],
        SYN3 + ["--profile", "indicator:0.5,0.2"],
        SYN3 + ["--profile", "poly:0"],
        ["mutate", "--n", "3", "--c", "1.0", "--k1", "0.6", "--per-element", "0"],
        VERIFY3 + ["--tol", "-1"],
        VERIFY3 + ["--tol", "0"],
        VERIFY3 + ["--tol", "nan"],
        VERIFY3 + ["--tol", "inf"],
        VERIFY3 + ["--samples", "0"],
        VERIFY3 + ["--samples", "-5"],
        SYN3 + ["--tol=-1e-9"],
        SYN3 + ["--samples", "0"],
        ["sweep", "--n", "3", "--c", "1.0", "--k1", "0.6", "--tol", "-1"],
        ["sweep", "--n", "3", "--c", "0", "--k1", "0.6", "--tol", "-1"],
        ["sweep", "--n", "3", "--c", "0", "--k1", "0.6", "--samples", "0"],
        ["sweep", "--n", "3", "--c", "1.0", "--k1", "0.2..0.4:0"],
        ["sweep", "--n", "3", "--c", ",", "--k1", "0.6"],
        ["sweep", "--n", ",", "--c", "1.0", "--k1", "0.6"],
        ["kernels", "--n", ","],
        ["kernels", "--n", "3,2"],
        MUTATE3 + ["--rel", "0"],
        MUTATE3 + ["--rel", "nan"],
        MUTATE3 + ["--rel", "inf"],
        MUTATE3 + ["--detect-above", "-1"],
        MUTATE3 + ["--detect-above", "nan"],
        SYN3 + ["--grid-span", "nan"],
        SYN3 + ["--grid-span", "inf"],
    ],
)
def test_bad_input_refused_with_exit_2(tmp_path, capsys, argv):
    # refused before any work: an error line, exit 2 and no report or grid
    out, grid = tmp_path / "out.json", tmp_path / "grid.csv"
    extra = ["--out", str(out)] + (["--grid-out", str(grid)] if argv[0] == "synthesize" else [])
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists() and not grid.exists()


@pytest.mark.parametrize(
    "argv",
    [
        VERIFY3 + ["--out", "{dir}"],
        ["kernels", "--n", "3", "--out", "{file}"],
        SYN3 + ["--grid-out", "{file}/g.csv"],
        SYN3 + ["--out", "{dir}/ok.json", "--grid-out", "{file}/g.csv"],
        VERIFY3 + ["--out", "{file}/sub/r.json"],
    ],
    ids=["verify-out-is-a-directory", "kernels-out-is-a-file", "synthesize-grid-out-under-a-file",
         "synthesize-out-beside-an-unwritable-grid-out", "verify-out-two-levels-under-a-file"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # found before any work: an error line and exit 2, not a traceback
    # and the exit 1 of a failed check, and no report written beside it
    (tmp_path / "file").write_text("taken\n")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (tmp_path / "file").read_text() == "taken\n"
    assert not (tmp_path / "ok.json").exists()


def test_output_under_an_unwritable_directory_exits_2(tmp_path, capsys, monkeypatch):
    # the nearest existing ancestor must be writable; permission bits do
    # not bind a superuser, so the access check is stubbed
    calls = []
    monkeypatch.setattr(vf, "verify_full_basis", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    out = tmp_path / "d" / "r.json"
    assert main(VERIFY3 + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: {str(out)!r}\n"
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_an_existing_unwritable_output_file_exits_2(tmp_path, capsys, monkeypatch):
    # an existing --grid-out file that cannot be written is refused before
    # any work, in a writable directory, and leaves no --out report; the
    # access check is stubbed for that file alone, as a superuser passes it
    grid, out = tmp_path / "g.csv", tmp_path / "ok.json"
    grid.write_text("taken\n")
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != grid and access(path, mode))
    calls = []
    monkeypatch.setattr(syn, "synthesize_eigensolution", lambda *a, **k: calls.append(a))
    assert main(SYN3 + ["--out", str(out), "--grid-out", str(grid)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: {str(grid)!r}\n"
    assert calls == [] and not out.exists() and grid.read_text() == "taken\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--n", "3", "--c", "0", "--k1", "0.6"], "sym_diag family undefined at c = 0 (1/c coefficients)"),
        (["mutate", "--n", "3", "--c", "0", "--k1", "0.6"], "sym_diag family undefined at c = 0 (1/c coefficients)"),
        (MUTATE3 + ["--per-element", "0"], "need at least one mutation per element, got 0"),
        (["verify", "--n", "3", "--c", "1", "--k1", "0.7071065"],
         "fold momentum k = 0.7071065 is inside the exclusion zone around 1/sqrt(2) for c != 0"),
        (["mutate", "--n", "3", "--c", "1", "--k1", "0.7071065"],
         "fold momentum k = 0.7071065 is inside the exclusion zone around 1/sqrt(2) for c != 0"),
        (["synthesize", "--n", "3", "--c", "0"], "sym_diag family undefined at c = 0 (1/c coefficients)"),
        (["synthesize", "--n", "3", "--c", "1", "--element", "12"], "basis index 12 out of range 0..11"),
        (["synthesize", "--n", "3", "--c", "1", "--element", "-1"], "basis index -1 out of range 0..11"),
        (["synthesize", "--n", "3", "--c", "1", "--nodes", "8", "--profile", "indicator:0.9,1.0"],
         "profile must be finite and not vanish at every quadrature node"),
        (["kernels", "--n", "3,2"], "need at least 3 edges, got n=2"),
        (["verify", "--n", "3", "--c", "1e-310", "--k1", "0.6"], TINY_C),
        (["mutate", "--n", "3", "--c", "1e-310", "--k1", "0.6"], TINY_C),
        (["synthesize", "--n", "3", "--c", "1e-310"], TINY_C),
        (SYN3 + ["--grid-step", "0"], "grid step must be positive and span non-negative and finite, got step=0.0, span=5.0"),
        (VERIFY3 + ["--tol", "-1"], "tolerance must be positive and finite, got tol=-1.0"),
        (MUTATE3 + ["--detect-above", "-1"], "detection threshold must be positive and finite, got detect_above=-1.0"),
    ],
    ids=["verify-c-0", "mutate-c-0", "mutate-per-element-0", "verify-pole", "mutate-pole", "synthesize-c-0",
         "synthesize-element-12", "synthesize-element-minus-1", "synthesize-vanishing-profile", "kernels-n-2",
         "verify-c-tiny", "mutate-c-tiny", "synthesize-c-tiny", "synthesize-grid-step-0", "verify-tol-negative",
         "mutate-detect-above-negative"],
)
def test_refused_configuration_creates_no_directory(tmp_path, capsys, argv, message):
    # refused by the library before any write, so no parent directory of
    # --out or --grid-out is left behind
    extra = ["--out", str(tmp_path / "d" / "sub" / "r.json")]
    if argv[0] == "synthesize":
        extra += ["--grid-out", str(tmp_path / "g" / "grid.csv")]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "grid",
    [("12,2", "1.0", "0.6"), ("3", "1.0", "0.6,1.5"), ("3", "1.0,nan", "0.6"), ("3", "0.0", "-0.1")],
    ids=["late-n-below-3", "late-k1-above-1", "late-c-not-finite", "k1-below-0-at-c-0"],
)
def test_sweep_refuses_a_bad_grid_before_any_verify(tmp_path, capsys, monkeypatch, grid):
    calls = []
    monkeypatch.setattr(vf, "verify_full_basis", lambda *a, **k: calls.append(a))
    n, c, k1 = grid
    out = tmp_path / "s.csv"
    assert main(["sweep", "--n", n, "--c", c, "--k1", k1, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert calls == [] and not out.exists()


def test_synthesize_refuses_a_bad_grid_without_a_grid_output(tmp_path, capsys, monkeypatch):
    # the grid rule is the library's, applied before the synthesis, so the
    # refusal needs no --grid-out and writes no report
    monkeypatch.setattr(syn, "synthesize_eigensolution", lambda *a: pytest.fail("synthesized"))
    out = tmp_path / "r.json"
    assert main(SYN3 + ["--grid-step", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: grid step must be positive")
    assert not out.exists()


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_synthesize_refuses_a_node_count_below_one(tmp_path, capsys, nodes):
    out = tmp_path / "out.json"
    argv = ["synthesize", "--n", "3", "--c", "1.0", "--nodes", nodes, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: a quadrature rule needs at least one node, got {nodes}\n"
    assert captured.out == "" and not out.exists()


def test_negative_rel_is_a_mutation(tmp_path):
    out = tmp_path / "mut.json"
    assert main(MUTATE3 + ["--rel", "-0.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert all(rec["detected"] for rec in payload["mutations"])


@pytest.mark.parametrize(
    "argv",
    [
        MUTATE3 + ["--tol", "1e-30"],
        MUTATE3 + ["--samples", "5"],
        SYN3 + ["--seed", "7"],
    ],
)
def test_options_a_subcommand_ignores_are_not_accepted(capsys, argv):
    # each subcommand takes only the shared options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "4", "--c", "-2.0", "--k1", "0.3", "--out", "{d}/r.json"],
        ["mutate", "--n", "3", "--c", "1.0", "--k1", "0.6", "--per-element", "2", "--out", "{d}/r.json"],
        ["synthesize", "--n", "3", "--c", "1.0", "--element", "9", "--nodes", "8", "--out", "{d}/r.json"],
        ["kernels", "--n", "3,4", "--basis", "edge", "--include-bases", "--out", "{d}"],
        ["sweep", "--n", "3", "--c", "1.0,1e-10", "--k1", "0.6,0.7071067811865476", "--format", "json",
         "--out", "{d}/r.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_reports_are_the_stdlib_encoding_byte_for_byte(tmp_path, monkeypatch, capsys, argv):
    # every payload the CLI hands to write_json is written as json.dumps writes it
    written = []
    write = cli.write_json

    def record(path, payload):
        write(path, payload)
        written.append((path, payload))

    monkeypatch.setattr(cli, "write_json", record)
    assert main([a.format(d=tmp_path) for a in argv]) in (0, 1)
    assert written
    for path, payload in written:
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_report_writer_matches_the_stdlib_on_every_value_it_takes(tmp_path):
    payload = {
        "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, -2.5e-17, np.float64(1 / 3)],
        "ints": [0, -1, 10 ** 40, -(10 ** 25)],
        "flags": [True, False, None],
        "empty": {"dict": {}, "list": [], "nested": [{}, [[]], {"a": []}]},
        "tuples": (1, (2.0, "x"), ()),
        "text": ["é", " ", "\U0001d11e", 'quote " and \\ back', "tab\tnew\nline\x00\x1f", ""],
        "kéy\twith\nescapes\"": {"z": 1, "a": 2, "": 3, "Z": 4},
    }
    # a block of element rows of one layout, written from its tables, at
    # two indents; a float cache keyed by value would write -0.0 as 0.0
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 0.1, 1e-9, 2.5e-10, 0.0, -0.0]
    layout = (("a", 3, 1e-9), ("b", 10 ** 20, 0.5), ("c\u00e9", 0, 1e-9))
    rows = vf.ElementRows(["x(1,2)", 'q"uote\\', "é\n"], np.array(values).reshape(3, 4)[:, :3].copy(), layout)
    payload["rows"] = rows
    payload["deeper"] = [{"rows": vf.ElementRows(["y"] * 4, np.array(values).reshape(4, 3), layout)}]
    payload["no_rows"] = vf.ElementRows([], np.zeros((0, 3)), layout)
    assert [math.copysign(1.0, row["checks"][1]["max_abs_residual"]) for row in rows] == [-1.0, 1.0, 1.0]
    out = tmp_path / "nested" / "p.json"
    cli.write_json(out, payload)
    assert out.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    for top in (payload["tuples"], [], {}, rows):
        cli.write_json(out, top)
        assert out.read_text() == json.dumps(top, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, {"a": [np.int64(1)]}, {1: "int key"}, object()],
                         ids=["int64", "set", "nested-int64", "int-key", "object"])
def test_report_writer_refuses_what_json_cannot_write(tmp_path, value):
    with pytest.raises(TypeError):
        cli.write_json(tmp_path / "r.json", value)


def test_parser_is_built_once_and_each_call_gets_its_own_options(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    seeded, default = tmp_path / "seeded.json", tmp_path / "default.json"
    assert main(VERIFY3 + ["--seed", "5", "--out", str(seeded)]) == 0
    assert main(VERIFY3 + ["--out", str(default)]) == 0
    seeded_report, default_report = json.loads(seeded.read_text()), json.loads(default.read_text())
    assert seeded_report.pop("seed") == 5
    assert default_report.pop("seed") == 0
    # the seed feeds no check of verify: the rank is read from the tables
    assert seeded_report == default_report


@pytest.mark.parametrize("k1", [0.0, 1.0])
def test_verify_at_an_endpoint_reports_the_function_rank(tmp_path, k1, capsys):
    # at k1 = 0 or 1 the even block's coefficients are all zero, so the
    # basis spans n functions; the zero block adds rank 0 and ratio 0
    out = tmp_path / "endpoint.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--n", "3", "--c", "1.0", "--k1", str(k1), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["rank"] == 3
    assert math.isfinite(report["singular_value_ratio"])


@pytest.mark.parametrize("command, code", [
    ("verify --n 3 --c -1e6 --k1 0.6", 1),
    ("mutate --n 3 --c -1e6 --k1 0.6", 0),
    ("synthesize --n 3 --c -1e6 --nodes 8", 0),
    ("sweep --n 3 --c -1e-3,2 --k1 0.6", 0),
])
def test_a_negative_value_in_exponent_notation_is_a_value(tmp_path, capsys, command, code):
    # argparse's own pattern reads -1e6 as an unknown option and exits 2;
    # the run is the one --c=-1e6 gives, byte for byte
    split, joined = tmp_path / "split.out", tmp_path / "joined.out"
    assert main(command.split() + ["--out", str(split)]) == code
    assert main(command.replace("--c ", "--c=").split() + ["--out", str(joined)]) == code
    assert split.read_bytes() == joined.read_bytes()
    if command.startswith("verify"):  # only the known transform_diagonal roundoff at |c| = 1e6 fails
        report = json.loads(split.read_text())
        failed = {ch["name"] for el in report["elements"] for ch in el["checks"] if not ch["pass"]}
        assert failed == {"transform_diagonal"} and report["rank"] == 12


def test_a_nan_residual_warns_nothing():
    # at c = 1e308 the diagonal systems hold NaN entries: the run reports
    # NaN transform_diagonal residuals and exits 1, with no RuntimeWarning
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "stardelta.cli", "verify",
                          "--n", "3", "--c", "1e308", "--k1", "0.6"], capture_output=True, text=True, env=env)
    assert run.returncode == 1 and run.stderr == ""
    assert "  FAIL element:sym_diag(3): nan > 1.0e+00\n" in run.stdout


def test_a_call_argparse_refuses_leaves_later_calls_working(tmp_path, capsys):
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert main(VERIFY3 + ["--out", str(before)]) == 0
    with pytest.raises(SystemExit) as refused:
        main(["verify", "--n", "3", "--c", "1.0", "--k1", "0.6", "--bogus", "1"])
    assert refused.value.code == 2
    with pytest.raises(SystemExit) as missing:
        main(["verify", "--n", "3"])
    assert missing.value.code == 2
    assert main(VERIFY3 + ["--out", str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()


@pytest.mark.parametrize("command", [
    "verify --n 3 --c 1.0 --k1 0.6",
    "mutate --n 3 --c 1.0 --k1 0.6",
    "sweep --n 3 --c 1.0 --k1 0.6",
    "synthesize --n 3 --c 1.0 --nodes 8",
])
def test_a_table_too_large_to_allocate_exits_2_with_no_report(monkeypatch, tmp_path, capsys, command):
    # stands in for a basis of a very large n, without asking for the memory
    def too_large(cfg):
        raise MemoryError(f"Unable to allocate the n = {cfg.n} tables")

    monkeypatch.setattr("stardelta.basis.basis_template", too_large)
    monkeypatch.setattr(syn, "basis_template", too_large)
    out = tmp_path / "r.json"
    assert main(command.split() + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate the n = 3 tables\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("n, c, k1, extra, seed", [
    (3, 1.0, 0.6, [], 0),
    (6, 0.7, 0.33, [], 3),
    (10, 2.1, 0.2, ["--samples", "60"], 1),
    (3, 1e-6, 0.6, [], 0),
    (3, 1.0, 1.0, [], 2),
    (3, 1e-200, 0.6, [], 0),
])
def test_verify_report_is_the_per_element_oracle_as_the_stdlib_writes_it(tmp_path, monkeypatch, capsys,
                                                                          n, c, k1, extra, seed):
    # the report written from one residual table is, byte for byte, the
    # stdlib encoding of the report built one element at a time; the n = 10
    # basis is checked in several stacks on two threads
    from helpers import verify_full_basis_oracle

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "r.json"
    argv = ["verify", "--n", str(n), "--c", str(c), "--k1", str(k1), "--seed", str(seed), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(argv + extra) in (0, 1)
    samples = int(extra[1]) if extra else vf.DEFAULT_SAMPLES
    oracle = verify_full_basis_oracle(make_config(n, c), MomentumPair.from_k1(k1), samples=samples)
    assert out.read_text() == json.dumps(oracle.to_dict() | {"seed": seed}, sort_keys=True, indent=2) + "\n"


def test_a_nan_residual_is_the_worst_of_its_rows(tmp_path, capsys):
    # at c = 1e308 the transform_diagonal residuals of the antisym and
    # sym_diag elements are NaN: the element check and the sweep row of
    # each of those (family, check) pairs report NaN, not a smaller
    # residual of the same rows or the 0.0 a sweep starts from
    argv = ["--n", "3", "--c", "1e308", "--k1", "0.6"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["verify", *argv, "--out", str(tmp_path / "v.json")]) == 1
        assert main(["sweep", *argv, "--out", str(tmp_path / "s.csv")]) == 1
    report = json.loads((tmp_path / "v.json").read_text())
    nan_rows = {el["solution"] for el in report["elements"]
                if math.isnan({ch["name"]: ch["max_abs_residual"] for ch in el["checks"]}["transform_diagonal"])}
    assert {label.partition("(")[0] for label in nan_rows} == {"antisym", "sym_diag"}
    worst = {ch["name"].partition(":")[2]: ch for ch in report["checks"] if ch["name"].startswith("element:")}
    assert {label for label, ch in worst.items() if math.isnan(ch["max_abs_residual"])} == nan_rows
    assert not any(worst[label]["pass"] for label in nan_rows)
    assert "  FAIL element:antisym(1,1): nan > 1.0e+00\n" in capsys.readouterr().out
    rows = (tmp_path / "s.csv").read_text().splitlines()
    assert "3,1e+308,0.6,antisym,transform_diagonal,nan,1e-10,FAIL" in rows
    assert "3,1e+308,0.6,sym_diag,transform_diagonal,nan,1e-10,FAIL" in rows
