"""End-to-end CLI behaviour: outputs, formats, exit codes, determinism."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvge
from cvge import cli
from cvge import closed_form as cf
from cvge import graph as graph_mod
from cvge.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from cvge.closed_form import KernelSpec, entanglement
from cvge.graph import parse_edge_list


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_python(*args):
    """Run a fresh interpreter on this checkout's cvge; returns the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=str(Path(cvge.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestProfile:
    def test_star_csv_values(self):
        code, out, _ = run_cli("profile", "--gen", "star", "--n", "4", "--format", "csv")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["vertex", "degree", "kappa", "lambda_max", "entanglement"]
        assert len(rows) == 4
        assert float(rows[0][4]) == pytest.approx(1.0 / 3.0, abs=1e-9)
        for row in rows[1:]:
            assert float(row[4]) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-9)

    def test_empty_graph_zero_column(self):
        code, out, _ = run_cli("profile", "--gen", "erdos_renyi", "--n", "3", "--p", "0",
                               "--seed", "1", "--format", "csv")
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert [row[4] for row in rows] == ["0", "0", "0"]

    def test_numeric_deviation_small(self):
        code, out, _ = run_cli("profile", "--gen", "cycle", "--n", "3", "--numeric", "--format", "csv")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        dev_col = header.index("deviation")
        assert all(float(row[dev_col]) < 1e-8 for row in rows)

    def test_numeric_refuses_a_cell_beyond_the_bound(self, tmp_path):
        # kappa / alpha^2 = 1e8 needs a finer step than the largest rung allows
        path = tmp_path / "strong.txt"
        path.write_text("vertices 2\n0 1 10000.0\n", encoding="utf-8")
        code, out, err = run_cli("profile", "--graph", str(path), "--numeric", "--format", "csv")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "alpha=1, kappa=1e+08" in err

    def test_numeric_flag_keeps_closed_columns(self):
        _, plain, _ = run_cli("profile", "--gen", "star", "--n", "4", "--format", "csv")
        _, numeric, _ = run_cli("profile", "--gen", "star", "--n", "4", "--numeric", "--format", "csv")
        _, plain_rows = csv_rows(plain)
        _, numeric_rows = csv_rows(numeric)
        for a, b in zip(plain_rows, numeric_rows):
            assert a == b[:5]

    @pytest.mark.parametrize("flag,value", [("--grid-size", "64"), ("--extent-mult", "10")])
    @pytest.mark.parametrize("numeric", [(), ("--numeric",)], ids=["closed", "numeric"])
    def test_takes_no_grid_flags(self, flag, value, numeric):
        # the solver picks every cell's nodes and extent
        code, out, err = run_cli("profile", "--gen", "path", "--n", "2", *numeric, flag, value)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"unrecognized arguments: {flag}" in err

    def test_json_schema(self):
        code, out, _ = run_cli("profile", "--gen", "erdos_renyi", "--n", "10", "--p", "0.4",
                               "--seed", "3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"alpha", "graph", "vertices"}
        assert payload["graph"] == {"n": 10, "source": "gen:erdos_renyi(n=10,p=0.4,seed=3)", "seed": 3}
        assert len(payload["vertices"]) == 10
        for entry in payload["vertices"]:
            assert set(entry) == {"id", "degree", "kappa", "lambda_max", "entanglement", "numeric"}
            assert entry["numeric"] is None
            assert math.isfinite(entry["entanglement"])

    def test_graph_file_source(self, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("vertices 3\n0 1\n1 2\n2 0\n", encoding="utf-8")
        code, out, _ = run_cli("profile", "--graph", str(path), "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["graph"]["source"] == str(path)
        assert all(v["degree"] == 2 for v in payload["vertices"])

    def test_byte_identical_repeat_runs(self):
        argv = ("profile", "--gen", "erdos_renyi", "--n", "30", "--p", "0.2",
                "--seed", "5", "--format", "json")
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second

    def test_missing_file_is_usage_error(self):
        code, _, err = run_cli("profile", "--graph", "/no/such/file.txt")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertices 2\n0 5\n", encoding="utf-8")
        code, _, err = run_cli("profile", "--graph", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err

    @pytest.mark.parametrize("lines", [0, 30_000])
    def test_undecodable_byte_is_named_by_its_offset_in_the_file(self, lines, tmp_path):
        # the file is read in blocks, so the decoder sees one chunk at a time;
        # the offset must still count from the start of the file
        head = "vertices 3\n" + "# café\n0 1\n" * lines
        path = tmp_path / "latin1.txt"
        path.write_bytes(head.encode("utf-8") + b"1 2 \xff\n0 2\n")
        code, out, err = run_cli("profile", "--graph", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {path}: cannot decode byte {len(head.encode('utf-8')) + 4} as UTF-8: invalid start byte\n"

    def test_invalid_alpha(self):
        code, _, err = run_cli("profile", "--gen", "star", "--n", "3", "--alpha", "-1")
        assert code == EXIT_USAGE
        assert "alpha" in err

    def test_missing_source(self):
        code, _, err = run_cli("profile")
        assert code == EXIT_USAGE
        assert "graph source" in err


class TestSpectrum:
    def test_kappa_three(self):
        code, out, _ = run_cli("spectrum", "--kappa", "3", "--count", "3", "--format", "csv")
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        values = [float(row[1]) for row in rows]
        cumulative = [float(row[2]) for row in rows]
        assert values == pytest.approx([2 / 3, 2 / 9, 2 / 27], rel=1e-9)
        assert cumulative == pytest.approx([2 / 3, 8 / 9, 26 / 27], rel=1e-9)

    def test_rank_one(self):
        code, out, _ = run_cli("spectrum", "--kappa", "0", "--count", "2", "--format", "csv")
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert [float(row[1]) for row in rows] == [1.0, 0.0]

    def test_unit_kappa_values(self):
        code, out, _ = run_cli("spectrum", "--kappa", "1", "--count", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rows"][0]["value"] == pytest.approx(0.8284271247, abs=1e-9)
        assert payload["rows"][1]["value"] == pytest.approx(0.1421356237, abs=1e-9)

    def test_invalid_parameters(self):
        assert run_cli("spectrum", "--kappa", "-2")[0] == EXIT_USAGE
        assert run_cli("spectrum", "--kappa", "1", "--count", "0")[0] == EXIT_USAGE
        assert run_cli("spectrum", "--count", "3")[0] == EXIT_USAGE


class TestValidate:
    def test_unit_alpha_range_passes(self):
        code, out, _ = run_cli("validate", "--alpha", "1", "--kappa-range", "1..5", "--format", "text")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_adjudication_row_passes_with_visible_gap(self):
        code, out, _ = run_cli("validate", "--alpha", "4", "--kappa", "9", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        row = payload["rows"][0]
        assert row["lambda_numeric"] == pytest.approx(8.0 / 9.0, abs=1e-8)
        assert row["dev_closed"] < 1e-8
        assert row["dev_kappa_over_alpha"] > 1e-2

    def test_uncoupled_row_all_unit(self):
        code, out, _ = run_cli("validate", "--alpha", "1", "--kappa", "0", "--format", "json")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["lambda_max"] == 1.0
        assert row["lambda_max_kappa_over_alpha"] == 1.0
        assert row["lambda_numeric"] == pytest.approx(1.0, abs=1e-10)

    def test_alpha_list(self):
        code, out, _ = run_cli("validate", "--alpha", "1,2", "--kappa", "1,3", "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 4

    def test_impossible_tolerance_fails(self):
        code, out, _ = run_cli("validate", "--alpha", "1", "--kappa", "1", "--tol", "1e-18")
        assert code == EXIT_FAIL
        assert "FAIL" in out

    @pytest.mark.parametrize("cell, named", [
        (("--alpha", "1e-300", "--kappa", "1e300"), "alpha=1e-300, kappa=1e+300"),
        (("--kappa", "1e8"), "alpha=1, kappa=1e+08"),
        (("--alpha", "1", "--kappa", "1.1e6"), "alpha=1, kappa=1.1e+06"),
        (("--alpha", "1e-315", "--kappa", "1"), "alpha=1e-315, kappa=1"),
        (("--alpha", "1e-307", "--kappa", "0"), "alpha=1e-307, kappa=0"),
        (("--alpha", "1", "--kappa", "1,1e8"), "alpha=1, kappa=1e+08"),
    ], ids=["step-underflows", "ratio-1e8", "ratio-1.1e6", "envelope-overflows", "uncoupled-overflows",
            "after-a-good-cell"])
    def test_cell_beyond_the_bound_ends_promptly(self, cell, named):
        # refused before any rung runs, and before anything is written: stdout stays empty in every format
        for fmt in ("json", "csv", "text"):
            start = time.perf_counter()
            code, out, err = run_cli("validate", *cell, "--format", fmt)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error:") and err.count("\n") == 1
            assert named in err

    def test_overflowing_kernel_cell_writes_one_error_line(self):
        # a fresh interpreter, since pytest records numpy's warnings instead of printing them
        proc = run_python("-m", "cvge.cli", "validate", "--alpha", "1e-300", "--kappa", "1e300")
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr

    def test_kappa_required(self):
        assert run_cli("validate", "--alpha", "1")[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("--kappa", "1", "--grid-size", "64"),
        ("--kappa", "1", "--extent-mult", "10"),
    ], ids=["grid-size", "extent-mult"])
    def test_takes_no_grid_flags(self, argv):
        # the solver picks every cell's nodes and extent
        code, out, err = run_cli("validate", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"unrecognized arguments: {argv[2]}" in err

    @pytest.mark.parametrize("ratio", [36.0, 400.0])
    def test_json_byte_identical_repeat_runs(self, ratio):
        argv = ("validate", "--alpha", "2", "--kappa", repr(ratio * 4.0), "--format", "json")
        code, first, _ = run_cli(*argv)
        assert code == EXIT_OK
        assert run_cli(*argv)[1] == first

    def test_does_not_import_scipy(self):
        # scipy.sparse.linalg alone takes longer to import than the whole CLI start-up
        script = ("import contextlib, io, sys\n"
                  "import cvge\n"
                  "from cvge import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = cli.main(['validate', '--alpha', '1', '--kappa', '0,1,400'])\n"
                  "print(code, 'scipy' in sys.modules)\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]


class TestOracle:
    def test_no_gauss_legendre_rule_on_the_oracle_path(self, tmp_path):
        # numpy.polynomial holds leggauss; one edge of weight 2 at alpha = 0.5
        # FAILs on --grid-size 64 and runs the re-check before it exits 2
        path = tmp_path / "w.txt"
        path.write_text("vertices 2\n0 1 2.0\n", encoding="utf-8")
        script = ("import contextlib, io, sys\n"
                  "from cvge.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
                  "    codes = [main(['oracle', '--graph', sys.argv[1], '--alpha', '0.5']),\n"
                  "             main(['oracle', '--gen', 'cycle', '--n', '3', '--grid-size', '128'])]\n"
                  "print(*codes, any(m.split('.')[:2] == ['numpy', 'polynomial'] for m in sys.modules))\n")
        proc = run_python("-c", script, str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(EXIT_USAGE), str(EXIT_OK), "False"]

    def test_takes_no_extent_flag(self, tmp_path):
        # alpha alone places the state's mass, so the grid spans the solver's widest extent
        code, out, err = run_cli("oracle", "--gen", "path", "--n", "2", "--extent-mult", "10")
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --extent-mult" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("extent-mult = 10\n", encoding="utf-8")
        code, out, err = run_cli("oracle", "--gen", "path", "--n", "2", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: unknown config key 'extent-mult' for command 'oracle'\n"

    def test_largest_grid_size_fills_the_node_cap(self):
        # ceil(3 * 170 / 4) = 128 nodes; 171 would build 129
        code, out, err = run_cli("oracle", "--gen", "cycle", "--n", "3", "--grid-size", "170")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1].startswith("PASS: ")
        assert out.endswith("--grid-size 170 (128 trapezoid nodes)\n")

    def test_single_edge_three_routes(self):
        code, out, _ = run_cli("oracle", "--gen", "path", "--n", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        row = payload["rows"][0]
        expected = 2.0 / (1.0 + math.sqrt(2.0))
        assert row["lambda_max"] == pytest.approx(expected, abs=1e-12)
        assert row["lambda_reduced"] == pytest.approx(expected, abs=1e-6)
        assert row["lambda_alternating"] == pytest.approx(expected, abs=1e-6)

    def test_triangle(self):
        code, out, _ = run_cli("oracle", "--gen", "cycle", "--n", "3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        for row in payload["rows"]:
            assert row["lambda_reduced"] == pytest.approx(0.7320508076, abs=1e-6)

    def test_empty_two_graph(self):
        code, out, _ = run_cli("oracle", "--gen", "erdos_renyi", "--n", "2", "--p", "0",
                               "--seed", "1", "--format", "json")
        assert code == EXIT_OK
        for row in json.loads(out)["rows"]:
            assert row["lambda_max"] == 1.0
            assert row["lambda_reduced"] == pytest.approx(1.0, abs=1e-8)

    def test_too_many_vertices(self):
        code, _, err = run_cli("oracle", "--gen", "complete", "--n", "4")
        assert code == EXIT_USAGE
        assert "limited to 3" in err


class TestScan:
    def test_kappa_grid_values(self):
        code, out, _ = run_cli("scan", "--kappa", "0,3,8,15", "--alpha", "1")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["kappa", "coupling_ratio", "entanglement"]
        assert [float(r[2]) for r in rows] == pytest.approx([0.0, 1 / 3, 1 / 2, 3 / 5], abs=1e-9)

    def test_monotone_in_coupling_ratio(self):
        code, out, _ = run_cli("scan", "--kappa-range", "0..10..0.5", "--alpha", "2")
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        ratios = [float(r[1]) for r in rows]
        ent = [float(r[2]) for r in rows]
        assert ratios == sorted(ratios)
        assert all(b >= a for a, b in zip(ent, ent[1:]))

    def test_ensemble_empty_graph(self):
        code, out, _ = run_cli("scan", "--gen", "erdos_renyi", "--n", "100", "--p", "0",
                               "--seed", "1")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["degree", "entanglement", "multiplicity"]
        assert rows == [["0", "0", "100"]]

    def test_ensemble_matches_closed_form(self):
        code, out, _ = run_cli("scan", "--gen", "erdos_renyi", "--n", "100", "--p", "0.05",
                               "--seed", "1", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        total = 0
        for row in payload["rows"]:
            expected = entanglement(KernelSpec(1.0, float(row["degree"])))
            assert row["entanglement"] == expected
            total += row["multiplicity"]
        assert total == 100

    def test_requires_exactly_one_mode(self):
        assert run_cli("scan", "--alpha", "1")[0] == EXIT_USAGE
        assert run_cli("scan", "--kappa", "1", "--gen", "star", "--n", "3")[0] == EXIT_USAGE

    def test_takes_no_graph_file(self, tmp_path):
        # argparse refuses the flag, so the path, which does not exist, is never opened
        code, out, err = run_cli("scan", "--graph", str(tmp_path / "missing.txt"), "--kappa", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --graph" in err

    def test_config_graph_is_an_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"graph = {tmp_path / 'missing.txt'}\n", encoding="utf-8")
        code, out, err = run_cli("scan", "--kappa", "1", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: unknown config key 'graph' for command 'scan'\n"

    @pytest.mark.parametrize("kind,draws", [("star", 1), ("erdos_renyi", 7)])
    def test_ensemble_draws_each_distinct_graph_once(self, monkeypatch, kind, draws):
        drawn = []
        original = graph_mod.generate

        def spy(spec):
            drawn.append(spec)
            return original(spec)

        monkeypatch.setattr(graph_mod, "generate", spy)
        extra = ("--p", "0.5", "--seed", "3") if kind == "erdos_renyi" else ()
        assert run_cli("scan", "--gen", kind, "--n", "5", *extra, "--samples", "7")[0] == EXIT_OK
        assert len(drawn) == draws

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("samples", [1, 3, 50])
    @pytest.mark.parametrize("kind", ["path", "cycle", "star", "complete"])
    def test_fixed_graph_ensemble_counts_every_sample(self, kind, samples, fmt):
        spec = graph_mod.GraphGenSpec(kind, 6)
        expected = {}
        for _ in range(samples):  # each sample drawn on its own, as an ensemble of random graphs is
            for degree in graph_mod.degree(graph_mod.generate(spec)).tolist():
                expected[degree] = expected.get(degree, 0) + 1
        code, out, err = run_cli("scan", "--gen", kind, "--n", "6", "--samples", str(samples), "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        if fmt == "json":
            rows = [(row["degree"], row["multiplicity"]) for row in json.loads(out)["rows"]]
        else:
            lines = [line.split(",") if fmt == "csv" else line.split() for line in out.splitlines()[1:]]
            rows = [(int(cells[0]), int(cells[2])) for cells in lines]
        assert rows == sorted(expected.items())


class TestUnreadInputs:
    """An input that the chosen path never reads is a usage error: exit 2 with one line naming it."""

    @pytest.fixture
    def edge_file(self, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("vertices 2\n0 1\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv,message", [
        (("profile", "--graph", "FILE", "--n", "50", "--seed", "3"), "--n is not read with --graph"),
        (("profile", "--graph", "FILE", "--seed", "3"), "--seed is not read with --graph"),
        (("oracle", "--graph", "FILE", "--p", "0.5"), "--p is not read with --graph"),
        (("scan", "--kappa", "1", "--n", "5", "--p", "0.3", "--seed", "2", "--samples", "7"),
         "--n is not read with a kappa grid"),
        (("scan", "--kappa", "1", "--samples", "-5"), "--samples is not read with a kappa grid"),
        (("scan", "--kappa-range", "0..2", "--p", "0.3"), "--p is not read with a kappa grid"),
        (("scan", "--kappa", "1", "--seed", "2"), "--seed is not read with a kappa grid"),
    ], ids=["profile-graph-n", "profile-graph-seed", "oracle-graph-p", "scan-grid-n",
            "scan-grid-samples", "scan-range-p", "scan-grid-seed"])
    def test_unread_input_is_usage_error(self, edge_file, argv, message):
        code, out, err = run_cli(*(edge_file if arg == "FILE" else arg for arg in argv))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {message}\n"

    def test_command_line_graph_drops_what_only_a_config_gen_reads(self, tmp_path, edge_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen = erdos_renyi\nn = 5\np = 0.5\nseed = 3\n", encoding="utf-8")
        code, out, err = run_cli("profile", "--graph", edge_file, "--config", str(cfg), "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["graph"] == {"n": 2, "source": edge_file, "seed": None}

    @pytest.mark.parametrize("line,flag", [("n = 5", "--n"), ("samples = 3", "--samples")])
    def test_config_ensemble_key_with_a_kappa_grid_is_usage_error(self, tmp_path, line, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli("scan", "--kappa", "1", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {flag} is not read with a kappa grid\n"


class TestGen:
    def test_star_file_round_trips(self, tmp_path):
        path = tmp_path / "star.txt"
        code, _, _ = run_cli("gen", "--gen", "star", "--n", "4", "--out", str(path))
        assert code == EXIT_OK
        g = parse_edge_list(path.read_text(encoding="utf-8"))
        assert g.n == 4
        assert list(g.edges()) == [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]

    def test_cycle_three_is_triangle(self):
        code, out, _ = run_cli("gen", "--gen", "cycle", "--n", "3")
        assert code == EXIT_OK
        g = parse_edge_list(out)
        assert list(g.edges()) == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]

    def test_seed_recorded_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ("gen", "--gen", "erdos_renyi", "--n", "10", "--p", "0.3", "--seed", "42")
        assert run_cli(*argv, "--out", str(a))[0] == EXIT_OK
        assert run_cli(*argv, "--out", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert "seed=42" in a.read_text(encoding="utf-8")

    def test_write_failure_is_io_error(self):
        code, _, err = run_cli("gen", "--gen", "star", "--n", "3",
                               "--out", "/no/such/dir/out.txt")
        assert code == EXIT_IO
        assert "cannot write" in err

    def test_takes_no_format(self, tmp_path):
        # gen writes the edge-list format only
        code, out, err = run_cli("gen", "--gen", "path", "--n", "3", "--format", "json")
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --format" in err
        assert "--format" not in cli._build_parser(["gen"])[1]["gen"].format_help()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = text\n", encoding="utf-8")
        code, out, err = run_cli("gen", "--gen", "path", "--n", "3", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: unknown config key 'format' for command 'gen'\n"


class TestConfigFile:
    def test_config_provides_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 3\ncount = 2\nformat = csv\n", encoding="utf-8")
        code, out, _ = run_cli("spectrum", "--config", str(cfg))
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(2 / 3, rel=1e-9)

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 3\ncount = 2\n", encoding="utf-8")
        code, out, _ = run_cli("spectrum", "--config", str(cfg), "--count", "4",
                               "--format", "csv")
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert len(rows) == 4

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n", encoding="utf-8")
        code, _, err = run_cli("spectrum", "--kappa", "1", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "unknown config key" in err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count 2\n", encoding="utf-8")
        code, _, err = run_cli("spectrum", "--kappa", "1", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "key = value" in err

    def test_abbreviated_flag_wins_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\n", encoding="utf-8")
        code, out, _ = run_cli("profile", "--gen", "star", "--n", "3", "--alph", "3",
                               "--config", str(cfg), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["alpha"] == 3.0

    def test_config_switches_on_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("numeric = yes\n", encoding="utf-8")
        argv = ("profile", "--gen", "path", "--n", "2", "--format", "json")
        code, out, _ = run_cli(*argv, "--config", str(cfg))
        assert code == EXIT_OK
        assert out == run_cli(*argv, "--numeric")[1]

    @pytest.mark.parametrize("command,source", [("profile", ("--gen", "path", "--n", "2")),
                                                ("validate", ("--kappa", "1"))])
    @pytest.mark.parametrize("line", ["grid-size = 64", "extent-mult = 10"])
    def test_config_grid_keys_are_unknown(self, tmp_path, command, source, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(command, *source, "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: unknown config key {line.split()[0]!r} for command {command!r}\n"

    def test_command_line_gen_beats_config_graph(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = /no/such/file.txt\n", encoding="utf-8")
        code, out, err = run_cli("profile", "--gen", "path", "--n", "3", "--config", str(cfg),
                                 "--format", "json")
        assert code == EXIT_OK, err
        assert json.loads(out)["graph"]["source"] == "gen:path(n=3)"

    def test_command_line_graph_beats_config_gen(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen = star\nn = 5\n", encoding="utf-8")
        path = tmp_path / "edge.txt"
        path.write_text("vertices 2\n0 1\n", encoding="utf-8")
        code, out, err = run_cli("profile", "--graph", str(path), "--config", str(cfg),
                                 "--format", "json")
        assert code == EXIT_OK, err
        assert json.loads(out)["graph"] == {"n": 2, "source": str(path), "seed": None}

    def test_command_line_kappa_range_beats_config_kappa(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1\n", encoding="utf-8")
        code, out, err = run_cli("validate", "--kappa-range", "0..2", "--config", str(cfg),
                                 "--format", "json")
        assert code == EXIT_OK, err
        assert [row["kappa"] for row in json.loads(out)["rows"]] == [0.0, 1.0, 2.0]

    def test_command_line_kappa_beats_config_kappa_range(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa-range = 0..2\n", encoding="utf-8")
        code, out, err = run_cli("scan", "--kappa", "3", "--config", str(cfg))
        assert code == EXIT_OK, err
        _, rows = csv_rows(out)
        assert [float(row[0]) for row in rows] == [3.0]

    @pytest.mark.parametrize("line", ["count = many", "format = xml"])
    def test_invalid_value_is_usage_error(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert run_cli("spectrum", "--kappa", "1", "--config", str(cfg))[0] == EXIT_USAGE


class TestSizeLimits:
    """Every size input is bounded when parsed: exit 2 with one line, before any allocation."""

    @pytest.mark.parametrize("argv,message", [
        (("oracle", "--gen", "path", "--n", "2", "--grid-size", "171"), "--grid-size must be >= 2 and <= 170, got 171"),
        (("oracle", "--gen", "path", "--n", "2", "--grid-size", "1"), "--grid-size must be >= 2"),
        (("profile", "--gen", "path", "--n", "10000000"), "up to n(n-1)/2 edges"),
        (("gen", "--gen", "complete", "--n", "10001"), "up to n(n-1)/2 edges"),
        (("scan", "--gen", "star", "--n", "10000000"), "up to n(n-1)/2 edges"),
        (("spectrum", "--kappa", "1", "--count", "1000000000000"), "--count"),
        (("scan", "--kappa-range", "0..1e12..1e-6"), "more than 100000"),
        (("validate", "--kappa-range", "0..1e12..1e-6"), "more than 100000"),
        (("scan", "--kappa-range", "0..inf"), "more than 100000"),
        (("scan", "--kappa-range", "0..nan"), "LO <= HI"),
    ], ids=["oracle-grid", "grid-below-two", "profile-n", "gen-n", "scan-n",
            "count", "scan-range", "validate-range", "infinite-range", "nan-range"])
    def test_oversized_input_is_usage_error(self, argv, message):
        code, out, err = run_cli(*argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_oversized_graph_file_header(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("vertices 10000000\n0 1\n", encoding="utf-8")
        code, _, err = run_cli("profile", "--graph", str(path))
        assert code == EXIT_USAGE
        assert "line 1" in err and "up to n(n-1)/2 edges" in err


class TestValueBounds:
    """A value outside its range is a usage error, never a FAIL table."""

    @pytest.mark.parametrize("argv,message", [
        (("validate", "--kappa", "1", "--tol", "nan"), "--tol must be positive and finite"),
        (("validate", "--kappa", "1", "--tol", "-1"), "--tol must be positive and finite"),
        (("validate", "--kappa", "1", "--tol", "0"), "--tol must be positive and finite"),
        (("validate", "--kappa", "1", "--tol", "inf"), "--tol must be positive and finite"),
        (("oracle", "--gen", "path", "--n", "2", "--tol", "nan"), "--tol must be positive and finite"),
        (("oracle", "--gen", "path", "--n", "2", "--tol", "-1"), "--tol must be positive and finite"),
        # the 24 nodes of --grid-size 32 pass the alias rule (T = 6.5), and the re-check refuses them
        (("oracle", "--gen", "cycle", "--n", "3", "--grid-size", "32"), "--grid-size 32 is too coarse"),
        # alpha**2 overflows a Python float above about 1.34e154
        (("validate", "--alpha", "1e300", "--kappa", "1e-300"), "alpha must be below 1.341e+154"),
        (("spectrum", "--alpha", "1e300", "--kappa", "1e-300"), "alpha must be below 1.341e+154"),
        (("profile", "--gen", "path", "--n", "2", "--alpha", "1e300"), "alpha must be below 1.341e+154"),
        (("scan", "--kappa", "1", "--alpha", "1e300"), "alpha must be below 1.341e+154"),
        (("scan", "--gen", "path", "--n", "2", "--alpha", "1e300"), "alpha must be below 1.341e+154"),
        # below about 1.5e-162 alpha**2 underflows to 0, and a kappa grid has no kappa / alpha**2
        (("scan", "--kappa", "1", "--alpha", "1e-200"), "--alpha 1e-200 underflows alpha**2 to 0"),
        # below about 1.49e-154 alpha**2 is subnormal, and kappa / alpha**2 would lose digits
        (("scan", "--kappa", "1", "--alpha", "1e-160"), "--alpha 1e-160 underflows alpha**2 to 1e-320"),
        # raised by the library and printed as it is
        (("profile", "--gen", "cycle", "--n", "2"), "cycle requires n >= 3, got 2"),
        (("profile", "--gen", "erdos_renyi", "--n", "5"), "erdos_renyi requires edge probability p"),
        (("gen", "--gen", "cycle", "--n", "2"), "cycle requires n >= 3, got 2"),
        (("spectrum", "--kappa", "-1"), "kappa must be nonnegative and finite, got -1.0"),
        (("validate", "--alpha", "0,1", "--kappa", "1"), "--alpha must be positive and finite, got 0.0"),
        # each sample generates a graph, so --samples is bounded as --count is
        (("scan", "--gen", "path", "--n", "2", "--samples", "100001"), "--samples must be in [1, 100000], got 100001"),
        (("scan", "--gen", "path", "--n", "2", "--samples", "0"), "--samples must be in [1, 100000], got 0"),
    ], ids=["validate-tol-nan", "validate-tol-negative", "validate-tol-zero", "validate-tol-inf",
            "oracle-tol-nan", "oracle-tol-negative", "oracle-grid-too-coarse",
            "validate-alpha-squared-overflows", "spectrum-alpha-squared-overflows",
            "profile-alpha-squared-overflows", "scan-grid-alpha-squared-overflows",
            "scan-ensemble-alpha-squared-overflows", "scan-grid-alpha-squared-underflows",
            "scan-grid-alpha-squared-subnormal",
            "profile-cycle-too-small", "profile-erdos-renyi-without-p",
            "gen-cycle-too-small", "spectrum-negative-kappa", "validate-alpha-zero",
            "scan-samples-above-the-cap", "scan-samples-zero"])
    def test_out_of_range_value_is_usage_error(self, argv, message):
        code, out, err = run_cli(*argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err


class TestOverflowingInputs:
    """Inputs whose arithmetic overflows a double end in one line, with no numpy RuntimeWarning."""

    @staticmethod
    def run_strict(*argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli(*argv)

    @pytest.mark.parametrize("command", ["profile", "oracle"])
    @pytest.mark.parametrize("edges,vertex", [
        ("0 1 1e307\n", 0),  # the square of the weight overflows
        ("0 2 1.2e154\n1 2 1.2e154\n", 2),  # each square is finite, their sum is not
        ("0 1 1.2e154\n1 2 1.2e154\n", 1),  # the same sum, of vertex 1 as the v and the u endpoint
    ], ids=["square", "sum", "split"])
    def test_kappa_overflow_names_the_vertex(self, tmp_path, command, edges, vertex):
        path = tmp_path / "huge.txt"
        path.write_text("vertices 3\n" + edges, encoding="utf-8")
        code, out, err = self.run_strict(command, "--graph", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: vertex {vertex}:") and "kappa is inf" in err

    def test_oracle_phase_overflow_names_alpha(self):
        code, out, err = self.run_strict("oracle", "--gen", "path", "--n", "2", "--alpha", "1e-308")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --alpha 1e-308 is too small: the oracle grid reaches 1e+155, " \
                      "where x x and the phases a x x' overflow\n"

    # below alpha ~ 5.6e-307 the nodes out to 10 / sqrt(alpha) square to inf, from ~1e-311 all of them
    @pytest.mark.parametrize("alpha", ["1e-308", "1e-313", "1e-315", "1e-320"])
    def test_envelope_overflow_is_refused(self, alpha):
        for argv in (("validate", "--alpha", alpha, "--kappa", "1"),
                     ("profile", "--gen", "path", "--n", "2", "--alpha", alpha, "--numeric")):
            code, out, err = self.run_strict(*argv)
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error:") and err.count("\n") == 1
            assert f"alpha={float(alpha):g}, kappa=1:" in err


    # above alpha ~ 6.7e153, (alpha + sqrt(alpha**2 + kappa))**2 is past the float range
    def test_scan_at_the_largest_alpha(self):
        code, out, err = self.run_strict("scan", "--alpha", "1e154", "--kappa", "1", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        row = json.loads(out)["rows"][0]
        assert row["entanglement"] == pytest.approx(2.5e-309, rel=1e-9)

    def test_profile_at_the_largest_alpha(self):
        code, out, err = self.run_strict("profile", "--gen", "path", "--n", "2", "--alpha", "1e154",
                                         "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        for vertex in json.loads(out)["vertices"]:
            assert vertex["lambda_max"] == 1.0
            assert vertex["entanglement"] == pytest.approx(2.5e-309, rel=1e-9)

    # there alpha**2 + kappa, and D = (alpha + sqrt(alpha**2 + kappa))**2, are past the float range too
    def test_scan_where_the_root_overflows(self):
        code, out, err = self.run_strict("scan", "--alpha", "1e154", "--kappa", "1e308", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["rows"][0]["entanglement"] == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)

    # a normal alpha**2 and a kappa that take kappa / alpha**2 = 1e350 past the float range
    def test_scan_ratio_past_the_float_range_is_inf(self):
        code, out, err = self.run_strict("scan", "--alpha", "1e-100", "--kappa", "0,1e150", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert [row["coupling_ratio"] for row in json.loads(out)["rows"]] == [0.0, math.inf]

    # alpha**2 is normal from alpha = 2**-511 up; below it is subnormal, and at alpha = 1e-160
    # it is 1e-320 to 1.1e-5, so kappa = 1e-20 printed a ratio of 1.0000111e300 for 1e300
    def test_scan_takes_alpha_down_to_the_smallest_normal_square(self):
        alpha = 2.0**-511
        assert alpha**2 == sys.float_info.min
        code, out, err = self.run_strict("scan", "--alpha", repr(alpha), "--kappa", "1", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["rows"][0]["coupling_ratio"] == 1.0 / alpha**2
        below = repr(math.nextafter(alpha, 0.0))
        code, out, err = self.run_strict("scan", "--alpha", below, "--kappa", "1", "--format", "json")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: --alpha {below} underflows alpha**2") and err.count("\n") == 1

    def test_spectrum_where_d_overflows(self):
        code, out, err = self.run_strict("spectrum", "--alpha", "1e154", "--kappa", "1e300", "--count", "2",
                                         "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["ratio"] == pytest.approx(2.5e-9, rel=1e-8)

    def test_uncoupled_cell_whose_extent_squares_past_the_float_range_is_refused(self):
        # L = 10 / sqrt(1e-308) = 1e155 squares to inf, so the kappa = 0 trace would drop its outer nodes
        code, out, err = self.run_strict("validate", "--alpha", "1e-308", "--kappa", "0", "--format", "csv")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "alpha=1e-308, kappa=0" in err


class TestUnderflowingAlpha:
    """Below alpha ~ 1.5e-162, alpha**2 underflows to 0; kappa = 0 still gives lambda_max = 1 and E = 0."""

    def test_profile_of_an_isolated_vertex(self):
        code, out, err = run_cli("profile", "--gen", "path", "--n", "1", "--alpha", "1e-200", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        vertex = json.loads(out)["vertices"][0]
        assert (vertex["lambda_max"], vertex["entanglement"]) == (1.0, 0.0)

    def test_spectrum_is_pure(self):
        code, out, err = run_cli("spectrum", "--alpha", "1e-200", "--kappa", "0", "--count", "2",
                                 "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert [row["value"] for row in json.loads(out)["rows"]] == [1.0, 0.0]

    def test_validate_passes(self):
        code, out, err = run_cli("validate", "--alpha", "1e-300", "--kappa", "0", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        row = json.loads(out)["rows"][0]
        assert row["lambda_max"] == 1.0 and row["converged"] is True

    def test_ensemble_scan_prints_no_ratio_and_runs(self):
        code, out, err = run_cli("scan", "--gen", "path", "--n", "3", "--alpha", "1e-200", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        rows = json.loads(out)["rows"]
        assert [sorted(row) for row in rows] == [["degree", "entanglement", "multiplicity"]] * 2
        assert [(row["degree"], row["multiplicity"]) for row in rows] == [(1, 2), (2, 1)]
        assert [row["entanglement"] for row in rows] == [entanglement(KernelSpec(1e-200, d)) for d in (1.0, 2.0)]


def rows_of(columns):
    """The JSON row dicts of ``columns``: value i of each column, nested at its key path, in row i."""
    rows = [{} for _ in columns[0][2]] if columns else []
    for _, path, values in columns:
        for row, value in zip(rows, values):
            for key in path[:-1]:
                row = row.setdefault(key, {})
            row[path[-1]] = value
    return rows


def reference_render(fmt, payload, rows_key, columns, footers):
    """The renderer before it went column by column: ``json.dumps`` of the row dicts, and the cell rule
    row by row."""
    if fmt == "json":
        return json.dumps({**payload, rows_key: rows_of(columns)}, indent=2) + "\n"
    shown = [(name, values) for name, _, values in columns if name is not None]
    header = [name for name, _ in shown]
    missing = "" if fmt == "csv" else "-"
    cells = [[expected_cell(value, missing) for value in row] for row in zip(*(values for _, values in shown))]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(header, *cells)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in [header] + cells]
    return "\n".join(lines + footers) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 5e-324]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.sampled_from([0, 1, 1.0, True, False] + SPECIAL_FLOATS),
)
# a column of one type takes the renderer's fast paths
COLUMN_KINDS = [SCALARS, st.floats() | st.sampled_from(SPECIAL_FLOATS), st.integers(-2**70, 2**70)]
KEYS = st.text(max_size=4).filter(lambda key: key != "numeric")


@st.composite
def tables(draw):
    """(payload, rows_key, columns, footers): columns of one length, some nested under "numeric", some
    JSON only, some long enough for the renderer to look for their repeats, and some of those long
    ones floats none of whose bits repeat."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=5, unique=True))
    nested = draw(st.lists(KEYS, max_size=3, unique=True))
    count = draw(st.integers(0, 8) | st.integers(cli.SHORT_COLUMN, cli.SHORT_COLUMN + 16))
    columns = []
    for path in [(key,) for key in keys] + [("numeric", key) for key in nested]:
        if count >= cli.SHORT_COLUMN and draw(st.booleans()):
            values = draw(st.lists(st.floats(), min_size=count, max_size=count,
                                   unique_by=lambda v: struct.pack("<d", v)))
        else:
            pool = draw(st.lists(draw(st.sampled_from(COLUMN_KINDS)), min_size=1, max_size=8))
            # so that columns repeat values, and long ones draw quickly
            values = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=count, max_size=count))]
        columns.append((draw(st.none() | st.just("/".join(path))), path, values))
    rows_key = draw(st.sampled_from(["rows", "vertices"]))
    payload = {"alpha": draw(SCALARS),
               "graph": {"n": draw(st.integers(0, 9)), "source": draw(st.text(max_size=6)),
                         "seed": draw(st.none() | st.integers())}}
    return payload, rows_key, columns, draw(st.lists(st.text(max_size=5), max_size=2))


class TestColumnRenderer:
    """One renderer, column by column, prints what json.dumps and the row-by-row cell rule print."""

    @settings(max_examples=300, deadline=None)
    @given(table=tables(), fmt=st.sampled_from(["json", "csv", "text"]))
    def test_matches_the_reference(self, table, fmt):
        payload, rows_key, columns, footers = table
        expected = reference_render(fmt, payload, rows_key, columns, footers)
        # as lists of lines, so that a failure reports the first line that differs, not a slow diff
        assert cli._render(fmt, payload, rows_key, columns, footers).split("\n") == expected.split("\n")

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_long_columns_of_signed_zeros_and_non_finite_floats(self, fmt):
        rng = np.random.default_rng(7)
        pool = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.5e-300]
        mixed = [pool[i] for i in rng.integers(0, len(pool), 1200).tolist()]
        columns = [
            ("mixed", ("mixed",), mixed),
            ("finite", ("finite",), [v if math.isfinite(v) else 0.0 for v in mixed]),
            ("zeros", ("zeros",), [math.copysign(0.0, v) for v in mixed]),
            ("count", ("count",), rng.integers(-3, 3, 1200).tolist()),
            (None, ("numeric", "flag"), [None if v != v else v > 0 for v in mixed]),
        ]
        assert {type(v) for _, _, values in columns[:3] for v in values} == {float}
        payload = {"alpha": 1.0}
        expected = reference_render(fmt, payload, "rows", columns, ["footer"])
        assert cli._render(fmt, payload, "rows", columns, ["footer"]).split("\n") == expected.split("\n")

    def test_spectrum_of_the_largest_count_is_json_dumps(self):
        code, out, _ = run_cli("spectrum", "--kappa", "3", "--count", "100000", "--format", "json")
        assert code == EXIT_OK
        assert out.split("\n") == (json.dumps(json.loads(out), indent=2) + "\n").split("\n")

    @pytest.mark.parametrize("fmt,expected", [
        ("json", '{\n  "alpha": 1.0,\n  "mode": "grid",\n  "rows": [\n'
                 '    {\n      "kappa": 0.0,\n      "coupling_ratio": 0.0,\n      "entanglement": 0.0\n    },\n'
                 '    {\n      "kappa": -0.0,\n      "coupling_ratio": -0.0,\n      "entanglement": -0.0\n    }\n'
                 '  ]\n}\n'),
        ("csv", "kappa,coupling_ratio,entanglement\n0,0,0\n-0,-0,-0\n"),
        ("text", "kappa  coupling_ratio  entanglement\n0      0               0\n-0     -0              -0\n"),
    ], ids=["json", "csv", "text"])
    def test_negative_zero_keeps_its_sign(self, fmt, expected):
        assert run_cli("scan", "--kappa", "0,-0.0", "--format", fmt) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_columns_of_unequal_length_are_an_error(self, fmt):
        columns = [("a", ("a",), [1.0, 2.0]), ("b", ("numeric", "b"), [1.0])]
        with pytest.raises(ValueError, match="columns differ in length"):
            cli._render(fmt, {"alpha": 1.0}, "rows", columns, [])

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("container", [{"x": 1}, [1], (1,)], ids=["dict", "list", "tuple"])
    @pytest.mark.parametrize("head", [[None], [1.5] * 80], ids=["short", "long-floats"])
    def test_container_in_a_column_is_an_error(self, fmt, container, head):
        with pytest.raises(TypeError):
            cli._render(fmt, {"alpha": 1.0}, "rows", [("a", ("a",), head + [container])], [])


class TestConfigIsolation:
    """A --config call's defaults stay with that call."""

    def test_config_defaults_do_not_carry_over(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\n", encoding="utf-8")
        argv = ("profile", "--gen", "star", "--n", "3", "--format", "json")
        code, out, _ = run_cli(*argv, "--config", str(cfg))
        assert code == EXIT_OK and json.loads(out)["alpha"] == 2.0
        code, out, _ = run_cli(*argv)
        assert code == EXIT_OK and json.loads(out)["alpha"] == 1.0


class TestEdgeStorage:
    """Graphs are edge arrays: the commands that read graphs never build the n x n matrix."""

    def test_hot_path_never_reads_the_dense_matrix(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text(WEIGHTED_EDGE_LIST, encoding="utf-8")
        er = ("--gen", "erdos_renyi", "--n", "300", "--p", "0.02", "--seed", "3")
        for argv in (("profile", *er, "--format", "json"), ("scan", *er, "--samples", "2"), ("gen", *er),
                     ("profile", "--graph", str(path))):
            code, out, err = run_cli(*argv)
            assert code == EXIT_OK, err
            assert out

    # The child reports the peak RSS of its own program, in KiB. Its ru_maxrss
    # would not do: Linux carries the RSS this process had when it forked the
    # child into the ru_maxrss of the program the child execs, so a child of a
    # 280 MB pytest process reports at least 280 MB. VmHWM counts only the
    # pages of the program since exec.
    PEAK_KIB = ("def peak_kib():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return int(next(line for line in fh if line.startswith('VmHWM:')).split()[1])\n")

    def test_largest_erdos_renyi_profile_stays_small(self):
        script = self.PEAK_KIB + ("import contextlib, io\n"
                                  "from cvge.cli import main\n"
                                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                                  "    code = main(['profile', '--gen', 'erdos_renyi', '--n', '10000',\n"
                                  "                 '--p', '0.0005', '--seed', '1'])\n"
                                  "print(code, peak_kib())\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        code, peak_kib = proc.stdout.split()
        assert code == "0"
        assert int(peak_kib) < 150 * 1024

    def test_oracle_refuses_many_vertices_before_building_them(self):
        # the complete graph on 3000 vertices has 4.5 million edges, and building it
        # to learn that the oracle takes at most 3 vertices peaked at 288 MB
        script = self.PEAK_KIB + ("import contextlib, io\n"
                                  "from cvge.cli import main\n"
                                  "before = peak_kib()\n"
                                  "err = io.StringIO()\n"
                                  "with contextlib.redirect_stderr(err):\n"
                                  "    code = main(['oracle', '--gen', 'complete', '--n', '3000'])\n"
                                  "print(code, peak_kib() - before)\n"
                                  "print(err.getvalue(), end='')\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        first, message = proc.stdout.split("\n", 1)
        code, grown_kib = first.split()
        assert code == str(EXIT_USAGE)
        assert message == ("error: full-state reduction is a brute-force check limited to 3 vertices "
                           "(tensor grids grow exponentially), got n=3000\n")
        assert int(grown_kib) < 8 * 1024

    def test_oracle_refuses_a_many_vertex_file_before_parsing_its_edges(self, tmp_path):
        # the complete graph on 700 vertices: 244,650 edge lines, whose conversion
        # grew VmHWM by 42 MiB before the oracle's 3-vertex limit refused the graph
        path = tmp_path / "complete700.txt"
        path.write_text(graph_mod.serialize_edge_list(graph_mod.generate(graph_mod.GraphGenSpec("complete", 700))),
                        encoding="utf-8")
        script = self.PEAK_KIB + ("import contextlib, io, sys\n"
                                  "from cvge.cli import main\n"
                                  "before = peak_kib()\n"
                                  "err = io.StringIO()\n"
                                  "with contextlib.redirect_stderr(err):\n"
                                  "    code = main(['oracle', '--graph', sys.argv[1]])\n"
                                  "print(code, peak_kib() - before)\n"
                                  "print(err.getvalue(), end='')\n")
        proc = run_python("-c", script, str(path))
        assert proc.returncode == 0, proc.stderr
        first, message = proc.stdout.split("\n", 1)
        code, grown_kib = first.split()
        assert code == str(EXIT_USAGE)
        assert message == ("error: full-state reduction is a brute-force check limited to 3 vertices "
                           "(tensor grids grow exponentially), got n=700\n")
        assert int(grown_kib) < 8 * 1024

    def test_oracle_refuses_a_large_file_without_reading_it_whole(self, tmp_path):
        # the complete graph on 1415 vertices: 1,000,405 edge lines, 8.4 MB of text.
        # Reading it whole before the header check grew VmHWM by 16 MiB; the
        # parser reads the header's block of about 64 KiB and stops there
        path = tmp_path / "complete1415.txt"
        path.write_text(graph_mod.serialize_edge_list(graph_mod.generate(graph_mod.GraphGenSpec("complete", 1415))),
                        encoding="utf-8")
        script = self.PEAK_KIB + ("import contextlib, io, sys\n"
                                  "from cvge.cli import main\n"
                                  "before = peak_kib()\n"
                                  "with contextlib.redirect_stderr(io.StringIO()):\n"
                                  "    code = main(['oracle', '--graph', sys.argv[1]])\n"
                                  "print(code, peak_kib() - before)\n")
        proc = run_python("-c", script, str(path))
        assert proc.returncode == 0, proc.stderr
        code, grown_kib = proc.stdout.split()
        assert code == str(EXIT_USAGE)
        assert int(grown_kib) < 4 * 1024

    def test_million_edge_parse_stays_small(self, tmp_path):
        # the weighted complete graph on 1415 vertices: 1,000,405 edge lines, about 27 MB of text
        g = graph_mod.generate(graph_mod.GraphGenSpec("complete", 1415))
        w = np.random.default_rng(7).uniform(0.1, 2.0, g.u.size)
        path = tmp_path / "big.txt"
        path.write_text(graph_mod.serialize_edge_list(graph_mod.Graph.from_edges(g.n, g.u, g.v, w)),
                        encoding="utf-8")
        del g, w
        script = self.PEAK_KIB + ("import sys\n"
                                  "from cvge import graph\n"
                                  "text = open(sys.argv[1], encoding='utf-8').read()\n"
                                  "before = peak_kib()\n"
                                  "parsed = graph.parse_edge_list(text)\n"
                                  "print(parsed.u.size, peak_kib() - before)\n")
        proc = run_python("-c", script, str(path))
        assert proc.returncode == 0, proc.stderr
        edges, grown_kib = proc.stdout.split()
        assert edges == "1000405"
        assert int(grown_kib) < 250 * 1024


class TestExitCodes:
    def test_unknown_command_is_usage(self):
        assert run_cli("frobnicate")[0] == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run_cli("--help")[0] == 0

    def test_usage_error_from_argparse(self):
        assert run_cli("profile", "--format", "xml")[0] == EXIT_USAGE



# the values the contract fuzzer draws: half of them at the edges (signed zeros, the smallest subnormal, the
# float range's ends, the square root of its top, NaN, infinities, ints out of every command's range), half
# ordinary; generated graphs have at most 3 vertices
FUZZ_FLOATS = st.sampled_from(["0", "-0", "5e-324", "1e-308", "1e308", "-1e308", "1e154", "nan", "inf", "-inf"]) \
    | st.sampled_from(["0.5", "1", "2.5"])
FUZZ_COUNTS = st.sampled_from(["-1", "0", str(cli.MAX_ROWS + 1), str(2**31), str(2**63)]) \
    | st.sampled_from(["1", "2", "3"])
FUZZ_FILES = {"edge.txt": "vertices 2\n0 1 1.5\n",
              "path.txt": "vertices 3\n0 1\n1 2\n",
              "heavy.txt": "vertices 3\n0 1 1e154\n1 2 -1e-308\n"}


@st.composite
def cli_calls(draw):
    """One argv for ``main``: a command and any of its options, each drawn from the fuzzer's values."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [command]
    if cli.COMMANDS[command].default_format is not None:  # gen writes no table and takes no --format
        argv += ["--format", draw(st.sampled_from(cli.FORMATS))]

    def maybe(flag, values):
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")  # one token, so that argparse takes "-inf" as a value

    def generated():
        kind = draw(st.sampled_from(graph_mod.GENERATOR_KINDS))
        argv.extend(["--gen", kind, f"--n={draw(FUZZ_COUNTS)}"])
        if kind == "erdos_renyi" or draw(st.booleans()):
            maybe("--p", FUZZ_FLOATS)
            maybe("--seed", FUZZ_COUNTS)

    floats = st.lists(FUZZ_FLOATS, min_size=1, max_size=2).map(",".join)
    if command in ("profile", "oracle"):
        source = draw(st.sampled_from(["graph", "gen", "none"]))
        if source == "graph":
            argv += ["--graph", draw(st.sampled_from(sorted(FUZZ_FILES)))]
        elif source == "gen":
            generated()
    # scan takes a graph ensemble or a kappa grid, validate a kappa grid: --kappa, --kappa-range or both
    couplings = draw(st.sampled_from(["gen", "kappa", "range", "both"])) if command in ("scan", "validate") else ""
    if command == "gen" or couplings == "gen" and command == "scan":
        generated()
    if command != "gen":
        maybe("--alpha", floats if command == "validate" else FUZZ_FLOATS)
    if command == "spectrum" or couplings in ("kappa", "both"):
        maybe("--kappa", floats if command != "spectrum" else FUZZ_FLOATS)
    if couplings in ("range", "both"):
        maybe("--kappa-range", st.tuples(FUZZ_FLOATS, FUZZ_FLOATS).map("..".join))
    if command in ("validate", "oracle"):
        maybe("--tol", FUZZ_FLOATS)
    if command == "spectrum":
        maybe("--count", FUZZ_COUNTS)
    if command == "scan" and (couplings == "gen" or draw(st.booleans())):
        maybe("--samples", FUZZ_COUNTS)
    if command == "profile" and draw(st.booleans()):
        argv.append("--numeric")
    if command == "oracle":
        maybe("--grid-size", st.sampled_from(["-1", "1", "2", "16", "64", "170", "171", str(2**63)]))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


class TestCliContract:
    """Every command keeps the exit-code contract on edge-of-range input, with numpy's warnings as errors."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(argv=cli_calls())
    def test_exit_codes_and_streams(self, argv, fuzz_dir):
        cwd = os.getcwd()
        os.chdir(fuzz_dir)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(*argv)
        finally:
            os.chdir(cwd)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_IO), argv
        if code == EXIT_USAGE:
            assert out == "", argv
            if not err.startswith("usage:"):  # argparse prints its own usage errors
                assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        elif code in (EXIT_OK, EXIT_FAIL):
            assert err == "", (argv, err)
        if code == EXIT_FAIL:
            # a FAIL verdict of a command that has one, and nothing else
            assert argv[0] in ("validate", "oracle"), argv
            fmt = argv[2]
            assert json.loads(out)["pass"] is False if fmt == "json" else fmt == "csv" or "FAIL:" in out


class TestParserBuild:
    """A call that names its command builds only that command's parser; every other argv gets all six."""

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_command_help_is_the_full_trees(self, command):
        _, registry = cli._build_parser(cli.COMMANDS)
        assert run_cli(command, "--help") == (0, registry[command].format_help(), "")

    def test_top_level_help_lists_every_command(self):
        code, out, err = run_cli("--help")
        assert (code, err) == (0, "")
        assert out == cli._build_parser(cli.COMMANDS)[0].format_help()
        assert all(re.search(rf"^    {name} ", out, re.MULTILINE) for name in cli.COMMANDS)

    def test_no_command_is_usage(self):
        code, out, err = run_cli()
        assert (code, out) == (EXIT_USAGE, "")
        assert "the following arguments are required: command" in err

    def test_unknown_command_names_every_command(self):
        code, out, err = run_cli("frobnicate")
        assert (code, out) == (EXIT_USAGE, "")
        # the quoting of the choices differs across Python versions; the names do not
        choices = err[err.index("(choose from"):]
        assert all(re.search(rf"\b{name}\b", choices) for name in cli.COMMANDS)

    def test_named_command_builds_one_subparser(self, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        assert run_cli("validate", "--kappa", "1")[0] == EXIT_OK
        assert built == ["validate"]
        built.clear()
        assert run_cli("frobnicate")[0] == EXIT_USAGE
        assert built == list(cli.COMMANDS)

    @pytest.mark.parametrize("line", ["numeric = yes", "samples = 3", "count = 4"])
    def test_config_key_of_another_command_is_unknown(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli("validate", "--kappa", "1", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: unknown config key") and "'validate'" in err


class TestVectorizedGraphPath:
    """The graph layer is entered once per graph, not once per vertex."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"degree": 0, "kappa": 0}
        for name in counts:
            original = getattr(graph_mod, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(graph_mod, name, counted)
        return counts

    def test_profile_reads_each_vector_once(self, calls):
        code, out, _ = run_cli("profile", "--gen", "erdos_renyi", "--n", "500", "--p", "0.01",
                               "--seed", "2", "--format", "csv")
        assert code == EXIT_OK
        assert len(csv_rows(out)[1]) == 500
        assert calls["degree"] <= 1 and calls["kappa"] <= 1

    def test_ensemble_scan_reads_degrees_once_per_sample(self, calls):
        code, _, _ = run_cli("scan", "--gen", "erdos_renyi", "--n", "200", "--p", "0.02",
                             "--seed", "4", "--samples", "3")
        assert code == EXIT_OK
        assert calls["degree"] <= 3


class TestOneDegreeLawPath:
    """Every command takes lambda_max and E from ``closed_forms``, and every quadrature check from one helper."""

    @staticmethod
    def unsorted_kappas():
        """10,004 kappa in random order, most of them listed more than once, with 0.0 and -0.0 twice each."""
        rng = np.random.default_rng(24)
        pool = np.exp(rng.uniform(-20.0, 20.0, 4000)).tolist() + [float(d) for d in range(1, 50)]
        kappas = [pool[i] for i in rng.integers(0, len(pool), 10_000).tolist()]
        for at, zero in ((17, -0.0), (2500, 0.0), (5000, -0.0), (7500, 0.0)):
            kappas.insert(at, zero)
        return kappas

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3, 1e154])
    def test_scan_grid_is_the_scalar_rows_in_the_old_order(self, alpha):
        # at alpha = 1e154, alpha**2 + 1e308 overflows, so the root goes through hypot
        kappas = [1e308, 1.0, 0.0, 1e308, -0.0] if alpha == 1e154 else self.unsorted_kappas()
        code, out, _ = run_cli("scan", "--alpha", repr(alpha), "--kappa=" + ",".join(map(repr, kappas)),
                               "--format", "json")
        assert code == EXIT_OK
        # the rows as they were built before: one KernelSpec per kappa, sorted by (ratio, kappa)
        specs = sorted((KernelSpec(alpha, kap) for kap in kappas),
                       key=lambda spec: (spec.coupling_ratio, spec.kappa))
        expected = [(spec.kappa.hex(), spec.coupling_ratio.hex(), entanglement(spec).hex()) for spec in specs]
        assert [(row["kappa"].hex(), row["coupling_ratio"].hex(), row["entanglement"].hex())
                for row in json.loads(out)["rows"]] == expected

    def test_no_command_calls_the_scalar_closed_form(self, monkeypatch, tmp_path):
        def refuse(spec):
            raise RuntimeError(f"scalar closed form called at {spec}")

        monkeypatch.setattr(cf, "lambda_max", refuse)
        monkeypatch.setattr(cf, "entanglement", refuse)
        checked = []
        original = cli._quadrature_checks
        monkeypatch.setattr(cli, "_quadrature_checks", lambda *args: checked.append(1) or original(*args))
        for argv, shares_the_check in [
            (("profile", "--gen", "erdos_renyi", "--n", "30", "--p", "0.2", "--seed", "3"), False),
            (("profile", "--gen", "star", "--n", "4", "--numeric"), True),
            (("scan", "--kappa", "0,3,1,3"), False),
            (("scan", "--gen", "erdos_renyi", "--n", "30", "--p", "0.2", "--seed", "3", "--samples", "2"), False),
            (("validate", "--alpha", "1,2", "--kappa", "0,1,2"), True),
            (("oracle", "--gen", "path", "--n", "2"), False),
        ]:
            checked.clear()
            assert run_cli(*argv)[0] == EXIT_OK, argv
            assert bool(checked) == shares_the_check, argv

    def test_validate_solves_each_distinct_kappa_once(self, monkeypatch):
        solved = []
        original = cli.num.numeric_entanglement
        monkeypatch.setattr(cli.num, "numeric_entanglement",
                            lambda spec: solved.append(spec.kappa) or original(spec))
        code, out, _ = run_cli("validate", "--kappa", "1,1,2", "--format", "json")
        assert code == EXIT_OK
        assert solved == [1.0, 2.0]
        per_cell = [json.loads(run_cli("validate", "--kappa", kap, "--format", "json")[1])["rows"][0]
                    for kap in ("1", "1", "2")]
        assert json.loads(out)["rows"] == per_cell


# Edge weights that are exact binary fractions, so every kappa is exact
# whatever order its squares are summed in.
WEIGHTED_EDGE_LIST = """# exact binary-fraction weights
vertices 5
0 1 0.5
0 2 1.5
1 2 2.25
2 3 0.5
3 4 1.5
4 0
"""

ENSEMBLE = ("scan", "--gen", "erdos_renyi", "--n", "100", "--p", "0.05", "--seed", "1", "--samples", "4")

# sha256 of stdout. The binary-graph digests were recorded before the graph
# layer computed all vertices in one pass (binary graphs have integer kappa);
# the validate digests before the solver took its step from the kernel's
# widths; the three largest graphs (gen, profile and scan) before graphs were
# stored as edge arrays; the rest before CSV and text were rendered from the JSON rows. All
# but the validate ones are closed-form output, so they do not depend on the
# platform; the validate JSON holds quadrature values at full precision.
ACCEPTANCE_GRID = ("validate", "--alpha", "0.5,1,2,4", "--kappa", "0,1,2,3,5,8,9")
BINARY_OUTPUT_DIGESTS = [
    (("profile", "--gen", "erdos_renyi", "--n", "200", "--p", "0.05", "--seed", "1", "--format", "json"),
     "ba6052a7f8572319b89e3fc8fc58aa276f448abe746302902fb86e2741d90c60"),
    (("profile", "--gen", "erdos_renyi", "--n", "200", "--p", "0.05", "--seed", "1", "--format", "csv"),
     "ddea3bd188ac02b63b212e9d703b05f411a996607a0b016125e639e1cd548255"),
    (("profile", "--gen", "erdos_renyi", "--n", "200", "--p", "0.05", "--seed", "1", "--format", "text"),
     "e9b80465e96220e95d6e49e3584904a0d5cd9af1c89c142d7732ed380fed6f52"),
    (ENSEMBLE, "006a922ee0bc48a04e8b29e5ff12a32f17046c54513baea643aebaaaf2f504dd"),
    (("profile", "--graph", "weighted.txt", "--format", "json"),
     "06728ef15313000af502a9b62e05c9ca52e8a9afd8a43589105f4f2e9a1c8164"),
    (("profile", "--graph", "weighted.txt", "--format", "csv"),
     "ca9d4eeb9c36c6e961b0f7714378b8e1f98eb3cd3a900649272c8e0b475b695f"),
    (("profile", "--graph", "weighted.txt", "--format", "text"),
     "cc672c24e44d5f05da9f435139a9f58f00447970ffdf57b88787aa0aa7b04d02"),
    (("spectrum", "--kappa", "3", "--count", "8", "--format", "json"),
     "d4a6a27a65c1e58b68df56395a84479590ab55a850d880c2330e232791f48220"),
    (("spectrum", "--kappa", "3", "--count", "8", "--format", "csv"),
     "1e1a29afc772041773f1c75c09af6d61e20f2620baf1259ca1c119e7e24e768a"),
    (("spectrum", "--kappa", "3", "--count", "8", "--format", "text"),
     "4032c011d14d855016c9e395d242a52f2784446f992c4faf8570458f83078b86"),
    (("scan", "--kappa-range", "0..10..0.5", "--format", "json"),
     "e42a319d6342ba37289e028d4f8413dde7255606fd78b206047fb69d895e6e8d"),
    (("scan", "--kappa-range", "0..10..0.5", "--format", "text"),
     "388e8a76e03d2d6ba6ac77561a40124bd33f886cce64b129e191a007fe7bd2d3"),
    ((*ENSEMBLE, "--format", "json"), "6ca77fe0c4fd15f7bd8aa5b793704481fedc5614e086e6fe2e178cf5e6c8cd25"),
    ((*ENSEMBLE, "--format", "text"), "fe931a04351c5cef2d1fce68adf7555d277acf0a9f2c6738aff303480b387cab"),
    ((*ACCEPTANCE_GRID, "--format", "json"),
     "ed083f1a645d75155d7b3f1163fec6ac9eeda5dff60382ff7d68b77a8cde35ca"),
    ((*ACCEPTANCE_GRID, "--format", "csv"),
     "4f56b94c403520bdeda8888845eec75c32fe49f5c3bd23546d010b7390eeab3f"),
    ((*ACCEPTANCE_GRID, "--format", "text"),
     "8c3b36417b502670e22a7bf07fa06c24f6cead24b41f415a55a66ef7358db968"),
    (("gen", "--gen", "erdos_renyi", "--n", "500", "--p", "0.02", "--seed", "2"),
     "228ceb963c95bce441b6e7da69da6277c4e20b2b28fd3c74ff2960d63ab5bc32"),
    (("profile", "--gen", "erdos_renyi", "--n", "10000", "--p", "0.0005", "--seed", "1", "--format", "json"),
     "1503ebb4f0629578c96067f5eec332f7bb27fca235d4201099956c588e31dc99"),
    (("scan", "--gen", "erdos_renyi", "--n", "2000", "--p", "0.003", "--seed", "5", "--samples", "3",
      "--format", "json"), "fdc7100b1df499adae9d5b69f0f5cbe430a3518226340f131220cb8583498fa7"),
]


@pytest.mark.parametrize("argv,digest", BINARY_OUTPUT_DIGESTS,
                         ids=["profile-json", "profile-csv", "profile-text", "scan-csv",
                              "weighted-profile-json", "weighted-profile-csv", "weighted-profile-text",
                              "spectrum-json", "spectrum-csv", "spectrum-text",
                              "scan-grid-json", "scan-grid-text", "scan-ensemble-json",
                              "scan-ensemble-text", "validate-grid-json", "validate-grid-csv",
                              "validate-grid-text", "gen-erdos-renyi-500", "profile-erdos-renyi-10000-json",
                              "scan-erdos-renyi-2000-json"])
def test_binary_graph_output_is_unchanged(argv, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weighted.txt").write_text(WEIGHTED_EDGE_LIST, encoding="utf-8")
    code, out, _ = run_cli(*argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def expected_cell(value, missing):
    """The cell rule CSV and text follow: yes/NO, int as is, float to 10 digits, None missing."""
    if value is None:
        return missing
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


VALIDATE_KEYS = ["alpha", "kappa", "lambda_max", "lambda_max_kappa_over_alpha", "lambda_numeric",
                 "dev_closed", "dev_kappa_over_alpha", "grid_size", "converged"]
ORACLE_KEYS = ["vertex", "kappa", "lambda_max", "lambda_reduced", "lambda_alternating",
               "dev_reduced", "dev_alternating"]


@pytest.mark.parametrize("argv,exit_code,rows_key,keys,has_missing", [
    (ACCEPTANCE_GRID, EXIT_OK, "rows", VALIDATE_KEYS, False),
    # both cells converge, and the tolerance is below their roundoff
    (("validate", "--kappa", "0,1", "--tol", "1e-18"), EXIT_FAIL, "rows", VALIDATE_KEYS, False),
    (("oracle", "--gen", "path", "--n", "3"), EXIT_OK, "rows", ORACLE_KEYS, False),
    (("oracle", "--gen", "path", "--n", "1"), EXIT_OK, "rows", ORACLE_KEYS, True),
    (("profile", "--graph", "weighted.txt", "--alpha", "2", "--numeric"), EXIT_OK, "vertices",
     ["id", "degree", "kappa", "lambda_max", "entanglement",
      ("numeric", "lambda_max"), ("numeric", "deviation"), ("numeric", "grid_size"),
      ("numeric", "converged")], True),
], ids=["validate-grid", "validate-fail", "oracle-path-3", "oracle-one-vertex",
        "profile-weighted-numeric"])
def test_csv_and_text_rows_are_json_rows_under_the_cell_rule(argv, exit_code, rows_key, keys,
                                                             has_missing, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weighted.txt").write_text(WEIGHTED_EDGE_LIST, encoding="utf-8")
    outputs = {}
    for fmt in ("json", "csv", "text"):
        code, outputs[fmt], _ = run_cli(*argv, "--format", fmt)
        assert code == exit_code
    values = []
    for row in json.loads(outputs["json"])[rows_key]:
        values.append([row[key] if isinstance(key, str) else row[key[0]][key[1]] for key in keys])
    assert any(v is None for row in values for v in row) == has_missing

    header, *csv_cells = csv.reader(io.StringIO(outputs["csv"]))
    assert csv_cells == [[expected_cell(v, "") for v in row] for row in values]
    text_lines = outputs["text"].splitlines()
    assert text_lines[0].split() == header
    assert [line.split() for line in text_lines[1:1 + len(values)]] == [
        [expected_cell(v, "-") for v in row] for row in values]


def readme_cli_examples():
    """Every ``cvge ...`` example of README.md's CLI section, in code blocks or inline."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):]
    end = section.find("\n## ", 1)
    section = section if end < 0 else section[:end]
    found = re.finditer(r"^[ \t]*(cvge [^\n]+)$|`(cvge [^`]+)`", section, re.M)
    examples = [re.sub(r"\s+#.*", "", m.group(1) or m.group(2)) for m in found]
    # the synopsis is no example, and a named input file is not in the tree
    return [e for e in examples if "<" not in e and "--graph" not in e]


def test_readme_finds_its_cli_examples():
    assert len(readme_cli_examples()) >= 8


@pytest.mark.parametrize("example", readme_cli_examples())
def test_readme_cli_example_runs(example, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(*shlex.split(example)[1:])
    assert code == EXIT_OK, err
