"""End-to-end CLI behaviour: outputs, formats, exit codes, determinism."""

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cvge import graph as graph_mod
from cvge.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from cvge.closed_form import KernelSpec, entanglement
from cvge.graph import parse_edge_list


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
        code, out, _ = run_cli("profile", "--gen", "cycle", "--n", "3", "--numeric",
                               "--grid-size", "64", "--format", "csv")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        dev_col = header.index("deviation")
        assert all(float(row[dev_col]) < 1e-8 for row in rows)

    def test_numeric_flag_keeps_closed_columns(self):
        _, plain, _ = run_cli("profile", "--gen", "star", "--n", "4", "--format", "csv")
        _, numeric, _ = run_cli("profile", "--gen", "star", "--n", "4", "--numeric",
                                "--grid-size", "64", "--format", "csv")
        _, plain_rows = csv_rows(plain)
        _, numeric_rows = csv_rows(numeric)
        for a, b in zip(plain_rows, numeric_rows):
            assert a == b[:5]

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
        code, out, _ = run_cli("validate", "--alpha", "1", "--kappa-range", "1..5",
                               "--grid-size", "64", "--format", "text")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_adjudication_row_passes_with_visible_gap(self):
        code, out, _ = run_cli("validate", "--alpha", "4", "--kappa", "9",
                               "--grid-size", "64", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        row = payload["rows"][0]
        assert row["lambda_numeric"] == pytest.approx(8.0 / 9.0, abs=1e-8)
        assert row["dev_closed"] < 1e-8
        assert row["dev_kappa_over_alpha"] > 1e-2

    def test_uncoupled_row_all_unit(self):
        code, out, _ = run_cli("validate", "--alpha", "1", "--kappa", "0",
                               "--grid-size", "64", "--format", "json")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["lambda_max"] == 1.0
        assert row["lambda_max_kappa_over_alpha"] == 1.0
        assert row["lambda_numeric"] == pytest.approx(1.0, abs=1e-10)

    def test_alpha_list(self):
        code, out, _ = run_cli("validate", "--alpha", "1,2", "--kappa", "1,3",
                               "--grid-size", "64", "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 4

    def test_impossible_tolerance_fails(self):
        code, out, _ = run_cli("validate", "--alpha", "1", "--kappa", "1",
                               "--grid-size", "64", "--tol", "1e-18")
        assert code == EXIT_FAIL
        assert "FAIL" in out

    def test_kappa_required(self):
        assert run_cli("validate", "--alpha", "1")[0] == EXIT_USAGE


class TestOracle:
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


class TestGen:
    def test_star_file_round_trips(self, tmp_path):
        path = tmp_path / "star.txt"
        code, _, _ = run_cli("gen", "--gen", "star", "--n", "4", "--out", str(path))
        assert code == EXIT_OK
        g = parse_edge_list(path.read_text(encoding="utf-8"))
        assert g.n == 4
        assert int(g.coupling[0].sum()) == 3

    def test_cycle_three_is_triangle(self):
        code, out, _ = run_cli("gen", "--gen", "cycle", "--n", "3")
        assert code == EXIT_OK
        g = parse_edge_list(out)
        assert all(int(g.coupling[v].sum()) == 2 for v in range(3))

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
        cfg.write_text("numeric = yes\ngrid-size = 64\n", encoding="utf-8")
        argv = ("profile", "--gen", "path", "--n", "2", "--format", "json")
        code, out, _ = run_cli(*argv, "--config", str(cfg))
        assert code == EXIT_OK
        assert out == run_cli(*argv, "--numeric", "--grid-size", "64")[1]

    @pytest.mark.parametrize("line", ["count = many", "format = xml"])
    def test_invalid_value_is_usage_error(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert run_cli("spectrum", "--kappa", "1", "--config", str(cfg))[0] == EXIT_USAGE


class TestExitCodes:
    def test_unknown_command_is_usage(self):
        assert run_cli("frobnicate")[0] == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run_cli("--help")[0] == 0

    def test_usage_error_from_argparse(self):
        assert run_cli("profile", "--format", "xml")[0] == EXIT_USAGE


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


# sha256 of stdout, recorded before the graph layer computed all vertices in
# one pass; binary graphs have integer kappa, so their output must not change.
BINARY_OUTPUT_DIGESTS = [
    (("profile", "--gen", "erdos_renyi", "--n", "200", "--p", "0.05", "--seed", "1", "--format", "json"),
     "ba6052a7f8572319b89e3fc8fc58aa276f448abe746302902fb86e2741d90c60"),
    (("profile", "--gen", "erdos_renyi", "--n", "200", "--p", "0.05", "--seed", "1", "--format", "csv"),
     "ddea3bd188ac02b63b212e9d703b05f411a996607a0b016125e639e1cd548255"),
    (("profile", "--gen", "erdos_renyi", "--n", "200", "--p", "0.05", "--seed", "1", "--format", "text"),
     "e9b80465e96220e95d6e49e3584904a0d5cd9af1c89c142d7732ed380fed6f52"),
    (("scan", "--gen", "erdos_renyi", "--n", "100", "--p", "0.05", "--seed", "1", "--samples", "4"),
     "006a922ee0bc48a04e8b29e5ff12a32f17046c54513baea643aebaaaf2f504dd"),
]


@pytest.mark.parametrize("argv,digest", BINARY_OUTPUT_DIGESTS,
                         ids=["profile-json", "profile-csv", "profile-text", "scan-csv"])
def test_binary_graph_output_is_unchanged(argv, digest):
    code, out, _ = run_cli(*argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
