"""The benchmark's own tests: tiny runs of every workload, and the tracer's bookkeeping."""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from cvge import cli, closed_form, graph, numerics  # noqa: E402
from perfbench import bench, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_has_no_failed_ops(name, tmp_path):
    doc = bench.run(name, bench.DEV_SEED, 0.0, trace=False, tiny=True,
                    out_dir=tmp_path, work_dir=tmp_path / "work")
    assert doc["attempted"] >= 1
    assert doc["failed"] == 0, doc["failures"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(doc["metrics"])
    assert all(value > 0 for value, _ in doc["metrics"].values())
    result = json.loads(doc["result_line"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    doc = bench.run("profile-graphs", bench.DEV_SEED, 0.0, trace=True, tiny=True,
                    out_dir=tmp_path, work_dir=tmp_path / "work")
    assert doc["failed"] == 0, doc["failures"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(doc["metrics"])
    metrics = {name: value for name, (value, _) in doc["metrics"].items()}
    # binary graphs go through degree(), weighted files never do
    assert doc["by_op_kind"]["profile-gen"]["graph.degree"] > 0
    assert "graph.degree" not in doc["by_op_kind"]["profile-file"]
    assert metrics["graph.kappa.calls"] > 0 and metrics["numerics.discretize.calls"] == 0
    assert (tmp_path / f"profile-graphs-seed{bench.DEV_SEED}-spans.jsonl").is_file()


def test_failed_check_counts_without_stopping_the_run():
    runner = bench.Runner()
    bad = workloads.Op("validate", ("validate", "--alpha", "1", "--kappa", "1", "--format", "json"),
                       lambda code, out: "rejected")
    good = workloads.Op("validate", bad.argv, lambda code, out: None)
    runner.run(bad)
    runner.run(good)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_tracer_self_times_sum_to_root_spans_and_wrappers_are_removed():
    modules = (cli, closed_form, graph, numerics)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    bench.install(tracer)
    argvs = (
        ["profile", "--gen", "star", "--n", "6", "--format", "json"],
        ["validate", "--alpha", "1", "--kappa", "2", "--format", "json"],
        ["oracle", "--gen", "path", "--n", "2", "--format", "json"],
    )
    try:
        for op, argv in enumerate(argvs):
            tracer.op = op
            with redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before

    spans, own = tracer.spans, tracer.self_times()
    assert min(own) >= 0.0
    roots = [s for s in spans if s.parent == -1]
    assert [(s.name, s.op) for s in roots] == [("cli.main", op) for op in range(len(argvs))]
    for root in roots:
        total = sum(t for s, t in zip(spans, own) if s.op == root.op)
        assert math.isclose(total, root.duration, rel_tol=1e-9)
    parents = {(spans[s.parent].name, s.name) for s in spans if s.parent >= 0}
    assert ("closed_form.profile", "graph.kappa") in parents
    assert ("numerics.numeric_entanglement", "numerics.discretize") in parents
    assert ("numerics.reduce_full_state", "graph.kappa") in parents


def test_tail_has_ten_samples_beyond_it():
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert bench.tail([1.0, 2.0]) == (2.0, 100.0, 0)
