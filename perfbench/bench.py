"""Closed-loop benchmark of the cvge command line, one client in one process.

Each op is one in-process ``cvge.cli.main(argv)`` call with stdout captured;
the next op starts when the previous one returns. ``--trace 0`` measures the
end-to-end metrics with tracing off. ``--trace 1`` alternates untraced and
traced passes over the same ops and reports per-layer metrics from the traced
ones, plus the tracing overhead. The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from cvge import cli, closed_form, graph, numerics
from perfbench import workloads as wl
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = Path(__file__).with_name("run.py")
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# The op mix of every workload puts the median and the tail op inside groups of
# similar costs once a run has at least this many passes.
MIN_PASSES = 2
# The development seed, used while writing the benchmark; README.md records the
# held-out seed kept for rechecking a claimed gain.
DEV_SEED = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
CLOSED_FORM_EVALS = ("closed_form.lambda_max", "closed_form.entanglement")


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

@dataclass
class Runner:
    """Runs ops through ``cli.main``, times them, checks them and counts failures."""

    attempted: int = 0
    failed: int = 0
    stdout_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    def run(self, op: wl.Op) -> float:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(list(op.argv))
        except Exception:  # a crash is a failed op, never the end of the run
            code = None
            traceback.print_exc()
        latency = time.perf_counter() - start
        out = buf.getvalue()
        self.attempted += 1
        self.stdout_bytes += len(out.encode())
        try:
            problem = "uncaught exception" if code is None else op.check(code, out)
        except Exception as exc:  # malformed output
            problem = f"unreadable output: {exc!r}"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{' '.join(op.argv)}: {problem}")
                print(f"op failed: {self.failures[-1]}", file=sys.stderr)
        return latency


def _more(elapsed: float, rounds: int, seconds: float, min_rounds: int = 1) -> bool:
    """Start another round if fewer than ``min_rounds`` ran or one more of average length fits."""
    return rounds < min_rounds or elapsed + elapsed / rounds <= seconds


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(name: str, seed: int, workdir: Path, tiny: bool) -> wl.Workload:
    """Input generation plus one untimed warm-up op per op kind."""
    workload = wl.build(name, seed, workdir, tiny)
    for op in workload.warmups:
        with redirect_stdout(io.StringIO()):
            cli.main(list(op.argv))
    return workload


def setup_seconds(name: str, seed: int, tiny: bool, repeats: int) -> list[float]:
    """Wall time from starting a fresh workload process until it reports ready."""
    cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed), "--setup-only"]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process exited {code} without reporting ready")
    return times


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are too few."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[-TAIL_BEYOND - 1], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered), TAIL_BEYOND


def measure_end_to_end(workload: wl.Workload, seconds: float, runner: Runner) -> dict:
    latencies: list[float] = []
    passes = 0
    start = time.perf_counter()
    while True:
        latencies.extend(runner.run(op) for op in workload.ops)
        passes += 1
        if not _more(time.perf_counter() - start, passes, seconds, MIN_PASSES):
            break
    wall = time.perf_counter() - start
    tail_s, pct, beyond = tail(latencies)
    return {
        "passes": passes,
        "wall_s": wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(latencies),
        "ops_per_s": len(latencies) / wall,
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer that the CLI reaches."""
    for attr in ("degree", "kappa", "validate", "generate", "parse_edge_list"):
        tracer.wrap(graph, attr, f"graph.{attr}")
    tracer.wrap(numerics, "vertex_kappa", "graph.kappa")
    tracer.wrap(closed_form, "profile", "closed_form.profile", lambda r: len(r.records))
    tracer.wrap(closed_form, "lambda_max", "closed_form.lambda_max")
    tracer.wrap(closed_form, "entanglement", "closed_form.entanglement")
    tracer.wrap(numerics, "numeric_entanglement", "numerics.numeric_entanglement", lambda r: r.converged)
    tracer.wrap(numerics, "build_grid", "numerics.build_grid")
    tracer.wrap(numerics, "discretize", "numerics.discretize", lambda r: r.matrix.shape[0])
    tracer.wrap(numerics, "top_eigenvalues", "numerics.top_eigenvalues")
    tracer.wrap(numerics, "reduce_full_state", "numerics.reduce_full_state")
    tracer.wrap(numerics, "alternating_maximization", "numerics.alternating_maximization",
                lambda r: len(r.history))
    tracer.wrap(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer, passes: int, stdout_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times, each per pass over the workload's ops."""
    spans = tracer.spans
    calls, self_s = tracer.totals()

    def named(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name]

    def parent_is(i: int, name: str) -> bool:
        return spans[i].parent >= 0 and spans[spans[i].parent].name == name

    cells = named("numerics.numeric_entanglement")
    rungs: dict[int, list[int]] = defaultdict(list)
    for i in named("numerics.discretize"):
        if parent_is(i, "numerics.numeric_entanglement"):
            rungs[spans[i].parent].append(spans[i].note)
    rung_work = sum(m * m for c in cells for m in rungs[c])
    final_work = sum(rungs[c][-1] ** 2 for c in cells if rungs[c])
    profiled = sum(spans[i].note or 0 for i in named("closed_form.profile"))
    profile_evals = sum(1 for name in CLOSED_FORM_EVALS for i in named(name)
                        if parent_is(i, "closed_form.profile"))
    sizes = [spans[i].note for i in named("numerics.discretize")]

    def per_pass(x: float) -> float:
        return x / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("graph.degree", "graph.kappa"):
        m[f"{name}.calls"] = (per_pass(calls[name]), "count")
        m[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
    for name in ("graph.validate", "graph.generate", "graph.parse_edge_list", "closed_form.profile"):
        m[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
    m["closed_form.evals"] = (per_pass(sum(calls[n] for n in CLOSED_FORM_EVALS)), "count")
    m["closed_form.evals_per_vertex"] = (ratio(profile_evals, profiled), "ratio")
    for name in ("numerics.numeric_entanglement", "numerics.discretize", "numerics.top_eigenvalues"):
        m[f"{name}.calls"] = (per_pass(calls[name]), "count")
        m[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
    m["numerics.build_grid.self_s"] = (per_pass(self_s["numerics.build_grid"]), "s")
    m["numerics.discretize.nodes"] = (per_pass(sum(sizes)), "count")
    m["numerics.discretize.bytes_computed"] = (per_pass(sum(8 * s * s for s in sizes)), "B")
    m["numerics.rungs_per_cell"] = (ratio(sum(len(rungs[c]) for c in cells), len(cells)), "count")
    m["numerics.ladder.useful_frac"] = (ratio(final_work, rung_work), "ratio")
    m["numerics.converged_frac"] = (ratio(sum(spans[c].note is True for c in cells), len(cells)), "ratio")
    m["numerics.reduce_full_state.self_s"] = (per_pass(self_s["numerics.reduce_full_state"]), "s")
    m["numerics.alternating_maximization.self_s"] = (
        per_pass(self_s["numerics.alternating_maximization"]), "s")
    m["numerics.alternating_maximization.sweeps"] = (
        per_pass(sum(spans[i].note or 0 for i in named("numerics.alternating_maximization"))), "count")
    m["cli.main.calls"] = (per_pass(calls["cli.main"]), "count")
    m["cli.self_s"] = (per_pass(self_s["cli.main"]), "s")
    m["cli.stdout_bytes"] = (per_pass(stdout_bytes), "B")
    return m


def by_op_kind(tracer: Tracer, kinds: list[str]) -> dict[str, dict[str, float]]:
    """Mean self seconds per op, per layer function, for each op kind."""
    ops_of_kind: dict[str, set[int]] = defaultdict(set)
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, tracer.self_times()):
        kind = kinds[span.op]
        ops_of_kind[kind].add(span.op)
        table[kind][span.name] += own
    return {kind: {name: total / len(ops_of_kind[kind]) for name, total in sorted(row.items())}
            for kind, row in table.items()}


def measure_layers(workload: wl.Workload, seconds: float, runner: Runner, spans_path: Path | None) -> dict:
    """Alternate an untraced and a traced pass until the time is used up."""
    tracer = Tracer()
    kinds: list[str] = []
    untraced = traced = 0.0
    traced_bytes = 0
    pairs = 0
    start = time.perf_counter()
    while True:
        untraced += sum(runner.run(op) for op in workload.ops)
        bytes_before = runner.stdout_bytes
        install(tracer)
        try:
            for op in workload.ops:
                tracer.op = len(kinds)
                kinds.append(op.kind)
                traced += runner.run(op)
        finally:
            tracer.uninstall()
        traced_bytes += runner.stdout_bytes - bytes_before
        pairs += 1
        if not _more(time.perf_counter() - start, pairs, seconds):
            break
    metrics = layer_metrics(tracer, pairs, traced_bytes)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    if spans_path is not None:
        tracer.write(spans_path)
    return {"passes": 2 * pairs, "traced_passes": pairs, "metrics": metrics,
            "by_op_kind": by_op_kind(tracer, kinds)}


# ---------------------------------------------------------------------------
# environment and reporting
# ---------------------------------------------------------------------------

def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str | None:
    """HEAD of the repository whose top level is ROOT, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def environment(name: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": name,
        "seed": seed,
        "clients": 1,
    }


def result_line(runner: Runner, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


@contextmanager
def scratch_dir(base: Path) -> Iterator[Path]:
    """A directory for this process's input files under ``base``, removed afterwards."""
    path = base / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with suppress(OSError):
            base.rmdir()  # succeeds once no other process uses it


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        out_dir: Path | None = OUT_DIR, work_dir: Path = WORK_DIR) -> dict:
    """One benchmark run in this process; returns the full result document."""
    setup_times = [] if trace else setup_seconds(name, seed, tiny, 1 if tiny else SETUP_REPEATS)
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
    runner = Runner()
    with scratch_dir(work_dir) as workdir:
        workload = setup(name, seed, workdir, tiny)
        doc: dict = {"environment": environment(name, seed), "ops_per_pass": len(workload.ops)}
        if trace:
            spans = None if out_dir is None else out_dir / f"{name}-seed{seed}-spans.jsonl"
            doc.update(measure_layers(workload, seconds, runner, spans))
        else:
            doc.update(measure_end_to_end(workload, seconds, runner))
            values = {
                "setup_s": statistics.median(setup_times),
                "op_p50_s": doc["op_p50_s"],
                "op_tail_s": doc["op_tail_s"],
                "ops_per_s": doc["ops_per_s"],
                "ok_frac": 1.0 - runner.failed / runner.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            doc["setup_samples_s"] = setup_times
            doc["metrics"] = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    doc.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    if out_dir is not None:
        (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    doc["result_line"] = result_line(runner, doc["metrics"])
    return doc


def summary(doc: dict) -> list[str]:
    env = doc["environment"]
    lines = ["environment " + json.dumps(env),
             f"workload {env['workload']} seed {env['seed']}: {doc['passes']} passes of {doc['ops_per_pass']} "
             f"ops ({doc.get('traced_passes', 0)} traced), {doc['attempted']} attempted, {doc['failed']} failed "
             f"(fail_frac {doc['failed'] / doc['attempted']:.4g})"]
    for name, (value, unit) in doc["metrics"].items():
        lines.append(f"  {name:<44} {value:.6g} {unit}")
    if "tail_percentile" in doc:
        lines.append(f"  op_tail_s is p{doc['tail_percentile']:.2f}: {doc['tail_samples_beyond']} of "
                     f"{doc['samples']} samples beyond it")
    for kind, row in doc.get("by_op_kind", {}).items():
        top = sorted(row.items(), key=lambda kv: -kv[1])
        lines.append(f"  self s per {kind} op: " + ", ".join(f"{n} {v:.4g}" for n, v in top))
    return lines


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        with scratch_dir(WORK_DIR) as workdir:
            setup(args.workload, args.seed, workdir, args.tiny)
            print("ready", flush=True)
        return 0
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print("\n".join(summary(doc)))
    print(doc["result_line"])
    return 0
