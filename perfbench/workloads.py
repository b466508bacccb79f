"""The benchmark's workloads: inputs made from a seed, one CLI argv per op, and output checks.

Every op is one ``cvge.cli.main(argv)`` call. Each workload is a fixed list of
ops (a *pass*) that the measuring loop repeats; the seed decides the random
graphs, edge weights, alpha values and the order of the ops within a pass, but
never the op sizes, so every seed costs about the same.

The checks do not trust the code under test: vertex degrees and coupling
strengths are recomputed from the benchmark's own copy of each edge list, and
the only library calls they make are ``KernelSpec``/``entanglement``/
``lambda_max``, bound here at import time so that tracing never sees them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cvge.closed_form import KernelSpec, entanglement, lambda_max

FORMATS = ("json", "csv", "text")
MEAN_DEGREE = 5.0

# The acceptance grid of the validate command, plus coupling ratios kappa/alpha**2
# that need 512, 1024 and 2048 quadrature nodes under the default ladder. The
# 1024-node ratio runs five times, so that with two or more passes per run the
# tail op falls inside that group of equal costs.
# Ratios of 1e4 and more are left out: each cell takes ~20 s and ends converged=False.
ACCEPTANCE_ALPHAS = (0.5, 1.0, 2.0, 4.0)
ACCEPTANCE_KAPPAS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0)
LADDER_RATIOS = (36.0, 100.0) + (400.0,) * 5 + (1000.0,)

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI call, the kind it belongs to, and the check its output must pass."""

    kind: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]  # one pass, in the order it runs
    warmups: tuple[Op, ...]  # the cheapest op of each kind, run once untimed at set-up


# ---------------------------------------------------------------------------
# the benchmark's own graphs
# ---------------------------------------------------------------------------

def er_degrees(n: int, p: float, seed: int) -> np.ndarray:
    """Degrees of the G(n, p) sample that ``--gen erdos_renyi`` documents:
    PCG64 uniforms over the upper triangle in row-major order, edge when < p."""
    iu, iv = np.triu_indices(n, 1)
    picked = np.random.default_rng(seed).random(iu.size) < p
    return np.bincount(iu[picked], minlength=n) + np.bincount(iv[picked], minlength=n)


def _weighted_graph(rng: np.random.Generator, n: int) -> tuple[str, np.ndarray]:
    """Edge-list text of a random weighted graph (mean degree ~5, all weights
    distinct) and the kappa of each vertex, summed from that edge list."""
    iu, iv = np.triu_indices(n, 1)
    picked = rng.random(iu.size) < MEAN_DEGREE / (n - 1)
    u, v = iu[picked], iv[picked]
    w = rng.uniform(0.5, 1.5, size=u.size)
    lines = [f"vertices {n}"] + [f"{a} {b} {c!r}" for a, b, c in zip(u.tolist(), v.tolist(), w.tolist())]
    kap = np.bincount(u, weights=w * w, minlength=n) + np.bincount(v, weights=w * w, minlength=n)
    return "\n".join(lines) + "\n", kap


def _alpha(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _table(fmt: str, out: str, footer_lines: int) -> list[list[str]]:
    """Data rows of a csv or text rendering (header and footers dropped)."""
    if fmt == "csv":
        return list(csv.reader(io.StringIO(out)))[1:]
    lines = out.splitlines()
    return [line.split() for line in lines[1:len(lines) - footer_lines]]


def _profile_check(fmt: str, alpha: float, degrees: np.ndarray | None, kap: np.ndarray) -> Check:
    """Binary graphs pass ``degrees``; weighted graphs pass None and their kappa."""
    n = kap.size

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if fmt != "json":
            rows = _table(fmt, out, footer_lines=1 if fmt == "text" else 0)
            if len(rows) != n:
                return f"{len(rows)} rows, expected {n}"
            blank = "-" if fmt == "text" else ""
            for v, row in enumerate(rows):
                want = blank if degrees is None else str(int(degrees[v]))
                if row[0] != str(v) or row[1] != want:
                    return f"row {v}: {row[:2]}, expected [{v!r}, {want!r}]"
            return None
        vertices = json.loads(out)["vertices"]
        if len(vertices) != n:
            return f"{len(vertices)} vertices, expected {n}"
        for v, entry in enumerate(vertices):
            if degrees is not None and entry["degree"] != int(degrees[v]):
                return f"vertex {v}: degree {entry['degree']}, expected {int(degrees[v])}"
            if degrees is None and entry["degree"] is not None:
                return f"vertex {v}: degree {entry['degree']} on a weighted graph"
            if not math.isclose(entry["kappa"], float(kap[v]), rel_tol=1e-12, abs_tol=1e-12):
                return f"vertex {v}: kappa {entry['kappa']!r}, expected {float(kap[v])!r}"
            spec = KernelSpec(alpha, entry["kappa"])
            if entry["entanglement"] != entanglement(spec) or entry["lambda_max"] != lambda_max(spec):
                return f"vertex {v}: lambda_max/entanglement differ from the closed form"
        return None

    return check


def _scan_check(fmt: str, alpha: float, histogram: Counter, total: int) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if fmt == "json":
            rows = json.loads(out)["rows"]
            got = {r["degree"]: r["multiplicity"] for r in rows}
            for r in rows:
                if r["entanglement"] != entanglement(KernelSpec(alpha, float(r["degree"]))):
                    return f"degree {r['degree']}: entanglement differs from the closed form"
        else:
            got = {int(r[0]): int(r[2]) for r in _table(fmt, out, footer_lines=0)}
        if sum(got.values()) != total:
            return f"multiplicities sum to {sum(got.values())}, expected {total}"
        if got != dict(histogram):
            return "degree histogram differs from the generated graphs"
        return None

    return check


def _verdict_check(n_rows: int) -> Check:
    """validate/oracle: exit 0, ``"pass": true`` and one row per cell or vertex."""
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        payload = json.loads(out)
        if payload["pass"] is not True:
            return f"pass is {payload['pass']!r}, max_deviation {payload['max_deviation']!r}"
        if len(payload["rows"]) != n_rows:
            return f"{len(payload['rows'])} rows, expected {n_rows}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _profile_graphs(rng: np.random.Generator, workdir: Path, tiny: bool) -> list[Op]:
    """Binary ER graphs hit the per-vertex degree path; weighted files bypass it."""
    small, large, scan_n, samples = (20, 40, 30, 2) if tiny else (400, 800, 300, 3)
    ops: list[Op] = []
    for n in (small, large):
        p = MEAN_DEGREE / (n - 1)
        # eight ops per size, so that with 2 or 3 passes per run the median op is
        # a small binary profile and the tail op a large one, each well inside
        # its group of similar costs
        for fmt in (FORMATS * 3)[:8]:
            seed, alpha = int(rng.integers(2**31)), _alpha(rng, 0.5, 2.0)
            deg = er_degrees(n, p, seed)
            argv = ("profile", "--gen", "erdos_renyi", "--n", str(n), "--p", repr(p),
                    "--seed", str(seed), "--alpha", repr(alpha), "--format", fmt)
            ops.append(Op("profile-gen", argv, _profile_check(fmt, alpha, deg, deg.astype(float))))
    for n in (small, large):
        for i, fmt in enumerate(FORMATS + ("json",)):
            text, kap = _weighted_graph(rng, n)
            path = workdir / f"weighted-{n}-{i}.txt"
            path.write_text(text, encoding="utf-8")
            alpha = _alpha(rng, 0.5, 2.0)
            argv = ("profile", "--graph", str(path), "--alpha", repr(alpha), "--format", fmt)
            ops.append(Op("profile-file", argv, _profile_check(fmt, alpha, None, kap)))
    p = MEAN_DEGREE / (scan_n - 1)
    for fmt in FORMATS:
        seed, alpha = int(rng.integers(2**31)), _alpha(rng, 0.5, 2.0)
        histogram: Counter = Counter()
        for i in range(samples):
            histogram.update(er_degrees(scan_n, p, seed + i).tolist())
        argv = ("scan", "--gen", "erdos_renyi", "--n", str(scan_n), "--p", repr(p), "--seed", str(seed),
                "--samples", str(samples), "--alpha", repr(alpha), "--format", fmt)
        ops.append(Op("scan", argv, _scan_check(fmt, alpha, histogram, scan_n * samples)))
    return ops


def _validate_sweep(rng: np.random.Generator, workdir: Path, tiny: bool) -> list[Op]:
    """One validate cell per op: the acceptance grid plus ladder-depth cells."""
    alphas, kappas, ratios = ((1.0,), (0.0, 2.0), (36.0,)) if tiny else (
        ACCEPTANCE_ALPHAS, ACCEPTANCE_KAPPAS, LADDER_RATIOS)
    cells = [(a, k) for a in alphas for k in kappas]
    for ratio in ratios:
        # the discretized problem depends on kappa/alpha**2 only, so alpha
        # varies with the seed while the cost stays that of the ratio
        a = _alpha(rng, 0.5, 4.0)
        cells.append((a, ratio * a * a))
    check = _verdict_check(1)
    return [Op("validate", ("validate", "--alpha", repr(a), "--kappa", repr(k), "--format", "json"), check)
            for a, k in cells]


def _oracle_small(rng: np.random.Generator, workdir: Path, tiny: bool) -> list[Op]:
    """Every n <= 3 graph kind through both brute-force oracles, no Nystrom ladder."""
    empty = workdir / "empty2.txt"
    empty.write_text("vertices 2\n", encoding="utf-8")
    w = rng.uniform(0.5, 1.5, size=3)
    triangle = workdir / "triangle.txt"
    triangle.write_text("vertices 3\n" + "".join(f"{e} {x!r}\n" for e, x in zip(("0 1", "1 2", "0 2"), w.tolist())),
                        encoding="utf-8")
    graphs = {
        "path2": (2, ("--gen", "path", "--n", "2")),
        "empty2": (2, ("--graph", str(empty))),
        "path3": (3, ("--gen", "path", "--n", "3")),
        "cycle3": (3, ("--gen", "cycle", "--n", "3")),
        "triangle": (3, ("--graph", str(triangle))),
    }
    plan = [(name, 64) for name in graphs]
    if not tiny:
        # 3-vertex graphs run twice per grid size, so that the median op is a
        # 3-vertex one on 64 nodes and the tail one on 128 nodes, each well
        # inside a group of similar costs rather than at the edge between two
        plan += [(name, 128) for name in graphs]
        plan += [(name, size) for size in (64, 128) for name, (n, _) in graphs.items() if n == 3]
    ops = []
    for name, size in plan:
        n, source = graphs[name]
        alpha = _alpha(rng, 0.8, 2.0)
        argv = ("oracle", *source, "--grid-size", str(size), "--alpha", repr(alpha), "--format", "json")
        ops.append(Op("oracle", argv, _verdict_check(n)))
    return ops


_BUILDERS = {
    "profile-graphs": _profile_graphs,
    "validate-sweep": _validate_sweep,
    "oracle-small": _oracle_small,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Inputs for ``name`` from ``seed``; input files go to ``workdir``.

    ``tiny`` shrinks every size for the benchmark's own smoke tests.
    """
    rng = np.random.default_rng(seed)
    ops = _BUILDERS[name](rng, workdir, tiny)  # cheapest first within each kind
    warmups: dict[str, Op] = {}
    for op in ops:
        warmups.setdefault(op.kind, op)
    order = rng.permutation(len(ops))
    return Workload(name, tuple(ops[i] for i in order), tuple(warmups.values()))
