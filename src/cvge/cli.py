"""Command-line surface: profiles, spectra, validation tables, oracles, scans, generation.

Every command is deterministic for a fixed invocation: all randomness is
seeded, numbers are printed with 10 significant digits in text/CSV and at full
double precision in JSON, and rows are emitted in a fixed order.

Exit codes: 0 success (or validation PASS), 1 validation FAIL, 2 usage/input
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import closed_form as cf
from . import graph as graph_mod
from . import numerics as num

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
FORMATS = ("json", "csv", "text")


class CliError(Exception):
    """User-facing failure carrying its exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _float_list(text: str, option: str) -> list[float]:
    tokens = [tok.strip() for tok in text.split(",")]
    if not tokens or any(tok == "" for tok in tokens):
        raise CliError(f"{option} expects a comma-separated list of numbers, got {text!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise CliError(f"{option} expects a comma-separated list of numbers, got {text!r}") from None


def _single_alpha(args: argparse.Namespace) -> float:
    values = _float_list(args.alpha, "--alpha")
    if len(values) != 1:
        raise CliError("--alpha expects a single value for this command")
    alpha = values[0]
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise CliError(f"--alpha must be positive and finite, got {alpha!r}")
    return alpha


def _alpha_list(args: argparse.Namespace) -> list[float]:
    values = _float_list(args.alpha, "--alpha")
    for alpha in values:
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise CliError(f"--alpha values must be positive and finite, got {alpha!r}")
    return values


def _kappa_range(text: str) -> list[float]:
    parts = text.split("..")
    if len(parts) not in (2, 3):
        raise CliError(f"--kappa-range expects LO..HI or LO..HI..STEP, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise CliError(f"--kappa-range expects numbers, got {text!r}") from None
    if step <= 0.0 or hi < lo:
        raise CliError(f"--kappa-range needs LO <= HI and STEP > 0, got {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _resolve_kappas(args: argparse.Namespace) -> list[float]:
    if args.kappa is not None and args.kappa_range is not None:
        raise CliError("--kappa and --kappa-range are mutually exclusive")
    if args.kappa is not None:
        values = _float_list(args.kappa, "--kappa")
    elif args.kappa_range is not None:
        values = _kappa_range(args.kappa_range)
    else:
        raise CliError("one of --kappa or --kappa-range is required")
    for kap in values:
        if not (kap >= 0.0 and math.isfinite(kap)):
            raise CliError(f"kappa values must be nonnegative and finite, got {kap!r}")
    return values


def _gen_spec(args: argparse.Namespace) -> graph_mod.GraphGenSpec:
    if args.n is None:
        raise CliError("--gen requires --n")
    try:
        return graph_mod.GraphGenSpec(kind=args.gen, n=args.n, p=args.p, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _load_graph(args: argparse.Namespace) -> tuple[graph_mod.Graph, str, int | None]:
    """Resolve the graph source; returns (graph, provenance string, seed or None)."""
    if args.graph is not None:
        try:
            with open(args.graph, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read graph file: {exc}") from exc
        try:
            return graph_mod.parse_edge_list(text), args.graph, None
        except graph_mod.EdgeListError as exc:
            raise CliError(f"{args.graph}: {exc}") from exc
    if args.gen is not None:
        spec = _gen_spec(args)
        extra = f",p={spec.p:g},seed={spec.seed}" if spec.kind == "erdos_renyi" else ""
        source = f"gen:{spec.kind}(n={spec.n}{extra})"
        try:
            return graph_mod.generate(spec), source, spec.seed
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    raise CliError("a graph source is required: --graph PATH or --gen KIND --n N")


def _policy(args: argparse.Namespace, top_k: int = 1) -> num.GridPolicy:
    try:
        return num.GridPolicy(
            initial_size=args.grid_size,
            max_size=max(args.grid_size, 4096),
            extent_factor=args.extent_mult,
            top_k=top_k,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}", EXIT_IO) from exc


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(header: list[str], rows: list[list[str]], footers: list[str] | None = None) -> str:
    widths = [len(cell) for cell in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in [header] + rows]
    if footers:
        lines.extend(footers)
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render_rows(fmt: str, header: list[str], rows: list[list[str]],
                 payload: dict, footers: list[str] | None = None) -> str:
    if fmt == "json":
        return _json_text(payload)
    if fmt == "csv":
        return _csv_text(header, rows)
    return _table_text(header, rows, footers)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_profile(args: argparse.Namespace) -> int:
    alpha = _single_alpha(args)
    g, source, seed = _load_graph(args)
    try:
        report = cf.profile(graph_mod.GraphState(g, alpha), source=source, seed=seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.numeric:
        report = _attach_numeric(report, args)
    vertices = []
    for rec in report.records:
        numeric = None
        if rec.numeric is not None:
            numeric = {
                "lambda_max": rec.numeric.lambda_max,
                "deviation": rec.numeric.deviation,
                "grid_size": rec.numeric.grid_size,
            }
        vertices.append({
            "id": rec.vertex,
            "degree": rec.degree,
            "kappa": rec.kappa,
            "lambda_max": rec.lambda_max,
            "entanglement": rec.entanglement,
            "numeric": numeric,
        })
    payload = {
        "alpha": report.alpha,
        "graph": {"n": g.n, "source": report.source, "seed": report.seed},
        "vertices": vertices,
    }
    header = ["vertex", "degree", "kappa", "lambda_max", "entanglement"]
    if args.numeric:
        header += ["numeric_lambda_max", "deviation", "grid_size"]
    rows = []
    for rec in report.records:
        degree_cell = "" if rec.degree is None else str(rec.degree)
        row = [str(rec.vertex), degree_cell, _fmt(rec.kappa), _fmt(rec.lambda_max), _fmt(rec.entanglement)]
        if args.numeric:
            assert rec.numeric is not None
            row += [_fmt(rec.numeric.lambda_max), _fmt(rec.numeric.deviation), str(rec.numeric.grid_size)]
        rows.append(row)
    footers = [f"alpha {_fmt(report.alpha)}  source {report.source}"]
    if args.format == "text":
        for row in rows:
            if row[1] == "":
                row[1] = "-"
    _emit(_render_rows(args.format, header, rows, payload, footers), args.out)
    return EXIT_OK


def _attach_numeric(report: cf.EntanglementReport, args: argparse.Namespace) -> cf.EntanglementReport:
    """Solve once per distinct kappa and attach the result to every vertex sharing it."""
    policy = _policy(args)
    kappas = np.array([rec.kappa for rec in report.records])
    distinct, first, which = np.unique(kappas, return_index=True, return_inverse=True)
    checks = []
    for kv, v in zip(distinct.tolist(), first.tolist()):
        result = num.numeric_entanglement(cf.KernelSpec(report.alpha, kv), policy)
        checks.append(cf.NumericCheck(
            lambda_max=result.lambda_max_numeric,
            deviation=abs(result.lambda_max_numeric - report.records[v].lambda_max),
            grid_size=result.grid_size,
        ))
    records = tuple(dataclasses.replace(rec, numeric=checks[i])
                    for rec, i in zip(report.records, which.tolist()))
    return dataclasses.replace(report, records=records)


def cmd_spectrum(args: argparse.Namespace) -> int:
    alpha = _single_alpha(args)
    if args.kappa is None:
        raise CliError("--kappa is required")
    kappas = _float_list(args.kappa, "--kappa")
    if len(kappas) != 1:
        raise CliError("--kappa expects a single value for this command")
    if kappas[0] < 0.0:
        raise CliError(f"kappa must be nonnegative, got {kappas[0]!r}")
    if args.count < 1:
        raise CliError(f"--count must be >= 1, got {args.count}")
    spect = cf.spectrum(cf.KernelSpec(alpha, kappas[0]), args.count)
    cumulative = spect.cumulative()
    header = ["n", "lambda_n", "cumulative"]
    rows = [[str(i), _fmt(v), _fmt(c)] for i, (v, c) in enumerate(zip(spect.values, cumulative))]
    payload = {
        "alpha": alpha,
        "kappa": kappas[0],
        "ratio": spect.ratio,
        "rows": [
            {"n": i, "value": v, "cumulative": c}
            for i, (v, c) in enumerate(zip(spect.values, cumulative))
        ],
    }
    footers = [f"ratio {_fmt(spect.ratio)}"]
    _emit(_render_rows(args.format, header, rows, payload, footers), args.out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    alphas = _alpha_list(args)
    kappas = _resolve_kappas(args)
    policy = _policy(args)
    rows_payload = []
    worst = 0.0
    all_converged = True
    for alpha in alphas:
        for kap in kappas:
            spec = cf.KernelSpec(alpha, kap)
            lam_closed = cf.lambda_max(spec)
            lam_alt = cf.lambda_max_kappa_over_alpha(spec)
            result = num.numeric_entanglement(spec, policy)
            dev_closed = abs(lam_closed - result.lambda_max_numeric)
            dev_alt = abs(lam_alt - result.lambda_max_numeric)
            worst = max(worst, dev_closed)
            all_converged = all_converged and result.converged
            rows_payload.append({
                "alpha": alpha,
                "kappa": kap,
                "lambda_max": lam_closed,
                "lambda_max_kappa_over_alpha": lam_alt,
                "lambda_numeric": result.lambda_max_numeric,
                "dev_closed": dev_closed,
                "dev_kappa_over_alpha": dev_alt,
                "grid_size": result.grid_size,
                "converged": result.converged,
            })
    passed = all_converged and worst < args.tol
    header = ["alpha", "kappa", "lambda_max", "lambda_kappa_over_alpha", "lambda_numeric",
              "dev_closed", "dev_kappa_over_alpha", "grid_size", "converged"]
    rows = [[
        _fmt(r["alpha"]), _fmt(r["kappa"]), _fmt(r["lambda_max"]),
        _fmt(r["lambda_max_kappa_over_alpha"]), _fmt(r["lambda_numeric"]),
        _fmt(r["dev_closed"]), _fmt(r["dev_kappa_over_alpha"]),
        str(r["grid_size"]), "yes" if r["converged"] else "NO",
    ] for r in rows_payload]
    verdict = "PASS" if passed else "FAIL"
    footers = [f"{verdict}: max |lambda_max - numeric| = {_fmt(worst)} over "
               f"{len(rows_payload)} cells (tolerance {_fmt(args.tol)})"]
    payload = {"tolerance": args.tol, "max_deviation": worst, "pass": passed, "rows": rows_payload}
    _emit(_render_rows(args.format, header, rows, payload, footers), args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_oracle(args: argparse.Namespace) -> int:
    alpha = _single_alpha(args)
    g, source, seed = _load_graph(args)
    if g.n > num.ORACLE_MAX_VERTICES:
        raise CliError(f"oracle comparison is limited to {num.ORACLE_MAX_VERTICES} vertices, got n={g.n}")
    state = graph_mod.GraphState(g, alpha)
    try:
        grid = num.build_grid(args.extent_mult / math.sqrt(alpha), args.grid_size)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    rows_payload = []
    worst = 0.0
    all_converged = True
    for v in range(g.n):
        spec = cf.KernelSpec(alpha, graph_mod.kappa(g, v))
        lam_closed = cf.lambda_max(spec)
        try:
            reduced = num.top_eigenvalues(num.reduce_full_state(state, v, grid), 1)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        dev_reduced = abs(reduced.lambda_max_numeric - lam_closed)
        worst = max(worst, dev_reduced)
        all_converged = all_converged and reduced.converged
        lam_alt: float | None = None
        dev_alt: float | None = None
        if g.n >= 2:
            alternating = num.alternating_maximization(state, v, grid)
            lam_alt = alternating.lambda_max_numeric
            dev_alt = abs(lam_alt - lam_closed)
            worst = max(worst, dev_alt)
            all_converged = all_converged and alternating.converged
        rows_payload.append({
            "vertex": v,
            "kappa": spec.kappa,
            "lambda_max": lam_closed,
            "lambda_reduced": reduced.lambda_max_numeric,
            "lambda_alternating": lam_alt,
            "dev_reduced": dev_reduced,
            "dev_alternating": dev_alt,
        })
    passed = all_converged and worst < args.tol
    header = ["vertex", "kappa", "lambda_max", "lambda_reduced", "lambda_alternating",
              "dev_reduced", "dev_alternating"]
    rows = [[
        str(r["vertex"]), _fmt(r["kappa"]), _fmt(r["lambda_max"]), _fmt(r["lambda_reduced"]),
        "-" if r["lambda_alternating"] is None else _fmt(r["lambda_alternating"]),
        _fmt(r["dev_reduced"]),
        "-" if r["dev_alternating"] is None else _fmt(r["dev_alternating"]),
    ] for r in rows_payload]
    verdict = "PASS" if passed else "FAIL"
    footers = [f"{verdict}: max deviation = {_fmt(worst)} (tolerance {_fmt(args.tol)}), "
               f"source {source}, grid {grid.size} nodes"]
    payload = {
        "alpha": alpha,
        "graph": {"n": g.n, "source": source, "seed": seed},
        "tolerance": args.tol,
        "grid_size": grid.size,
        "max_deviation": worst,
        "pass": passed,
        "rows": rows_payload,
    }
    _emit(_render_rows(args.format, header, rows, payload, footers), args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_scan(args: argparse.Namespace) -> int:
    alpha = _single_alpha(args)
    grid_mode = args.kappa is not None or args.kappa_range is not None
    ensemble_mode = args.gen is not None
    if grid_mode == ensemble_mode:
        raise CliError("scan needs exactly one of a kappa grid (--kappa/--kappa-range) "
                       "or a generator ensemble (--gen)")
    if grid_mode:
        kappas = _resolve_kappas(args)
        entries = sorted(
            ((kap / alpha**2, kap) for kap in kappas),
        )
        header = ["kappa", "coupling_ratio", "entanglement"]
        rows_payload = [{
            "kappa": kap,
            "coupling_ratio": ratio,
            "entanglement": cf.entanglement(cf.KernelSpec(alpha, kap)),
        } for ratio, kap in entries]
        rows = [[_fmt(r["kappa"]), _fmt(r["coupling_ratio"]), _fmt(r["entanglement"])]
                for r in rows_payload]
        payload = {"alpha": alpha, "mode": "grid", "rows": rows_payload}
    else:
        spec = _gen_spec(args)
        if args.samples < 1:
            raise CliError(f"--samples must be >= 1, got {args.samples}")
        counts = np.zeros(spec.n, dtype=np.int64)
        for i in range(args.samples):
            sample = spec if spec.kind != "erdos_renyi" else dataclasses.replace(spec, seed=spec.seed + i)
            counts += np.bincount(graph_mod.degree(graph_mod.generate(sample)), minlength=spec.n)
        header = ["degree", "entanglement", "multiplicity"]
        rows_payload = [{
            "degree": d,
            "entanglement": cf.entanglement(cf.KernelSpec(alpha, float(d))),
            "multiplicity": counts[d].item(),
        } for d in np.flatnonzero(counts).tolist()]
        rows = [[str(r["degree"]), _fmt(r["entanglement"]), str(r["multiplicity"])]
                for r in rows_payload]
        payload = {"alpha": alpha, "mode": "ensemble", "samples": args.samples, "rows": rows_payload}
    _emit(_render_rows(args.format, header, rows, payload), args.out)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _gen_spec(args)
    try:
        g = graph_mod.generate(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    extra = f" p={spec.p:g} seed={spec.seed}" if spec.kind == "erdos_renyi" else ""
    comment = f"kind={spec.kind} n={spec.n}{extra}"
    _emit(graph_mod.serialize_edge_list(g, comment=comment), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and config file
# ---------------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="cvge",
        description="Geometric entanglement of single oscillators in Gaussian graph states: "
                    "closed forms, quadrature numerics, and cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    registry: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help_text: str, *, default_format: str = "text") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=FORMATS, default=default_format,
                       help=f"output format (default {default_format})")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        p.add_argument("--config", metavar="PATH",
                       help="key = value file providing defaults; command-line flags win")
        registry[name] = p
        return p

    def graph_source(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group()
        src.add_argument("--graph", metavar="PATH", help="edge-list file to analyze")
        src.add_argument("--gen", choices=graph_mod.GENERATOR_KINDS, metavar="KIND",
                         help=f"generate the graph: one of {', '.join(graph_mod.GENERATOR_KINDS)}")
        p.add_argument("--n", type=int, help="vertex count for --gen")
        p.add_argument("--p", type=float, help="edge probability (erdos_renyi only)")
        p.add_argument("--seed", type=int, help="PRNG seed (erdos_renyi only)")

    def numeric_options(p: argparse.ArgumentParser, default_grid: int) -> None:
        p.add_argument("--grid-size", type=int, default=default_grid,
                       help=f"quadrature nodes (default {default_grid})")
        p.add_argument("--extent-mult", type=float, default=num.DEFAULT_EXTENT_FACTOR,
                       help="interval half-width in units of 1/sqrt(alpha) (default 10, minimum 8)")

    p = command("profile", "per-vertex degree/kappa, lambda_max, and entanglement")
    graph_source(p)
    p.add_argument("--alpha", default="1", help="oscillator width parameter (default 1)")
    p.add_argument("--numeric", action="store_true",
                   help="add quadrature lambda_max and deviation columns")
    numeric_options(p, 256)

    p = command("spectrum", "leading eigenvalues of the reduced state for one (alpha, kappa)")
    p.add_argument("--kappa", help="coupling strength")
    p.add_argument("--alpha", default="1", help="oscillator width parameter (default 1)")
    p.add_argument("--count", type=int, default=10, help="number of eigenvalues (default 10)")

    p = command("validate", "closed form vs quadrature across an (alpha, kappa) grid")
    p.add_argument("--alpha", default="1", help="comma-separated alpha values (default 1)")
    p.add_argument("--kappa", help="comma-separated kappa values")
    p.add_argument("--kappa-range", metavar="LO..HI[..STEP]", help="inclusive kappa range")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="PASS threshold on |closed - numeric| (default 1e-8)")
    numeric_options(p, 256)

    p = command("oracle", "closed form vs full-state reduction vs alternating overlap (n <= 3)")
    graph_source(p)
    p.add_argument("--alpha", default="1", help="oscillator width parameter (default 1)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="PASS threshold on the worst deviation (default 1e-6)")
    numeric_options(p, 64)

    p = command("scan", "entanglement curve over a kappa grid or a graph ensemble",
                default_format="csv")
    graph_source(p)
    p.add_argument("--alpha", default="1", help="oscillator width parameter (default 1)")
    p.add_argument("--kappa", help="comma-separated kappa values")
    p.add_argument("--kappa-range", metavar="LO..HI[..STEP]", help="inclusive kappa range")
    p.add_argument("--samples", type=int, default=1,
                   help="ensemble mode: number of sampled graphs, seeds seed..seed+samples-1")

    p = command("gen", "write a generated graph in the edge-list format")
    p.add_argument("--gen", choices=graph_mod.GENERATOR_KINDS, metavar="KIND", required=True,
                   help=f"one of {', '.join(graph_mod.GENERATOR_KINDS)}")
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--p", type=float, help="edge probability (erdos_renyi only)")
    p.add_argument("--seed", type=int, help="PRNG seed (erdos_renyi only)")

    return parser, registry


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _config_defaults(args: argparse.Namespace) -> dict[str, object]:
    """Parser defaults for ``args.command`` read from its config file.

    Valued options get the raw string, which argparse converts exactly like a
    command-line value but, unlike one, does not check against ``choices``;
    on/off flags take 1/true/yes/on as set.
    """
    known = vars(args)
    defaults: dict[str, object] = {}
    for raw_key, raw_value in _read_config(args.config).items():
        dest = raw_key.replace("-", "_")
        if dest not in known or dest in ("command", "config"):
            raise CliError(f"unknown config key {raw_key!r} for command {args.command!r}")
        if isinstance(known[dest], bool):
            defaults[dest] = raw_value.lower() in ("1", "true", "yes", "on")
        elif dest == "format" and raw_value not in FORMATS:
            raise CliError(f"config {raw_key!r}: invalid value {raw_value!r} "
                           f"(choose from {', '.join(FORMATS)})")
        else:
            defaults[dest] = raw_value
    return defaults


_HANDLERS = {
    "profile": cmd_profile,
    "spectrum": cmd_spectrum,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
    "scan": cmd_scan,
    "gen": cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(raw_argv)
        if getattr(args, "config", None):
            # parse again with the config file as defaults: explicit flags win
            registry[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(raw_argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
