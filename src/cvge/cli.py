"""Command-line surface: profiles, spectra, validation tables, oracles, scans, generation.

Each table command hands the renderer its table as columns: a header for CSV
and text (or none, for a JSON-only column), the path of keys where the
column's values nest in a JSON row, and the values, one per row. ``--format
json`` prints the rows at full double precision; CSV and text show the same
values under the headers through one cell rule: a bool is yes/NO, an int
prints as is, a float to 10 significant digits, and a missing value (None) is
an empty CSV field and ``-`` in text. The JSON layout is exactly
``json.dumps(payload, indent=2)``'s. One renderer writes every format column
by column, encoding each distinct value of a column once, and fills each JSON
row into one template laid out from the key paths.

Every command is deterministic for a fixed invocation: all randomness is
seeded and rows are emitted in a fixed order.

Exit codes: 0 success (or validation PASS), 1 validation FAIL, 2 usage/input
error, 3 I/O error. Every input error is a ValueError, whether this module or
the library raised it, and ``main`` prints it as one ``error:`` line with exit
2; a failed write is an OSError and exit 3. What the numerics cannot
adjudicate is an input error, never a FAIL: an oracle grid too coarse for the
state, naming ``--grid-size``, and a ``validate`` or ``profile --numeric``
cell beyond the quadrature solver's range, naming its alpha and kappa. Every
cell is solved before anything is written, so such an error leaves stdout
empty.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from itertools import chain, repeat

import numpy as np

from . import closed_form as cf
from . import graph as graph_mod
from . import numerics as num

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
FORMATS = ("json", "csv", "text")
MAX_ROWS = 100_000  # most values --count or --kappa-range may ask for, and most --samples
# most oracle --extent-mult, 125 times the truncation minimum: a wider interval
# only spends nodes on the vanishing tail, and at 1e200 the squared nodes overflow
MAX_EXTENT_FACTOR = 1000.0
# a table column: its CSV and text header (None keeps it to JSON), the path of
# keys where its values nest in a JSON row, and the values, one per row
Column = tuple[str | None, tuple[str, ...], Sequence]
# a float column this short is encoded value by value: np.unique's set-up
# (about 12 us) costs more than the repeats it finds
SHORT_COLUMN = 64


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _float_list(text: str, option: str) -> list[float]:
    try:
        return [float(tok.strip()) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} expects a comma-separated list of numbers, got {text!r}") from None


def _single_alpha(args: argparse.Namespace) -> float:
    values = _alpha_list(args)
    if len(values) != 1:
        raise ValueError("--alpha expects a single value for this command")
    return values[0]


def _alpha_list(args: argparse.Namespace) -> list[float]:
    values = _float_list(args.alpha, "--alpha")
    for alpha in values:
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise ValueError(f"--alpha must be positive and finite, got {alpha!r}")
    return values


def _kappa_range(text: str) -> list[float]:
    parts = text.split("..")
    if len(parts) not in (2, 3):
        raise ValueError(f"--kappa-range expects LO..HI or LO..HI..STEP, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise ValueError(f"--kappa-range expects numbers, got {text!r}") from None
    if not (step > 0.0 and lo <= hi):
        raise ValueError(f"--kappa-range needs LO <= HI and STEP > 0, got {text!r}")
    span = (hi - lo) / step
    if not span < MAX_ROWS:
        raise ValueError(f"--kappa-range expands to more than {MAX_ROWS} values, got {text!r}")
    count = int(math.floor(span + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _resolve_kappas(args: argparse.Namespace) -> list[float]:
    if args.kappa is not None and args.kappa_range is not None:
        raise ValueError("--kappa and --kappa-range are mutually exclusive")
    if args.kappa is not None:
        values = _float_list(args.kappa, "--kappa")
    elif args.kappa_range is not None:
        values = _kappa_range(args.kappa_range)
    else:
        raise ValueError("one of --kappa or --kappa-range is required")
    for kap in values:
        if not (kap >= 0.0 and math.isfinite(kap)):
            raise ValueError(f"kappa values must be nonnegative and finite, got {kap!r}")
    return values


def _gen_spec(args: argparse.Namespace) -> graph_mod.GraphGenSpec:
    if args.n is None:
        raise ValueError("--gen requires --n")
    return graph_mod.GraphGenSpec(kind=args.gen, n=args.n, p=args.p, seed=args.seed)


def _load_graph(args: argparse.Namespace,
                check_n: Callable[[int], None] | None = None) -> tuple[graph_mod.Graph, str, int | None]:
    """Resolve the graph source; returns (graph, provenance string, seed or None).

    ``check_n`` sees the vertex count before the graph is built: a generated
    graph's from its spec, a file's from its ``vertices <N>`` header, which
    the parser reads from the file's first block, not from the whole file.
    """
    if args.graph is not None:
        _refuse_unread(args, ("n", "p", "seed"), "with --graph")
        try:
            with open(args.graph, encoding="utf-8") as fh:
                try:
                    return graph_mod.parse_edge_list(fh, check_n), args.graph, None
                except UnicodeDecodeError as exc:
                    # exc counts from the start of the bytes the decoder was last given,
                    # which end where the file stands now
                    at = fh.buffer.tell() - len(exc.object) + exc.start
                    raise ValueError(f"{args.graph}: cannot decode byte {at} as UTF-8: {exc.reason}") from None
        except OSError as exc:
            raise ValueError(f"cannot read graph file: {exc}") from exc
        except graph_mod.EdgeListError as exc:
            raise ValueError(f"{args.graph}: {exc}") from exc
    if args.gen is not None:
        spec = _gen_spec(args)
        if check_n is not None:
            check_n(spec.n)
        extra = f",p={spec.p:g},seed={spec.seed}" if spec.kind == "erdos_renyi" else ""
        source = f"gen:{spec.kind}(n={spec.n}{extra})"
        return graph_mod.generate(spec), source, spec.seed
    raise ValueError("a graph source is required: --graph PATH or --gen KIND --n N")


def _refuse_unread(args: argparse.Namespace, dests: Iterable[str], where: str) -> None:
    """Refuse a set option that the chosen input never reads: ValueError naming the first."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest} is not read {where}")


def _check_numeric_flags(args: argparse.Namespace) -> None:
    """Bound the oracle's ``--grid-size`` and ``--extent-mult``."""
    if not 2 <= args.grid_size <= num.ORACLE_MAX_GRID:
        raise ValueError(f"--grid-size must be >= 2 and <= {num.ORACLE_MAX_GRID}, got {args.grid_size}")
    if not (math.isfinite(args.extent_mult) and args.extent_mult >= num.MIN_EXTENT_FACTOR):
        raise ValueError(f"--extent-mult must be finite and >= {num.MIN_EXTENT_FACTOR:g}, "
                         f"got {args.extent_mult:g}")
    if args.extent_mult > MAX_EXTENT_FACTOR:
        raise ValueError(f"--extent-mult must be <= {MAX_EXTENT_FACTOR:g}, got {args.extent_mult:g}")


def _tolerance(args: argparse.Namespace) -> float:
    if not (args.tol > 0.0 and math.isfinite(args.tol)):
        raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
    return args.tol


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
        raise OSError(f"cannot write {out_path}: {exc}") from exc


def _cell(value: object, missing: str) -> str:
    """The one cell rule of CSV and text: yes/NO, ints as is, floats to 10 digits, None as ``missing``."""
    if value is None:
        return missing
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _json_scalar(value: object) -> str:
    """``value``, None or a bool, int, float or str, as json.dumps writes it."""
    if value.__class__ is int or (value.__class__ is float and math.isfinite(value)):
        return repr(value)  # json.dumps writes these by their repr
    if value is not None and not isinstance(value, (str, int, float)):
        raise TypeError(f"a JSON scalar must be None, a bool, int, float or str, not {type(value).__name__}")
    return json.dumps(value)


def _encode(values: Sequence, fmt: str) -> list[str]:
    """Each value of a column as ``fmt`` writes it: a JSON scalar, or a CSV or text cell.

    Each distinct value is encoded once, and the distinct values in one
    C-level ``map``. A column of floats only is told apart by the values'
    bits, so that 0.0 and -0.0 print apart, and encoded by ``repr`` for JSON
    when every value is finite and by the 10-digit format for cells; one
    shorter than :data:`SHORT_COLUMN` is mapped value by value. A column of
    ints only is ``str`` of each value. Any other column goes through
    :func:`_json_scalar` or :func:`_cell`, which raise TypeError on a
    container; a column of mixed types, or of a float subclass, value by
    value.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        distinct, which = values, None
        if len(values) >= SHORT_COLUMN:
            bits, which = np.unique(np.array(values).view(np.int64), return_inverse=True)
            if bits.size < len(values):
                distinct = bits.view(np.float64).tolist()
            else:
                which = None  # no value repeats
        if fmt != "json":
            texts = list(map(format, distinct, repeat(".10g")))
        else:
            texts = list(map(repr if all(map(math.isfinite, distinct)) else _json_scalar, distinct))
        return texts if which is None else list(map(texts.__getitem__, which.tolist()))
    if kinds == {int}:
        # an int's repr, str and cell are one text; str of all 800 vertex ids costs 47 us less
        # than finding that none repeats, and of their degrees 19 us more than finding the repeats
        return list(map(str, values))
    if fmt == "json":
        encode = _json_scalar
    else:
        encode = partial(_cell, missing="" if fmt == "csv" else "-")
    kinds.discard(type(None))
    if len(kinds) > 1 or any(map(issubclass, kinds, repeat(float))):
        return list(map(encode, values))  # equal values that print apart: 1 and True, 0.0 and -0.0
    distinct = list(dict.fromkeys(values))
    if len(distinct) == len(values):
        return list(map(encode, values))  # no value repeats
    return list(map(dict(zip(distinct, map(encode, distinct))).__getitem__, values))


def _json_rows(columns: list[Column], level: int, separator: str) -> str:
    """The rows of ``columns``, as json.dumps lays each out at depth ``level``, joined by ``separator``.

    Each column's key path says where its values nest in a row; the row
    template is laid out once, and the rows are filled in column by column.
    """
    tree: dict = {}
    for i, (_, path, _) in enumerate(columns):
        node = tree
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = i
    order: list[int] = []

    def layout(node: dict, depth: int) -> str:
        # json.dumps writes a NUL only as the escape \u0000, so a bare one marks a value
        inner = "\n" + "  " * (depth + 1)
        items = []
        for key, sub in node.items():
            if isinstance(sub, dict):
                items.append(f"{json.dumps(key)}: {layout(sub, depth + 1)}")
            else:
                order.append(sub)
                items.append(f"{json.dumps(key)}: \0")
        return "{" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "}"

    chunks = layout(tree, level).split("\0")
    chunks[-1] += separator
    fields = [repeat(chunks[0])]
    for i, chunk in zip(order, chunks[1:]):
        fields += [_encode(columns[i][2], "json"), repeat(chunk)]
    return "".join(chain.from_iterable(zip(*fields)))[:-len(separator)]


def _render(fmt: str, payload: dict, rows_key: str, columns: list[Column], footers: list[str]) -> str:
    """JSON prints ``payload`` with the rows of ``columns`` under ``rows_key``, its last key; CSV and
    text show the columns that have a header, under it.

    Each column is a (header, key path, values) triple: None as the header
    keeps a column out of CSV and text. A missing value (None) is an empty
    CSV field and a ``-`` in text. Columns of unequal length raise
    ValueError, and a container among the values raises TypeError.
    """
    lengths = {len(values) for _, _, values in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    if fmt == "json":
        text = json.dumps({**payload, rows_key: []}, indent=2)
        if max(lengths, default=0):
            rows = _json_rows(columns, 2, ",\n    ")
            text = text[:-len("[]\n}")] + "[\n    " + rows + "\n  ]\n}"
        return text + "\n"
    shown = [(header, values) for header, _, values in columns if header is not None]
    header = [name for name, _ in shown]
    cells = [_encode(values, fmt) for _, values in shown]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))
        return buf.getvalue()
    padded = []
    for name, column in zip(header, cells):
        column = [name] + column
        padded.append(list(map(str.ljust, column, repeat(max(map(len, column))))))
    lines = [line.rstrip() for line in map("  ".join, zip(*padded))] or [""]  # the header line, if empty
    return "\n".join(lines + footers) + "\n"


def _columns(layout: list[tuple[str | None, tuple[str, ...]]], rows: list[tuple]) -> list[Column]:
    """The columns of ``rows``, each row a tuple of values in ``layout``'s order of (header, key path) pairs."""
    values = list(zip(*rows)) if rows else [()] * len(layout)
    return [(header, path, column) for (header, path), column in zip(layout, values)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# each table's (header, key path) pairs, in the order of its CSV, text and JSON columns
PROFILE_COLUMNS = [("vertex", ("id",)), ("degree", ("degree",)), ("kappa", ("kappa",)),
                   ("lambda_max", ("lambda_max",)), ("entanglement", ("entanglement",))]
NUMERIC_COLUMNS = [("numeric_lambda_max", ("numeric", "lambda_max")),
                   ("deviation", ("numeric", "deviation")), ("grid_size", ("numeric", "grid_size")),
                   ("converged", ("numeric", "converged"))]


def cmd_profile(args: argparse.Namespace) -> int:
    alpha = _single_alpha(args)
    g, source, seed = _load_graph(args)
    report = cf.profile(graph_mod.GraphState(g, alpha))
    degrees = (None,) * g.n if report.degree is None else report.degree
    columns = [(header, path, values) for (header, path), values in zip(
        PROFILE_COLUMNS, (range(g.n), degrees, report.kappa, report.lambda_max, report.entanglement))]
    columns += (_columns(NUMERIC_COLUMNS, _quadrature_checks(report.alpha, report.kappa, report.lambda_max))
                if args.numeric else [(None, ("numeric",), (None,) * g.n)])
    payload = {"alpha": report.alpha, "graph": {"n": g.n, "source": source, "seed": seed}}
    footers = [f"alpha {_cell(report.alpha, '-')}  source {source}"]
    _emit(_render(args.format, payload, "vertices", columns, footers), args.out)
    return EXIT_OK


def _quadrature_checks(alpha: float, kappas: Sequence[float], closed: Sequence[float]) -> list[tuple]:
    """(numeric lambda_max, |numeric - closed|, grid_size, converged) at each kappa; one solve per distinct kappa."""
    solved: dict[float, tuple] = {}
    for kap, lam in zip(kappas, closed):
        if kap not in solved:
            result = num.numeric_entanglement(cf.KernelSpec(alpha, kap))
            solved[kap] = (result.lambda_max_numeric, abs(result.lambda_max_numeric - lam),
                           result.grid_size, result.converged)
    return list(map(solved.__getitem__, kappas))


SPECTRUM_COLUMNS = [("n", ("n",)), ("lambda_n", ("value",)), ("cumulative", ("cumulative",))]


def cmd_spectrum(args: argparse.Namespace) -> int:
    alpha = _single_alpha(args)
    if args.kappa is None:
        raise ValueError("--kappa is required")
    kappas = _float_list(args.kappa, "--kappa")
    if len(kappas) != 1:
        raise ValueError("--kappa expects a single value for this command")
    if not 1 <= args.count <= MAX_ROWS:
        raise ValueError(f"--count must be in [1, {MAX_ROWS}], got {args.count}")
    spect = cf.spectrum(cf.KernelSpec(alpha, kappas[0]), args.count)
    payload = {"alpha": alpha, "kappa": kappas[0], "ratio": spect.ratio}
    columns = [(header, path, values) for (header, path), values in zip(
        SPECTRUM_COLUMNS, (range(args.count), spect.values, spect.cumulative()))]
    footers = [f"ratio {_cell(spect.ratio, '-')}"]
    _emit(_render(args.format, payload, "rows", columns, footers), args.out)
    return EXIT_OK


VALIDATE_COLUMNS = [
    ("alpha", ("alpha",)), ("kappa", ("kappa",)), ("lambda_max", ("lambda_max",)),
    ("lambda_kappa_over_alpha", ("lambda_max_kappa_over_alpha",)), ("lambda_numeric", ("lambda_numeric",)),
    ("dev_closed", ("dev_closed",)), ("dev_kappa_over_alpha", ("dev_kappa_over_alpha",)),
    ("grid_size", ("grid_size",)), ("converged", ("converged",)),
]


def cmd_validate(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    alphas = _alpha_list(args)
    kappas = _resolve_kappas(args)
    rows = []
    for alpha in alphas:
        closed = cf.closed_forms(alpha, kappas)[0].tolist()
        for kap, lam, (lam_numeric, dev, size, converged) in zip(
                kappas, closed, _quadrature_checks(alpha, kappas, closed)):
            lam_alt = cf.lambda_max_kappa_over_alpha(cf.KernelSpec(alpha, kap))
            rows.append((alpha, kap, lam, lam_alt, lam_numeric, dev, abs(lam_alt - lam_numeric), size, converged))
    worst = max(0.0, *(row[5] for row in rows))  # a NaN deviation never becomes the worst
    passed = all(row[-1] for row in rows) and worst < tol
    verdict = "PASS" if passed else "FAIL"
    footers = [f"{verdict}: max |lambda_max - numeric| = {_cell(worst, '-')} over "
               f"{len(rows)} cells (tolerance {_cell(tol, '-')})"]
    payload = {"tolerance": tol, "max_deviation": worst, "pass": passed}
    _emit(_render(args.format, payload, "rows", _columns(VALIDATE_COLUMNS, rows), footers), args.out)
    return EXIT_OK if passed else EXIT_FAIL


ORACLE_COLUMNS = [(key, (key,)) for key in ("vertex", "kappa", "lambda_max", "lambda_reduced",
                                         "lambda_alternating", "dev_reduced", "dev_alternating")]


def _check_oracle_resolution(state: graph_mod.GraphState, grid: num.QuadratureGrid, grid_size: int,
                             rows: list[tuple], tol: float) -> None:
    """Refuse a FAIL verdict that ``grid`` cannot adjudicate: ValueError naming ``--grid-size``.

    The up-front rule of :func:`cmd_oracle` never reads ``tol``; this does: 24
    nodes (T = 13.1) miss the degree law by 4.3e-6 on a graph without edges.
    Each vertex whose deviation reaches ``tol`` is solved again on the rule
    that ``--grid-size`` n would build, n being the nodes of ``grid``; where
    lambda_reduced moves by more than that deviation, the deviation is
    quadrature error, not a failed degree law. One edge of weight 2 at
    alpha = 0.5 deviates by 4.9e-5 on the 48 nodes of --grid-size 64, and 36
    nodes move lambda by 4.0e-3; on the 96 nodes of --grid-size 128 it
    deviates by 4.2e-14. A ``--tol`` below the roundoff of the 128 cap
    (about 1e-14) lands here too, so the message names ``--tol`` as well.
    """
    coarse = num.oracle_grid(grid.extent, grid.size)
    for v, _, _, lam_reduced, _, dev_reduced, dev_alt in rows:
        deviation = max(dev_reduced, dev_alt or 0.0)
        if deviation < tol:
            continue
        lam = num.top_eigenvalues(num.reduce_full_state(state, v, coarse), 1).lambda_max_numeric
        moved = abs(lam - lam_reduced)
        if moved > deviation:
            raise ValueError(f"--grid-size {grid_size} is too coarse to judge vertex {v} at --tol "
                             f"{tol:g}: its lambda moves by {moved:.2g} from {grid.size} to {coarse.size} nodes, "
                             f"more than its deviation {deviation:.2g} from the degree law")


def cmd_oracle(args: argparse.Namespace) -> int:
    _check_numeric_flags(args)
    alpha = _single_alpha(args)
    tol = _tolerance(args)
    g, source, seed = _load_graph(args, num.check_oracle_vertices)
    state = graph_mod.GraphState(g, alpha)
    grid = num.oracle_grid(args.extent_mult / math.sqrt(alpha), args.grid_size)
    weight = float(np.max(np.abs(g.w), initial=0.0))
    # the tensor's envelopes and phases read x x and a x x' on nodes out to the
    # extent: past the float range they are inf, and exp(i inf) is nan
    if not math.isfinite(max(1.0, weight) * grid.extent * grid.extent):
        raise ValueError(f"--alpha {alpha:g} is too small for --extent-mult {args.extent_mult:g}: "
                         f"the oracle grid reaches {grid.extent:g}, where x x and the phases a x x' overflow")
    # Poisson summation: the trapezoid rule of step h over a rest axis copies an edge
    # phase's frequency a (x - x') out by 2 pi / h, and the copy weighs e^-T, with
    # T = pi^2 (n - 1)^2 / (4 E^2 (1 + (a / alpha)^2)); at a = 0 it copies the envelope.
    # Refused below T = 3: with the re-check alone, graphs of at most 3 vertices FAILed the
    # degree law where it holds up to T = 2.03; the lowest PASS at the default --tol is at 3.37
    root, ratio = math.pi * (grid.size - 1) / (2.0 * args.extent_mult), weight / alpha
    if (exponent := root * root / (1.0 + ratio * ratio)) < 3.0:
        raise ValueError(f"--grid-size {args.grid_size} is too coarse: on its {grid.size} nodes the largest "
                         f"|edge weight| {weight:g} at --alpha {alpha:g} aliases with weight e^-{exponent:.2g} > e^-3")
    kappas = graph_mod.kappa(g).tolist()
    rows = []
    all_converged = True
    for v, (kap, lam_closed) in enumerate(zip(kappas, cf.closed_forms(alpha, kappas)[0].tolist())):
        # both oracles read these parity blocks, released below before the next vertex builds its own
        blocks = num.one_vs_rest(state, v, grid)
        reduced = num.top_eigenvalues(num.reduce_full_state(state, v, grid, blocks), 1)
        dev_reduced = abs(reduced.lambda_max_numeric - lam_closed)
        all_converged = all_converged and reduced.converged
        lam_alt: float | None = None
        dev_alt: float | None = None
        if g.n >= 2:
            alternating = num.alternating_maximization(state, v, grid, blocks=blocks)
            lam_alt = alternating.lambda_max_numeric
            dev_alt = abs(lam_alt - lam_closed)
            all_converged = all_converged and alternating.converged
        del blocks
        rows.append((v, kap, lam_closed, reduced.lambda_max_numeric, lam_alt, dev_reduced, dev_alt))
    worst = max(0.0, *(dev for row in rows for dev in row[5:] if dev is not None))
    passed = all_converged and worst < tol
    if not passed:
        _check_oracle_resolution(state, grid, args.grid_size, rows, tol)
    verdict = "PASS" if passed else "FAIL"
    footers = [f"{verdict}: max deviation = {_cell(worst, '-')} (tolerance {_cell(tol, '-')}), "
               f"source {source}, --grid-size {args.grid_size} ({grid.size} trapezoid nodes)"]
    payload = {
        "alpha": alpha,
        "graph": {"n": g.n, "source": source, "seed": seed},
        "tolerance": tol,
        "grid_size": args.grid_size,
        "max_deviation": worst,
        "pass": passed,
    }
    _emit(_render(args.format, payload, "rows", _columns(ORACLE_COLUMNS, rows), footers), args.out)
    return EXIT_OK if passed else EXIT_FAIL


SCAN_GRID_COLUMNS = [(key, (key,)) for key in ("kappa", "coupling_ratio", "entanglement")]
SCAN_ENSEMBLE_COLUMNS = [(key, (key,)) for key in ("degree", "entanglement", "multiplicity")]


def cmd_scan(args: argparse.Namespace) -> int:
    alpha = _single_alpha(args)
    grid_mode = args.kappa is not None or args.kappa_range is not None
    ensemble_mode = args.gen is not None
    if grid_mode == ensemble_mode:
        raise ValueError("scan needs exactly one of a kappa grid (--kappa/--kappa-range) "
                         "or a generator ensemble (--gen)")
    if grid_mode:
        _refuse_unread(args, ("n", "p", "seed", "samples"), "with a kappa grid")
        kappas = np.sort(_resolve_kappas(args), kind="stable")  # sorts kappa / alpha**2 too, as it is monotone
        entanglements = cf.closed_forms(alpha, kappas)[1]
        if alpha**2 == 0.0:
            raise ValueError(f"--alpha {alpha!r} underflows alpha**2 to 0, so kappa/alpha**2 is undefined")
        with np.errstate(over="ignore"):  # past the float range a ratio is inf, as a Python float's is
            values = (kappas, kappas / alpha**2, entanglements)
        layout, payload = SCAN_GRID_COLUMNS, {"alpha": alpha, "mode": "grid"}
    else:
        spec = _gen_spec(args)
        samples = 1 if args.samples is None else args.samples
        if not 1 <= samples <= MAX_ROWS:
            raise ValueError(f"--samples must be in [1, {MAX_ROWS}], got {samples}")
        # only erdos_renyi draws a graph per sample, from seed + i; any other kind
        # is one graph, drawn once and counted once per sample
        seeds = range(spec.seed, spec.seed + samples) if spec.kind == "erdos_renyi" else [None]
        counts = np.zeros(spec.n, dtype=np.int64)
        for seed in seeds:
            counts += np.bincount(graph_mod.degree(graph_mod.generate(dataclasses.replace(spec, seed=seed))),
                                  minlength=spec.n)
        counts *= samples // len(seeds)
        degrees = np.flatnonzero(counts)
        values = (degrees, cf.closed_forms(alpha, degrees)[1], counts[degrees])
        layout, payload = SCAN_ENSEMBLE_COLUMNS, {"alpha": alpha, "mode": "ensemble", "samples": samples}
    columns = [(header, path, column.tolist()) for (header, path), column in zip(layout, values)]
    _emit(_render(args.format, payload, "rows", columns, []), args.out)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _gen_spec(args)
    g = graph_mod.generate(spec)
    extra = f" p={spec.p:g} seed={spec.seed}" if spec.kind == "erdos_renyi" else ""
    comment = f"kind={spec.kind} n={spec.n}{extra}"
    _emit(graph_mod.serialize_edge_list(g, comment=comment), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and config file
# ---------------------------------------------------------------------------

def _generator_options(p: argparse.ArgumentParser, graph: bool = False, required: bool = False) -> None:
    """--gen KIND with its --n, --p and --seed; with ``graph``, --gen is one choice with --graph PATH."""
    source = p.add_mutually_exclusive_group() if graph else p
    if graph:
        source.add_argument("--graph", metavar="PATH", help="edge-list file to analyze")
    source.add_argument("--gen", choices=graph_mod.GENERATOR_KINDS, metavar="KIND", required=required,
                        help=f"generate the graph: one of {', '.join(graph_mod.GENERATOR_KINDS)}")
    p.add_argument("--n", type=int, help="vertex count for --gen")
    p.add_argument("--p", type=float, help="edge probability (erdos_renyi only)")
    p.add_argument("--seed", type=int, help="PRNG seed (erdos_renyi only)")


def _profile_options(p: argparse.ArgumentParser) -> None:
    _generator_options(p, graph=True)
    p.add_argument("--alpha", default="1", help="oscillator width parameter (default 1)")
    p.add_argument("--numeric", action="store_true",
                   help="add quadrature lambda_max, deviation, grid_size and converged columns")


def _spectrum_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", help="coupling strength")
    p.add_argument("--alpha", default="1", help="oscillator width parameter (default 1)")
    p.add_argument("--count", type=int, default=10, help="number of eigenvalues (default 10)")


def _validate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", default="1", help="comma-separated alpha values (default 1)")
    p.add_argument("--kappa", help="comma-separated kappa values")
    p.add_argument("--kappa-range", metavar="LO..HI[..STEP]", help="inclusive kappa range")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="PASS threshold on |closed - numeric| (default 1e-8)")


def _oracle_options(p: argparse.ArgumentParser) -> None:
    _generator_options(p, graph=True)
    p.add_argument("--alpha", default="1", help="oscillator width parameter (default 1)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="PASS threshold on the worst deviation (default 1e-6)")
    p.add_argument("--grid-size", type=int, default=64,
                   help="m: the trapezoid rule on n = ceil(3m/4) nodes per axis; exit 2 where pi^2 (n-1)^2 / (4 E^2 "
                        f"(1 + a^2/alpha^2)) < 3, a = max |edge weight|, E = --extent-mult (default 64, "
                        f"at most {num.ORACLE_MAX_GRID})")
    p.add_argument("--extent-mult", type=float, default=num.DEFAULT_EXTENT_FACTOR,
                   help="interval half-width in units of 1/sqrt(alpha) (default 10, from 8 to 1000)")


def _scan_options(p: argparse.ArgumentParser) -> None:
    _generator_options(p)
    p.add_argument("--alpha", default="1", help="oscillator width parameter (default 1)")
    p.add_argument("--kappa", help="comma-separated kappa values")
    p.add_argument("--kappa-range", metavar="LO..HI[..STEP]", help="inclusive kappa range")
    p.add_argument("--samples", type=int,
                   help="number of samples, read only with --gen (default 1); erdos_renyi draws one graph per "
                        "sample, seeds seed..seed+samples-1, and any other kind is one graph counted samples times")


@dataclasses.dataclass(frozen=True)
class Command:
    """One subcommand: its help line, the options only it takes, and its handler."""

    help: str
    add_options: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]
    default_format: str = "text"


COMMANDS = {
    "profile": Command("per-vertex degree/kappa, lambda_max, and entanglement",
                       _profile_options, cmd_profile),
    "spectrum": Command("leading eigenvalues of the reduced state for one (alpha, kappa)",
                        _spectrum_options, cmd_spectrum),
    "validate": Command("closed form vs quadrature across an (alpha, kappa) grid",
                        _validate_options, cmd_validate),
    "oracle": Command("closed form vs full-state reduction vs alternating overlap (n <= 3)",
                      _oracle_options, cmd_oracle),
    "scan": Command("entanglement curve over a kappa grid or a graph ensemble",
                    _scan_options, cmd_scan, default_format="csv"),
    "gen": Command("write a generated graph in the edge-list format",
                   partial(_generator_options, required=True), cmd_gen),
}


def _build_parser(names: Iterable[str]) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser with a subparser for each of ``names`` (keys of :data:`COMMANDS`)."""
    parser = argparse.ArgumentParser(
        prog="cvge",
        description="Geometric entanglement of single oscillators in Gaussian graph states: "
                    "closed forms, quadrature numerics, and cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    registry: dict[str, argparse.ArgumentParser] = {}
    for name in names:
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--format", choices=FORMATS, default=command.default_format,
                       help=f"output format (default {command.default_format})")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        p.add_argument("--config", metavar="PATH",
                       help="key = value file providing defaults; command-line flags win")
        command.add_options(p)
        registry[name] = p
    return parser, registry


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
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
            raise ValueError(f"unknown config key {raw_key!r} for command {args.command!r}")
        if isinstance(known[dest], bool):
            defaults[dest] = raw_value.lower() in ("1", "true", "yes", "on")
        elif dest == "format" and raw_value not in FORMATS:
            raise ValueError(f"config {raw_key!r}: invalid value {raw_value!r} "
                             f"(choose from {', '.join(FORMATS)})")
        else:
            defaults[dest] = raw_value
    # --graph/--gen (the graph source) and --kappa/--kappa-range (the
    # couplings) are each one choice: the command line's choice drops the
    # config file's value for the other, and --graph drops what only --gen reads
    for dest, rival in (("graph", "gen"), ("gen", "graph"), ("n", "graph"), ("p", "graph"), ("seed", "graph"),
                        ("kappa", "kappa_range"), ("kappa_range", "kappa")):
        if known.get(rival) is not None:
            defaults.pop(dest, None)
    return defaults


def main(argv: list[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    # a call that names its command builds only that command's parser; any
    # other argv (none, --help, an unknown command) gets the full tree, whose
    # usage, help and errors list every command
    names = raw_argv[:1] if raw_argv and raw_argv[0] in COMMANDS else COMMANDS
    parser, registry = _build_parser(names)
    try:
        args = parser.parse_args(raw_argv)
        if getattr(args, "config", None):
            # parse again with the config file as defaults: explicit flags win
            registry[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(raw_argv)
        return COMMANDS[args.command].handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
