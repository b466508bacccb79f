"""Undirected weighted graphs: parsing, generation, and per-vertex coupling strength.

A graph stores each undirected edge once, as sorted int32 endpoint arrays
``u < v`` and a float weight array ``w``. The quantity that feeds every
entanglement formula is the per-vertex coupling strength
``kappa(g, v) = sum_j a_vj**2``, which collapses to the plain vertex degree
whenever the weights are 0/1.

Both per-vertex quantities are computed for all vertices at once when a
:class:`Graph` is built, as ``np.bincount`` of ``w**2`` and of the endpoints,
so building a graph costs O(n + E) and every later lookup is O(1).
``kappa(g)`` and ``degree(g)`` return the read-only vectors over all vertices;
``kappa(g, v)`` and ``degree(g, v)`` index those same vectors, so the scalar
and vector forms agree bit for bit. Generation, parsing, validation and
serialization work on the edge arrays and never build an n x n matrix; only
``Graph(n, matrix)`` reads one, to build a graph from it.

:func:`parse_edge_list` keeps no Python object per edge either. It reads the
text in blocks of lines, converts each block's fields to int64 and float
arrays, checks them as arrays, and finds pairs listed twice with one stable
sort of the pair keys.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Iterator, TextIO

import numpy as np

GENERATOR_KINDS = ("path", "cycle", "star", "complete", "erdos_renyi")
#: Largest vertex count of a generated or parsed graph. ``erdos_renyi`` draws
#: one uniform per vertex pair, n(n-1)/2 of them, and the complete graph at
#: this cap stores 5e7 edges of 16 bytes each, about 800 MB.
MAX_VERTICES = 10_000
#: Vertex pairs ``erdos_renyi`` and ``complete`` visit at a time, so that the
#: uniforms and pair numbers in memory are O(2**20) whatever n.
PAIR_BLOCK = 1 << 20
#: Characters of edge-list text that :func:`parse_edge_list` splits into lines
#: and converts at a time, so its per-line strings are O(2**16) whatever the file.
PARSE_BLOCK = 1 << 16


class EdgeListError(ValueError):
    """Raised when an edge-list document cannot be parsed."""


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Undirected graph: each edge once, as endpoints ``u[k] < v[k]`` with weight ``w[k]``.

    The edges are sorted by (u, v), and all three arrays are read-only. The
    per-vertex coupling strengths and edge counts (the degrees, on 0/1
    graphs) are computed from them once. ``Graph(n, coupling)`` builds the
    graph from a dense symmetric matrix with zero diagonal;
    :meth:`from_edges` builds it from edge arrays, whose self-loops,
    duplicate pairs and zero or non-finite weights :func:`validate` reports.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    #: True when every edge weight is exactly 1.
    is_binary: bool = field(repr=False)
    _kappas: np.ndarray = field(repr=False)
    _degrees: np.ndarray = field(repr=False)

    def __init__(self, n: int, coupling) -> None:
        """Graph of the nonzero upper-triangle entries of an n x n ``coupling`` matrix.

        Raises ValueError on a wrong shape, and on an asymmetric, nonzero-diagonal
        or non-finite matrix, naming every violation.
        """
        mat = np.asarray(coupling, dtype=float)
        if mat.shape != (n, n):
            raise ValueError(f"coupling must have shape ({n}, {n}), got {mat.shape}")
        issues = _matrix_issues(mat)
        if issues:
            raise ValueError("invalid graph: " + "; ".join(issues))
        u, v = np.nonzero(np.triu(mat, 1))
        self._store(n, u, v, mat[u, v])

    @classmethod
    def from_edges(cls, n: int, u, v, w) -> Graph:
        """Graph of n vertices with one edge (u[k], v[k]) of weight w[k] per k.

        Each pair is put in the order u < v and the edges are sorted by
        (u, v); an input that is already in that order is not sorted again.
        Raises ValueError on arrays of unequal length or an endpoint outside
        [0, n).
        """
        graph = cls.__new__(cls)
        graph._store(n, u, v, w)
        return graph

    def _store(self, n: int, u, v, w) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        u, v, w = np.asarray(u), np.asarray(v), np.array(w, dtype=float)
        if not u.ndim == v.ndim == w.ndim == 1 or not u.size == v.size == w.size:
            raise ValueError("edge arrays u, v and w must be 1-D and of equal length")
        if u.size and not (min(u.min(), v.min()) >= 0 and max(u.max(), v.max()) < n):
            raise ValueError(f"edge endpoint out of range [0, {n})")
        u, v = np.minimum(u, v).astype(np.int32), np.maximum(u, v).astype(np.int32)
        key = u.astype(np.int64) * n + v
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            u, v, w = u[order], v[order], w[order]
        kappas = np.zeros(n)  # float even with no edges, where a weighted bincount is integer
        # validate() reports a kappa that overflows to inf, in a square or in the sum
        # of a vertex's two halves (its edges as the v and as the u endpoint)
        with np.errstate(over="ignore"):
            squares = w * w
            kappas += np.bincount(v, weights=squares, minlength=n)
            kappas += np.bincount(u, weights=squares, minlength=n)
        degrees = np.bincount(v, minlength=n) + np.bincount(u, minlength=n)
        for arr in (u, v, w, kappas, degrees):
            arr.setflags(write=False)
        for name, value in (("n", n), ("u", u), ("v", v), ("w", w), ("is_binary", bool(np.all(w == 1.0))),
                            ("_kappas", kappas), ("_degrees", degrees)):
            object.__setattr__(self, name, value)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over (u, v, weight) of each edge, u < v, in sorted order."""
        return zip(self.u.tolist(), self.v.tolist(), self.w.tolist())


def _matrix_issues(mat: np.ndarray) -> list[str]:
    """Every reason a square matrix is not a symmetric, zero-diagonal, finite coupling matrix."""
    issues: list[str] = []
    bad = np.argwhere(mat != mat.T)
    for i, j in bad.tolist():
        if i < j:
            issues.append(f"asymmetric coupling at ({i}, {j}): {mat[i, j]!r} vs {mat[j, i]!r}")
    for i in np.nonzero(np.diag(mat))[0].tolist():
        issues.append(f"nonzero diagonal at {i}: {mat[i, i]!r}")
    if not np.all(np.isfinite(mat)):
        issues.append("coupling matrix contains non-finite entries")
    return issues


@dataclass(frozen=True)
class GraphState:
    """A graph together with the oscillator width parameter of the Gaussian envelope."""

    graph: Graph
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


def _vertex_count_issue(n: int) -> str | None:
    if n < 1:
        return f"vertex count must be >= 1, got {n}"
    if n > MAX_VERTICES:
        return f"vertex count must be <= {MAX_VERTICES} (up to n(n-1)/2 edges), got {n}"
    return None


@dataclass(frozen=True)
class GraphGenSpec:
    """Deterministic recipe for a test graph.

    ``p`` and ``seed`` are required for (and only valid with) the
    ``erdos_renyi`` kind; all other generators are parameter-free.
    """

    kind: str
    n: int
    p: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}; expected one of {GENERATOR_KINDS}")
        issue = _vertex_count_issue(self.n)
        if issue:
            raise ValueError(issue)
        if self.kind == "erdos_renyi":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"erdos_renyi requires edge probability p in [0, 1], got {self.p!r}")
            if self.seed is None or self.seed < 0:
                raise ValueError(f"erdos_renyi requires a nonnegative integer seed, got {self.seed!r}")
        else:
            if self.p is not None:
                raise ValueError(f"p is only meaningful for erdos_renyi, not {self.kind!r}")
            if self.seed is not None:
                raise ValueError(f"seed is only meaningful for erdos_renyi, not {self.kind!r}")


def _upper_pairs(n: int, pick: Callable[[int, int], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (u, v), u < v, of the picked vertex pairs, in row-major order.

    The pairs are numbered row-major over the upper triangle, 0 to
    n(n-1)/2 - 1, and visited in blocks of :data:`PAIR_BLOCK`;
    ``pick(start, size)`` returns the increasing numbers it picks from
    [start, start + size). Each is mapped to its row by a binary search over
    the row offsets.
    """
    offsets = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    total = int(offsets[-1])
    us, vs = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    for start in range(0, total, PAIR_BLOCK):
        flat = pick(start, min(PAIR_BLOCK, total - start))
        rows = np.searchsorted(offsets, flat, side="right") - 1
        us.append(rows.astype(np.int32))
        vs.append((flat - offsets[rows] + rows + 1).astype(np.int32))
    return np.concatenate(us), np.concatenate(vs)


def generate(spec: GraphGenSpec) -> Graph:
    """Build the graph described by ``spec``.

    Deterministic: identical specs (including seed) produce identical edges.
    Random graphs draw one ``numpy.random.default_rng(seed)`` (PCG64) uniform
    per vertex pair over the upper triangle in row-major order, and keep the
    pairs whose uniform is below p.
    """
    n = spec.n
    if spec.kind == "path":
        u = np.arange(n - 1)
        v = u + 1
    elif spec.kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle requires n >= 3, got {n}")
        u = np.arange(n)
        v = (u + 1) % n
    elif spec.kind == "star":
        v = np.arange(1, n)
        u = np.zeros_like(v)
    elif spec.kind == "complete":
        u, v = _upper_pairs(n, lambda start, size: np.arange(start, start + size))
    else:
        rng = np.random.default_rng(spec.seed)
        u, v = _upper_pairs(n, lambda start, size: start + np.flatnonzero(rng.random(size) < spec.p))
    return Graph.from_edges(n, u, v, np.ones(u.size))


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range [0, {g.n})")


def degree(g: Graph, v: int | None = None) -> int | np.ndarray:
    """Number of edges incident to ``v``. Only defined for 0/1 weights.

    Without ``v``, returns the read-only integer vector of all degrees.
    """
    if v is not None:
        _check_vertex(g, v)
    if not g.is_binary:
        raise ValueError("degree is only defined for 0/1 weights; use kappa() on weighted graphs")
    return g._degrees if v is None else int(g._degrees[v])


def kappa(g: Graph, v: int | None = None) -> float | np.ndarray:
    """Coupling strength of ``v``: the sum of its squared edge weights.

    Equals ``degree(g, v)`` exactly for 0/1 weights. This is the quantity the
    reduced one-oscillator kernel actually depends on (integrating the rest of
    the state out contributes one factor exp(-a_vj**2 (x-x')**2 / 4 alpha) per
    neighbour), so it, not the plain weight sum, is what weighted graphs feed
    into the entanglement formulas.

    Without ``v``, returns the read-only float vector over all vertices.
    """
    if v is None:
        return g._kappas
    _check_vertex(g, v)
    return float(g._kappas[v])


def validate(g: Graph) -> list[str]:
    """Return every invariant violation of ``g``'s edges; an empty list means valid.

    One O(E) pass: no self-loops, no pair listed twice, and every weight
    finite and nonzero.
    """
    issues = [f"self-loop at vertex {i}" for i in g.u[g.u == g.v].tolist()]
    same = (g.u[1:] == g.u[:-1]) & (g.v[1:] == g.v[:-1])
    issues += [f"duplicate edge ({g.u[k]}, {g.v[k]})" for k in np.flatnonzero(same).tolist()]
    bad = ~np.isfinite(g.w) | (g.w == 0.0)
    issues += [f"edge ({g.u[k]}, {g.v[k]}) has weight {float(g.w[k])!r}; weights must be finite and nonzero"
               for k in np.flatnonzero(bad).tolist()]
    return issues + [_kappa_overflow(i) for i in _overflowed_vertices(g)]


def _overflowed_vertices(g: Graph) -> list[int]:
    """Vertices whose finite edge weights square and sum past the float range, to kappa = inf."""
    tainted = np.zeros(g.n, dtype=bool)
    nonfinite = ~np.isfinite(g.w)
    tainted[g.u[nonfinite]] = tainted[g.v[nonfinite]] = True
    return np.flatnonzero(np.isinf(g._kappas) & ~tainted).tolist()


def _kappa_overflow(v: int) -> str:
    return f"vertex {v}: the sum of its squared edge weights overflows, so kappa is inf"


def _line_blocks(source: str | TextIO) -> Iterator[list[str]]:
    """The lines of ``source`` in consecutive blocks of about :data:`PARSE_BLOCK` characters.

    Each block but the last is ``PARSE_BLOCK`` characters and the rest of the
    line they end in, so no line, and no ``\\r\\n`` pair, is split between two
    blocks, and the blocks' ``splitlines`` are those of the whole text. A
    string is read as a stream through ``io.StringIO``, which translates no
    newline.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    while block := source.read(PARSE_BLOCK):
        yield (block + source.readline()).splitlines()


def _header(line: str, lineno: int) -> int:
    """Vertex count of the ``vertices <N>`` header line."""
    tokens = line.split()
    if tokens[0] != "vertices" or len(tokens) != 2:
        raise EdgeListError(f"line {lineno}: expected header 'vertices <N>', got {line.strip()!r}")
    try:
        n = int(tokens[1])
    except ValueError:
        raise EdgeListError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
    issue = _vertex_count_issue(n)
    if issue:
        raise EdgeListError(f"line {lineno}: {issue}")
    return n


def _convert(convert: Callable[[str], object], tokens: list[str]) -> tuple[list, int]:
    """``convert`` of each token up to the first it rejects, and that token's index (len if none)."""
    try:
        return list(map(convert, tokens)), len(tokens)
    except ValueError:
        values = []
        for token in tokens:
            try:
                values.append(convert(token))
            except ValueError:
                break
        return values, len(values)


def _vertex_indices(values: list[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # past int64 is out of range for any vertex count; -1 is too
        return np.array([x if 0 <= x <= MAX_VERTICES else -1 for x in values], dtype=np.int64)


def _parse_block(lines: list[str], linenos: np.ndarray,
                 n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, str | None]:
    """(u, v, w) of the edge ``lines`` up to their first faulty one, how many lines that is, and its error.

    ``linenos`` holds each line's number. The fields of all the lines are
    split into one list of strings: a list per line, all alive at once, would
    be promoted by the cyclic garbage collector and bring on more of its full
    collections, each of which walks every live object. Each
    check runs over the lines before the first fault found so far, and moves
    that limit back to its own first failure. So the limit ends at the first
    faulty line, and the error is that of the first check the line fails, in
    the order: field count, integer indices, number weight, finite weight,
    index range, self-loop. The error is None when every line passes.
    """
    tokens = " ".join(lines).split()
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    starts = np.cumsum(counts) - counts  # index in tokens of each line's first field
    stop, fault = len(lines), None

    def limit(bad, message: Callable[[int], str]) -> None:  # bad: failing line indices, increasing
        nonlocal stop, fault
        if len(bad) and bad[0] < stop:
            stop, fault = int(bad[0]), message

    def column(k: int, at) -> list[str]:  # field k of the lines ``at``
        return list(map(tokens.__getitem__, (starts[at] + k).tolist()))

    limit(np.flatnonzero((counts < 2) | (counts > 3)),
          lambda i: f"expected 'u v' or 'u v w', got {counts[i]} fields")
    us, bad_u = _convert(int, column(0, np.s_[:stop]))
    vs, bad_v = _convert(int, column(1, np.s_[:stop]))
    limit([min(bad_u, bad_v)], lambda i: f"vertex indices must be integers, got {lines[i].strip()!r}")
    weighted = np.flatnonzero(counts[:stop] == 3)
    ws, bad_w = _convert(float, column(2, weighted))
    limit(weighted[bad_w:], lambda i: f"weight {tokens[starts[i] + 2]!r} is not a number")
    w = np.ones(stop)
    weighted = weighted[weighted < stop]
    w[weighted] = ws[:weighted.size]
    limit(np.flatnonzero(~np.isfinite(w)), lambda i: f"weight must be finite, got {tokens[starts[i] + 2]!r}")
    u, v = _vertex_indices(us[:stop]), _vertex_indices(vs[:stop])
    limit(np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n)),
          lambda i: f"vertex index out of range [0, {n})")
    limit(np.flatnonzero(u[:stop] == v[:stop]), lambda i: f"self-loop at vertex {u[i]}")
    error = None if fault is None else f"line {linenos[stop]}: {fault(stop)}"
    return u[:stop], v[:stop], w[:stop], stop, error


def parse_edge_list(text: str | TextIO, check_n: Callable[[int], None] | None = None) -> Graph:
    """Parse the plain-text edge-list format.

    Lines starting with ``#`` are comments and blank lines are skipped. The
    first significant line must be ``vertices <N>``; every following
    significant line is ``u v`` or ``u v w`` declaring one undirected edge
    with 0-indexed endpoints and optional real weight (default 1.0). A pair
    may be listed again with an equal weight. An edge of weight 0 is no edge.

    ``text`` is a string or a text stream, and is read in blocks of lines:
    a stream no further than the block that holds a faulty line, or the
    header that ``check_n`` refuses. Python's ``int`` and ``float``
    convert each block's fields, and the checks run on its arrays. A faulty
    line raises EdgeListError naming the first one in the file and its line
    number. One stable sort of the pair keys finds the pairs listed twice; a
    pair listed again with another weight names the most recent earlier line
    of that pair.

    ``check_n`` sees the header's vertex count before any edge line is
    converted; whatever it raises propagates unchanged.
    """
    n: int | None = None
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))]
    failure = None
    first = 1  # line number of the block's first line
    for block in _line_blocks(text):
        rows = [i for i, line in enumerate(block) if line.lstrip()[:1] not in ("", "#")]
        if n is None and rows:
            n = _header(block[rows[0]], first + rows[0])
            if check_n is not None:
                check_n(n)
            rows = rows[1:]
        if rows:
            linenos = np.array(rows, dtype=np.int64) + first
            u, v, w, stop, failure = _parse_block([block[i] for i in rows], linenos, n)
            parts.append((u, v, w, linenos[:stop]))
            if failure is not None:
                break
        first += len(block)
    if n is None:
        raise EdgeListError("missing 'vertices <N>' header")
    u, v, w, lineno = map(np.concatenate, zip(*parts))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.argsort(lo * n + hi, kind="stable")  # each pair's lines stay in file order
    lo, hi, w, lineno = lo[order], hi[order], w[order], lineno[order]
    repeat = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    clash = np.flatnonzero(repeat & (w[1:] != w[:-1]))
    if clash.size:
        k = clash[np.argmin(lineno[clash + 1])]
        raise EdgeListError(f"line {lineno[k + 1]}: edge ({lo[k]}, {hi[k]}) already declared "
                            f"with weight {float(w[k])!r} on line {lineno[k]}")
    if failure is not None:
        raise EdgeListError(failure)
    last = np.ones(w.size, dtype=bool)  # one line per pair: all its weights are equal
    last[:-1] = ~repeat
    keep = last & (w != 0.0)
    g = Graph.from_edges(n, lo[keep], hi[keep], w[keep])
    overflowed = _overflowed_vertices(g)
    if overflowed:
        raise EdgeListError(_kappa_overflow(overflowed[0]))
    return g


def serialize_edge_list(g: Graph, comment: str | None = None) -> str:
    """Render ``g`` in the edge-list format; inverse of :func:`parse_edge_list`.

    Weights are written with ``repr`` so the round trip is bit-exact; weight
    1.0 is omitted since it is the parser default.
    """
    lines: list[str] = []
    if comment:
        lines.extend("# " + part for part in comment.splitlines())
    lines.append(f"vertices {g.n}")
    for u, v, w in g.edges():
        lines.append(f"{u} {v}" if w == 1.0 else f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"
