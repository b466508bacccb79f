"""Undirected weighted graphs: parsing, generation, and per-vertex coupling strength.

A graph is stored as a dense symmetric coupling matrix with zero diagonal.
The quantity that feeds every entanglement formula is the per-vertex coupling
strength ``kappa(g, v) = sum_j a_vj**2``, which collapses to the plain vertex
degree whenever the weights are 0/1.

Both per-vertex quantities are computed for all vertices at once, in one pass
over the matrix when a :class:`Graph` is built, so that pass costs O(n**2) on
this dense storage and every later lookup is O(1). ``kappa(g)`` and
``degree(g)`` return the read-only vectors over all vertices; ``kappa(g, v)``
and ``degree(g, v)`` index those same vectors, so the scalar and vector forms
agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

GENERATOR_KINDS = ("path", "cycle", "star", "complete", "erdos_renyi")


class EdgeListError(ValueError):
    """Raised when an edge-list document cannot be parsed."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph as an n x n real coupling matrix.

    The matrix is copied and made read-only on construction, and the
    per-vertex coupling strengths and nonzero counts (the degrees, on 0/1
    graphs) are computed from it once. Only the shape is enforced here;
    symmetry and zero-diagonal violations are reported by :func:`validate` so
    that broken inputs can be diagnosed rather than rejected opaquely.
    """

    n: int
    coupling: np.ndarray
    #: True when every off-diagonal weight is exactly 0 or 1.
    is_binary: bool = field(init=False)
    _kappas: np.ndarray = field(init=False, repr=False)
    _degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        mat = np.array(self.coupling, dtype=float, copy=True)
        if mat.shape != (self.n, self.n):
            raise ValueError(f"coupling must have shape ({self.n}, {self.n}), got {mat.shape}")
        zero_or_one = mat == 0.0
        zero_or_one |= mat == 1.0
        np.fill_diagonal(zero_or_one, True)
        kappas = np.einsum("ij,ij->i", mat, mat)
        degrees = np.count_nonzero(mat, axis=1)
        for arr in (mat, kappas, degrees):
            arr.setflags(write=False)
        object.__setattr__(self, "coupling", mat)
        object.__setattr__(self, "is_binary", bool(zero_or_one.all()))
        object.__setattr__(self, "_kappas", kappas)
        object.__setattr__(self, "_degrees", degrees)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (u, v, weight) for each u < v with nonzero weight."""
        iu, iv = np.nonzero(np.triu(self.coupling, 1))
        for u, v in zip(iu.tolist(), iv.tolist()):
            yield u, v, float(self.coupling[u, v])


@dataclass(frozen=True)
class GraphState:
    """A graph together with the oscillator width parameter of the Gaussian envelope."""

    graph: Graph
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


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
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
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


def generate(spec: GraphGenSpec) -> Graph:
    """Build the graph described by ``spec``.

    Deterministic: identical specs (including seed) produce identical coupling
    matrices. Random graphs draw from ``numpy.random.default_rng(seed)``
    (PCG64) over the upper triangle in row-major order.
    """
    n = spec.n
    mat = np.zeros((n, n))
    if spec.kind == "path":
        for i in range(n - 1):
            mat[i, i + 1] = mat[i + 1, i] = 1.0
    elif spec.kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle requires n >= 3, got {n}")
        for i in range(n):
            j = (i + 1) % n
            mat[i, j] = mat[j, i] = 1.0
    elif spec.kind == "star":
        for i in range(1, n):
            mat[0, i] = mat[i, 0] = 1.0
    elif spec.kind == "complete":
        mat = np.ones((n, n)) - np.eye(n)
    elif spec.kind == "erdos_renyi":
        rng = np.random.default_rng(spec.seed)
        iu, iv = np.triu_indices(n, 1)
        picked = rng.random(iu.size) < spec.p
        mat[iu[picked], iv[picked]] = 1.0
        mat = mat + mat.T
    return Graph(n, mat)


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
    """Return every invariant violation of ``g``; an empty list means valid."""
    issues: list[str] = []
    mat = g.coupling
    bad = np.argwhere(mat != mat.T)
    for i, j in bad.tolist():
        if i < j:
            issues.append(f"asymmetric coupling at ({i}, {j}): {mat[i, j]!r} vs {mat[j, i]!r}")
    for i in np.nonzero(np.diag(mat))[0].tolist():
        issues.append(f"nonzero diagonal at {i}: {mat[i, i]!r}")
    if not np.all(np.isfinite(mat)):
        issues.append("coupling matrix contains non-finite entries")
    return issues


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    Lines starting with ``#`` are comments and blank lines are skipped. The
    first significant line must be ``vertices <N>``; every following
    significant line is ``u v`` or ``u v w`` declaring one undirected edge
    with 0-indexed endpoints and optional real weight (default 1.0).
    """
    n: int | None = None
    mat: np.ndarray | None = None
    seen: dict[tuple[int, int], tuple[float, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "vertices" or len(tokens) != 2:
                raise EdgeListError(f"line {lineno}: expected header 'vertices <N>', got {line!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise EdgeListError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
            if n < 1:
                raise EdgeListError(f"line {lineno}: vertex count must be >= 1, got {n}")
            mat = np.zeros((n, n))
            continue
        if len(tokens) not in (2, 3):
            raise EdgeListError(f"line {lineno}: expected 'u v' or 'u v w', got {len(tokens)} fields")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: vertex indices must be integers, got {line!r}") from None
        weight = 1.0
        if len(tokens) == 3:
            try:
                weight = float(tokens[2])
            except ValueError:
                raise EdgeListError(f"line {lineno}: weight {tokens[2]!r} is not a number") from None
            if not np.isfinite(weight):
                raise EdgeListError(f"line {lineno}: weight must be finite, got {tokens[2]!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"line {lineno}: vertex index out of range [0, {n})")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen and seen[key][0] != weight:
            prev_w, prev_line = seen[key]
            raise EdgeListError(
                f"line {lineno}: edge {key} already declared with weight {prev_w!r} on line {prev_line}"
            )
        seen[key] = (weight, lineno)
        assert mat is not None
        mat[u, v] = mat[v, u] = weight
    if n is None:
        raise EdgeListError("missing 'vertices <N>' header")
    return Graph(n, mat)


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
