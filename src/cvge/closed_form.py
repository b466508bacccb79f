"""Closed-form spectrum and geometric entanglement of one oscillator vs the rest.

The reduced density operator of a single oscillator in a Gaussian graph state
has a purely geometric spectrum fixed by the pair (alpha, kappa):

    D        = kappa + 2 alpha^2 + 2 alpha sqrt(alpha^2 + kappa)
             = (alpha + sqrt(alpha^2 + kappa))^2
    lambda_n = 2 alpha kappa^n / D^(n + 1/2)  =  lambda_0 * q^n,   q = kappa / D
    E        = 1 - lambda_0

Everything here is plain double-precision arithmetic; the quadrature solver in
:mod:`cvge.numerics` recomputes the same quantities from the integral operator
and is the arbiter whenever two algebraic arrangements disagree. In
particular, ``lambda_max`` uses the ratio kappa/alpha**2, which the solver
confirms; the kappa/alpha variant is kept only so validation runs can print
both candidates side by side.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import graph as graph_mod
from .graph import GraphState


@dataclass(frozen=True)
class KernelSpec:
    """Width/coupling pair that fully determines the reduced one-oscillator kernel."""

    alpha: float
    kappa: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        try:
            self.alpha**2  # the closed forms square alpha as a Python float
        except OverflowError:
            raise ValueError(f"alpha must be below {math.sqrt(sys.float_info.max):.4g} so that alpha**2 "
                             f"is finite, got {self.alpha!r}") from None
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be nonnegative and finite, got {self.kappa!r}")

    @property
    def coupling_ratio(self) -> float:
        """Dimensionless combination kappa / alpha**2; all spectral data depend only on it."""
        return self.kappa / self.alpha**2


@dataclass(frozen=True)
class Spectrum:
    """Leading eigenvalues of the reduced state, largest first, plus their geometric ratio."""

    values: tuple[float, ...]
    ratio: float

    def cumulative(self) -> tuple[float, ...]:
        """Running partial sums of the eigenvalues."""
        out: list[float] = []
        total = 0.0
        for v in self.values:
            total += v
            out.append(total)
        return tuple(out)

    def tail_sum(self) -> float:
        """Exact sum of all eigenvalues beyond the stored ones: last * q / (1 - q)."""
        if self.ratio == 0.0:
            return 0.0
        return self.values[-1] * self.ratio / (1.0 - self.ratio)


@dataclass(frozen=True)
class VertexRecord:
    """Entanglement data for one vertex; ``degree`` is None on weighted graphs."""

    vertex: int
    degree: int | None
    kappa: float
    lambda_max: float
    entanglement: float


@dataclass(frozen=True)
class EntanglementReport:
    """Per-vertex entanglement of a graph state, as one column per quantity.

    Entry v of each column belongs to vertex v; ``degree`` is None on
    weighted graphs. :attr:`records` gives the same data one vertex at a time.
    """

    alpha: float
    kappa: tuple[float, ...]
    degree: tuple[int, ...] | None
    lambda_max: tuple[float, ...]
    entanglement: tuple[float, ...]

    @property
    def records(self) -> VertexRecords:
        """The columns as one :class:`VertexRecord` per vertex, in vertex order; each is built when read."""
        return VertexRecords(self)


class VertexRecords(Sequence):
    """Read-only sequence view of an :class:`EntanglementReport`'s columns, one record per vertex.

    Taking its length builds no record; a record is built only when it is
    indexed or iterated over. A slice is a tuple of records.
    """

    def __init__(self, report: EntanglementReport) -> None:
        self._report = report

    def __len__(self) -> int:
        return len(self._report.kappa)

    def __getitem__(self, index):
        vertices = range(len(self))[index]  # IndexError past either end, negatives count back
        if isinstance(vertices, range):
            return tuple(map(self.__getitem__, vertices))
        r = self._report
        return VertexRecord(vertices, None if r.degree is None else r.degree[vertices], r.kappa[vertices],
                            r.lambda_max[vertices], r.entanglement[vertices])


def _root(spec: KernelSpec) -> float:
    """sqrt(alpha^2 + kappa), through math.hypot where the sum overflows; bit-identical elsewhere."""
    square = spec.alpha**2 + spec.kappa
    if square == math.inf:
        return math.hypot(spec.alpha, math.sqrt(spec.kappa))
    return math.sqrt(square)


def spectral_denominator(spec: KernelSpec) -> float:
    """D = kappa + 2 alpha^2 + 2 alpha sqrt(alpha^2 + kappa). Equals (alpha + sqrt(alpha^2+kappa))^2."""
    return spec.kappa + 2.0 * spec.alpha**2 + 2.0 * spec.alpha * _root(spec)


def spectrum_ratio(spec: KernelSpec) -> float:
    """Geometric ratio q = kappa / D between consecutive eigenvalues; q in [0, 1).

    Where D overflows (always above alpha ~ 6.7e153), kappa is divided by
    alpha + sqrt(alpha^2 + kappa) twice instead.
    """
    if spec.kappa == 0.0:
        return 0.0
    d = spectral_denominator(spec)
    if d == math.inf:
        total = spec.alpha + _root(spec)
        return spec.kappa / total / total
    return spec.kappa / d


def lambda_max(spec: KernelSpec) -> float:
    """Largest eigenvalue 2 alpha / (alpha + sqrt(alpha^2 + kappa)); always in (0, 1].

    kappa = 0 is exactly 1: below alpha ~ 1.5e-162, alpha**2 underflows to 0
    and the formula would give 2 alpha / alpha = 2.
    """
    if spec.kappa == 0.0:
        return 1.0
    return 2.0 * spec.alpha / (spec.alpha + _root(spec))


def lambda_n(spec: KernelSpec, n: int) -> float:
    """n-th eigenvalue 2 alpha kappa^n / D^(n + 1/2), evaluated as lambda_max * q**n.

    kappa = 0 is a separate branch (the reduced state is pure, spectrum
    (1, 0, 0, ...)) to sidestep the 0**0 corner.
    """
    if n < 0:
        raise ValueError(f"eigenvalue index must be nonnegative, got {n}")
    if spec.kappa == 0.0:
        return 1.0 if n == 0 else 0.0
    return lambda_max(spec) * spectrum_ratio(spec) ** n


def lambda_max_kappa_over_alpha(spec: KernelSpec) -> float:
    """Variant closed form 2 / (1 + sqrt(1 + kappa/alpha)).

    Built from the ratio kappa/alpha instead of kappa/alpha**2, so it agrees
    with :func:`lambda_max` only at alpha = 1. The quadrature eigensolver
    selects :func:`lambda_max`; this variant exists so the validate command
    can show the discrepancy explicitly.
    """
    return 2.0 / (1.0 + math.sqrt(1.0 + spec.kappa / spec.alpha))


def entanglement(spec: KernelSpec) -> float:
    """Geometric measure 1 - lambda_max, in [0, 1).

    Evaluated as kappa / (alpha + sqrt(alpha^2 + kappa))**2, which is
    algebraically identical to (sqrt(alpha^2+kappa) - alpha) /
    (sqrt(alpha^2+kappa) + alpha) but free of subtractive cancellation at
    small kappa. kappa = 0 returns kappa itself as a float (0.0, or -0.0 with
    its sign kept): below alpha ~ 1.5e-162 the denominator underflows to 0.
    Above alpha ~ 6.7e153 the square of alpha + root overflows, and kappa is
    divided by alpha + root twice instead. That square is Python's ``**`` on
    a float, which is libm ``pow``, not total * total: the two differ in the
    last bit on about 0.09% of doubles, and the printed E values are pow's.
    """
    if spec.kappa == 0.0:
        return float(spec.kappa)
    total = spec.alpha + _root(spec)
    try:
        return spec.kappa / total**2
    except OverflowError:
        return spec.kappa / total / total


def spectrum(spec: KernelSpec, count: int) -> Spectrum:
    """First ``count`` eigenvalues in decreasing order.

    Values are produced by repeated multiplication with q, so each stored
    consecutive ratio reproduces q to within one rounding.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    q = spectrum_ratio(spec)
    values: list[float] = []
    v = lambda_max(spec)
    for _ in range(count):
        values.append(v)
        v *= q
    return Spectrum(tuple(values), q)


def purity(spec: KernelSpec) -> float:
    """Sum of squared eigenvalues in closed form: 2 alpha sqrt(D) / (D + kappa).

    kappa = 0 is exactly 1 (a pure reduced state): below alpha ~ 1.5e-162,
    D underflows to 0 and the formula would divide 0 by 0. Where D + kappa
    overflows, it is 2 alpha / (t + kappa / t) with t = sqrt(D) = alpha +
    sqrt(alpha^2 + kappa). Used as a cross-check against double quadrature of
    the squared kernel.
    """
    if spec.kappa == 0.0:
        return 1.0
    d = spectral_denominator(spec)
    if d + spec.kappa == math.inf:
        total = spec.alpha + _root(spec)
        return 2.0 * spec.alpha / (total + spec.kappa / total)
    return 2.0 * spec.alpha * math.sqrt(d) / (d + spec.kappa)


def closed_forms(alpha: float, kappa: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lambda_max` and :func:`entanglement` at each kappa, as arrays, bit for bit the scalar values.

    The one evaluator of the degree law over many kappa: every command takes
    its lambda_max and E from here. ``kappa`` is any float sequence or
    array, each value nonnegative and finite. Raises ValueError, as
    :class:`KernelSpec` does, if alpha is not positive and finite or alpha**2
    overflows.

    Each element takes the scalar functions' operations in their order, and
    numpy's +, / and sqrt round as Python's floats do. The square of alpha +
    root is Python's ``**`` (libm ``pow``, see :func:`entanglement`), never
    numpy's ``**2``, which is t * t. The branches are the scalar ones: kappa =
    0, ``hypot`` where alpha**2 + kappa overflows, and the scalar call itself
    where total**2 does.
    """
    KernelSpec(alpha, 0.0)  # refuses the alpha that every scalar call would refuse
    kappa = np.asarray(kappa, dtype=float)
    lam = np.ones_like(kappa)
    ent = kappa.copy()  # kappa = 0 keeps its own zero
    coupled = kappa != 0.0
    k = kappa[coupled]
    with np.errstate(all="ignore"):  # a Python float overflows to inf silently, and so must these
        square = alpha**2 + k
        root = np.sqrt(square)
        wide = np.isinf(square)
        if wide.any():
            root[wide] = [math.hypot(alpha, math.sqrt(kv)) for kv in k[wide].tolist()]
        total = alpha + root
        lam[coupled] = 2.0 * alpha / total
        try:
            ent[coupled] = k / np.array(list(map(pow, total.tolist(), repeat(2.0))))
        except OverflowError:
            ent[coupled] = [entanglement(KernelSpec(alpha, kv)) for kv in k.tolist()]
    return lam, ent


def profile(state: GraphState) -> EntanglementReport:
    """Per-vertex entanglement report for a graph state, as columns over the vertices.

    lambda_max and E are computed once per distinct kappa, as arrays
    (:func:`closed_forms`), and ``np.unique``'s inverse scatters them to the
    vertices. So vertices sharing the same kappa get bit-identical lambda_max
    and E, and every value is bit-identical to the scalar call at its kappa.
    Raises ValueError if the graph violates its invariants, or if alpha**2
    overflows.
    """
    issues = graph_mod.validate(state.graph)
    if issues:
        raise ValueError("invalid graph: " + "; ".join(issues))
    g = state.graph
    kappas = graph_mod.kappa(g)
    degrees = tuple(graph_mod.degree(g).tolist()) if g.is_binary else None
    distinct, which = np.unique(kappas, return_inverse=True)
    lams, ents = closed_forms(state.alpha, distinct)
    return EntanglementReport(alpha=state.alpha, kappa=tuple(kappas.tolist()), degree=degrees,
                              lambda_max=tuple(lams[which].tolist()), entanglement=tuple(ents[which].tolist()))
