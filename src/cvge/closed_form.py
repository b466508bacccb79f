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
from dataclasses import dataclass

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

    @property
    def count(self) -> int:
        return len(self.values)

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
class NumericCheck:
    """Quadrature cross-check attached to a vertex record."""

    lambda_max: float
    deviation: float
    grid_size: int


@dataclass(frozen=True)
class VertexRecord:
    """Entanglement data for one vertex; ``degree`` is None on weighted graphs."""

    vertex: int
    degree: int | None
    kappa: float
    lambda_max: float
    entanglement: float
    numeric: NumericCheck | None = None


@dataclass(frozen=True)
class EntanglementReport:
    """Per-vertex entanglement of a graph state, with provenance."""

    alpha: float
    records: tuple[VertexRecord, ...]
    source: str = ""
    seed: int | None = None


def spectral_denominator(spec: KernelSpec) -> float:
    """D = kappa + 2 alpha^2 + 2 alpha sqrt(alpha^2 + kappa). Equals (alpha + sqrt(alpha^2+kappa))^2."""
    root = math.sqrt(spec.alpha**2 + spec.kappa)
    return spec.kappa + 2.0 * spec.alpha**2 + 2.0 * spec.alpha * root


def spectrum_ratio(spec: KernelSpec) -> float:
    """Geometric ratio q = kappa / D between consecutive eigenvalues; q in [0, 1)."""
    if spec.kappa == 0.0:
        return 0.0
    return spec.kappa / spectral_denominator(spec)


def lambda_max(spec: KernelSpec) -> float:
    """Largest eigenvalue 2 alpha / (alpha + sqrt(alpha^2 + kappa)); always in (0, 1]."""
    return 2.0 * spec.alpha / (spec.alpha + math.sqrt(spec.alpha**2 + spec.kappa))


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
    small kappa.
    """
    root = math.sqrt(spec.alpha**2 + spec.kappa)
    return spec.kappa / (spec.alpha + root) ** 2


def entanglement_kappa_over_alpha(spec: KernelSpec) -> float:
    """1 - lambda_max_kappa_over_alpha, in the same cancellation-free arrangement."""
    r = spec.kappa / spec.alpha
    return r / (1.0 + math.sqrt(1.0 + r)) ** 2


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

    Equals 1 exactly when kappa = 0 (pure reduced state); used as a
    cross-check against double quadrature of the squared kernel.
    """
    d = spectral_denominator(spec)
    return 2.0 * spec.alpha * math.sqrt(d) / (d + spec.kappa)


def profile(state: GraphState, source: str = "", seed: int | None = None) -> EntanglementReport:
    """Per-vertex entanglement report for a graph state.

    The closed form is evaluated once per distinct kappa and scattered back to
    the vertices, so vertices sharing the same kappa get bit-identical
    lambda_max and E. Raises ValueError if the graph violates its invariants.
    """
    issues = graph_mod.validate(state.graph)
    if issues:
        raise ValueError("invalid graph: " + "; ".join(issues))
    g = state.graph
    kappas = graph_mod.kappa(g)
    degrees = graph_mod.degree(g).tolist() if g.is_binary else [None] * g.n
    distinct, which = np.unique(kappas, return_inverse=True)
    values = []
    for kv in distinct.tolist():
        ks = KernelSpec(state.alpha, kv)
        values.append((lambda_max(ks), entanglement(ks)))
    records = []
    for v, (deg, kv, i) in enumerate(zip(degrees, kappas.tolist(), which.tolist())):
        lam, ent = values[i]
        records.append(VertexRecord(vertex=v, degree=deg, kappa=kv, lambda_max=lam, entanglement=ent))
    return EntanglementReport(alpha=state.alpha, records=tuple(records), source=source, seed=seed)
