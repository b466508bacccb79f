"""First-principles quadrature machinery for the reduced-kernel eigenproblem.

The reduced one-oscillator kernel

    K(x, x') = sqrt(alpha/pi) * exp(-kappa (x - x')^2 / (4 alpha)
                                    - alpha (x^2 + x'^2) / 2)

is discretized on a quadrature grid over [-L, L] as the symmetric matrix
B_ij = sqrt(w_i w_j) K(x_i, x_j), whose eigenvalues approximate those of the
integral operator (Nystrom method). Eigenvector components map back to
function samples through phi(x_i) = u_i / sqrt(w_i).

Two representations of B exist:

* :func:`discretize` assembles the dense matrix on any grid, and
  :func:`top_eigenvalues` solves it with one dense symmetric eigensolve. The
  oracles and cross-check helpers (:func:`reduce_full_state`,
  :func:`alternating_maximization`, :func:`eigenfunction_residual`,
  :func:`purity_numeric`) use this route, normally on the Gauss-Legendre rule
  of :func:`build_grid`.
* ``discretize(..., matrix_free=True)`` never forms B. The kernel factors as
  K(x, x') = d(x) g(x - x') d(x'), so on an equally spaced grid such as
  :func:`trapezoid_grid` B is a :class:`ToeplitzMatrix`
  diag(d_i sqrt(w_i)) . Toeplitz(g(k h)) . diag(d_i sqrt(w_i)): two length-m
  vectors, and an O(m log m) product through a circulant FFT.
  :func:`lanczos_eigenvalues` takes the top of its spectrum by Lanczos with
  full reorthogonalisation and certifies it by the Ritz residuals.

The solver :func:`numeric_entanglement` runs the matrix-free route on two
trapezoid grids, which converge exponentially on these Gaussian integrands
once the step resolves both Gaussian widths of the kernel: a coarse rung at
half the narrower width, and a fine rung at half that step, whose agreement
certifies the top eigenvalue.

Besides the Nystrom route this module carries two brute-force cross-checks
that never touch the closed forms:

* :func:`reduce_full_state` integrates psi(x_v, rest) conj(psi(x_v', rest))
  over every non-v coordinate by tensor quadrature (graphs of at most 3
  vertices), reproducing the kernel from the full wavefunction; and
* :func:`alternating_maximization` iterates the coupled best-product-state
  fixed-point equations on the discretized wavefunction, converging to the
  maximal squared overlap.

Both start from the weighted one-vs-rest matrix of :func:`one_vs_rest`,
built on the full tensor grid from the graph state's definition (one
envelope per oscillator and one phase factor per edge) and never from the
reduced kernel, kappa or the closed forms. Every factor is a vector or an
m x m matrix, so no exp runs over the m^N points; at 3 vertices and 128
nodes the build fills 2,097,152 complex points in about 23 ms. A caller
that runs both oracles on one vertex builds the matrix once and passes it
to each, which then takes about 25 ms; called without it, each builds its
own (one core, one BLAS thread).

The truncation extent must satisfy L >= 8 / sqrt(alpha): the integrand mass
beyond that is below exp(-32) of the total, so truncation error stays far
under every tolerance used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import KernelSpec
from .graph import GraphState
from .graph import kappa as vertex_kappa

MIN_EXTENT_FACTOR = 8.0
DEFAULT_EXTENT_FACTOR = 10.0
# the CLI's bound on --extent-mult, 125 times the truncation minimum: a wider
# interval only spends nodes on the vanishing tail, and at 1e200 the squared nodes overflow
MAX_EXTENT_FACTOR = 1000.0
MAX_GRID_SIZE = 4096  # the CLI's bound on --grid-size, the floor on the coarse rung
LANCZOS_MAX_STEPS = 300
LAMBDA_TOL = 1e-10  # the two rungs of numeric_entanglement must agree this closely to converge
RITZ_TOL = 1e-15  # a Lanczos solve is certified once every wanted Ritz residual is below this
POWER_ITERATION_CAP = 50_000
ORACLE_MAX_VERTICES = 3
ORACLE_MAX_GRID = 128


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Quadrature nodes and weights on [-extent, extent]."""

    nodes: np.ndarray
    weights: np.ndarray
    extent: float

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float, copy=True)
        weights = np.array(self.weights, dtype=float, copy=True)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True, eq=False)
class ToeplitzMatrix:
    """Matrix-free B = diag(envelope) . T . diag(envelope) on equally spaced nodes.

    ``envelope`` holds d(x_i) sqrt(w_i), and T is the symmetric Toeplitz
    matrix whose first column is g(k h), where d and g are
    :func:`kernel_envelope` and :func:`kernel_difference`. ``circulant`` is
    the real FFT of T embedded in a circulant of length 2m, computed once.
    """

    envelope: np.ndarray
    circulant: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.envelope.size, self.envelope.size)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """B @ v in O(m log m)."""
        m = self.envelope.size
        product = np.fft.irfft(self.circulant * np.fft.rfft(self.envelope * v, 2 * m), 2 * m)
        return self.envelope * product[:m]


@dataclass(frozen=True, eq=False)
class DiscretizedKernel:
    """Symmetric Nystrom matrix B_ij = sqrt(w_i w_j) K(x_i, x_j) with its provenance.

    ``matrix`` is a dense array, or a :class:`ToeplitzMatrix` when
    :func:`discretize` was asked for the matrix-free form.
    """

    matrix: np.ndarray | ToeplitzMatrix
    grid: QuadratureGrid
    spec: KernelSpec


@dataclass(frozen=True)
class NumericResult:
    """Eigendata from one numeric run.

    ``residual`` is the last change that decided convergence: for
    :func:`numeric_entanglement`, |delta lambda| between its two rungs
    (0.0 on the exactly rank-1 kappa = 0 kernel, ``math.inf`` when only one
    rung ran); for :func:`alternating_maximization`, the last sweep's change;
    for :func:`lanczos_eigenvalues`, the largest wanted Ritz residual; for a
    direct :func:`top_eigenvalues` solve, 0.0.

    ``history`` carries the per-sweep lambda estimates of
    :func:`alternating_maximization` (empty for every other solver).
    """

    lambda_max_numeric: float
    top_eigenvalues: tuple[float, ...]
    residual: float
    grid_size: int
    converged: bool
    history: tuple[float, ...] = ()

    @property
    def entanglement(self) -> float:
        return 1.0 - self.lambda_max_numeric


@dataclass(frozen=True)
class GridPolicy:
    """Discretization policy of :func:`numeric_entanglement`.

    Both rungs span [-L, L] with L = ``extent_factor / sqrt(alpha)``.
    ``initial_size`` is the fewest nodes of the coarse rung, and ``max_size``
    the most of the fine rung: the default 40960 fits kappa / alpha^2 = 1e6
    at the default extent, and bounds the Lanczos basis at
    ``LANCZOS_MAX_STEPS * max_size * 8`` bytes, about 98 MB.
    """

    initial_size: int = 256
    max_size: int = 40960
    extent_factor: float = DEFAULT_EXTENT_FACTOR
    top_k: int = 1

    def __post_init__(self) -> None:
        if self.initial_size < 2:
            raise ValueError(f"initial_size must be >= 2, got {self.initial_size}")
        if self.max_size < self.initial_size:
            raise ValueError("max_size must be >= initial_size")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not math.isfinite(self.extent_factor):
            raise ValueError(f"extent_factor must be finite, got {self.extent_factor!r}")
        if self.extent_factor < MIN_EXTENT_FACTOR:
            raise ValueError(f"extent_factor must be >= {MIN_EXTENT_FACTOR:g}, got {self.extent_factor!r}")


def build_grid(extent: float, size: int) -> QuadratureGrid:
    """Gauss-Legendre rule with ``size`` nodes on [-extent, extent]."""
    if size < 2:
        raise ValueError(f"grid size must be >= 2, got {size}")
    if not (extent > 0.0 and math.isfinite(extent)):
        raise ValueError(f"extent must be positive and finite, got {extent!r}")
    nodes, weights = np.polynomial.legendre.leggauss(size)
    return QuadratureGrid(nodes * extent, weights * extent, extent)


def kernel_value(spec: KernelSpec, x, x2):
    """Reduced kernel K(x, x') evaluated pointwise (broadcasts over arrays).

    The sqrt(alpha/pi) prefactor makes the quadrature trace of K equal 1, as a
    density matrix requires.
    """
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    value = np.sqrt(spec.alpha / np.pi) * np.exp(
        -spec.kappa * (x - x2) ** 2 / (4.0 * spec.alpha)
        - spec.alpha * (x**2 + x2**2) / 2.0
    )
    return float(value) if value.ndim == 0 else value


def kernel_envelope(spec: KernelSpec, x):
    """d(x) = (alpha/pi)^(1/4) exp(-alpha x^2 / 2), so K(x, x') = d(x) g(x - x') d(x')."""
    # below alpha ~ 1e-306 the outer nodes of extent 10 / sqrt(alpha) square to
    # inf and get d = 0; every kappa > 0 there is beyond max_size, so the cell
    # runs one rung and is reported unconverged
    with np.errstate(over="ignore"):
        return (spec.alpha / np.pi) ** 0.25 * np.exp(-spec.alpha * np.square(x) / 2.0)


def kernel_difference(spec: KernelSpec, r):
    """g(r) = exp(-kappa r^2 / (4 alpha)), the kernel's dependence on r = x - x'."""
    # at extreme cells kappa r^2 overflows to inf, and exp(-inf) = 0 is the right value
    with np.errstate(over="ignore"):
        return np.exp(-spec.kappa * np.square(r) / (4.0 * spec.alpha))


def _check_extent(spec: KernelSpec, grid: QuadratureGrid) -> None:
    min_extent = MIN_EXTENT_FACTOR / math.sqrt(spec.alpha)
    if grid.extent < min_extent:
        raise ValueError(
            f"grid extent {grid.extent:g} is too small for alpha={spec.alpha:g}: "
            f"need at least {min_extent:g} to keep truncation below tolerance"
        )


def discretize(spec: KernelSpec, grid: QuadratureGrid, matrix_free: bool = False) -> DiscretizedKernel:
    """Nystrom matrix of the kernel on ``grid``.

    The dense matrix is assembled from its upper triangle so B_ij == B_ji
    holds exactly, keeping the eigenproblem symmetric.

    With ``matrix_free`` the grid must be equally spaced, x_i = x_0 + i h:
    then g(x_i - x_j) depends on |i - j| alone, one column g(k h) holds it,
    and the result is a :class:`ToeplitzMatrix` that is never formed densely.
    """
    _check_extent(spec, grid)
    x = grid.nodes
    if matrix_free:
        step = (x[-1] - x[0]) / (grid.size - 1)
        if not np.allclose(np.diff(x), step, rtol=1e-9, atol=0.0):
            raise ValueError("a matrix-free discretization needs equally spaced nodes")
        envelope = np.sqrt(grid.weights) * kernel_envelope(spec, x)
        column = kernel_difference(spec, step * np.arange(grid.size))
        circulant = np.fft.rfft(np.concatenate([column, [0.0], column[:0:-1]]))
        return DiscretizedKernel(ToeplitzMatrix(envelope, circulant), grid, spec)
    kmat = kernel_value(spec, x[:, None], x[None, :])
    sw = np.sqrt(grid.weights)
    b = np.outer(sw, sw) * kmat
    b = np.triu(b) + np.triu(b, 1).T
    return DiscretizedKernel(b, grid, spec)


def trapezoid_grid(extent: float, size: int) -> QuadratureGrid:
    """Equally spaced trapezoid rule with ``size`` nodes on [-extent, extent]."""
    weights = np.full(size, 2.0 * extent / (size - 1))
    weights[[0, -1]] /= 2.0
    return QuadratureGrid(np.linspace(-extent, extent, size), weights, extent)


def top_eigenvalues(dk: DiscretizedKernel, k: int) -> NumericResult:
    """Largest ``k`` eigenvalues of the discretized operator, decreasing.

    One dense symmetric eigensolve; LAPACK raises rather than return
    unconverged values, so the result is always ``converged``.
    """
    size = dk.grid.size
    if not 1 <= k <= size:
        raise ValueError(f"k must be in [1, {size}], got {k}")
    values = np.linalg.eigvalsh(dk.matrix)[::-1][:k].tolist()
    return NumericResult(values[0], tuple(values), 0.0, size, True)


def lanczos_eigenvalues(dk: DiscretizedKernel, k: int) -> NumericResult:
    """Largest ``k`` eigenvalues of a matrix-free ``dk``, decreasing, by Lanczos with full reorthogonalisation.

    The start vector envelope * (1 + x / L) has both an even and an odd part,
    so the odd eigenfunctions are in its Krylov space too. The result is
    ``converged`` (certified) once every wanted Ritz residual |beta_j s_jn|
    is below :data:`RITZ_TOL` within :data:`LANCZOS_MAX_STEPS` steps;
    ``residual`` is the largest of them.
    """
    size = dk.grid.size
    steps = min(LANCZOS_MAX_STEPS, size)
    if not 1 <= k <= steps:
        raise ValueError(f"k must be in [1, {steps}], got {k}")
    basis = np.empty((steps, size))
    # step j writes row and column j of the leading (j+1) x (j+1) block in place;
    # np.zeros would clear all steps^2 entries on every call, which raised the
    # validate-sweep peak RSS by 3 MB
    tridiagonal = np.empty((steps, steps))
    q = dk.matrix.envelope * (1.0 + dk.grid.nodes / dk.grid.extent)
    q /= np.linalg.norm(q)
    residual = math.inf
    beta = 0.0
    for j in range(steps):
        basis[j] = q
        w = dk.matrix @ q
        tridiagonal[j, :j] = tridiagonal[:j, j] = 0.0
        tridiagonal[j, j] = q @ w
        if j:
            tridiagonal[j, j - 1] = tridiagonal[j - 1, j] = beta
        for _ in range(2):  # a second pass restores orthogonality lost to roundoff
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta = np.linalg.norm(w)
        ritz, vectors = np.linalg.eigh(tridiagonal[: j + 1, : j + 1])
        if j + 1 >= k:
            residual = float(np.max(np.abs(beta * vectors[-1, -k:])))
        # a zero offdiagonal means the Krylov space is invariant: no further direction exists
        if residual < RITZ_TOL or beta == 0.0:
            break
        q = w / beta
    values = ritz[::-1][:k].tolist()
    return NumericResult(values[0], tuple(values), residual, size, residual < RITZ_TOL)


def _smooth_size(count: int) -> int:
    """Smallest m >= ``count`` with no prime factor above 5, so the circulant length 2m FFTs fast."""
    size = count
    while True:
        rest = size
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 1


def _coarse_size(spec: KernelSpec, extent: float, policy: GridPolicy) -> int | None:
    """Node count m0 of the coarse rung, or None when the fine rung 2 m0 would exceed ``policy.max_size``."""
    step = min(1.0 / math.sqrt(spec.alpha), 2.0 * math.sqrt(spec.alpha / spec.kappa)) / 2.0
    # tested before dividing by the step or rounding: at extreme (alpha, kappa)
    # the step underflows to 0, or 2 extent / step overflows
    if not 2.0 * extent <= (policy.max_size / 2 - 1) * step:
        return None
    coarse = _smooth_size(max(policy.initial_size, math.ceil(2.0 * extent / step) + 1))
    return coarse if 2 * coarse <= policy.max_size else None


def numeric_entanglement(spec: KernelSpec, policy: GridPolicy = GridPolicy()) -> NumericResult:
    """Top of the spectrum from two certified rungs; E = 1 - lambda via ``.entanglement``.

    The coarse rung's step h0 = min(1/sqrt(alpha), 2 sqrt(alpha/kappa)) / 2
    is half the narrower of the kernel's two Gaussian widths, read off the
    exponents of :func:`kernel_envelope` and :func:`kernel_difference` at the
    raw (alpha, kappa). Its node count m0 covers [-L, L] at that step, is at
    least ``policy.initial_size``, and is 5-smooth; the fine rung has 2 m0
    nodes on the same L, so its step is about h0 / 2. Each rung is the
    matrix-free kernel solved by :func:`lanczos_eigenvalues`. ``converged``
    means both rungs were certified and agreed within :data:`LAMBDA_TOL`;
    ``residual`` is their difference. When the fine rung would exceed
    ``policy.max_size``, one rung runs at ``policy.initial_size`` and the
    result is not converged, with ``residual`` inf.

    kappa = 0 short-circuits: the kernel is exactly rank-1, so its only
    nonzero eigenvalue equals the quadrature trace sum_i w_i K(x_i, x_i) and
    no eigensolve is needed. When L^2 overflows (alpha below about 1e-306 at
    the default extent), the outer nodes square to inf and drop out of that
    trace, so the result is not converged, with ``residual`` inf.
    """
    extent = policy.extent_factor / math.sqrt(spec.alpha)
    if spec.kappa == 0.0:
        grid = trapezoid_grid(extent, policy.initial_size)
        with np.errstate(over="ignore"):
            lam = float(grid.weights @ kernel_value(spec, grid.nodes, grid.nodes))
        values = (lam,) + (0.0,) * (policy.top_k - 1)
        certified = math.isfinite(extent * extent)
        return NumericResult(lam, values, 0.0 if certified else math.inf, policy.initial_size, certified)

    def rung(size: int) -> NumericResult:
        dk = discretize(spec, trapezoid_grid(extent, size), matrix_free=True)
        return lanczos_eigenvalues(dk, policy.top_k)

    coarse = _coarse_size(spec, extent, policy)
    if coarse is None:
        return replace(rung(policy.initial_size), residual=math.inf, converged=False)
    first, second = rung(coarse), rung(2 * coarse)
    change = abs(second.lambda_max_numeric - first.lambda_max_numeric)
    converged = change < LAMBDA_TOL and first.converged and second.converged
    return replace(second, residual=change, converged=converged)


def eigenfunction_residual(spec: KernelSpec, beta: float, grid: QuadratureGrid) -> float:
    """Relative L2 residual of the Gaussian ansatz exp(-beta x^2) under the kernel operator.

    Near zero iff the ansatz is the true ground eigenfunction; completing the
    Gaussian integral forces beta = sqrt(alpha^2 + kappa) / 2, and this
    residual is how that exponent is adjudicated against alternatives such as
    kappa / (2 alpha).
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    dk = discretize(spec, grid)
    u = np.sqrt(grid.weights) * np.exp(-beta * grid.nodes**2)
    norm_u = float(np.linalg.norm(u))
    rayleigh = float(u @ dk.matrix @ u) / norm_u**2
    return float(np.linalg.norm(dk.matrix @ u - rayleigh * u)) / norm_u


def one_vs_rest(state: GraphState, v: int, grid: QuadratureGrid) -> np.ndarray:
    """Weighted one-vs-rest matrix sqrt(w_v) psi(x_v, rest) sqrt(w_rest), shape m x m^(N-1).

    Built from the graph state's definition,

        psi(x) = prod_j d(x_j) prod_{j<k, a_jk != 0} exp(i a_jk x_j x_k),
        d(x) = (alpha/pi)^(1/4) exp(-alpha x^2 / 2),

    with sqrt(w) folded into d and oscillator ``v`` on axis 0, the others
    following in vertex order. Axis k joins through one broadcast product
    with d(x_k), folded into the m x m phase of its first edge to an earlier
    axis; each further such edge multiplies in place. No exp runs over more
    than m^2 points.

    Both oracles start from this matrix; a caller that runs both on one
    vertex builds it once and passes it to each. At 3 vertices and 128 nodes
    it is 32 MiB.
    """
    _check_oracle_limits(state, v, grid)
    n = state.graph.n
    x = grid.nodes
    order = [v] + [j for j in range(n) if j != v]
    coupling = state.graph.coupling[np.ix_(order, order)]
    envelope = np.sqrt(grid.weights) * (state.alpha / np.pi) ** 0.25 * np.exp(-0.5 * state.alpha * x * x)
    amp = envelope.astype(complex)
    for k in range(1, n):
        phases = []
        for j in range(k):
            if coupling[j, k] != 0.0:
                shape = [1] * (k + 1)
                shape[j] = shape[k] = grid.size
                phases.append(np.exp(1j * coupling[j, k] * np.outer(x, x)).reshape(shape))
        amp = amp[..., None] * (phases[0] * envelope if phases else envelope)
        for phase in phases[1:]:
            amp *= phase
    return amp.reshape(grid.size, -1)


def _check_oracle_limits(state: GraphState, v: int, grid: QuadratureGrid) -> None:
    n = state.graph.n
    if n > ORACLE_MAX_VERTICES:
        raise ValueError(
            f"full-state reduction is a brute-force check limited to {ORACLE_MAX_VERTICES} "
            f"vertices (tensor grids grow exponentially), got n={n}"
        )
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range [0, {n})")
    if grid.size > ORACLE_MAX_GRID:
        raise ValueError(f"per-axis grid is limited to {ORACLE_MAX_GRID} nodes, got {grid.size}")
    _check_extent(KernelSpec(state.alpha, 0.0), grid)


def reduce_full_state(
    state: GraphState, v: int, grid: QuadratureGrid, amp: np.ndarray | None = None
) -> DiscretizedKernel:
    """Reduced kernel of oscillator ``v`` by tensor quadrature over all other coordinates.

    Integrates psi(x_v, rest) conj(psi(x_v', rest)) directly from the full
    wavefunction, never using the closed-form kernel, so the result can be
    compared entrywise against ``discretize(KernelSpec(alpha, kappa_v), grid)``.
    ``amp`` is the matrix of :func:`one_vs_rest` when the caller has built it;
    without it the matrix is built here.
    """
    _check_oracle_limits(state, v, grid)
    # interleaved (Re, Im) columns: R R^T = Re(amp amp^H), the real kernel, at
    # half the flops of the complex product; numpy computes a product with its
    # own transpose as one symmetric rank-k update, so the result is exactly
    # symmetric
    pairs = (one_vs_rest(state, v, grid) if amp is None else amp).view(float)
    equivalent = KernelSpec(state.alpha, vertex_kappa(state.graph, v))
    return DiscretizedKernel(pairs @ pairs.T, grid, equivalent)


def alternating_maximization(
    state: GraphState,
    v: int,
    grid: QuadratureGrid,
    tol: float = 1e-12,
    cap: int = POWER_ITERATION_CAP,
    amp: np.ndarray | None = None,
) -> NumericResult:
    """Best product-state overlap across the (oscillator v) vs (rest) split.

    Alternates the coupled fixed-point updates

        phi_1 <- normalize( integral psi(x_v, rest) conj(phi_2(rest)) d rest )
        phi_2 <- normalize( integral psi(x_v, rest) conj(phi_1(x_v)) d x_v )

    on the discretized wavefunction and tracks lambda = |<psi|phi_1 phi_2>|^2.
    One full sweep is a power-iteration step on a positive semidefinite
    operator, so the lambda iterates (returned in ``history``) increase
    monotonically to the squared largest Schmidt coefficient, i.e. the same
    lambda_max the kernel eigenproblem yields. Convergence is declared when
    lambda moves by less than ``tol`` between sweeps. ``amp`` is the matrix of
    :func:`one_vs_rest` when the caller has built it; without it the matrix
    is built here.
    """
    if state.graph.n < 2:
        raise ValueError("the one-vs-rest split needs at least 2 oscillators")
    _check_oracle_limits(state, v, grid)
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if amp is None:
        amp = one_vs_rest(state, v, grid)
    # from the uniform start the first g is integral psi d(rest), a Gaussian in
    # x_v that never vanishes, so no start vector is annihilated
    phi2 = np.full(amp.shape[1], 1.0 + 0.0j)
    phi2 /= np.linalg.norm(phi2)
    history: list[float] = []
    lam = 0.0
    previous: float | None = None
    converged = False
    for _ in range(cap):
        g = amp @ phi2.conj()
        phi1 = g / np.linalg.norm(g)
        h = amp.T @ phi1.conj()
        norm_h = float(np.linalg.norm(h))
        phi2 = h / norm_h
        lam = norm_h**2  # <phi1 phi2|psi> = ||h|| once phi2 = h / ||h||
        history.append(lam)
        if previous is not None and abs(lam - previous) < tol:
            converged = True
            break
        previous = lam
    residual = abs(lam - previous) if previous is not None else math.inf
    return NumericResult(
        lambda_max_numeric=lam,
        top_eigenvalues=(lam,),
        residual=float(residual),
        grid_size=grid.size,
        converged=converged,
        history=tuple(history),
    )


def purity_numeric(spec: KernelSpec, grid: QuadratureGrid) -> float:
    """Double quadrature of the squared kernel: integral K(x, x')^2 dx dx'.

    In the symmetrized discretization this is just the squared Frobenius norm
    of B, since B_ij^2 = w_i w_j K(x_i, x_j)^2. Cross-checks the closed-form
    purity 2 alpha sqrt(D) / (D + kappa).
    """
    dk = discretize(spec, grid)
    return float(np.sum(dk.matrix * dk.matrix))
