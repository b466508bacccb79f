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
  oracles (:func:`reduce_full_state`, :func:`alternating_maximization`) use
  this route, normally on the symmetric trapezoid rule of
  :func:`oracle_grid`, and the cross-check helpers
  (:func:`eigenfunction_residual`, :func:`purity_numeric`) on the
  Gauss-Legendre rule of :func:`build_grid`.
* ``discretize(..., matrix_free=True)`` never forms B. The kernel factors as
  K(x, x') = d(x) g(x - x') d(x'), so on the equally spaced grid of
  :func:`trapezoid_grid`, which carries its step h, B is a
  :class:`ToeplitzMatrix` diag(d_i sqrt(w_i)) . Toeplitz(g(k h)) .
  diag(d_i sqrt(w_i)): two length-m vectors, and an O(m log m) product
  through a circulant FFT. :func:`lanczos_eigenvalues` takes the top of its
  spectrum by Lanczos with full reorthogonalisation, certifies it by the
  Ritz residuals, and returns how far the Ritz vectors reach at +-L.

The solver :func:`numeric_entanglement` runs the matrix-free route on two
trapezoid grids, which converge exponentially on these Gaussian integrands
once the step resolves both Gaussian widths of the kernel: a coarse rung at
half the narrower width, and a fine rung at half that step, whose agreement
certifies the top eigenvalue. Both rungs span the narrowest extent that the
coarse rung's own Ritz vectors certify: they must have decayed below
:data:`TAIL_TOL` of their peak at its ends.

Besides the Nystrom route this module carries two brute-force cross-checks
that never touch the closed forms:

* :func:`reduce_full_state` integrates psi(x_v, rest) conj(psi(x_v', rest))
  over every non-v coordinate by tensor quadrature (graphs of at most 3
  vertices), reproducing the kernel from the full wavefunction; and
* :func:`alternating_maximization` iterates the coupled best-product-state
  fixed-point equations on the discretized wavefunction, converging to the
  maximal squared overlap.

Both start from the weighted one-vs-rest matrix A of :func:`one_vs_rest`,
built on the tensor grid from the graph state's definition (one envelope
per oscillator and one phase factor per edge, read from the edge arrays)
and never from the reduced kernel, kappa or the closed forms. Every factor
is a vector or an r x r matrix, so no exp runs over the r^N points. Every
axis, the vertex's own included, keeps only the r nodes of
:func:`live_nodes`, which drop under 2^-70 (:data:`LIVE_MASS_TOL`) of its
envelope mass, so A is r x r^(N-1) and rho is r x r on the live sub-grid.
The pruned rest axes move no eigenvalue of rho by more than about 2e-21,
and the rows and columns of rho dropped with the vertex's own axis move
lambda_max by second order only, about as much. The wavefunction is even
under x -> -x and the oracle's rule and the live mask are symmetric, so
A[::-1, ::-1] == A: only its top ceil(r/2) rows are built, and they fold
into an even and an odd :class:`ParityBlocks` block, each a quarter of A.
:func:`reduce_full_state` assembles rho from one real product per block,
and :func:`alternating_maximization` sweeps the even block alone. The
oracles normally run on the trapezoid rule of :func:`oracle_grid`, which
keeps 34 live of the 48 nodes of ``--grid-size`` 64 and 68 of the 96 of
``--grid-size`` 128; at 3 vertices the top rows then hold 157,216 complex
points (2.4 MiB). The 128 nodes of ``--grid-size`` 170, the cap, keep 90
live, and the top rows hold 364,500 points (5.6 MiB). A caller that runs
both oracles on one vertex builds the blocks once and passes them to each;
called without them, each builds its own.

A dense discretization, and so every oracle, needs the truncation extent
L >= 8 / sqrt(alpha): the integrand mass beyond that is below exp(-32) of
the total, so truncation error stays far under every tolerance used here.
The matrix-free route has no such floor, because :func:`numeric_entanglement`
checks the computed eigenvectors' tails instead.
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
LANCZOS_MAX_STEPS = 300
LAMBDA_TOL = 1e-10  # the two rungs of numeric_entanglement must agree this closely to converge
RITZ_TOL = 1e-15  # a Lanczos solve is certified once every wanted Ritz residual is below this
# a rung of numeric_entanglement spans enough of [-L, L] once every wanted Ritz
# vector at +-L is below this fraction of its peak. Cutting an eigenfunction off
# where its amplitude is eps moves lambda by about eps^2, here 1e-20, far below
# LAMBDA_TOL. A tighter bound would test roundoff: certified Ritz vectors carry
# tails of 1e-17 to 4e-14 at extents where the true tail is below 1e-30.
TAIL_TOL = 1e-10
RITZ_CHECK_GAP = 4  # most Lanczos steps between two Ritz-residual checks
POWER_ITERATION_CAP = 50_000
ORACLE_MAX_VERTICES = 3
ORACLE_MAX_GRID = 128
# every axis of the oracle tensor keeps node j only where its quadrature mass
# p_j = w_j d(x_j)^2 is at least this fraction of the mean mass sum(p) / m. The
# nodes it drops hold under 2^-70 of the axis's mass, and every phase has modulus
# 1, so on the rest axes each entry of rho moves by at most E_i E_i' (N - 1) 2^-70
# and, by Weyl's inequality, every eigenvalue by about 2e-21. On the vertex's own
# axis they are rows and columns of rho, and dropping them moves lambda_max by
# second order, by at most about 2^-70 / lambda_max (see reduce_full_state): both
# below the roundoff of a double near 1
LIVE_MASS_TOL = 2.0**-70
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Quadrature nodes and weights on [-extent, extent].

    ``step`` is the node spacing h of a grid built equally spaced,
    x_i = x_0 + i h, by :func:`trapezoid_grid` or :func:`oracle_grid`; it is
    None on every other grid.
    """

    nodes: np.ndarray
    weights: np.ndarray
    extent: float
    step: float | None = None

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
    (0.0 on the exactly rank-1 kappa = 0 kernel); for
    :func:`alternating_maximization`, the last sweep's change (``math.inf``
    after a single sweep); for :func:`lanczos_eigenvalues`, the largest
    wanted Ritz residual; for a direct :func:`top_eigenvalues` solve, 0.0.

    ``extent`` is the half-width L of the grid the values were solved on:
    for :func:`numeric_entanglement`, the one both rungs were certified on.

    ``history`` carries the per-sweep lambda estimates of
    :func:`alternating_maximization` (empty for every other solver).
    """

    lambda_max_numeric: float
    top_eigenvalues: tuple[float, ...]
    residual: float
    grid_size: int
    converged: bool
    extent: float
    history: tuple[float, ...] = ()

    @property
    def entanglement(self) -> float:
        return 1.0 - self.lambda_max_numeric


@dataclass(frozen=True)
class GridPolicy:
    """Discretization policy of :func:`numeric_entanglement`.

    ``initial_size`` is the fewest nodes of the coarse rung, and
    ``max_size`` the most of the fine rung at the widest extent L0 =
    :data:`DEFAULT_EXTENT_FACTOR` / sqrt(alpha): the default 40960 fits
    kappa / alpha^2 up to about 1.05e6, and bounds the Lanczos basis at
    ``LANCZOS_MAX_STEPS * max_size * 8`` bytes, about 98 MB. A cell whose
    fine rung would need more is refused with ValueError. ``top_k`` is
    how many of the top eigenvalues are solved and certified.
    """

    initial_size: int = 256
    max_size: int = 40960
    top_k: int = 1

    def __post_init__(self) -> None:
        if self.initial_size < 2:
            raise ValueError(f"initial_size must be >= 2, got {self.initial_size}")
        if self.max_size < self.initial_size:
            raise ValueError("max_size must be >= initial_size")
        # the first rung may have just initial_size nodes, and Lanczos finds at most that many eigenvalues
        if not 1 <= self.top_k <= self.initial_size:
            raise ValueError(f"top_k must be in [1, initial_size = {self.initial_size}], got {self.top_k}")


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
    # inf and get d = 0; numeric_entanglement refuses such cells before any rung,
    # but a direct discretize call on such a grid still lands here
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

    With ``matrix_free`` the grid must carry its ``step`` h, as
    :func:`trapezoid_grid` builds it, x_i = x_0 + i h: then g(x_i - x_j)
    depends on |i - j| alone, one column g(k h) holds it, and the result is a
    :class:`ToeplitzMatrix` that is never formed densely.
    Only the dense matrix needs L >= 8 / sqrt(alpha); the matrix-free one
    serves :func:`numeric_entanglement`, which checks the tails of its Ritz
    vectors instead.
    """
    x = grid.nodes
    if matrix_free:
        if grid.step is None:
            raise ValueError("a matrix-free discretization needs equally spaced nodes")
        envelope = np.sqrt(grid.weights) * kernel_envelope(spec, x)
        column = kernel_difference(spec, grid.step * np.arange(grid.size))
        circulant = np.fft.rfft(np.concatenate([column, [0.0], column[:0:-1]]))
        return DiscretizedKernel(ToeplitzMatrix(envelope, circulant), grid, spec)
    _check_extent(spec, grid)
    kmat = kernel_value(spec, x[:, None], x[None, :])
    sw = np.sqrt(grid.weights)
    b = np.outer(sw, sw) * kmat
    b = np.triu(b) + np.triu(b, 1).T
    return DiscretizedKernel(b, grid, spec)


def trapezoid_grid(extent: float, size: int) -> QuadratureGrid:
    """Equally spaced trapezoid rule with ``size`` nodes on [-extent, extent], marked with its ``step``."""
    nodes = np.linspace(-extent, extent, size)
    weights = np.full(size, 2.0 * extent / (size - 1))
    weights[[0, -1]] /= 2.0
    return QuadratureGrid(nodes, weights, extent, float((nodes[-1] - nodes[0]) / (size - 1)))


def oracle_grid(extent: float, grid_size: int) -> QuadratureGrid:
    """The oracles' rule for ``--grid-size m``: the trapezoid rule on ceil(3m/4) nodes over [-extent, extent].

    Node i is h (i - (n - 1) / 2): each offset and its negation are exact,
    so nodes i and n - 1 - i are one half and its mirror, bit for bit, as the
    parity fold of :func:`one_vs_rest` needs. ceil(3m/4) trapezoid nodes
    keep about as many :func:`live_nodes` as m Gauss-Legendre nodes (34 of
    48 against 32 of 64, 68 of 96 against 66 of 128), so the tensor work is
    the same, and the rule converges geometrically on these Gaussian
    integrands. On the 48 nodes of m = 64, every unweighted graph of at most
    3 vertices misses the degree law by at most 2.0e-9 for alpha from 0.5
    to 2 in steps of 0.05 (star 3 at alpha = 0.55), where 64 Gauss-Legendre
    nodes miss by up to 2.6e-7.
    """
    if grid_size < 2:
        raise ValueError(f"grid size must be >= 2, got {grid_size}")
    size = -(-3 * grid_size // 4)
    step = 2.0 * extent / (size - 1)
    weights = np.full(size, step)
    weights[[0, -1]] /= 2.0
    return QuadratureGrid(step * (np.arange(size) - (size - 1) / 2), weights, extent, step)


def top_eigenvalues(dk: DiscretizedKernel, k: int) -> NumericResult:
    """Largest ``k`` eigenvalues of the discretized operator, decreasing.

    One dense symmetric eigensolve; LAPACK raises rather than return
    unconverged values, so the result is always ``converged``.
    """
    size = dk.grid.size
    if not 1 <= k <= size:
        raise ValueError(f"k must be in [1, {size}], got {k}")
    values = np.linalg.eigvalsh(dk.matrix)[::-1][:k].tolist()
    return NumericResult(values[0], tuple(values), 0.0, size, True, dk.grid.extent)


def lanczos_eigenvalues(dk: DiscretizedKernel, k: int) -> tuple[NumericResult, float]:
    """Largest ``k`` eigenvalues of a matrix-free ``dk``, decreasing, and the tail of their Ritz vectors.

    Lanczos with full reorthogonalisation. The start vector
    envelope * (1 + x / L) has both an even and an odd part, so the odd
    eigenfunctions are in its Krylov space too. The result is ``converged``
    (certified) once every wanted Ritz residual |beta_j s_jn| is below
    :data:`RITZ_TOL` within :data:`LANCZOS_MAX_STEPS` steps; ``residual`` is
    the largest of them. The tail is the largest, over the wanted Ritz
    vectors, of the function sample phi(x) = u / sqrt(w) at either end node
    over its peak |phi|. Where the envelope is zero at every node, as at an
    alpha so small that every node squares past the float range, B is zero
    and spans no Krylov space: the solve ends before its first step,
    unconverged, with values 0 and residual and tail inf.

    The residuals take a dense eigensolve of the tridiagonal matrix, so they
    are checked only every few steps, at most :data:`RITZ_CHECK_GAP` apart:
    sooner when their decay so far predicts the crossing of RITZ_TOL. Once a
    check passes, the steps it skipped are checked in order, so the solve
    ends at the first step that passes, with the values and residual of a
    check at every step, wherever the residual does not dip below RITZ_TOL
    and back between two failed checks. On every rung of
    :func:`numeric_entanglement` it did not; it can on a grid whose step
    does not resolve the kernel's width, where B is nearly diagonal and its
    top eigenvalues nearly equal, and the solve then ends at a later step
    with a smaller residual.
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
    betas = np.empty(steps)
    q = dk.matrix.envelope * (1.0 + dk.grid.nodes / dk.grid.extent)
    norm = np.linalg.norm(q)
    if norm == 0.0:
        return NumericResult(0.0, (0.0,) * k, math.inf, size, False, dk.grid.extent), math.inf
    q /= norm

    def ritz_pairs(j: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Ritz values and vectors after step j, and the largest wanted residual."""
        ritz, vectors = np.linalg.eigh(tridiagonal[: j + 1, : j + 1])
        residual = float(np.max(np.abs(betas[j] * vectors[-1, -k:]))) if j + 1 >= k else math.inf
        return ritz, vectors, residual

    # the last check that failed ran at step ``checked`` and found ``previous``;
    # no residual exists before step k - 1, and ``due`` is the next check
    checked, previous, due = k - 2, math.inf, k - 1
    for j in range(steps):
        basis[j] = q
        w = dk.matrix @ q
        tridiagonal[j, :j] = tridiagonal[:j, j] = 0.0
        tridiagonal[j, j] = q @ w
        if j:
            tridiagonal[j, j - 1] = tridiagonal[j - 1, j] = betas[j - 1]
        for _ in range(2):  # a second pass restores orthogonality lost to roundoff
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        betas[j] = beta = np.linalg.norm(w)
        # a zero offdiagonal means the Krylov space is invariant: no further direction exists
        last = beta == 0.0 or j == steps - 1
        if j == due or last:
            ritz, vectors, residual = ritz_pairs(j)
            if residual < RITZ_TOL or last:
                break
            gap = RITZ_CHECK_GAP
            if 0.0 < residual < previous < math.inf:
                # the step where the decay since the last check crosses RITZ_TOL,
                # rounded down, since the decay speeds up as the Ritz pairs converge
                rate = math.log(previous / residual) / (j - checked)
                gap = min(gap, max(1, math.floor(math.log(residual / RITZ_TOL) / rate)))
            checked, previous, due = j, residual, j + gap
        q = w / beta
    for i in range(checked + 1, j):
        earlier = ritz_pairs(i)
        if earlier[2] < RITZ_TOL:
            ritz, vectors, residual = earlier
            j = i
            break
    samples = np.abs(basis[: j + 1].T @ vectors[:, -k:]) / np.sqrt(dk.grid.weights)[:, None]
    tail = float(np.max(np.maximum(samples[0], samples[-1]) / np.max(samples, axis=0)))
    values = ritz[::-1][:k].tolist()
    return NumericResult(values[0], tuple(values), residual, size, residual < RITZ_TOL, dk.grid.extent), tail


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


def _coarse_size(step: float, extent: float, policy: GridPolicy) -> int | None:
    """Node count m0 of the coarse rung, or None when the fine rung 2 m0 would exceed ``policy.max_size``."""
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
    matrix-free kernel solved by :func:`lanczos_eigenvalues`.

    L starts at the extent the floor covers at h0, (initial_size - 1) h0 / 2,
    or at L0 = :data:`DEFAULT_EXTENT_FACTOR` / sqrt(alpha) if that is
    smaller, and doubles, never past L0, until the coarse rung is certified
    and its wanted Ritz vectors have decayed below :data:`TAIL_TOL` of their
    peak at +-L. L is taken from h0, the floor and the computed vectors
    alone; a cell the floor covers at L0 runs just the two rungs on L0.
    ``converged`` means both rungs on the last L were certified, passed that
    tail test, and agreed within :data:`LAMBDA_TOL`; ``residual`` is their
    difference and ``extent`` that L.

    Before any rung runs, a cell the solver cannot resolve raises
    ValueError: one whose fine rung at h0 / 2 on L0 would exceed
    ``policy.max_size`` nodes (at the defaults, kappa / alpha^2 above
    (20479 / 20)^2, about 1.05e6), or whose L0^2 overflows (alpha below
    100 / DBL_MAX, about 5.6e-307), where the outer nodes square to inf.
    The test reads h0 at the raw (alpha, kappa), never a closed form.

    kappa = 0 short-circuits: the kernel is exactly rank-1, so its only
    nonzero eigenvalue equals the quadrature trace sum_i w_i K(x_i, x_i) on
    L0 and no eigensolve is needed. The trace takes the coarse rung's node
    count at h0 = 1 / (2 sqrt(alpha)), read off the envelope's exponent, as
    g is flat: by Poisson summation a trace of m nodes on L0 misses by about
    2 exp(-pi^2 (m - 1)^2 / 400), so a floor of 16 would miss by 7.8e-3,
    and the step rule's 45 nodes or more miss by under 1e-20, so the trace
    is always converged, with ``residual`` 0.0.
    """
    widest = DEFAULT_EXTENT_FACTOR / math.sqrt(spec.alpha)
    width = 2.0 * math.sqrt(spec.alpha / spec.kappa) if spec.kappa else math.inf  # g is flat at kappa = 0
    step = min(1.0 / math.sqrt(spec.alpha), width) / 2.0
    coarse = _coarse_size(step, widest, policy)
    if coarse is None or not math.isfinite(widest * widest):
        raise ValueError(f"the quadrature solver cannot resolve alpha={spec.alpha:g}, kappa={spec.kappa:g}: "
                         f"its kernel step on +-{widest:g} needs a fine rung of more than "
                         f"{policy.max_size} nodes, or the nodes square past the float range")
    if spec.kappa == 0.0:
        grid = trapezoid_grid(widest, coarse)
        with np.errstate(over="ignore"):  # up to alpha ~ 1.1e-306, x^2 + x'^2 overflows at the outer nodes
            lam = float(grid.weights @ kernel_value(spec, grid.nodes, grid.nodes))
        return NumericResult(lam, (lam,) + (0.0,) * (policy.top_k - 1), 0.0, coarse, True, widest)

    def rung(extent: float, size: int) -> tuple[NumericResult, bool]:
        """The rung's result, and whether it was certified with its Ritz vectors' tails below TAIL_TOL."""
        dk = discretize(spec, trapezoid_grid(extent, size), matrix_free=True)
        result, tail = lanczos_eigenvalues(dk, policy.top_k)
        return result, result.converged and tail < TAIL_TOL

    # L is kept as a count of h0 intervals across [-L, L], so that the node count
    # of each doubling is exact rather than recovered from L / h0 in floating point
    intervals = policy.initial_size - 1
    while True:
        if intervals * step < 2.0 * widest:
            extent, size = intervals * step / 2.0, _smooth_size(intervals + 1)
        else:
            extent, size = widest, coarse
        first, certified = rung(extent, size)
        if certified or extent == widest:
            break
        intervals *= 2
    second, fine_certified = rung(extent, 2 * size)
    change = abs(second.lambda_max_numeric - first.lambda_max_numeric)
    converged = change < LAMBDA_TOL and certified and fine_certified
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


@dataclass(frozen=True, eq=False)
class ParityBlocks:
    """The one-vs-rest matrix A of :func:`one_vs_rest` folded by its x -> -x symmetry.

    A is r x M with M = r^(N-1), r being the live nodes of every axis
    (:func:`live_nodes`), and A[::-1, ::-1] == A. In orthonormal bases of the
    even and the odd vectors on each side, A is block diagonal:

    * ``even`` (ceil(r/2) x ceil(M/2)): entry (i, c) is A_ic + A_i,M-1-c for
      i < r // 2 and c < M // 2; for odd r the middle row and for odd M the
      middle column carry sqrt(2) A instead, and their corner A alone;
    * ``odd`` (ceil(r/2) x M // 2): entry (i, c) is A_ic - A_i,M-1-c. Its
      middle row, for odd r, is exactly zero.

    ``odd`` is a view of the buffer the top rows of A were built in, and
    ``grid`` is the live sub-grid of the r nodes every axis holds.
    """

    even: np.ndarray
    odd: np.ndarray
    grid: QuadratureGrid


def live_nodes(alpha: float, grid: QuadratureGrid) -> np.ndarray:
    """Mask of the nodes each axis of the oracle tensor keeps, the vertex's own included.

    Node j is live where its quadrature mass p_j = w_j exp(-alpha x_j^2), the
    envelope w d(x)^2 up to a constant, is at least :data:`LIVE_MASS_TOL`
    times the mean sum(p) / m, so the dropped nodes hold under 2^-70 of the
    axis's mass and the heaviest node is always live. The mask reads only
    alpha and the grid, never kappa or a closed form; on a grid symmetric
    about 0 it is symmetric bit for bit, so the x -> -x fold stays exact.
    The oracles normally run on the trapezoid rule of :func:`oracle_grid`:
    on +-10 / sqrt(alpha) it keeps 34 of the 48 nodes of ``--grid-size`` 64
    and 68 of the 96 of ``--grid-size`` 128, at every alpha. The
    Gauss-Legendre rule of :func:`build_grid` crowds its nodes towards the
    ends, where the state has no mass: it keeps 32 of 64 and 66 of 128.
    """
    mass = grid.weights * np.exp(-alpha * np.square(grid.nodes))
    return mass >= LIVE_MASS_TOL * np.sum(mass) / grid.size


def one_vs_rest(state: GraphState, v: int, grid: QuadratureGrid) -> ParityBlocks:
    """Parity blocks of the weighted one-vs-rest matrix A = sqrt(w_v) psi(x_v, rest) sqrt(w_rest).

    A (r x r^(N-1)) is built from the graph state's definition,

        psi(x) = prod_j d(x_j) prod_{j<k, a_jk != 0} exp(i a_jk x_j x_k),
        d(x) = (alpha/pi)^(1/4) exp(-alpha x^2 / 2),

    with sqrt(w) folded into d and oscillator ``v`` on axis 0, the others
    following in vertex order, each edge weight read from the graph's edge
    arrays. Every axis, axis 0 included, holds only the r nodes of
    :func:`live_nodes`, so one node set and one envelope serve them all and
    rho is r x r. The mass the rest axes drop moves no eigenvalue of rho by
    more than about 2e-21, and the rows axis 0 drops move lambda_max by
    about as much (see :func:`reduce_full_state`). Axis k joins through one
    broadcast product with d(x_k), folded into the phase of its first edge
    to an earlier axis; each further such edge multiplies in place. No exp
    runs over more than r^2 points.

    psi(-x) = psi(x) bit for bit (each phase reads a x_j x_k), and the grid
    and the live mask are symmetric about 0, so A[::-1, ::-1] == A: only the
    top ceil(r/2) rows are built, and they fold into :class:`ParityBlocks`,
    the odd block in place, and carry the live sub-grid. At 3 vertices, on
    the 96 trapezoid nodes of ``oracle_grid(L, 128)`` (68 live), the top rows
    are 2.4 MiB and the even block 1.2 MiB.

    Both oracles start from these blocks; a caller that runs both on one
    vertex builds them once and passes them to each.
    """
    _check_oracle_limits(state, v, grid)
    g = state.graph
    live = live_nodes(state.alpha, grid)
    x = grid.nodes[live]
    top = (x.size + 1) // 2
    axis = np.empty(g.n, dtype=int)
    axis[[v] + [j for j in range(g.n) if j != v]] = np.arange(g.n)
    earlier, later = np.minimum(axis[g.u], axis[g.v]), np.maximum(axis[g.u], axis[g.v])
    nodes = [x[:top]] + [x] * (g.n - 1)  # axis 0 holds only the top rows
    envelope = np.sqrt(grid.weights[live]) * (state.alpha / np.pi) ** 0.25 * np.exp(-0.5 * state.alpha * x * x)
    amp = envelope[:top].astype(complex)
    for k in range(1, g.n):
        phases = []
        for j, a in sorted(zip(earlier[later == k].tolist(), g.w[later == k].tolist())):
            shape = [1] * (k + 1)
            shape[j], shape[k] = nodes[j].size, x.size
            phases.append(np.exp(1j * a * np.outer(nodes[j], x)).reshape(shape))
        amp = amp[..., None] * (phases[0] * envelope if phases else envelope)
        for phase in phases[1:]:
            amp *= phase
    amp = amp.reshape(top, -1)
    half = amp.shape[1] // 2
    mirror = amp[:, ::-1][:, :half]
    even = np.empty((top, amp.shape[1] - half), dtype=complex)
    np.add(amp[:, :half], mirror, out=even[:, :half])
    if amp.shape[1] % 2:
        even[:, half] = SQRT2 * amp[:, half]
    if x.size % 2:
        even[-1] /= SQRT2
    amp[:, :half] -= mirror
    return ParityBlocks(even, amp[:, :half], QuadratureGrid(x, grid.weights[live], grid.extent))


def check_oracle_vertices(n: int) -> None:
    """Refuse a graph of more than :data:`ORACLE_MAX_VERTICES` vertices, before anything builds it."""
    if n > ORACLE_MAX_VERTICES:
        raise ValueError(
            f"full-state reduction is a brute-force check limited to {ORACLE_MAX_VERTICES} "
            f"vertices (tensor grids grow exponentially), got n={n}"
        )


def _check_oracle_limits(state: GraphState, v: int, grid: QuadratureGrid) -> None:
    """Refuse what :func:`one_vs_rest`, and so both oracles, cannot take: ValueError."""
    n = state.graph.n
    check_oracle_vertices(n)
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range [0, {n})")
    if grid.size > ORACLE_MAX_GRID:
        raise ValueError(f"per-axis grid is limited to {ORACLE_MAX_GRID} nodes, got {grid.size}")
    _check_extent(KernelSpec(state.alpha, 0.0), grid)
    if not (np.array_equal(grid.nodes, -grid.nodes[::-1]) and np.array_equal(grid.weights, grid.weights[::-1])):
        raise ValueError("the oracles fold the tensor by x -> -x and need a grid symmetric about 0")


def reduce_full_state(
    state: GraphState, v: int, grid: QuadratureGrid, blocks: ParityBlocks | None = None
) -> DiscretizedKernel:
    """Reduced kernel of oscillator ``v`` by tensor quadrature over all other coordinates.

    Integrates psi(x_v, rest) conj(psi(x_v', rest)) directly from the full
    wavefunction, never using the closed-form kernel, so the result can be
    compared entrywise against ``discretize(KernelSpec(alpha, kappa_v), grid)``
    on the live nodes. ``blocks`` are those of :func:`one_vs_rest` when the
    caller has built them; without them they are built here. Either way
    :func:`one_vs_rest` has refused a vertex, graph or grid the oracles
    cannot take, and this does not check them again.

    A holds the r live nodes of :func:`live_nodes` on every axis, so rho is
    the r x r kernel on the live sub-grid that the blocks carry, and its sums
    run over r^(N-1) points, not m^(N-1). Each entry misses at most E_i E_i'
    (N - 1) 2^-70 of the full-grid sum, E being the envelope sqrt(w) d(x), and
    so each eigenvalue about 2e-21. The rows and columns of the full m x m rho
    that axis v drops are a principal block of it: by Cauchy interlacing
    lambda_max can only fall, and the Rayleigh quotient of the top eigenvector
    u restricted to the live rows bounds the fall by lambda_max delta / (1 -
    delta), where delta = |u_dropped|^2 <= 2^-70 / lambda_max^2 (on a trace-1
    rho each u_i is at most E_i / lambda_max). That is second order in the
    dropped amplitude: about 2^-70 / lambda_max, under 2e-21 wherever
    lambda_max >= 1/2.

    rho = Re(A A^H) is block diagonal in the parity bases: rho_e = Re(F F^H)
    and rho_o = Re(G G^H) of the even and odd blocks F and G, each a real
    product at a quarter of the flops of the unfolded one. Back on the grid,
    with h = ceil(r/2), the top-left h x h block of rho is T = (rho_e +
    rho_o) / 2 and its mirror S = (rho_e - rho_o) / 2 (the middle row and
    column of rho_e, for odd r, carrying sqrt(2)); the other three blocks
    are flips of T and S, as rho[::-1, ::-1] == rho.
    """
    if blocks is None:
        blocks = one_vs_rest(state, v, grid)
    r = blocks.grid.size
    top = (r + 1) // 2
    # interleaved (Re, Im) columns: R R^T = Re(F F^H) at half the flops of the
    # complex product; numpy computes a product with its own transpose as one
    # symmetric rank-k update, so rho_e, rho_o and the result are exactly symmetric
    even, odd = blocks.even.view(float), blocks.odd.view(float)
    rho_even, rho_odd = even @ even.T, odd @ odd.T
    if r % 2:
        rho_even[-1] *= SQRT2
        rho_even[:, -1] *= SQRT2
    same, mirrored = (rho_even + rho_odd) / 2.0, (rho_even - rho_odd) / 2.0
    rho = np.empty((r, r))
    rho[:top, :top] = same
    rho[:top, r - top:] = mirrored[:, ::-1]
    rho[r - top:, :top] = mirrored[::-1]
    rho[r - top:, r - top:] = same[::-1, ::-1]
    equivalent = KernelSpec(state.alpha, vertex_kappa(state.graph, v))
    return DiscretizedKernel(rho, blocks.grid, equivalent)


def alternating_maximization(
    state: GraphState,
    v: int,
    grid: QuadratureGrid,
    tol: float = 1e-12,
    blocks: ParityBlocks | None = None,
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
    lambda moves by less than ``tol`` between sweeps, within
    :data:`POWER_ITERATION_CAP` sweeps. ``blocks`` are those of
    :func:`one_vs_rest` when the caller has built them; without them they
    are built here, and :func:`one_vs_rest` checks the vertex, graph and grid
    either way.

    The start phi_2 is uniform on the M = r^(N-1) live rest points of
    :func:`one_vs_rest`. It is even under x -> -x, and A maps even vectors to
    even vectors, so every iterate stays even: the sweeps run on the even
    block alone, ceil(r/2) x ceil(M/2), in its orthonormal basis, where the
    start is uniform but for the middle column of an odd M, which carries
    1 / sqrt(2). phi_1 lives on the r live nodes of the vertex's own axis;
    the nodes dropped there move lambda by about 2e-21, as in
    :func:`reduce_full_state`. ``grid_size`` is that of ``grid``, m.
    """
    if state.graph.n < 2:
        raise ValueError("the one-vs-rest split needs at least 2 oscillators")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if blocks is None:
        blocks = one_vs_rest(state, v, grid)
    even = blocks.even
    # from the uniform start the first g is integral psi d(rest), a Gaussian in
    # x_v that never vanishes, so no start vector is annihilated
    phi2 = np.full(even.shape[1], 1.0 + 0.0j)
    if even.shape[1] > blocks.odd.shape[1]:
        phi2[-1] /= SQRT2
    phi2 /= np.linalg.norm(phi2)
    history: list[float] = []
    residual = math.inf  # the last sweep's change; none exists before the second sweep
    while not residual < tol and len(history) < POWER_ITERATION_CAP:
        g = even @ phi2.conj()
        phi1 = g / np.linalg.norm(g)
        h = even.T @ phi1.conj()
        norm_h = float(np.linalg.norm(h))
        phi2 = h / norm_h
        lam = norm_h**2  # <phi1 phi2|psi> = ||h|| once phi2 = h / ||h||
        residual = abs(lam - history[-1]) if history else math.inf
        history.append(lam)
    return NumericResult(
        lambda_max_numeric=lam,
        top_eigenvalues=(lam,),
        residual=residual,
        grid_size=grid.size,
        converged=residual < tol,
        extent=grid.extent,
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
