"""Quadrature grids, the dense and the matrix-free kernel discretizations,
their eigensolvers, and the two-rung trapezoid entanglement solver; closed
forms serve as the cross-check."""

import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvge import closed_form, numerics
from cvge.closed_form import (
    KernelSpec,
    lambda_max,
    lambda_max_kappa_over_alpha,
    lambda_n,
    purity,
    spectrum_ratio,
)
from cvge.numerics import (
    RITZ_TOL,
    GridPolicy,
    QuadratureGrid,
    build_grid,
    discretize,
    eigenfunction_residual,
    kernel_difference,
    kernel_envelope,
    kernel_value,
    lanczos_eigenvalues,
    numeric_entanglement,
    purity_numeric,
    top_eigenvalues,
    trapezoid_grid,
)

ALPHAS = (0.5, 1.0, 2.0, 4.0)
KAPPAS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0)


def default_grid(alpha: float, size: int = 256):
    return build_grid(10.0 / math.sqrt(alpha), size)


class TestBuildGrid:
    def test_two_point_rule(self):
        grid = build_grid(1.0, 2)
        assert grid.nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rel=1e-15)
        assert grid.weights == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_weight_sum_is_interval_length(self):
        grid = build_grid(8.0, 64)
        assert abs(grid.weights.sum() - 16.0) < 1e-12

    def test_node_symmetry(self):
        grid = build_grid(8.0, 64)
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert np.array_equal(grid.weights, grid.weights[::-1])

    def test_nodes_strictly_increasing_weights_positive(self):
        grid = build_grid(5.0, 33)
        assert np.all(np.diff(grid.nodes) > 0)
        assert np.all(grid.weights > 0)

    def test_size_and_extent_validation(self):
        with pytest.raises(ValueError, match="size"):
            build_grid(1.0, 1)
        with pytest.raises(ValueError, match="extent"):
            build_grid(0.0, 16)

    def test_arrays_readonly(self):
        grid = build_grid(1.0, 4)
        with pytest.raises(ValueError):
            grid.nodes[0] = 0.0


class TestKernelValue:
    def test_origin_value_is_normalization(self):
        for kap in (0.0, 1.0, 7.5):
            assert kernel_value(KernelSpec(1.0, kap), 0.0, 0.0) == pytest.approx(
                1.0 / math.sqrt(math.pi), rel=1e-15)

    def test_rank_one_kernel_factorizes(self):
        value = kernel_value(KernelSpec(1.0, 0.0), 1.0, -1.0)
        assert value == pytest.approx(math.exp(-1.0) / math.sqrt(math.pi), rel=1e-14)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(4)
        spec = KernelSpec(2.0, 3.0)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, size=2)
            assert kernel_value(spec, a, b) == kernel_value(spec, b, a)

    def test_broadcasts(self):
        x = np.linspace(-1, 1, 5)
        out = kernel_value(KernelSpec(1.0, 1.0), x[:, None], x[None, :])
        assert out.shape == (5, 5)

    def test_trace_quadrature_is_one(self):
        for alpha in ALPHAS:
            grid = default_grid(alpha)
            diag = kernel_value(KernelSpec(alpha, 5.0), grid.nodes, grid.nodes)
            assert float(grid.weights @ diag) == pytest.approx(1.0, abs=1e-10)


class TestDiscretize:
    def test_matrix_exactly_symmetric(self):
        dk = discretize(KernelSpec(1.0, 1.0), default_grid(1.0))
        assert np.array_equal(dk.matrix, dk.matrix.T)

    def test_trace_close_to_one(self):
        dk = discretize(KernelSpec(1.0, 1.0), default_grid(1.0, 256))
        assert abs(np.trace(dk.matrix) - 1.0) < 1e-10

    def test_trace_across_parameter_grid(self):
        for alpha in ALPHAS:
            for kap in KAPPAS:
                dk = discretize(KernelSpec(alpha, kap), default_grid(alpha, 128))
                assert abs(np.trace(dk.matrix) - 1.0) < 1e-11

    def test_rank_one_top_eigenvalue(self):
        dk = discretize(KernelSpec(1.0, 0.0), build_grid(10.0, 128))
        assert top_eigenvalues(dk, 1).lambda_max_numeric == pytest.approx(1.0, abs=1e-10)

    def test_extent_floor_enforced(self):
        with pytest.raises(ValueError, match="too small"):
            discretize(KernelSpec(1.0, 1.0), build_grid(5.0, 64))
        # alpha = 4 only needs extent >= 4, so the same grid is fine there
        discretize(KernelSpec(4.0, 1.0), build_grid(5.0, 64))
        # the matrix-free route checks its Ritz vectors' tails instead
        discretize(KernelSpec(1.0, 1.0), trapezoid_grid(5.0, 64), matrix_free=True)


class TestTopEigenvalues:
    def test_matches_closed_form_triplet(self):
        dk = discretize(KernelSpec(1.0, 1.0), default_grid(1.0))
        result = top_eigenvalues(dk, 3)
        assert result.converged
        spec = KernelSpec(1.0, 1.0)
        for n in range(3):
            assert result.top_eigenvalues[n] == pytest.approx(lambda_n(spec, n), abs=1e-9)

    def test_matches_direct_eigensolver(self):
        # two routes on one trapezoid grid: the dense matrix through eigvalsh,
        # and the FFT operator through Lanczos
        for alpha, kap in ((1.0, 1.0), (0.5, 9.0), (4.0, 9.0)):
            spec = KernelSpec(alpha, kap)
            grid = trapezoid_grid(10.0 / math.sqrt(alpha), 256)
            dense = top_eigenvalues(discretize(spec, grid), 6)
            matrix_free, _ = lanczos_eigenvalues(discretize(spec, grid, matrix_free=True), 6)
            assert matrix_free.converged
            assert matrix_free.top_eigenvalues == pytest.approx(dense.top_eigenvalues, abs=1e-13)

    def test_rank_one_pair(self):
        dk = discretize(KernelSpec(1.0, 0.0), default_grid(1.0))
        result = top_eigenvalues(dk, 2)
        assert result.top_eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
        assert result.top_eigenvalues[1] == pytest.approx(0.0, abs=1e-9)

    def test_sum_of_twelve_blankets_trace(self):
        spec = KernelSpec(1.0, 3.0)
        dk = discretize(spec, default_grid(1.0))
        result = top_eigenvalues(dk, 12)
        total = sum(result.top_eigenvalues)
        tail = lambda_n(spec, 0) * spectrum_ratio(spec) ** 12 / (1.0 - spectrum_ratio(spec))
        assert tail == pytest.approx(1.9e-6, rel=0.02)
        assert total + tail == pytest.approx(1.0, abs=1e-7)
        assert total == pytest.approx(1.0, abs=2e-6)

    def test_eigenvalues_decreasing_and_bounded(self):
        dk = discretize(KernelSpec(0.5, 9.0), default_grid(0.5))
        result = top_eigenvalues(dk, 8)
        values = result.top_eigenvalues
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(-1e-10 <= v <= 1.0 + 1e-10 for v in values)

    def test_numeric_spectral_ratio(self):
        for alpha, kap in ((1.0, 1.0), (2.0, 5.0)):
            spec = KernelSpec(alpha, kap)
            result = top_eigenvalues(discretize(spec, default_grid(alpha)), 5)
            q = spectrum_ratio(spec)
            for n in range(4):
                ratio = result.top_eigenvalues[n + 1] / result.top_eigenvalues[n]
                assert ratio == pytest.approx(q, abs=1e-6)

    def test_k_validation(self):
        dk = discretize(KernelSpec(1.0, 1.0), default_grid(1.0, 16))
        with pytest.raises(ValueError, match="k must be"):
            top_eigenvalues(dk, 0)
        with pytest.raises(ValueError, match="k must be"):
            top_eigenvalues(dk, 17)


class TestNumericEntanglement:
    def test_unit_kappa(self):
        result = numeric_entanglement(KernelSpec(1.0, 1.0))
        assert result.converged
        assert result.entanglement == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-8)

    def test_adjudicates_coupling_ratio(self):
        # (alpha, kappa) = (4, 9): the quadratic-ratio form matches, the
        # linear-ratio variant misses by a visible margin
        spec = KernelSpec(4.0, 9.0)
        result = numeric_entanglement(spec)
        assert result.entanglement == pytest.approx(1.0 / 9.0, abs=1e-8)
        assert abs(result.entanglement - (1.0 - lambda_max_kappa_over_alpha(spec))) > 1e-2

    def test_uncoupled_short_circuit(self):
        result = numeric_entanglement(KernelSpec(1.0, 0.0))
        assert result.converged
        assert result.grid_size == 256
        assert abs(result.entanglement) < 1e-9

    def test_agreement_across_parameter_grid(self):
        policy = GridPolicy(initial_size=128, max_size=1024)
        for alpha in ALPHAS:
            for kap in KAPPAS:
                spec = KernelSpec(alpha, kap)
                result = numeric_entanglement(spec, policy)
                assert result.converged, (alpha, kap)
                assert abs(result.lambda_max_numeric - lambda_max(spec)) < 1e-8

    def test_cap_reached_is_refused(self):
        policy = GridPolicy(initial_size=16, max_size=16)
        with pytest.raises(ValueError, match="alpha=1, kappa=1: "):
            numeric_entanglement(KernelSpec(1.0, 1.0), policy)

    def test_large_coupling_ratio_converges_at_512_nodes(self):
        # h0 = 1 / sqrt(1000): the 256-node floor covers [-4.03, 4.03], where the
        # ground state has long decayed, so the rungs stay at 256 and 512 nodes
        result = numeric_entanglement(KernelSpec(1.0, 1000.0))
        assert result.converged
        assert result.grid_size == 512
        assert result.extent == pytest.approx(255.0 / math.sqrt(1000.0) / 2.0, rel=1e-15)
        assert abs(result.lambda_max_numeric - lambda_max(KernelSpec(1.0, 1000.0))) < 1e-10

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("floor", [2, 16, 32, 64, 256])
    def test_uncoupled_trace_is_certified_only_where_it_holds(self, alpha, floor):
        # a trapezoid trace of m nodes on +-10 / sqrt(alpha) misses by about
        # 2 exp(-pi^2 (m - 1)^2 / 400): 7.8e-3 on 16 nodes
        result = numeric_entanglement(KernelSpec(alpha, 0.0), GridPolicy(initial_size=floor))
        assert result.converged
        assert result.grid_size == max(45, floor)
        assert abs(result.lambda_max_numeric - 1.0) < numerics.LAMBDA_TOL

    def test_uncoupled_trace_beyond_the_cap_is_refused(self):
        # the trace needs 45 nodes, and a fine rung of 90 would exceed max_size
        with pytest.raises(ValueError, match="alpha=1, kappa=0: "):
            numeric_entanglement(KernelSpec(1.0, 0.0), GridPolicy(initial_size=16, max_size=16))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="initial_size"):
            GridPolicy(initial_size=1)
        with pytest.raises(ValueError, match="max_size"):
            GridPolicy(initial_size=64, max_size=32)
        with pytest.raises(ValueError, match="top_k"):
            GridPolicy(top_k=0)
        with pytest.raises(ValueError, match="top_k"):
            GridPolicy(initial_size=2, top_k=4)


class TestMatrixFreeRung:
    @pytest.mark.parametrize("alpha, kap", [(1.0, 3.0), (0.5, 9.0), (4.0, 9.0), (2.0, 1600.0)])
    def test_factors_reproduce_kernel(self, alpha, kap):
        spec = KernelSpec(alpha, kap)
        x = trapezoid_grid(10.0 / math.sqrt(alpha), 64).nodes
        exact = kernel_value(spec, x[:, None], x[None, :])
        factored = (kernel_envelope(spec, x)[:, None] * kernel_difference(spec, x[:, None] - x[None, :])
                    * kernel_envelope(spec, x)[None, :])
        # splitting exp(a + b + c) into three factors costs |a + b + c| ulps, so
        # compare where the exponent is moderate: the entries that carry the operator
        body = exact > 1e-20 * exact.max()
        assert body.sum() > 100
        assert np.max(np.abs(factored - exact)[body] / exact[body]) < 1e-14

    def test_matvec_matches_dense_matrix(self):
        rng = np.random.default_rng(7)
        for alpha, kap in ((1.0, 1.0), (0.5, 9.0), (2.0, 1600.0)):
            spec = KernelSpec(alpha, kap)
            grid = trapezoid_grid(10.0 / math.sqrt(alpha), 128)
            v = rng.standard_normal(128)
            matrix_free = discretize(spec, grid, matrix_free=True).matrix
            assert matrix_free.shape == (128, 128)
            assert matrix_free @ v == pytest.approx(discretize(spec, grid).matrix @ v, abs=1e-14)

    def test_matrix_free_needs_equally_spaced_nodes(self):
        # only trapezoid_grid marks a grid equally spaced: equal nodes built by hand carry no step
        grid = trapezoid_grid(10.0, 64)
        for unmarked in (build_grid(10.0, 64), QuadratureGrid(grid.nodes, grid.weights, grid.extent)):
            with pytest.raises(ValueError, match="equally spaced"):
                discretize(KernelSpec(1.0, 1.0), unmarked, matrix_free=True)

    def test_ladder_builds_no_dense_matrix(self, monkeypatch):
        dense_discretize = numerics.discretize

        def matrix_free_only(*args, **kwargs):
            dk = dense_discretize(*args, **kwargs)
            assert not isinstance(dk.matrix, np.ndarray), "the ladder must stay matrix-free"
            return dk

        def refuse(*args):
            raise AssertionError("the ladder must not solve a dense matrix")

        monkeypatch.setattr(numerics, "discretize", matrix_free_only)
        monkeypatch.setattr(numerics, "top_eigenvalues", refuse)
        for kap in (0.0, 1.0, 400.0 * 2.0**2):
            spec = KernelSpec(2.0, kap)
            result = numeric_entanglement(spec)
            assert result.converged
            assert abs(result.lambda_max_numeric - lambda_max(spec)) < 1e-15

    @pytest.mark.parametrize("alpha, kap", [(1.0, 3.0), (0.5, 9.0)])
    def test_top_four_include_the_odd_eigenvalues(self, alpha, kap):
        spec = KernelSpec(alpha, kap)
        result = numeric_entanglement(spec, GridPolicy(top_k=4))
        assert result.converged
        # lambda_1 and lambda_3 belong to odd eigenfunctions: the start
        # vector's odd part puts them in the Krylov space from the first step
        for n in range(4):
            assert abs(result.top_eigenvalues[n] - lambda_n(spec, n)) < 1e-12

    def test_capped_lanczos_is_uncertified(self, monkeypatch):
        dk = discretize(KernelSpec(1.0, 1.0), trapezoid_grid(10.0, 256), matrix_free=True)
        full, _ = lanczos_eigenvalues(dk, 1)
        assert full.converged
        assert full.residual < RITZ_TOL
        monkeypatch.setattr(numerics, "LANCZOS_MAX_STEPS", 6)
        capped, _ = lanczos_eigenvalues(dk, 1)
        assert not capped.converged
        assert capped.residual >= RITZ_TOL

    def test_ladder_ending_on_uncertified_rungs_is_not_converged(self, monkeypatch):
        # six steps leave lambda right to ~1e-16 on both rungs, so the rungs
        # agree, but neither rung is certified
        monkeypatch.setattr(numerics, "LANCZOS_MAX_STEPS", 6)
        result = numeric_entanglement(KernelSpec(1.0, 1.0))
        assert not result.converged
        assert result.grid_size == 512
        assert result.residual < 1e-10

    def test_all_zero_envelope_is_unconverged(self):
        # at alpha = 1e-320 every node of +-10 / sqrt(alpha) squares past the float range, so d = 0 and B = 0;
        # numeric_entanglement refuses such a cell, and a direct call ends before its first step
        spec = KernelSpec(1e-320, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dk = discretize(spec, trapezoid_grid(10.0 / math.sqrt(spec.alpha), 256), matrix_free=True)
            assert not np.any(dk.matrix.envelope)
            result, tail = lanczos_eigenvalues(dk, 1)
        assert not result.converged
        assert result.residual == math.inf and tail == math.inf

    def test_lanczos_validation(self, monkeypatch):
        dk = discretize(KernelSpec(1.0, 1.0), trapezoid_grid(10.0, 16), matrix_free=True)
        with pytest.raises(ValueError, match="k must be"):
            lanczos_eigenvalues(dk, 0)
        with pytest.raises(ValueError, match="k must be"):
            lanczos_eigenvalues(dk, 17)
        monkeypatch.setattr(numerics, "LANCZOS_MAX_STEPS", 2)
        with pytest.raises(ValueError, match="k must be"):
            lanczos_eigenvalues(dk, 3)


# alpha log-uniform over the supported range; the discretized problem depends
# on kappa / alpha**2 only, so the coupling is drawn as that ratio, log-uniform
# up to 1e6 or exactly 0
ALPHA = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
RATIO = st.just(0.0) | st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


def per_step_lanczos(dk, k):
    """Reference: the Lanczos solve with a Ritz-residual check after every step.

    Returns (values, residual, converged); it stops at the first step whose
    largest wanted residual is below RITZ_TOL, or whose offdiagonal is 0.
    """
    size = dk.grid.size
    steps = min(numerics.LANCZOS_MAX_STEPS, size)
    basis = np.zeros((steps, size))
    tridiagonal = np.zeros((steps, steps))
    q = dk.matrix.envelope * (1.0 + dk.grid.nodes / dk.grid.extent)
    q /= np.linalg.norm(q)
    residual, beta = math.inf, 0.0
    for j in range(steps):
        basis[j] = q
        w = dk.matrix @ q
        tridiagonal[j, j] = q @ w
        if j:
            tridiagonal[j, j - 1] = tridiagonal[j - 1, j] = beta
        for _ in range(2):
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta = np.linalg.norm(w)
        ritz, vectors = np.linalg.eigh(tridiagonal[: j + 1, : j + 1])
        if j + 1 >= k:
            residual = float(np.max(np.abs(beta * vectors[-1, -k:])))
        if residual < RITZ_TOL or beta == 0.0:
            break
        q = w / beta
    return tuple(ritz[::-1][:k].tolist()), residual, residual < RITZ_TOL


def recorded_rungs(monkeypatch, spec, policy=GridPolicy()):
    """The discretized kernels numeric_entanglement solves for ``spec``, in order."""
    rungs = []
    original = numerics.discretize

    def record(*args, **kwargs):
        rungs.append(original(*args, **kwargs))
        return rungs[-1]

    monkeypatch.setattr(numerics, "discretize", record)
    result = numeric_entanglement(spec, policy)
    monkeypatch.setattr(numerics, "discretize", original)
    return result, rungs


class TestCertifiedExtent:
    @settings(max_examples=25, deadline=None)
    @given(alpha=ALPHA, ratio=st.floats(-6.0, 4.0).map(lambda e: 10.0**e), top_k=st.sampled_from([1, 4]),
           cap=st.integers(4, numerics.LANCZOS_MAX_STEPS))
    def test_residual_checks_every_few_steps_stop_where_every_step_would(self, alpha, ratio, top_k, cap):
        # every rung the solver runs, with the step cap lowered so that some rungs end uncertified
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "LANCZOS_MAX_STEPS", cap)
            _, rungs = recorded_rungs(patch, KernelSpec(alpha, ratio * alpha**2), GridPolicy(top_k=top_k))
            assert rungs
            for dk in rungs:
                lazy, _ = lanczos_eigenvalues(dk, top_k)
                assert (lazy.top_eigenvalues, lazy.residual, lazy.converged) == per_step_lanczos(dk, top_k)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("kap", [k for k in KAPPAS if k] + ["36", "100", "160"])
    def test_cells_the_floor_covers_run_the_two_rungs_on_the_widest_extent(self, monkeypatch, alpha, kap):
        # string kappas are coupling ratios kappa / alpha^2; kappa = 0 solves no rung
        spec = KernelSpec(alpha, float(kap) * alpha**2 if isinstance(kap, str) else kap)
        result, rungs = recorded_rungs(monkeypatch, spec)
        widest = 10.0 / math.sqrt(alpha)
        assert [(dk.grid.size, dk.grid.extent) for dk in rungs] == [(256, widest), (512, widest)]
        assert result.converged and result.extent == widest

    def test_uncoupled_cell_runs_no_rung(self, monkeypatch):
        result, rungs = recorded_rungs(monkeypatch, KernelSpec(2.0, 0.0))
        assert rungs == [] and result.extent == 10.0 / math.sqrt(2.0)

    def test_extent_doubles_until_the_ritz_vector_has_decayed(self, monkeypatch):
        # h0 = 1e-3: the floor covers +-0.1275, where exp(-500 x^2) is still 3e-4
        result, rungs = recorded_rungs(monkeypatch, KernelSpec(1.0, 1e6))
        assert [(dk.grid.size, dk.grid.extent) for dk in rungs] == [(256, 0.1275), (512, 0.255), (1024, 0.255)]
        assert result.converged and result.extent == 0.255

    def test_eigenfunctions_reaching_past_the_widest_extent_are_not_converged(self, monkeypatch):
        # the higher Hermite functions are wider than the ground state: at L0 = 8
        # the sixteenth is still 1.3e-9 of its peak at the ends, at L0 = 10 4e-19
        spec = KernelSpec(1.0, 1.0)
        assert numeric_entanglement(spec, GridPolicy(top_k=16)).converged
        monkeypatch.setattr(numerics, "DEFAULT_EXTENT_FACTOR", 8.0)
        narrow = numeric_entanglement(spec, GridPolicy(top_k=16))
        assert not narrow.converged and narrow.extent == 8.0


class TestSupportedRange:
    @settings(max_examples=25, deadline=None)
    @given(alpha=ALPHA, ratio=RATIO)
    def test_default_policy_converges_to_closed_form(self, alpha, ratio):
        spec = KernelSpec(alpha, ratio * alpha**2)
        result = numeric_entanglement(spec)
        assert result.converged
        assert result.residual < 1e-10
        assert abs(result.lambda_max_numeric - lambda_max(spec)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(alpha=ALPHA, ratio=st.floats(1e-6, 1e4))
    def test_cell_beyond_the_cap_is_refused(self, alpha, ratio):
        policy = GridPolicy(initial_size=16, max_size=16)
        with pytest.raises(ValueError, match="cannot resolve"):
            numeric_entanglement(KernelSpec(alpha, ratio * alpha**2), policy)

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("ratio", [1.1e6, 1e8, 1e12])
    def test_ratio_past_the_largest_rung_is_refused(self, alpha, ratio):
        # the fine rung on +-10 / sqrt(alpha) holds 40960 nodes up to kappa / alpha^2 = (20479 / 20)^2
        spec = KernelSpec(alpha, ratio * alpha**2)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha:g}, kappa={spec.kappa:g}: ")):
            numeric_entanglement(spec)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("alpha, kap", [(1e-315, 1.0), (1e-307, 0.0)])
    def test_extent_squaring_past_the_float_range_is_refused(self, alpha, kap):
        # below alpha = 100 / DBL_MAX, about 5.6e-307, the outer nodes of +-10 / sqrt(alpha) square to inf
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha:g}, kappa={kap:g}: ")):
            numeric_entanglement(KernelSpec(alpha, kap))

    def test_range_ends_where_the_fine_rung_passes_max_size(self):
        # the coarse rung on +-L0 needs 20 sqrt(kappa) / alpha + 1 nodes and the fine rung twice that, at
        # most 40960: the range ends at kappa / alpha^2 = (20479 / 20)^2, about 1.0485e6
        spec = KernelSpec(1.0, 1.048e6)
        result = numeric_entanglement(spec)
        assert result.converged and abs(result.lambda_max_numeric - lambda_max(spec)) <= 1e-15
        with pytest.raises(ValueError, match="cannot resolve"):
            numeric_entanglement(KernelSpec(1.0, 1.049e6))

    def test_solver_never_reads_the_closed_form(self, monkeypatch):
        # every closed_form callable but KernelSpec raises; the numerics must bind none of them by name
        bound = [name for name, obj in vars(numerics).items()
                 if obj is closed_form or getattr(obj, "__module__", None) == closed_form.__name__]
        assert bound == ["KernelSpec"]
        cells = [KernelSpec(alpha, kap) for alpha in ALPHAS for kap in KAPPAS]
        cells += [KernelSpec(alpha, ratio * alpha**2) for alpha in (1e-3, 1.0, 1e3) for ratio in (1e3, 1e4, 1e6)]
        expected = [lambda_max(spec) for spec in cells]

        def refuse(*args, **kwargs):
            raise AssertionError("the solver read the closed form")

        patched = [name for name, obj in vars(closed_form).items()
                   if callable(obj) and obj is not KernelSpec and getattr(obj, "__module__", None) == closed_form.__name__]
        assert {"lambda_max", "closed_forms", "spectral_denominator"} <= set(patched)
        for name in patched:
            monkeypatch.setattr(closed_form, name, refuse)
        for spec, lam in zip(cells, expected):
            result = numeric_entanglement(spec)
            assert result.converged and abs(result.lambda_max_numeric - lam) < 1e-10, spec
        with pytest.raises(ValueError, match="cannot resolve"):
            numeric_entanglement(KernelSpec(1.0, 1e8))

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("ratio, nodes", [(1e4, 512), (1e6, 1024)])
    def test_large_ratio_converges_at_the_kernel_step(self, alpha, ratio, nodes):
        # h0 = 1 / (sqrt(alpha) sqrt(ratio)) would put 20 sqrt(ratio) + 1 nodes
        # on [-L0, L0] (2025 and 20250 coarse); the 256-node floor covers
        # 127.5 h0 on each side, which certifies at 1e4, and 1e6 needs that doubled
        spec = KernelSpec(alpha, ratio * alpha**2)
        start = time.perf_counter()
        result = numeric_entanglement(spec)
        assert time.perf_counter() - start < 1.0
        assert result.converged
        assert result.grid_size == nodes
        assert result.extent < 10.0 / math.sqrt(alpha)
        assert abs(result.lambda_max_numeric - lambda_max(spec)) <= 1e-15


class TestEigenfunctionResidual:
    def test_true_exponent_is_eigenfunction(self):
        for alpha, kap in ((1.0, 1.0), (1.0, 3.0)):
            beta = math.sqrt(alpha**2 + kap) / 2.0
            res = eigenfunction_residual(KernelSpec(alpha, kap), beta, default_grid(alpha))
            assert res < 1e-8

    def test_linear_ratio_exponent_is_not(self):
        for alpha, kap in ((1.0, 1.0), (1.0, 3.0)):
            beta = kap / (2.0 * alpha)
            res = eigenfunction_residual(KernelSpec(alpha, kap), beta, default_grid(alpha))
            assert res > 1e-2

    def test_free_oscillator_ground_state(self):
        res = eigenfunction_residual(KernelSpec(1.0, 0.0), 0.5, default_grid(1.0))
        assert res < 1e-8

    def test_exponent_separation_across_parameters(self):
        for alpha in (0.5, 1.0, 2.0):
            for kap in (1.0, 3.0, 8.0):
                spec = KernelSpec(alpha, kap)
                grid = default_grid(alpha)
                good = eigenfunction_residual(spec, math.sqrt(alpha**2 + kap) / 2.0, grid)
                bad = eigenfunction_residual(spec, kap / (2.0 * alpha), grid)
                assert good < 1e-6
                assert bad > 1e-3

    def test_beta_validation(self):
        with pytest.raises(ValueError, match="beta"):
            eigenfunction_residual(KernelSpec(1.0, 1.0), 0.0, default_grid(1.0))


class TestPurityNumeric:
    def test_unit_kappa(self):
        value = purity_numeric(KernelSpec(1.0, 1.0), default_grid(1.0))
        assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)

    def test_uncoupled(self):
        value = purity_numeric(KernelSpec(1.0, 0.0), default_grid(1.0))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_matches_closed_form_across_grid(self):
        for alpha in ALPHAS:
            for kap in KAPPAS:
                spec = KernelSpec(alpha, kap)
                value = purity_numeric(spec, default_grid(alpha, 256))
                assert value == pytest.approx(purity(spec), abs=1e-8)
