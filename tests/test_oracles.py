"""Brute-force routes that bypass the reduced kernel entirely: full-state
tensor-quadrature reduction and the alternating best-product-overlap
iteration. Their agreement with the closed forms validates the kernel, the
coupling-strength definition, and the eigensolver at once."""

import io
import json
import math
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvge import closed_form as cf
from cvge import numerics
from cvge.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from cvge.closed_form import KernelSpec, lambda_max
from cvge.graph import Graph, GraphGenSpec, GraphState, generate, kappa, serialize_edge_list
from cvge.numerics import (
    ORACLE_MAX_GRID,
    one_vs_rest,
    alternating_maximization,
    build_grid,
    discretize,
    reduce_full_state,
    top_eigenvalues,
)

GRID = build_grid(10.0, 64)
WEIGHTED_TRIANGLE = Graph(3, [[0.0, 0.7, -1.3], [0.7, 0.0, 1.9], [-1.3, 1.9, 0.0]])

SMALL_BINARY_GRAPHS = [
    ("empty-2", Graph(2, np.zeros((2, 2)))),
    ("edge", generate(GraphGenSpec("path", 2))),
    ("path-3", generate(GraphGenSpec("path", 3))),
    ("triangle", generate(GraphGenSpec("cycle", 3))),
    ("empty-3", Graph(3, np.zeros((3, 3)))),
]


def on_live_nodes(matrix, alpha, grid):
    """The rows and columns of an m x m ``matrix`` at the live nodes of ``grid``, as ``reduce_full_state`` keeps them."""
    live = numerics.live_nodes(alpha, grid)
    return matrix[np.ix_(live, live)]


def assert_lambda_matches_full_grid(rho, state, v, grid, tensor=None):
    """The top eigenvalue of the r x r ``rho`` against that of the unpruned m x m Re(A A^H) of ``reference_one_vs_rest``."""
    pairs = reference_one_vs_rest(state, v, grid, tensor).view(float)
    expected = np.linalg.eigvalsh(pairs @ pairs.T)[-1]
    assert abs(top_eigenvalues(rho, 1).lambda_max_numeric - expected) < 2e-15 * max(1.0, expected), v


class TestReduceFullState:
    def test_edge_matches_analytic_kernel_entrywise(self):
        state = GraphState(generate(GraphGenSpec("path", 2)), 1.0)
        oracle = reduce_full_state(state, 0, GRID)
        analytic = discretize(KernelSpec(1.0, 1.0), GRID)
        assert np.max(np.abs(oracle.matrix - on_live_nodes(analytic.matrix, 1.0, GRID))) < 1e-8
        assert_lambda_matches_full_grid(oracle, state, 0, GRID)

    def test_triangle_every_vertex(self):
        state = GraphState(generate(GraphGenSpec("cycle", 3)), 1.0)
        expected = 2.0 / (1.0 + math.sqrt(3.0))
        for v in range(3):
            lam = top_eigenvalues(reduce_full_state(state, v, GRID), 1).lambda_max_numeric
            assert lam == pytest.approx(expected, abs=1e-6)
            assert 1.0 - lam == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-6)

    def test_empty_two_vertex_graph_is_rank_one(self):
        state = GraphState(Graph(2, np.zeros((2, 2))), 1.0)
        dk = reduce_full_state(state, 0, GRID)
        result = top_eigenvalues(dk, 2)
        assert result.top_eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        assert result.top_eigenvalues[1] == pytest.approx(0.0, abs=1e-8)

    def test_weighted_edge_selects_squared_coupling(self):
        # a single edge of weight 0.5 reduces to the kappa = 0.25 kernel,
        # not the kappa = 0.5 one: the oracle adjudicates sum(a^2) over sum(a)
        state = GraphState(Graph(2, [[0.0, 0.5], [0.5, 0.0]]), 1.0)
        oracle = reduce_full_state(state, 0, GRID)
        squared = on_live_nodes(discretize(KernelSpec(1.0, 0.25), GRID).matrix, 1.0, GRID)
        linear = on_live_nodes(discretize(KernelSpec(1.0, 0.5), GRID).matrix, 1.0, GRID)
        assert np.max(np.abs(oracle.matrix - squared)) < 1e-8
        assert np.max(np.abs(oracle.matrix - linear)) > 1e-3
        assert oracle.spec.kappa == 0.25
        assert_lambda_matches_full_grid(oracle, state, 0, GRID)

    @pytest.mark.parametrize("name,graph", SMALL_BINARY_GRAPHS)
    def test_full_state_consistency(self, name, graph):
        # simultaneous check of the reduced-kernel formula and kappa = degree
        for alpha in (1.0, 2.0):
            state = GraphState(graph, alpha)
            for v in range(graph.n):
                spec = KernelSpec(alpha, kappa(graph, v))
                lam = top_eigenvalues(reduce_full_state(state, v, GRID), 1).lambda_max_numeric
                assert lam == pytest.approx(lambda_max(spec), abs=1e-6), (name, alpha, v)

    def test_reduced_kernel_trace_is_one(self):
        state = GraphState(generate(GraphGenSpec("cycle", 3)), 1.0)
        dk = reduce_full_state(state, 0, GRID)
        assert np.trace(dk.matrix) == pytest.approx(1.0, abs=1e-8)

    def test_limits_enforced(self):
        state = GraphState(generate(GraphGenSpec("path", 4)), 1.0)
        with pytest.raises(ValueError, match="limited to 3"):
            reduce_full_state(state, 0, GRID)
        small = GraphState(generate(GraphGenSpec("path", 2)), 1.0)
        with pytest.raises(ValueError, match="out of range"):
            reduce_full_state(small, 2, GRID)
        with pytest.raises(ValueError, match="limited to 128"):
            reduce_full_state(small, 0, build_grid(10.0, 129))
        with pytest.raises(ValueError, match="too small"):
            reduce_full_state(small, 0, build_grid(4.0, 32))


class TestAlternatingMaximization:
    def test_single_edge(self):
        state = GraphState(generate(GraphGenSpec("path", 2)), 1.0)
        result = alternating_maximization(state, 0, GRID)
        assert result.converged
        assert result.lambda_max_numeric == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)), abs=1e-7)

    def test_empty_two_vertex_graph(self):
        state = GraphState(Graph(2, np.zeros((2, 2))), 1.0)
        result = alternating_maximization(state, 0, GRID)
        assert result.lambda_max_numeric == pytest.approx(1.0, abs=1e-8)

    def test_path_middle_vertex(self):
        state = GraphState(generate(GraphGenSpec("path", 3)), 1.0)
        result = alternating_maximization(state, 1, GRID)
        assert result.lambda_max_numeric == pytest.approx(2.0 / (1.0 + math.sqrt(3.0)), abs=1e-6)

    def test_path_end_vertex(self):
        state = GraphState(generate(GraphGenSpec("path", 3)), 1.0)
        result = alternating_maximization(state, 0, GRID)
        assert result.lambda_max_numeric == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)), abs=1e-6)

    def test_iterates_monotone_nondecreasing(self):
        for spec in (GraphGenSpec("path", 2), GraphGenSpec("cycle", 3)):
            state = GraphState(generate(spec), 1.0)
            result = alternating_maximization(state, 0, GRID)
            history = result.history
            assert len(history) >= 2
            assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    def test_agrees_with_kernel_eigensolver(self):
        state = GraphState(generate(GraphGenSpec("cycle", 3)), 2.0)
        grid = build_grid(10.0 / math.sqrt(2.0), 64)
        alternating = alternating_maximization(state, 0, grid)
        kernel_route = top_eigenvalues(discretize(KernelSpec(2.0, 2.0), grid), 1)
        assert alternating.lambda_max_numeric == pytest.approx(
            kernel_route.lambda_max_numeric, abs=1e-7)

    def test_capped_run_reports_the_last_change(self, monkeypatch):
        # a tol no sweep can reach: the run stops at the cap, and its residual is the last sweep's change
        monkeypatch.setattr(numerics, "POWER_ITERATION_CAP", 5)
        state = GraphState(Graph(3, [[0.0, 1.3, 0.7], [1.3, 0.0, 1.1], [0.7, 1.1, 0.0]]), 1.7)
        grid = numerics.oracle_grid(10.0 / math.sqrt(1.7), 64)
        result = alternating_maximization(state, 0, grid, tol=1e-300)
        assert not result.converged and len(result.history) == 5
        assert result.residual == abs(result.history[-1] - result.history[-2]) > 0.0

    def test_needs_at_least_two_oscillators(self):
        state = GraphState(Graph(1, np.zeros((1, 1))), 1.0)
        with pytest.raises(ValueError, match="at least 2"):
            alternating_maximization(state, 0, GRID)

    def test_vertex_count_limit(self):
        state = GraphState(generate(GraphGenSpec("star", 4)), 1.0)
        with pytest.raises(ValueError, match="limited to 3"):
            alternating_maximization(state, 0, GRID)


def reference_tensor(state, grid):
    """The weighted wavefunction sqrt(w) psi on the full tensor grid, as one exp.

    psi(x) = (alpha/pi)^(N/4) exp(-alpha/2 sum_j x_j^2 + i sum_{j<k} a_jk x_j x_k)

    evaluated in extended precision where the platform has it: the phase
    reaches a few hundred radians, so a double-precision sum alone is off by
    about 1e-13 relative. Each axis is an open grid, so only the sums
    broadcast to the m^N points.
    """
    n = state.graph.n
    axes = np.ix_(*([grid.nodes.astype(np.longdouble)] * n))
    quadratic = sum(x * x for x in axes)
    phase = sum(a * axes[j] * axes[k] for j, k, a in state.graph.edges())
    psi = (state.alpha / np.pi) ** (n / 4.0) * np.exp(-0.5 * state.alpha * quadratic + 1j * phase)
    weights = reduce(np.multiply.outer, [grid.weights] * n)
    return (np.sqrt(weights) * psi).astype(complex)


def reference_one_vs_rest(state, v, grid, tensor=None):
    """The unfolded one-vs-rest matrix A (m x m^(N-1)) of ``reference_tensor``, with axis v moved first."""
    tensor = reference_tensor(state, grid) if tensor is None else tensor
    return np.ascontiguousarray(np.moveaxis(tensor, v, 0)).reshape(grid.size, -1)


def reference_live_one_vs_rest(state, v, grid, tensor=None):
    """``reference_one_vs_rest`` on the live nodes of every axis (r x r^(N-1)), as ``one_vs_rest`` builds A."""
    tensor = reference_tensor(state, grid) if tensor is None else tensor
    live = np.flatnonzero(numerics.live_nodes(state.alpha, grid))
    moved = np.moveaxis(tensor, v, 0)
    return np.ascontiguousarray(moved[np.ix_(*[live] * tensor.ndim)]).reshape(live.size, -1)


def reference_alternating(amp, tol=1e-12):
    """The alternating iteration on the unfolded matrix from the uniform start; returns its lambda history."""
    phi2 = np.full(amp.shape[1], 1.0 / math.sqrt(amp.shape[1]), dtype=complex)
    history = []
    while len(history) < 2 or abs(history[-1] - history[-2]) >= tol:
        g = amp @ phi2.conj()
        h = amp.T @ (g / np.linalg.norm(g)).conj()
        history.append(float(np.linalg.norm(h)) ** 2)
        phi2 = h / np.linalg.norm(h)
    return history


def parity_basis(size, sign):
    """Orthonormal even (sign +1) or odd (sign -1) vectors under index reversal, as columns.

    Column i < size // 2 is (e_i + sign e_(size-1-i)) / sqrt(2); for odd
    size the even basis ends with the middle unit vector.
    """
    half = size // 2
    basis = np.zeros((size, half + (size % 2 if sign > 0 else 0)))
    basis[np.arange(half), np.arange(half)] = 1.0 / math.sqrt(2.0)
    basis[size - 1 - np.arange(half), np.arange(half)] = sign / math.sqrt(2.0)
    if basis.shape[1] > half:
        basis[half, half] = 1.0
    return basis


class TestOneVsRest:
    """The edge-factor build of the parity blocks both oracles start from."""

    @pytest.mark.parametrize("graph", [generate(GraphGenSpec("path", 3)),
                                       generate(GraphGenSpec("cycle", 3)), WEIGHTED_TRIANGLE],
                             ids=["path-3", "cycle-3", "weighted-triangle"])
    @pytest.mark.parametrize("alpha", [0.8, 2.0])
    def test_matches_single_exp_reference(self, graph, alpha):
        # the blocks are A, on the live nodes of every axis, in the orthonormal
        # parity bases: P_e^T A Q_e and P_o^T A Q_o
        state = GraphState(graph, alpha)
        for size in (32, 33):
            grid = build_grid(10.0 / math.sqrt(alpha), size)
            tensor = reference_tensor(state, grid)
            live = int(np.sum(numerics.live_nodes(alpha, grid)))
            rest = live ** (graph.n - 1)
            for v in range(graph.n):
                blocks = one_vs_rest(state, v, grid)
                amp = reference_live_one_vs_rest(state, v, grid, tensor)
                even = parity_basis(live, 1).T @ amp @ parity_basis(amp.shape[1], 1)
                odd = parity_basis(live, -1).T @ amp @ parity_basis(amp.shape[1], -1)
                assert blocks.even.shape == even.shape == ((live + 1) // 2, (rest + 1) // 2)
                scale = 1e-13 * np.max(np.abs(amp))  # the odd block's sums cancel
                np.testing.assert_allclose(blocks.even, even, rtol=1e-13, atol=scale)
                np.testing.assert_allclose(blocks.odd[: live // 2], odd, rtol=1e-13, atol=scale)
                assert blocks.odd.shape == ((live + 1) // 2, rest // 2)
                assert not np.any(blocks.odd[live // 2:])
                assert_lambda_matches_full_grid(reduce_full_state(state, v, grid, blocks), state, v, grid, tensor)

    def test_first_alternating_step_never_vanishes(self):
        # the uniform start gives g = integral psi d(rest), a Gaussian in x_v; the
        # smallest norm over these cases is 0.0770, so no start is ever annihilated
        graphs = [generate(GraphGenSpec(kind, n)) for kind, n in
                  (("path", 2), ("path", 3), ("cycle", 3), ("complete", 3), ("star", 3))]
        graphs += [Graph(2, np.zeros((2, 2))), WEIGHTED_TRIANGLE]
        smallest = math.inf
        for graph in graphs:
            for alpha in (0.8, 1.0, 2.0):
                for size in (64, 128):
                    grid = build_grid(10.0 / math.sqrt(alpha), size)
                    for v in range(graph.n):
                        blocks = one_vs_rest(GraphState(graph, alpha), v, grid)
                        even = blocks.even
                        # the uniform vector of the r^(N-1) live rest points, in the even basis
                        start = np.full(even.shape[1], math.sqrt(2.0 / (even.shape[1] + blocks.odd.shape[1])))
                        smallest = min(smallest, float(np.linalg.norm(even @ start)))
        assert smallest > 1e-2


class TestOracleBuild:
    @pytest.mark.parametrize("graph", [Graph(1, np.zeros((1, 1))), generate(GraphGenSpec("path", 2)),
                                       WEIGHTED_TRIANGLE], ids=["single", "edge", "weighted-triangle"])
    def test_reduced_kernel_is_exactly_symmetric(self, graph):
        for v in range(graph.n):
            matrix = reduce_full_state(GraphState(graph, 1.3), v, GRID).matrix
            assert np.array_equal(matrix, matrix.T)

    # The phase exp(i a x y) oscillates on the scale a / alpha in units of the
    # grid, which 64 nodes over [-10, 10] / sqrt(alpha) resolve to 1e-8 only
    # while |a| <= alpha; at |a| = 2 alpha the kernel entries are off by 6e-5.
    # So the weights, spanning [-2, 2], are drawn as alpha times [-1, 1].
    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([2, 3]), units=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           alpha=st.floats(0.5, 2.0), pick=st.integers(0, 2))
    def test_oracles_match_dense_kernel(self, n, units, alpha, pick):
        coupling = np.zeros((n, n))
        coupling[np.triu_indices(n, 1)] = [alpha * u for u in units[: n * (n - 1) // 2]]
        graph = Graph(n, coupling + coupling.T)
        state = GraphState(graph, alpha)
        v = pick % n
        grid = build_grid(10.0 / math.sqrt(alpha), 64)
        dense = discretize(KernelSpec(alpha, kappa(graph, v)), grid)
        oracle = reduce_full_state(state, v, grid)
        assert np.max(np.abs(oracle.matrix - on_live_nodes(dense.matrix, alpha, grid))) < 1e-8
        tensor = reference_tensor(state, grid)
        assert_lambda_matches_full_grid(oracle, state, v, grid, tensor)
        alternating = alternating_maximization(state, v, grid)
        assert alternating.lambda_max_numeric == pytest.approx(
            top_eigenvalues(dense, 1).lambda_max_numeric, abs=1e-7)
        assert len(alternating.history) == len(reference_alternating(reference_one_vs_rest(state, v, grid, tensor)))

    def test_json_output_byte_identical(self):
        argv = ["oracle", "--gen", "cycle", "--n", "3", "--grid-size", "128", "--format", "json"]
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(argv) == EXIT_OK
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


# every n <= 3 graph the oracle command takes: each generator kind, an
# edgeless graph and the weighted triangle, as (CLI source, graph)
ORACLE_SOURCES = [
    *[(("--gen", kind, "--n", str(n)), generate(GraphGenSpec(kind, n)))
      for kind, n in (("path", 1), ("path", 2), ("path", 3), ("cycle", 3), ("star", 3), ("complete", 3))],
    (("--gen", "erdos_renyi", "--n", "3", "--p", "0", "--seed", "1"),
     generate(GraphGenSpec("erdos_renyi", 3, p=0.0, seed=1))),
    ((), WEIGHTED_TRIANGLE),
]
ORACLE_SOURCE_IDS = ["path-1", "path-2", "path-3", "cycle-3", "star-3", "complete-3", "empty-3",
                     "weighted-triangle"]


def oracle_run(source, graph, tmp_path, *extra):
    """Exit code, stdout and stderr of one JSON oracle run; ``graph`` is written to a file when ``source`` is empty."""
    if not source:
        path = tmp_path / "graph.txt"
        path.write_text(serialize_edge_list(graph), encoding="utf-8")
        source = ("--graph", str(path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["oracle", *source, "--format", "json", *extra])
    return code, out.getvalue(), err.getvalue()


def oracle_json(source, graph, tmp_path, *extra):
    code, out, _ = oracle_run(source, graph, tmp_path, *extra)
    return code, json.loads(out)


class TestSharedOneVsRest:
    """The oracle command builds each vertex's one-vs-rest matrix once and runs both oracles on it."""

    @pytest.mark.parametrize("source,graph", ORACLE_SOURCES, ids=ORACLE_SOURCE_IDS)
    def test_one_build_per_vertex(self, source, graph, tmp_path, monkeypatch):
        built = []
        original = numerics.one_vs_rest

        def spy(state, v, grid):
            built.append(v)
            return original(state, v, grid)

        monkeypatch.setattr(numerics, "one_vs_rest", spy)
        code, payload = oracle_json(source, graph, tmp_path)
        assert code == EXIT_OK
        assert built == list(range(graph.n))

    @pytest.mark.parametrize("source,graph", ORACLE_SOURCES, ids=ORACLE_SOURCE_IDS)
    def test_equals_separate_oracle_calls(self, source, graph, tmp_path):
        alpha = 1.3
        code, payload = oracle_json(source, graph, tmp_path, "--alpha", repr(alpha), "--grid-size", "64")
        assert code == EXIT_OK
        state = GraphState(graph, alpha)
        grid = numerics.oracle_grid(10.0 / math.sqrt(alpha), 64)
        for row in payload["rows"]:
            v = row["vertex"]
            reduced = top_eigenvalues(reduce_full_state(state, v, grid), 1).lambda_max_numeric
            assert row["lambda_reduced"] == reduced
            if graph.n >= 2:
                assert row["lambda_alternating"] == alternating_maximization(state, v, grid).lambda_max_numeric
            else:
                assert row["lambda_alternating"] is None

    def test_prebuilt_matrix_gives_the_same_results(self):
        state = GraphState(WEIGHTED_TRIANGLE, 1.0)
        for v in range(3):
            blocks = one_vs_rest(state, v, GRID)
            assert np.array_equal(reduce_full_state(state, v, GRID, blocks).matrix,
                                  reduce_full_state(state, v, GRID).matrix)
            assert (alternating_maximization(state, v, GRID, blocks=blocks)
                    == alternating_maximization(state, v, GRID))

    def test_one_matrix_is_live_at_a_time(self):
        # a 3-vertex vertex at --grid-size 128 builds the top 34 rows of its
        # matrix on the 68 live nodes of 96 (2.4 MiB) and folds them into a
        # 1.2 MiB even block, the odd block in place; the traced peak is about
        # 4.1 MiB. Blocks kept alive while the next vertex builds its own, or
        # every node kept on the vertex's own axis, put it at 7.8 and 7.7 MiB
        # on 128 Gauss-Legendre nodes
        argv = ["oracle", "--gen", "cycle", "--n", "3", "--grid-size", "128"]
        tracemalloc.start()
        try:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


FOLD_SIZES = [2, 3, 7, 63, 64, 65, 127, 128]


class TestParityFold:
    """The folded oracles against the unfolded matrix they replace, and the symmetry the fold rests on."""

    @pytest.mark.parametrize("size", range(2, ORACLE_MAX_GRID + 1))
    def test_gauss_legendre_rule_is_exactly_symmetric(self, size):
        grid = build_grid(10.0, size)
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert np.array_equal(grid.weights, grid.weights[::-1])

    @pytest.mark.parametrize("grid_size", range(2, ORACLE_MAX_GRID + 1))
    def test_oracle_rule_is_an_exactly_symmetric_trapezoid_rule(self, grid_size):
        grid = numerics.oracle_grid(10.0 / math.sqrt(1.3), grid_size)
        size = -(-3 * grid_size // 4)
        assert grid.size == size
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert np.array_equal(grid.weights, grid.weights[::-1])
        assert np.allclose(np.diff(grid.nodes), grid.step, rtol=1e-13, atol=0)
        assert grid.nodes[-1] == pytest.approx(grid.extent, rel=1e-15)
        assert np.sum(grid.weights) == pytest.approx(2.0 * grid.extent, rel=1e-14)
        assert grid.weights[0] == grid.step / 2.0

    @pytest.mark.parametrize("graph", [generate(GraphGenSpec("path", 3)),
                                       generate(GraphGenSpec("cycle", 3)), WEIGHTED_TRIANGLE],
                             ids=["path-3", "cycle-3", "weighted-triangle"])
    @pytest.mark.parametrize("size", [32, 33])
    def test_reference_tensor_is_exactly_even(self, graph, size):
        state = GraphState(graph, 1.3)
        grid = build_grid(10.0 / math.sqrt(1.3), size)
        tensor = reference_tensor(state, grid)
        for v in range(graph.n):
            amp = reference_one_vs_rest(state, v, grid, tensor)
            assert np.array_equal(amp[::-1, ::-1], amp)

    @pytest.mark.parametrize("size", FOLD_SIZES)
    @pytest.mark.parametrize("graph", [graph for _, graph in ORACLE_SOURCES], ids=ORACLE_SOURCE_IDS)
    def test_matches_unfolded_oracles(self, graph, size):
        alpha = 1.3
        state = GraphState(graph, alpha)
        grid = build_grid(10.0 / math.sqrt(alpha), size)
        tensor = reference_tensor(state, grid)
        for v in range(graph.n):
            amp = reference_live_one_vs_rest(state, v, grid, tensor)
            pairs = amp.view(float)
            rho = reduce_full_state(state, v, grid)
            assert np.max(np.abs(rho.matrix - pairs @ pairs.T)) < 1e-13, v
            assert_lambda_matches_full_grid(rho, state, v, grid, tensor)
            if graph.n >= 2:
                history = alternating_maximization(state, v, grid).history
                unfolded = reference_alternating(amp)
                # the same iteration, sweep by sweep; three or seven nodes leave
                # lambda far above 1, and there the bound is relative
                assert len(history) == len(unfolded), v
                assert np.max(np.abs(np.subtract(history, unfolded))) < 1e-14 * max(1.0, unfolded[-1]), v

    def test_grid_must_be_symmetric(self):
        state = GraphState(generate(GraphGenSpec("path", 2)), 1.0)
        grid = build_grid(10.0, 32)
        shifted = numerics.QuadratureGrid(grid.nodes + 1e-3, grid.weights, grid.extent)
        for oracle in (one_vs_rest, reduce_full_state, alternating_maximization):
            with pytest.raises(ValueError, match="symmetric about 0"):
                oracle(state, 0, shifted)

    @pytest.mark.parametrize("source,graph", ORACLE_SOURCES, ids=ORACLE_SOURCE_IDS)
    def test_odd_grid_passes(self, source, graph, tmp_path):
        code, payload = oracle_json(source, graph, tmp_path, "--grid-size", "65")
        assert code == EXIT_OK and payload["pass"]

    @pytest.mark.parametrize("source,graph", ORACLE_SOURCES, ids=ORACLE_SOURCE_IDS)
    def test_three_node_grid_keeps_the_unfolded_verdict(self, source, graph, tmp_path):
        # three Gauss-Legendre nodes on [-10, 10] cannot resolve the Gaussian: the
        # folded oracles report the unfolded ones' lambdas, far from any density
        # matrix's, and the command refuses the grid instead of failing the degree law
        code, out, err = oracle_run(source, graph, tmp_path, "--grid-size", "3")
        assert code == EXIT_USAGE and out == ""
        assert err.count("\n") == 1 and "--grid-size 3 is too coarse" in err
        state = GraphState(graph, 1.0)
        grid = build_grid(10.0, 3)
        tensor = reference_tensor(state, grid)
        for v in range(graph.n):
            amp = reference_one_vs_rest(state, v, grid, tensor)
            pairs = amp.view(float)
            reduced = top_eigenvalues(reduce_full_state(state, v, grid), 1).lambda_max_numeric
            assert reduced == pytest.approx(np.linalg.eigvalsh(pairs @ pairs.T)[-1], rel=1e-13)
            if graph.n >= 2:
                alternating = alternating_maximization(state, v, grid).lambda_max_numeric
                assert alternating == pytest.approx(reference_alternating(amp)[-1], rel=1e-13)

    def test_oracles_never_read_the_dense_coupling_view(self, tmp_path):
        graph = WEIGHTED_TRIANGLE
        code, payload = oracle_json((), graph, tmp_path, "--alpha", "1.3", "--grid-size", "65")
        assert code == EXIT_OK and len(payload["rows"]) == 3


class TestLiveNodes:
    """Every axis of the oracle tensor keeps only the nodes that hold its mass."""

    @pytest.mark.parametrize("rule", [build_grid, numerics.oracle_grid], ids=["gauss-legendre", "oracle-trapezoid"])
    @pytest.mark.parametrize("size", range(2, ORACLE_MAX_GRID + 1))
    def test_mask_is_symmetric_and_drops_at_most_its_share(self, rule, size):
        for alpha in (0.5, 1.0, 2.0):
            for mult in (8.0, 10.0, 1000.0):
                grid = rule(mult / math.sqrt(alpha), size)
                live = numerics.live_nodes(alpha, grid)
                mass = grid.weights * np.sqrt(alpha / np.pi) * np.exp(-alpha * grid.nodes**2)
                assert np.array_equal(live, live[::-1]), (alpha, mult)
                assert live[np.argmax(mass)], (alpha, mult)
                assert np.sum(mass[~live]) <= numerics.LIVE_MASS_TOL * np.sum(mass), (alpha, mult)

    @pytest.mark.parametrize("alpha", [0.5, 0.83, 1.0, 1.9, 4.0])
    def test_default_grid_keeps_about_half(self, alpha):
        for size, kept in ((64, 32), (128, 66)):
            assert np.sum(numerics.live_nodes(alpha, build_grid(10.0 / math.sqrt(alpha), size))) == kept

    @pytest.mark.parametrize("alpha", [0.5, 0.83, 1.0, 1.9, 4.0])
    def test_oracle_rule_keeps_as_many_as_gauss_legendre(self, alpha):
        # ceil(3m/4) trapezoid nodes for --grid-size m keep about the live nodes of m Gauss-Legendre nodes
        for grid_size, size, kept in ((64, 48, 34), (128, 96, 68)):
            grid = numerics.oracle_grid(10.0 / math.sqrt(alpha), grid_size)
            assert grid.size == size
            assert np.sum(numerics.live_nodes(alpha, grid)) == kept

    @pytest.mark.parametrize("size", FOLD_SIZES)
    @pytest.mark.parametrize("graph", [graph for _, graph in ORACLE_SOURCES], ids=ORACLE_SOURCE_IDS)
    def test_matches_the_full_grid(self, graph, size):
        # the pruned oracles against every node of every axis; three or seven
        # nodes leave lambda far above 1, and there the bound is relative
        alpha = 1.3
        state = GraphState(graph, alpha)
        grid = build_grid(10.0 / math.sqrt(alpha), size)
        live = numerics.live_nodes(alpha, grid)
        tensor = reference_tensor(state, grid)
        for v in range(graph.n):
            amp = reference_one_vs_rest(state, v, grid, tensor)
            pairs = amp.view(float)
            full = pairs @ pairs.T
            rho = reduce_full_state(state, v, grid)
            # rho lives on the r live nodes of axis v, and holds exactly their nodes and weights
            assert rho.matrix.shape == (np.sum(live),) * 2, v
            assert np.array_equal(rho.grid.nodes, grid.nodes[live]), v
            assert np.array_equal(rho.grid.weights, grid.weights[live]), v
            assert np.max(np.abs(rho.matrix - full[np.ix_(live, live)])) < 1e-13, v
            expected = np.linalg.eigvalsh(full)[-1]
            bound = 2e-15 * max(1.0, expected)
            assert abs(top_eigenvalues(rho, 1).lambda_max_numeric - expected) < bound, v
            if graph.n >= 2:
                history = alternating_maximization(state, v, grid).history
                unfolded = reference_alternating(amp)
                assert len(history) == len(unfolded), v
                assert abs(history[-1] - unfolded[-1]) < 2e-15 * max(1.0, unfolded[-1]), v


class TestOracleAccuracy:
    """The oracle's trapezoid rule meets the degree law to 1e-9 at the default --grid-size."""

    @pytest.mark.parametrize("alpha", ["0.5", "0.6", "0.8", "1", "1.4", "2"])
    @pytest.mark.parametrize("source,graph", ORACLE_SOURCES[:-1], ids=ORACLE_SOURCE_IDS[:-1])
    def test_unweighted_graphs_at_the_default_grid(self, source, graph, alpha, tmp_path):
        # 64 Gauss-Legendre nodes missed by up to 1.6e-7 (cycle 3 at alpha = 0.5);
        # the 48 trapezoid nodes of --grid-size 64 miss by at most 5.9e-10
        code, payload = oracle_json(source, graph, tmp_path, "--alpha", alpha)
        assert code == EXIT_OK and payload["grid_size"] == 64
        assert payload["max_deviation"] <= 1e-9


class TestPhaseResolution:
    """A grid too coarse for the edge phases exp(i a x x') is a usage error naming --grid-size, never a FAIL."""

    # the up-front rule accepts both at --grid-size 64 (T = 3.2 and 5.45); the re-check refuses them
    @pytest.mark.parametrize("graph,alpha", [
        (Graph(2, [[0.0, 2.0], [2.0, 0.0]]), "0.5"),  # deviates by 4.9e-5 on the 48 nodes of --grid-size 64
        (Graph(3, [[0.0, 3.0, 0.0], [3.0, 0.0, 3.0], [0.0, 3.0, 0.0]]), "1"),  # 6.3e-5 at the middle vertex
    ], ids=["edge-weight-2-alpha-half", "path-weights-3-3"])
    def test_coarse_grid_is_usage_error_and_128_nodes_pass(self, graph, alpha, tmp_path):
        code, out, err = oracle_run((), graph, tmp_path, "--alpha", alpha)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--grid-size 64 is too coarse to judge" in err
        code, payload = oracle_json((), graph, tmp_path, "--alpha", alpha, "--grid-size", "128")
        assert code == EXIT_OK and payload["pass"]

    def test_wide_extent_is_refused_by_the_recheck(self, tmp_path):
        # 96 nodes over 35 / sqrt(alpha) pass the up-front rule (T = 9.1) and deviate by
        # about 4e-5; the 72 nodes of the re-check move lambda by about 5e-3
        code, out, err = oracle_run(("--gen", "cycle", "--n", "3"), None, tmp_path,
                                    "--grid-size", "128", "--extent-mult", "35")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--grid-size 128 is too coarse" in err

    def test_a_deviation_the_grid_resolves_stays_a_fail(self, monkeypatch):
        # 36 and 48 nodes agree on the single edge to 1.7e-9, far inside a 1e-3 error in the closed form
        closed_forms = cf.closed_forms

        def skewed(alpha, kappas):
            lam, ent = closed_forms(alpha, kappas)
            return lam + 1e-3, ent

        monkeypatch.setattr(cf, "closed_forms", skewed)
        with redirect_stdout(io.StringIO()):
            assert main(["oracle", "--gen", "path", "--n", "2"]) == EXIT_FAIL

    def test_a_pass_solves_each_vertex_once(self, monkeypatch):
        solved = []
        original = numerics.reduce_full_state

        def spy(state, v, grid, blocks=None):
            solved.append(grid.size)
            return original(state, v, grid, blocks)

        monkeypatch.setattr(numerics, "reduce_full_state", spy)
        with redirect_stdout(io.StringIO()):
            assert main(["oracle", "--gen", "cycle", "--n", "3"]) == EXIT_OK
        assert solved == [48, 48, 48]  # the default --grid-size 64 builds ceil(3 * 64 / 4) nodes

    def test_limits_are_checked_once_per_vertex(self, monkeypatch):
        checked = []
        original = numerics._check_oracle_limits

        def spy(state, v, grid):
            checked.append(v)
            return original(state, v, grid)

        monkeypatch.setattr(numerics, "_check_oracle_limits", spy)
        with redirect_stdout(io.StringIO()):
            assert main(["oracle", "--gen", "cycle", "--n", "3"]) == EXIT_OK
        assert checked == [0, 1, 2]  # one_vs_rest's check; both oracles read its blocks


def edge_file(tmp_path, weight):
    path = tmp_path / f"edge-{weight}.txt"
    path.write_text(f"vertices 2\n0 1 {weight}\n", encoding="utf-8")
    return ("--graph", str(path))


class TestAliasRule:
    """The oracle refuses, before building a tensor, every grid whose worst aliased copy weighs e^-3 or more.

    T = pi^2 (n - 1)^2 / (4 E^2 (1 + (a / alpha)^2)) for n nodes, --extent-mult E and
    largest |edge weight| a.
    """

    GENERATED = [(kind, n) for kind in ("path", "star", "complete") for n in (1, 2, 3)] + [("cycle", 3)]
    ALPHAS = ["1e-320", "1e-300", "1e-100", "1e-3", "0.01", "1", "1e100"]

    def test_no_grid_too_coarse_for_the_state_fails(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("vertices 2\n", encoding="utf-8")
        sources = [("--gen", kind, "--n", str(n)) for kind, n in self.GENERATED]
        sources += [("--gen", "erdos_renyi", "--n", "3", "--p", "0.5", "--seed", "1"), ("--graph", str(empty))]
        sources += [edge_file(tmp_path, weight) for weight in ("1e-6", "1", "100", "1e6")]
        codes = set()
        for source in sources:
            for alpha in self.ALPHAS:
                for size in ("64", "128"):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        code, out, err = oracle_run(source, None, tmp_path, "--alpha", alpha, "--grid-size", size)
                    run = (source, alpha, size)
                    assert code in (EXIT_OK, EXIT_USAGE) and not caught, (run, code, err, caught)
                    if code == EXIT_USAGE:
                        assert out == "" and err.startswith("error:") and err.count("\n") == 1, (run, err)
                    codes.add(code)
        assert codes == {EXIT_OK, EXIT_USAGE}

    @pytest.mark.parametrize("source,alpha,size", [
        (("--gen", "path", "--n", "2"), "1e-100", "64"),  # T = 5.5e-199
        (("--gen", "path", "--n", "2"), "0.1", "128"),  # T = 2.2
        (("--gen", "path", "--n", "1"), "1", "3"),  # no edge: the envelope's own copy, T = 0.099
        (None, "1", "64"),  # one edge of weight 100, T = 0.0054
    ], ids=["path-2-alpha-1e-100", "path-2-alpha-0.1-grid-128", "path-1-grid-3", "edge-weight-100"])
    def test_refused_before_any_tensor(self, source, alpha, size, tmp_path, monkeypatch):
        def unreachable(*args):
            raise AssertionError("one_vs_rest ran")

        monkeypatch.setattr(numerics, "one_vs_rest", unreachable)
        code, out, err = oracle_run(source or edge_file(tmp_path, "100"), None, tmp_path,
                                    "--alpha", alpha, "--grid-size", size)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: --grid-size {size} is too coarse: ") and err.count("\n") == 1

    def test_resolved_grid_near_the_floor_passes(self, tmp_path):
        # T = 4.70 on the 96 nodes of --grid-size 128; one edge of weight 2 at alpha = 0.5
        # (T = 3.2) is refused by the re-check, in TestPhaseResolution
        code, payload = oracle_json(("--gen", "path", "--n", "2"), None, tmp_path, "--alpha", "0.147",
                                    "--grid-size", "128")
        assert code == EXIT_OK and payload["pass"]
