"""Graph construction, edge-list round trips, generators, and coupling strength."""

import math

import numpy as np
import pytest

from cvge.graph import (
    MAX_DENSE_VERTICES,
    EdgeListError,
    Graph,
    GraphGenSpec,
    GraphState,
    degree,
    generate,
    kappa,
    parse_edge_list,
    serialize_edge_list,
    validate,
)


class TestGraphType:
    def test_matrix_is_copied_and_readonly(self):
        mat = np.zeros((2, 2))
        g = Graph(2, mat)
        mat[0, 1] = 5.0
        assert g.coupling[0, 1] == 0.0
        with pytest.raises(ValueError):
            g.coupling[0, 1] = 1.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Graph(3, np.zeros((2, 2)))

    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            Graph(0, np.zeros((0, 0)))

    def test_is_binary(self):
        assert generate(GraphGenSpec("complete", 3)).is_binary
        weighted = Graph(2, [[0.0, 0.5], [0.5, 0.0]])
        assert not weighted.is_binary

    def test_graph_state_requires_positive_alpha(self):
        g = generate(GraphGenSpec("path", 2))
        with pytest.raises(ValueError, match="alpha"):
            GraphState(g, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            GraphState(g, -1.0)


class TestParseEdgeList:
    def test_single_edge(self):
        g = parse_edge_list("vertices 2\n0 1")
        assert g.n == 2
        assert g.coupling[0, 1] == 1.0
        assert g.coupling[1, 0] == 1.0

    def test_star(self):
        g = parse_edge_list("vertices 4\n0 1\n0 2\n0 3")
        assert degree(g, 0) == 3
        assert [degree(g, v) for v in (1, 2, 3)] == [1, 1, 1]

    def test_triangle(self):
        g = parse_edge_list("vertices 3\n0 1\n1 2\n2 0")
        assert [degree(g, v) for v in range(3)] == [2, 2, 2]

    def test_comments_blanks_and_weights(self):
        text = "# a test graph\n\nvertices 3\n0 1 0.5\n# middle comment\n1 2\n"
        g = parse_edge_list(text)
        assert g.coupling[0, 1] == 0.5
        assert g.coupling[1, 2] == 1.0
        assert g.coupling[0, 2] == 0.0

    def test_missing_header(self):
        with pytest.raises(EdgeListError, match="missing 'vertices"):
            parse_edge_list("# only comments\n")
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list("0 1\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("vertices 3\n0 1\n0 1 2 3\n")

    def test_non_integer_vertex(self):
        with pytest.raises(EdgeListError, match="line 2.*integers"):
            parse_edge_list("vertices 2\nzero 1\n")

    def test_bad_weight(self):
        with pytest.raises(EdgeListError, match="line 2.*not a number"):
            parse_edge_list("vertices 2\n0 1 heavy\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(EdgeListError, match="line 2.*out of range"):
            parse_edge_list("vertices 2\n0 2\n")
        with pytest.raises(EdgeListError, match="out of range"):
            parse_edge_list("vertices 2\n-1 0\n")

    def test_self_loop(self):
        with pytest.raises(EdgeListError, match="line 2.*self-loop"):
            parse_edge_list("vertices 2\n1 1\n")

    def test_conflicting_duplicate(self):
        with pytest.raises(EdgeListError, match="line 3.*already declared"):
            parse_edge_list("vertices 2\n0 1 1.0\n1 0 2.0\n")

    def test_consistent_duplicate_is_accepted(self):
        g = parse_edge_list("vertices 2\n0 1\n1 0\n")
        assert g.coupling[0, 1] == 1.0

    def test_vertex_count_over_dense_cap(self):
        with pytest.raises(EdgeListError, match="line 2.*<= 10000"):
            parse_edge_list(f"# big\nvertices {MAX_DENSE_VERTICES + 1}\n")


class TestSerializeRoundTrip:
    @pytest.mark.parametrize("spec", [
        GraphGenSpec("path", 5),
        GraphGenSpec("cycle", 6),
        GraphGenSpec("star", 4),
        GraphGenSpec("complete", 4),
        GraphGenSpec("erdos_renyi", 20, p=0.3, seed=11),
    ])
    def test_round_trip_generated(self, spec):
        g = generate(spec)
        again = parse_edge_list(serialize_edge_list(g))
        assert again.n == g.n
        assert np.array_equal(again.coupling, g.coupling)

    def test_round_trip_weighted(self):
        g = Graph(3, [[0.0, 0.5, 0.0], [0.5, 0.0, 2.25], [0.0, 2.25, 0.0]])
        again = parse_edge_list(serialize_edge_list(g))
        assert np.array_equal(again.coupling, g.coupling)

    def test_comment_is_emitted_and_ignored(self):
        g = generate(GraphGenSpec("star", 3))
        text = serialize_edge_list(g, comment="kind=star n=3")
        assert text.startswith("# kind=star n=3\n")
        assert np.array_equal(parse_edge_list(text).coupling, g.coupling)


class TestGenerate:
    def test_complete_k4(self):
        g = generate(GraphGenSpec("complete", 4))
        assert all(degree(g, v) == 3 for v in range(4))

    def test_path_p3(self):
        g = generate(GraphGenSpec("path", 3))
        assert [degree(g, v) for v in range(3)] == [1, 2, 1]

    def test_star_center_and_leaves(self):
        g = generate(GraphGenSpec("star", 4))
        assert degree(g, 0) == 3
        assert degree(g, 1) == 1

    def test_cycle_is_two_regular(self):
        g = generate(GraphGenSpec("cycle", 5))
        assert all(degree(g, v) == 2 for v in range(5))

    def test_cycle_requires_three_vertices(self):
        with pytest.raises(ValueError, match="cycle"):
            generate(GraphGenSpec("cycle", 2))

    def test_erdos_renyi_p_zero_is_empty(self):
        g = generate(GraphGenSpec("erdos_renyi", 50, p=0.0, seed=7))
        assert all(degree(g, v) == 0 for v in range(50))

    def test_erdos_renyi_p_one_is_complete(self):
        g = generate(GraphGenSpec("erdos_renyi", 6, p=1.0, seed=1))
        assert all(degree(g, v) == 5 for v in range(6))

    def test_erdos_renyi_reproducible(self):
        spec = GraphGenSpec("erdos_renyi", 30, p=0.4, seed=123)
        assert np.array_equal(generate(spec).coupling, generate(spec).coupling)

    def test_erdos_renyi_seed_changes_graph(self):
        a = generate(GraphGenSpec("erdos_renyi", 30, p=0.4, seed=1))
        b = generate(GraphGenSpec("erdos_renyi", 30, p=0.4, seed=2))
        assert not np.array_equal(a.coupling, b.coupling)

    @pytest.mark.parametrize("spec", [
        GraphGenSpec("path", 1),
        GraphGenSpec("star", 1),
        GraphGenSpec("complete", 1),
    ])
    def test_single_vertex_graphs_are_empty(self, spec):
        g = generate(spec)
        assert g.n == 1
        assert not g.coupling.any()

    def test_invalid_spec_combinations(self):
        with pytest.raises(ValueError, match="p is only meaningful"):
            GraphGenSpec("star", 4, p=0.5)
        with pytest.raises(ValueError, match="seed is only meaningful"):
            GraphGenSpec("path", 4, seed=3)
        with pytest.raises(ValueError, match="requires edge probability"):
            GraphGenSpec("erdos_renyi", 4, seed=3)
        with pytest.raises(ValueError, match="requires a nonnegative integer seed"):
            GraphGenSpec("erdos_renyi", 4, p=0.5)
        with pytest.raises(ValueError, match="unknown graph kind"):
            GraphGenSpec("wheel", 4)
        with pytest.raises(ValueError, match="dense storage"):
            GraphGenSpec("path", MAX_DENSE_VERTICES + 1)

    @pytest.mark.parametrize("spec", [
        GraphGenSpec("path", 7),
        GraphGenSpec("cycle", 7),
        GraphGenSpec("star", 7),
        GraphGenSpec("complete", 7),
        GraphGenSpec("erdos_renyi", 40, p=0.3, seed=5),
        GraphGenSpec("erdos_renyi", 40, p=0.8, seed=9),
    ])
    def test_handshake_lemma(self, spec):
        g = generate(spec)
        assert sum(degree(g, v) for v in range(g.n)) % 2 == 0


class TestDegreeKappa:
    def test_k4_degree(self):
        g = generate(GraphGenSpec("complete", 4))
        assert degree(g, 2) == 3

    def test_empty_graph_degree_zero(self):
        g = Graph(3, np.zeros((3, 3)))
        assert degree(g, 0) == 0
        assert kappa(g, 0) == 0.0

    def test_binary_star_kappa(self):
        g = generate(GraphGenSpec("star", 4))
        assert kappa(g, 0) == 3.0
        assert kappa(g, 1) == 1.0

    def test_triangle_kappa(self):
        g = generate(GraphGenSpec("cycle", 3))
        assert all(kappa(g, v) == 2.0 for v in range(3))

    def test_weighted_kappa_is_sum_of_squares(self):
        g = Graph(2, [[0.0, 0.5], [0.5, 0.0]])
        assert kappa(g, 0) == pytest.approx(0.25, abs=0)

    def test_degree_rejects_weighted_graph(self):
        g = Graph(2, [[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="0/1"):
            degree(g, 0)

    def test_vertex_out_of_range(self):
        g = generate(GraphGenSpec("path", 3))
        with pytest.raises(ValueError, match="out of range"):
            degree(g, 3)
        with pytest.raises(ValueError, match="out of range"):
            kappa(g, -1)

    @pytest.mark.parametrize("spec", [
        GraphGenSpec("path", 6),
        GraphGenSpec("cycle", 6),
        GraphGenSpec("star", 6),
        GraphGenSpec("complete", 6),
        GraphGenSpec("erdos_renyi", 25, p=0.5, seed=3),
    ])
    def test_kappa_equals_degree_on_binary_graphs(self, spec):
        g = generate(spec)
        for v in range(g.n):
            assert kappa(g, v) == float(degree(g, v))


def _weighted_graph(n=12, seed=5):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(0.1, 3.0, size=(n, n)) * (rng.random((n, n)) < 0.4), 1)
    return Graph(n, upper + upper.T)


class TestAllVertexForms:
    @pytest.mark.parametrize("spec", [
        GraphGenSpec("path", 7),
        GraphGenSpec("cycle", 7),
        GraphGenSpec("star", 7),
        GraphGenSpec("complete", 7),
        GraphGenSpec("erdos_renyi", 40, p=0.2, seed=11),
    ])
    def test_vectors_match_scalar_forms_on_binary_graphs(self, spec):
        g = generate(spec)
        kap, deg = kappa(g), degree(g)
        assert kap.shape == deg.shape == (g.n,)
        for v in range(g.n):
            assert kap[v] == kappa(g, v)
            assert deg[v] == degree(g, v)

    def test_vector_matches_scalar_form_on_weighted_graph(self):
        g = _weighted_graph()
        kap = kappa(g)
        assert [kap[v] for v in range(g.n)] == [kappa(g, v) for v in range(g.n)]

    def test_degree_vector_rejects_weighted_graph(self):
        g = _weighted_graph()
        with pytest.raises(ValueError, match="0/1") as scalar:
            degree(g, 0)
        with pytest.raises(ValueError, match="0/1") as vector:
            degree(g)
        assert str(vector.value) == str(scalar.value)

    def test_weighted_kappa_matches_exact_sum_of_squares(self):
        g = _weighted_graph(n=60, seed=9)
        for v, kv in enumerate(kappa(g).tolist()):
            exact = math.fsum(w * w for w in g.coupling[v].tolist())
            assert kv == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("g", [generate(GraphGenSpec("star", 5)), _weighted_graph()],
                             ids=["binary", "weighted"])
    def test_vectors_are_read_only(self, g):
        vectors = [kappa(g)] + ([degree(g)] if g.is_binary else [])
        for vec in vectors:
            with pytest.raises(ValueError):
                vec[0] = 7


class TestValidate:
    def test_valid_triangle(self):
        assert validate(generate(GraphGenSpec("cycle", 3))) == []

    def test_reports_asymmetry_location(self):
        g = Graph(2, [[0.0, 1.0], [0.0, 0.0]])
        issues = validate(g)
        assert len(issues) == 1
        assert "(0, 1)" in issues[0]

    def test_reports_nonzero_diagonal(self):
        g = Graph(2, [[1.0, 0.0], [0.0, 0.0]])
        issues = validate(g)
        assert any("diagonal at 0" in issue for issue in issues)

    def test_reports_every_violation(self):
        g = Graph(3, [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        issues = validate(g)
        assert len(issues) == 3
