"""Graph construction, edge-list round trips, generators, and coupling strength."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvge import graph as graph_mod
from cvge.graph import (
    MAX_VERTICES,
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


def dense(g):
    """The n x n coupling matrix of ``g``, built from its edge arrays."""
    mat = np.zeros((g.n, g.n))
    mat[g.u, g.v] = mat[g.v, g.u] = g.w
    return mat


def same_edges(a, b):
    return a.n == b.n and all(np.array_equal(x, y) for x, y in ((a.u, b.u), (a.v, b.v), (a.w, b.w)))


class TestGraphType:
    def test_matrix_is_copied_and_readonly(self):
        mat = np.array([[0.0, 2.0], [2.0, 0.0]])
        g = Graph(2, mat)
        mat[0, 1] = mat[1, 0] = 5.0
        assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0], [1], [2.0])
        for arr in (g.u, g.v, g.w):
            with pytest.raises(ValueError):
                arr[0] = 0

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
        assert list(g.edges()) == [(0, 1, 1.0)]

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
        assert list(g.edges()) == [(0, 1, 0.5), (1, 2, 1.0)]

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
        assert list(g.edges()) == [(0, 1, 1.0)]

    @pytest.mark.parametrize("zero", ["0", "-0.0", "0.0"])
    def test_zero_weight_is_no_edge(self, zero):
        g = parse_edge_list(f"vertices 3\n0 1 {zero}\n1 2\n")
        assert (g.u.tolist(), g.v.tolist()) == ([1], [2])
        assert g.is_binary
        assert degree(g).tolist() == [0, 1, 1]
        assert kappa(g).tolist() == [0.0, 1.0, 1.0]
        assert validate(g) == []
        assert serialize_edge_list(g) == "vertices 3\n1 2\n"

    def test_zero_weight_beside_a_weighted_edge(self):
        g = parse_edge_list("vertices 3\n0 1 0\n1 2 0.5\n")
        assert not g.is_binary
        assert kappa(g).tolist() == [0.0, 0.25, 0.25]

    def test_zero_weight_still_conflicts_with_a_redeclaration(self):
        with pytest.raises(EdgeListError, match="line 3.*already declared with weight 0.0"):
            parse_edge_list("vertices 2\n0 1 0\n1 0 1\n")

    def test_vertex_count_over_cap(self):
        with pytest.raises(EdgeListError, match="line 2.*<= 10000"):
            parse_edge_list(f"# big\nvertices {MAX_VERTICES + 1}\n")


def parse_error(text):
    with pytest.raises(EdgeListError) as info:
        parse_edge_list(text)
    return str(info.value)


class TestParseFaultOrder:
    """The first faulty line in the file is reported, whichever check finds it."""

    @pytest.mark.parametrize("text,message", [
        ("vertices 3\n1 1\n0 x\n", "line 2: self-loop at vertex 1"),
        ("vertices 3\n0 1 1\n1 0 2\n0 1 2 3\n", "line 3: edge (0, 1) already declared with weight 1.0 on line 2"),
        ("vertices 3\n0 x\n0 1 1\n1 0 2\n", "line 2: vertex indices must be integers, got '0 x'"),
        # the same pairs of faults in the other order
        ("vertices 3\n0 x\n1 1\n", "line 2: vertex indices must be integers, got '0 x'"),
        ("vertices 3\n0 1 2 3\n0 1 1\n1 0 2\n", "line 2: expected 'u v' or 'u v w', got 4 fields"),
        ("vertices 3\n0 1 1\n1 0 2\n0 x\n", "line 3: edge (0, 1) already declared with weight 1.0 on line 2"),
    ], ids=["loop-then-int", "conflict-then-fields", "int-then-conflict",
            "int-then-loop", "fields-then-conflict", "conflict-then-int"])
    def test_two_faults_report_the_earlier(self, text, message):
        assert parse_error(text) == message

    @pytest.mark.parametrize("line,message", [
        ("0 1 2 3", "expected 'u v' or 'u v w', got 4 fields"),  # before the bad index and weight
        ("0 x nan", "vertex indices must be integers, got '0 x nan'"),  # before the weight
        ("5 5 heavy", "weight 'heavy' is not a number"),  # before the range and the self-loop
        ("5 5 inf", "weight must be finite, got 'inf'"),
        ("5 5", "vertex index out of range [0, 3)"),  # before the self-loop
    ])
    def test_one_line_reports_its_first_failing_check(self, line, message):
        assert parse_error(f"vertices 3\n{line}\n") == f"line 2: {message}"

    def test_conflict_names_the_most_recent_earlier_line_of_the_pair(self):
        text = "vertices 3\n0 1 0\n1 2\n1 0 -0.0\n# comment\n0 1 0.0\n1 2 1.0\n1 0 2\n"
        assert parse_error(text) == "line 8: edge (0, 1) already declared with weight 0.0 on line 6"
        assert parse_error("vertices 3\n0 1 0\n1 0 -0.0\n0 1 1\n") == \
            "line 4: edge (0, 1) already declared with weight -0.0 on line 3"

    def test_earliest_of_several_conflicts(self):
        text = "vertices 4\n2 3 1\n0 1 1\n1 0 2\n3 2 2\n"
        assert parse_error(text) == "line 4: edge (0, 1) already declared with weight 1.0 on line 3"

    def test_index_past_int64_is_out_of_range(self):
        assert parse_error(f"vertices 3\n0 1\n0 {2**70}\n") == "line 3: vertex index out of range [0, 3)"


class TestParseBlocks:
    """Line numbers and duplicate pairs carry across the blocks the text is read in."""

    @staticmethod
    def path_text(n=MAX_VERTICES):
        lines = ["# a path", "vertices %d" % n] + [f"{i} {i + 1}" for i in range(n - 1)]
        text = "\n".join(lines) + "\n"
        assert len(text) > graph_mod.PARSE_BLOCK + 20_000  # the last 2,000 lines lie in a later block
        return text, len(lines)

    def test_fault_in_a_later_block(self):
        text, count = self.path_text()
        assert parse_error(text + "7 7\n") == f"line {count + 1}: self-loop at vertex 7"
        lines = text.splitlines()
        lines[count - 5] = "3 x"
        assert parse_error("\n".join(lines)) == f"line {count - 4}: vertex indices must be integers, got '3 x'"

    def test_conflict_across_blocks(self):
        text, count = self.path_text()
        text = text.replace("vertices 10000\n", "vertices 10000\n# 0 1 again\n\n1 0 1.0\n")
        assert parse_error(text + "0 1 2.5\n") == \
            f"line {count + 4}: edge (0, 1) already declared with weight 1.0 on line 6"
        assert parse_edge_list(text).w.size == MAX_VERTICES - 1

    @pytest.mark.parametrize("block", [1, 4, 9, 64])
    def test_small_blocks_number_every_line(self, block, monkeypatch):
        monkeypatch.setattr(graph_mod, "PARSE_BLOCK", block)
        # \r, \f and \x85 end lines too, as str.splitlines counts them
        text = "# c\r\n\r\nvertices 4\r\n0 1 0.5\r\n\r\n1 2\r2 3 0.25\f# c\x85\n1 0 0.5\n0 2 2 2\n"
        assert parse_error(text) == "line 11: expected 'u v' or 'u v w', got 4 fields"
        g = parse_edge_list(text.replace("0 2 2 2\n", ""))
        assert list(g.edges()) == [(0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.25)]
        assert parse_error(text.replace("1 0 0.5", "1 0 0.75")) == \
            "line 10: edge (0, 1) already declared with weight 0.5 on line 4"

    @pytest.mark.parametrize("block", [1, 4, 9, 64, graph_mod.PARSE_BLOCK])
    def test_a_stream_parses_as_its_text(self, block, monkeypatch, tmp_path):
        monkeypatch.setattr(graph_mod, "PARSE_BLOCK", block)
        text = "# c\r\n\r\nvertices 4\r\n0 1 0.5\r\n\r\n1 2\r2 3 0.25\f# c\x85\n1 0 0.5\n"
        path = tmp_path / "g.txt"

        def outcome(source):  # the edges, or the error with its line number
            try:
                return list(parse_edge_list(source).edges())
            except EdgeListError as exc:
                return str(exc)

        for variant in (text, text + "0 2 2 2\n", text.replace("1 0 0.5", "1 0 0.75"), text + "7 x\n"):
            path.write_text(variant, encoding="utf-8", newline="")
            with open(path, encoding="utf-8") as fh:  # as the CLI opens it: \r and \r\n read as \n
                from_file = outcome(fh)
            assert outcome(io.StringIO(variant)) == from_file == outcome(variant)

    def test_a_refused_header_stops_the_read_at_its_block(self):
        text, _ = self.path_text()
        stream = io.StringIO(text)

        def refuse(n):
            raise ValueError(f"refused n={n}")

        with pytest.raises(ValueError, match="refused n=10000"):
            parse_edge_list(stream, refuse)
        assert graph_mod.PARSE_BLOCK <= stream.tell() < graph_mod.PARSE_BLOCK + 20


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 25))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weights = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False).filter(bool)
    w = [draw(st.one_of(st.just(1.0), weights)) for _ in chosen]
    return Graph.from_edges(n, [a for a, _ in chosen], [b for _, b in chosen], w)


class TestParseRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(graph=weighted_graphs(), data=st.data())
    def test_serialize_then_parse_is_bit_exact(self, graph, data):
        lines = serialize_edge_list(graph, comment="random\ngraph").splitlines()
        for _ in range(data.draw(st.integers(0, 6))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(["", "   ", "# note", "  # 0 1 x y", "#"])))
        text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines)
        block = data.draw(st.sampled_from([1, 16, graph_mod.PARSE_BLOCK]))
        with mock.patch.object(graph_mod, "PARSE_BLOCK", block):
            again, streamed = parse_edge_list(text), parse_edge_list(io.StringIO(text))
        for parsed in (again, streamed):
            assert parsed.n == graph.n
            for name in ("u", "v", "w"):
                assert getattr(parsed, name).tobytes() == getattr(graph, name).tobytes()


class TestFromEdges:
    def test_pairs_are_ordered_and_sorted(self):
        g = Graph.from_edges(4, [3, 0, 2], [0, 2, 1], [1.0, 0.5, 2.0])
        assert g.u.dtype == g.v.dtype == np.int32
        assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0, 0, 1], [2, 3, 2], [0.5, 1.0, 2.0])
        assert list(g.edges()) == [(0, 2, 0.5), (0, 3, 1.0), (1, 2, 2.0)]

    def test_arrays_are_copied_and_readonly(self):
        u, w = np.array([0]), np.array([2.0])
        g = Graph.from_edges(2, u, [1], w)
        u[0], w[0] = 1, 7.0
        assert (g.u.tolist(), g.w.tolist()) == ([0], [2.0])
        for arr in (g.u, g.v, g.w):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_matches_the_matrix_constructor(self):
        g = _weighted_graph()
        again = Graph.from_edges(g.n, g.v[::-1], g.u[::-1], g.w[::-1])
        assert same_edges(again, g)
        assert np.array_equal(kappa(again), kappa(g))

    @pytest.mark.parametrize("u,v,w,message", [
        ([0], [2], [1.0], "out of range"),
        ([-1], [1], [1.0], "out of range"),
        ([0, 1], [1], [1.0], "equal length"),
        ([[0]], [[1]], [[1.0]], "1-D"),
    ])
    def test_rejects_malformed_arrays(self, u, v, w, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(2, u, v, w)

    def test_validate_reports_every_edge_violation(self):
        g = Graph.from_edges(4, [1, 0, 1, 2, 3], [1, 1, 0, 3, 2], [1.0, 0.0, 0.0, math.inf, math.inf])
        assert validate(g) == [
            "self-loop at vertex 1",
            "duplicate edge (0, 1)",
            "duplicate edge (2, 3)",
            "edge (0, 1) has weight 0.0; weights must be finite and nonzero",
            "edge (0, 1) has weight 0.0; weights must be finite and nonzero",
            "edge (2, 3) has weight inf; weights must be finite and nonzero",
            "edge (2, 3) has weight inf; weights must be finite and nonzero",
        ]

    def test_validate_reports_kappa_overflow(self):
        # each square 1.44e308 is finite; vertex 0 sums two of them past the float range
        g = Graph.from_edges(3, [0, 0], [1, 2], [1.2e154, 1.2e154])
        assert kappa(g, 0) == math.inf
        assert validate(g) == ["vertex 0: the sum of its squared edge weights overflows, so kappa is inf"]
        with pytest.raises(EdgeListError, match="vertex 0: the sum"):
            parse_edge_list(serialize_edge_list(g))

    def test_no_edges(self):
        g = Graph.from_edges(3, [], [], [])
        assert g.n == 3 and list(g.edges()) == []
        assert g.is_binary and validate(g) == []
        # a weighted bincount over no edges is integer; kappa stays float, as JSON prints it
        assert kappa(g).dtype == np.float64 and kappa(g).tolist() == [0.0, 0.0, 0.0]


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
        assert same_edges(again, g)

    def test_round_trip_weighted(self):
        g = Graph(3, [[0.0, 0.5, 0.0], [0.5, 0.0, 2.25], [0.0, 2.25, 0.0]])
        assert same_edges(parse_edge_list(serialize_edge_list(g)), g)

    def test_comment_is_emitted_and_ignored(self):
        g = generate(GraphGenSpec("star", 3))
        text = serialize_edge_list(g, comment="kind=star n=3")
        assert text.startswith("# kind=star n=3\n")
        assert same_edges(parse_edge_list(text), g)


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

    @pytest.mark.parametrize("n,p,seed,block", [
        (1, 0.5, 0, None), (2, 1.0, 3, None), (2, 1.0, 3, 1), (10, 0.0, 2, 7), (10, 1.0, 2, 7),
        (37, 0.3, 4, 7), (200, 0.05, 11, None), (200, 0.05, 11, 7), (1500, 0.002, 9, None)])
    def test_erdos_renyi_matches_triu_reference(self, n, p, seed, block, monkeypatch):
        # the documented draw: one uniform per pair of np.triu_indices(n, 1), edge when below p;
        # n = 1500 has 1,124,250 pairs, more than one block of the default size
        if block is not None:
            monkeypatch.setattr(graph_mod, "PAIR_BLOCK", block)
        iu, iv = np.triu_indices(n, 1)
        picked = np.random.default_rng(seed).random(iu.size) < p
        g = generate(GraphGenSpec("erdos_renyi", n, p=p, seed=seed))
        assert g.u.dtype == g.v.dtype == np.int32
        assert np.array_equal(g.u, iu[picked]) and np.array_equal(g.v, iv[picked])
        assert np.array_equal(g.w, np.ones(picked.sum()))

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_complete_has_every_pair(self, n, monkeypatch):
        monkeypatch.setattr(graph_mod, "PAIR_BLOCK", 4)
        g = generate(GraphGenSpec("complete", n))
        iu, iv = np.triu_indices(n, 1)
        assert np.array_equal(g.u, iu) and np.array_equal(g.v, iv)

    def test_erdos_renyi_reproducible(self):
        spec = GraphGenSpec("erdos_renyi", 30, p=0.4, seed=123)
        assert same_edges(generate(spec), generate(spec))

    def test_erdos_renyi_seed_changes_graph(self):
        a = generate(GraphGenSpec("erdos_renyi", 30, p=0.4, seed=1))
        b = generate(GraphGenSpec("erdos_renyi", 30, p=0.4, seed=2))
        assert not same_edges(a, b)

    @pytest.mark.parametrize("spec", [
        GraphGenSpec("path", 1),
        GraphGenSpec("star", 1),
        GraphGenSpec("complete", 1),
    ])
    def test_single_vertex_graphs_are_empty(self, spec):
        g = generate(spec)
        assert g.n == 1
        assert list(g.edges()) == []

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
        with pytest.raises(ValueError, match=r"<= 10000 \(up to n\(n-1\)/2 edges\)"):
            GraphGenSpec("path", MAX_VERTICES + 1)

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
            exact = math.fsum(w * w for w in dense(g)[v].tolist())
            assert kv == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("g", [generate(GraphGenSpec("star", 5)), _weighted_graph()],
                             ids=["binary", "weighted"])
    def test_vectors_are_read_only(self, g):
        vectors = [kappa(g)] + ([degree(g)] if g.is_binary else [])
        for vec in vectors:
            with pytest.raises(ValueError):
                vec[0] = 7


def matrix_issues(exc):
    """The violations a rejected matrix's ValueError lists."""
    return str(exc.value).removeprefix("invalid graph: ").split("; ")


class TestValidate:
    def test_valid_triangle(self):
        assert validate(generate(GraphGenSpec("cycle", 3))) == []

    # an invalid matrix is rejected when the Graph is built, naming every violation
    def test_reports_asymmetry_location(self):
        with pytest.raises(ValueError, match="^invalid graph: ") as exc:
            Graph(2, [[0.0, 1.0], [0.0, 0.0]])
        issues = matrix_issues(exc)
        assert len(issues) == 1
        assert "(0, 1)" in issues[0]

    def test_reports_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="^invalid graph: ") as exc:
            Graph(2, [[1.0, 0.0], [0.0, 0.0]])
        issues = matrix_issues(exc)
        assert any("diagonal at 0" in issue for issue in issues)

    def test_reports_every_violation(self):
        with pytest.raises(ValueError, match="^invalid graph: ") as exc:
            Graph(3, [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        issues = matrix_issues(exc)
        assert len(issues) == 3
