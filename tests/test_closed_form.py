"""Closed-form eigenvalues, entanglement, purity, and their algebraic invariants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvge.closed_form import (
    KernelSpec,
    VertexRecord,
    closed_forms,
    entanglement,
    lambda_max,
    lambda_max_kappa_over_alpha,
    lambda_n,
    profile,
    purity,
    spectral_denominator,
    spectrum,
    spectrum_ratio,
)
from cvge.graph import Graph, GraphGenSpec, GraphState, degree, generate, kappa

ALPHAS = (0.5, 1.0, 2.0, 4.0)
ALPHA_MAX = 1.34e154  # about the largest alpha whose square is finite
KAPPAS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0)


class TestKernelSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="alpha"):
            KernelSpec(0.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            KernelSpec(float("nan"), 1.0)
        with pytest.raises(ValueError, match="kappa"):
            KernelSpec(1.0, -1.0)

    def test_coupling_ratio(self):
        assert KernelSpec(2.0, 8.0).coupling_ratio == 2.0


class TestLambdaN:
    def test_ground_value(self):
        assert lambda_n(KernelSpec(1.0, 1.0), 0) == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)), abs=1e-15)

    def test_first_excited_value(self):
        expected = 2.0 / (1.0 + math.sqrt(2.0)) ** 3
        assert lambda_n(KernelSpec(1.0, 1.0), 1) == pytest.approx(expected, rel=1e-14)

    def test_uncoupled_vertex_is_rank_one(self):
        spec = KernelSpec(1.0, 0.0)
        assert lambda_n(spec, 0) == 1.0
        assert lambda_n(spec, 3) == 0.0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lambda_n(KernelSpec(1.0, 1.0), -1)

    def test_matches_direct_formula(self):
        for alpha in ALPHAS:
            for kap in KAPPAS:
                if kap == 0.0:
                    continue
                spec = KernelSpec(alpha, kap)
                d = spectral_denominator(spec)
                for n in range(5):
                    direct = 2.0 * alpha * kap**n / d ** (n + 0.5)
                    assert lambda_n(spec, n) == pytest.approx(direct, rel=1e-13)


class TestLambdaMax:
    def test_exact_values(self):
        assert lambda_max(KernelSpec(1.0, 3.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert lambda_max(KernelSpec(4.0, 9.0)) == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert lambda_max(KernelSpec(1.0, 0.0)) == 1.0

    def test_equals_lambda_n_zero(self):
        for alpha in ALPHAS:
            for kap in KAPPAS:
                spec = KernelSpec(alpha, kap)
                assert lambda_max(spec) == pytest.approx(lambda_n(spec, 0), rel=1e-15)

    def test_always_in_unit_interval(self):
        for alpha in ALPHAS:
            for kap in KAPPAS:
                lam = lambda_max(KernelSpec(alpha, kap))
                assert 0.0 < lam <= 1.0

    @settings(max_examples=200, deadline=None)
    # alpha**2 is normal from the lower bound up; above the upper one, (2 alpha)**2
    # overflows and the formula for E raises OverflowError
    @given(alpha=st.floats(math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max) / 2),
           kappa=st.sampled_from([0.0, -0.0, 0]))
    def test_uncoupled_value_is_the_formula_wherever_alpha_squared_is_normal(self, alpha, kappa):
        spec = KernelSpec(alpha, kappa)
        root = math.sqrt(alpha**2 + kappa)
        assert lambda_max(spec) == 2.0 * alpha / (alpha + root) == 1.0
        assert math.copysign(1.0, entanglement(spec)) == math.copysign(1.0, kappa / (alpha + root) ** 2)
        assert entanglement(spec) == 0.0
        assert type(lambda_max(spec)) is type(entanglement(spec)) is float  # an int kappa too

    def test_kappa_over_alpha_variant_agrees_only_at_unit_alpha(self):
        spec = KernelSpec(1.0, 5.0)
        assert lambda_max_kappa_over_alpha(spec) == pytest.approx(lambda_max(spec), rel=1e-14)
        spec = KernelSpec(4.0, 9.0)
        assert abs(lambda_max_kappa_over_alpha(spec) - lambda_max(spec)) > 1e-2


class TestEntanglement:
    def test_exact_values(self):
        assert entanglement(KernelSpec(1.0, 3.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert entanglement(KernelSpec(1.0, 8.0)) == pytest.approx(0.5, abs=1e-15)
        assert entanglement(KernelSpec(1.0, 0.0)) == 0.0
        assert entanglement(KernelSpec(4.0, 9.0)) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_complement_of_lambda_max(self):
        for alpha in ALPHAS:
            for kap in KAPPAS:
                spec = KernelSpec(alpha, kap)
                assert entanglement(spec) == pytest.approx(1.0 - lambda_max(spec), abs=1e-15)

    def test_no_cancellation_at_tiny_kappa(self):
        # product form keeps full relative precision where 1 - lambda would lose it
        spec = KernelSpec(1.0, 1e-14)
        assert entanglement(spec) == pytest.approx(2.5e-15, rel=1e-10)

    def test_strictly_increasing_in_kappa(self):
        for alpha in ALPHAS:
            values = [entanglement(KernelSpec(alpha, k / 4.0)) for k in range(41)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_alpha(self):
        for kap in (1.0, 3.0, 9.0):
            values = [entanglement(KernelSpec(a, kap)) for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_scale_invariance(self):
        for alpha in ALPHAS:
            for kap in KAPPAS:
                base = entanglement(KernelSpec(alpha, kap))
                for s in (0.25, 0.5, 2.0, 3.0, 10.0):
                    scaled = entanglement(KernelSpec(s * alpha, s**2 * kap))
                    assert abs(scaled - base) < 1e-12

    def test_approaches_one_for_strong_coupling(self):
        values = [entanglement(KernelSpec(1.0, 10.0**k)) for k in range(0, 9, 2)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(1e-300, ALPHA_MAX), kappa=st.floats(5e-324, 1e300))
    def test_bits_are_the_formula_wherever_its_square_is_finite(self, alpha, kappa):
        spec = KernelSpec(alpha, kappa)
        try:
            expected = kappa / (alpha + math.sqrt(alpha**2 + kappa)) ** 2
        except OverflowError:
            return
        assert entanglement(spec).hex() == expected.hex()

    @settings(max_examples=200, deadline=None)
    # from here up, (alpha + sqrt(alpha**2 + kappa))**2 overflows for every kappa
    @given(alpha=st.floats(math.sqrt(sys.float_info.max) / 2, ALPHA_MAX), kappa=st.floats(1e-300, 1e300))
    def test_value_where_the_square_overflows(self, alpha, kappa):
        spec = KernelSpec(alpha, kappa)
        ratio = kappa / alpha / alpha  # E = ratio / (1 + sqrt(1 + ratio))**2
        value = entanglement(spec)
        assert 0.0 <= value < 1.0
        assert value == pytest.approx(ratio / (1.0 + math.sqrt(1.0 + ratio)) ** 2, rel=1e-9, abs=1e-300)

    def test_largest_alpha(self):
        assert entanglement(KernelSpec(1e154, 1.0)) == pytest.approx(2.5e-309, rel=1e-9)
        assert lambda_max(KernelSpec(1e154, 1.0)) == 1.0


class TestSpectrum:
    def test_values_and_ratio(self):
        spect = spectrum(KernelSpec(1.0, 1.0), 2)
        assert spect.values[0] == pytest.approx(0.8284271247461903, abs=1e-15)
        assert spect.values[1] == pytest.approx(0.1421356237309503, rel=1e-13)
        assert spect.ratio == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-14)

    def test_rank_one_spectrum(self):
        spect = spectrum(KernelSpec(1.0, 0.0), 3)
        assert spect.values == (1.0, 0.0, 0.0)
        assert spect.ratio == 0.0
        assert spect.tail_sum() == 0.0

    def test_kappa_three(self):
        spect = spectrum(KernelSpec(1.0, 3.0), 2)
        assert spect.values[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert spect.values[1] == pytest.approx(2.0 / 9.0, rel=1e-14)
        assert spect.ratio == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_consecutive_ratio_is_exact(self):
        for alpha in ALPHAS:
            for kap in (1.0, 3.0, 9.0):
                spect = spectrum(KernelSpec(alpha, kap), 20)
                for a, b in zip(spect.values, spect.values[1:]):
                    if a > 0.0:
                        assert b / a == pytest.approx(spect.ratio, rel=1e-14)

    def test_partial_sum_closed_form(self):
        for alpha in ALPHAS:
            for kap in (1.0, 5.0, 9.0):
                spec = KernelSpec(alpha, kap)
                count = 17
                spect = spectrum(spec, count)
                q = spect.ratio
                expected = spect.values[0] * (1.0 - q**count) / (1.0 - q)
                assert sum(spect.values) == pytest.approx(expected, rel=1e-13)

    def test_values_decreasing_and_in_unit_interval(self):
        spect = spectrum(KernelSpec(0.5, 9.0), 30)
        assert all(1.0 >= a > b >= 0.0 for a, b in zip(spect.values, spect.values[1:]))

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            spectrum(KernelSpec(1.0, 1.0), 0)

    def test_trace_identity(self):
        # partial sum of 50 eigenvalues plus the geometric tail reproduces unit trace
        for alpha in ALPHAS:
            for kap in KAPPAS:
                spect = spectrum(KernelSpec(alpha, kap), 50)
                assert abs(sum(spect.values) + spect.tail_sum() - 1.0) < 1e-12


class TestPurity:
    def test_exact_values(self):
        assert purity(KernelSpec(1.0, 0.0)) == 1.0
        assert purity(KernelSpec(1.0, 1.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        assert purity(KernelSpec(4.0, 9.0)) == pytest.approx(0.8, abs=1e-15)

    def test_matches_squared_eigenvalue_sum(self):
        for alpha in ALPHAS:
            for kap in KAPPAS:
                spec = KernelSpec(alpha, kap)
                spect = spectrum(spec, 200)
                direct = sum(v * v for v in spect.values)
                assert purity(spec) == pytest.approx(direct, rel=1e-12)

    def test_less_than_one_iff_coupled(self):
        assert purity(KernelSpec(2.0, 0.0)) == 1.0
        for kap in (0.5, 1.0, 9.0):
            assert purity(KernelSpec(2.0, kap)) < 1.0

    @pytest.mark.parametrize("alpha", [1e-200, 1e-320, 1.0, 1e150])
    @pytest.mark.parametrize("kappa", [0.0, -0.0, 0])
    def test_uncoupled_is_exactly_one(self, alpha, kappa):
        # below alpha ~ 1.5e-162, alpha**2 underflows and D = 0
        assert purity(KernelSpec(alpha, kappa)) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(1e-150, 1e150), kappa=st.floats(5e-324, 1e300))
    def test_coupled_bits_are_the_formula(self, alpha, kappa):
        spec = KernelSpec(alpha, kappa)
        d = spectral_denominator(spec)
        expected = 2.0 * alpha * math.sqrt(d) / (d + kappa)
        assert purity(spec).hex() == expected.hex()



class TestTopOfFloatRange:
    """At alpha = 1e154, alpha**2 + kappa or D overflows; every closed form still depends on kappa/alpha**2 only."""

    @pytest.mark.parametrize("ratio", [1e-8, 1.0, 1.5])
    @pytest.mark.parametrize("form", [lambda_max, entanglement, spectrum_ratio, purity],
                             ids=lambda f: f.__name__)
    def test_equals_the_unit_alpha_value(self, form, ratio):
        assert form(KernelSpec(1e154, ratio * 1e308)) == pytest.approx(form(KernelSpec(1.0, ratio)), rel=1e-12)

    def test_spectrum_below_the_first_eigenvalue(self):
        spect = spectrum(KernelSpec(1e154, 1e300), 3)
        assert spect.ratio == pytest.approx(2.5e-9, rel=1e-8)
        assert spect.values[1] == pytest.approx(2.5e-9, rel=1e-8)

    @pytest.mark.parametrize("alpha,kappa", [(1e150, 0.9e308), (1.3e154, 1.0)], ids=["d-finite", "d-overflows"])
    def test_purity_where_d_plus_kappa_overflows(self, alpha, kappa):
        assert purity(KernelSpec(alpha, kappa)) == pytest.approx(purity(KernelSpec(1.0, kappa / alpha**2)), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(1e-150, ALPHA_MAX), kappa=st.floats(5e-324, 1.7e308))
    def test_bits_are_the_formulas_wherever_d_is_finite(self, alpha, kappa):
        spec = KernelSpec(alpha, kappa)
        d = kappa + 2.0 * alpha**2 + 2.0 * alpha * math.sqrt(alpha**2 + kappa)
        if not math.isfinite(d):
            return
        assert lambda_max(spec).hex() == (2.0 * alpha / (alpha + math.sqrt(alpha**2 + kappa))).hex()
        assert spectrum_ratio(spec).hex() == (kappa / d).hex()


class TestProfile:
    def test_star_center_and_leaves(self):
        report = profile(GraphState(generate(GraphGenSpec("star", 4)), 1.0))
        assert report.records[0].entanglement == pytest.approx(1.0 / 3.0, abs=1e-15)
        leaf = 3.0 - 2.0 * math.sqrt(2.0)
        for rec in report.records[1:]:
            assert rec.entanglement == pytest.approx(leaf, rel=1e-14)

    def test_empty_graph_unentangled(self):
        g = Graph(5, [[0.0] * 5 for _ in range(5)])
        report = profile(GraphState(g, 1.0))
        assert all(rec.entanglement == 0.0 for rec in report.records)

    def test_complete_graph_uniform(self):
        report = profile(GraphState(generate(GraphGenSpec("complete", 4)), 1.0))
        assert len(report.records) == 4
        for rec in report.records:
            assert rec.degree == 3
            assert rec.entanglement == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_equal_degree_gives_bit_identical_values(self):
        k4 = profile(GraphState(generate(GraphGenSpec("complete", 4)), 1.0))
        star = profile(GraphState(generate(GraphGenSpec("star", 4)), 1.0))
        assert k4.records[0].entanglement == star.records[0].entanglement
        assert k4.records[0].lambda_max == star.records[0].lambda_max

    def test_records_in_vertex_order(self):
        report = profile(GraphState(generate(GraphGenSpec("path", 6)), 2.0))
        assert [rec.vertex for rec in report.records] == list(range(6))

    def test_weighted_graph_has_no_degree(self):
        g = Graph(2, [[0.0, 0.5], [0.5, 0.0]])
        report = profile(GraphState(g, 1.0))
        assert report.records[0].degree is None
        assert report.records[0].kappa == 0.25

    def test_invalid_graph_is_rejected(self):
        with pytest.raises(ValueError, match="invalid graph.*asymmetric"):
            Graph(2, [[0.0, 1.0], [2.0, 0.0]])

    def test_invalid_edges_are_rejected(self):
        bad = Graph.from_edges(2, [0], [0], [1.0])
        with pytest.raises(ValueError, match="invalid graph: self-loop at vertex 0"):
            profile(GraphState(bad, 1.0))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), alpha=st.floats(1e-3, 1e3))
    def test_columns_are_the_scalar_closed_form_at_each_kappa(self, data, alpha):
        n = data.draw(st.integers(1, 30))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        # a few distinct weights, so that vertices share kappa through different neighbours
        weights = data.draw(st.one_of(st.just([1.0]), st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4)))
        w = [data.draw(st.sampled_from(weights)) for _ in chosen]
        g = Graph.from_edges(n, [a for a, _ in chosen], [b for _, b in chosen], w)
        report = profile(GraphState(g, alpha))
        kappas = kappa(g).tolist()
        assert report.kappa == tuple(kappas)
        assert report.degree == (tuple(degree(g).tolist()) if g.is_binary else None)
        for v, kv in enumerate(kappas):
            spec = KernelSpec(alpha, kv)
            assert report.lambda_max[v].hex() == lambda_max(spec).hex()
            assert report.entanglement[v].hex() == entanglement(spec).hex()
        # the same data as one VertexRecord per vertex, each from the scalar calls
        degrees = degree(g).tolist() if g.is_binary else [None] * n
        expected = tuple(VertexRecord(vertex=v, degree=d, kappa=kv, lambda_max=lambda_max(KernelSpec(alpha, kv)),
                                      entanglement=entanglement(KernelSpec(alpha, kv)))
                         for v, (d, kv) in enumerate(zip(degrees, kappas)))
        assert tuple(report.records) == expected
        assert report.records[:] == expected
        assert len(report.records) == n

    def test_records_index_like_a_tuple(self):
        report = profile(GraphState(generate(GraphGenSpec("path", 4)), 1.0))
        assert report.records[-1] == report.records[3] and report.records[-1].vertex == 3
        assert [rec.vertex for rec in report.records[::2]] == [0, 2]
        with pytest.raises(IndexError):
            report.records[4]


def many_kappa_graph():
    """A matching of 10,001 edges, so 10,001 distinct random kappa, and an isolated vertex (kappa = 0).

    At 10,000 random kappa, values where libm pow(t, 2) and t * t round apart are
    certain to appear (about 0.09% of doubles). The last edge has weight 1e154: its
    kappa, about 1e308, overflows alpha**2 + kappa at alpha = 1e154.
    """
    weights = np.exp(np.random.default_rng(11).uniform(-15.0, 15.0, 10_000)).tolist() + [1e154]
    m = len(weights)
    return Graph.from_edges(2 * m + 1, range(0, 2 * m, 2), range(1, 2 * m, 2), weights)


class TestProfileArrays:
    """``profile`` computes its columns as arrays; every value is the scalar call's, bit for bit."""

    @pytest.mark.parametrize("alpha", [1e-300, 1e-3, 1.0, 7.3, 1e3, 1e154])
    def test_every_value_is_the_scalar_call(self, alpha):
        g = many_kappa_graph()
        report = profile(GraphState(g, alpha))
        kappas = kappa(g).tolist()
        assert len(set(kappas)) == 10_002
        assert [x.hex() for x in report.lambda_max] == [lambda_max(KernelSpec(alpha, kv)).hex() for kv in kappas]
        assert [x.hex() for x in report.entanglement] == [entanglement(KernelSpec(alpha, kv)).hex()
                                                         for kv in kappas]

    def test_the_kappa_reach_every_branch(self):
        kappas = sorted(set(kappa(many_kappa_graph()).tolist()))
        assert kappas[0] == 0.0
        # squares where pow(t, 2) and t * t round apart: 11, 5, 2, 3 and 18 of them at the test's finite
        # alphas from 1e-300 to 1e3
        for alpha in (1e-300, 1e-3, 1.0, 7.3, 1e3):
            totals = [alpha + math.sqrt(alpha**2 + kv) for kv in kappas[1:]]
            assert sum(t**2 != t * t for t in totals) >= 2
        # at alpha = 1e154, alpha**2 + kappa overflows (hypot) and so does total**2 (kappa / total / total)
        assert math.isinf(1e154**2 + kappas[-1])
        with pytest.raises(OverflowError):
            (1e154 + math.sqrt(1e154**2 + 1.0)) ** 2

    def test_alpha_whose_square_overflows_is_refused(self):
        with pytest.raises(ValueError, match="alpha must be below"):
            KernelSpec(1e200, 1.0)
        with pytest.raises(ValueError, match="alpha must be below"):
            profile(GraphState(many_kappa_graph(), 1e200))

    @pytest.mark.parametrize("alpha,message", [(1e200, "alpha must be below"), (0.0, "alpha must be positive"),
                                               (math.inf, "alpha must be positive")])
    def test_closed_forms_refuses_the_alpha_kernelspec_refuses(self, alpha, message):
        with pytest.raises(ValueError, match=message):
            closed_forms(alpha, [1.0])

    def test_closed_forms_takes_a_list_and_keeps_the_sign_of_zero(self):
        kappas = [2.0, -0.0, 0.0, 1e-300]
        lams, ents = closed_forms(3.0, kappas)
        assert [x.hex() for x in lams.tolist()] == [lambda_max(KernelSpec(3.0, kv)).hex() for kv in kappas]
        assert [x.hex() for x in ents.tolist()] == [entanglement(KernelSpec(3.0, kv)).hex() for kv in kappas]
