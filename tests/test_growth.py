import json
import math
from fractions import Fraction

import pytest

from permsphere import (
    HAMMING,
    KENDALL,
    L1,
    NOT_COVERED,
    BinomialPoly,
    RationalPoly,
    ball_polynomial,
    beta,
    closed_form_beta,
    connected_beta,
    hamming_sphere,
    oracle_ball,
    oracle_sphere,
    pipeline_ball,
    pipeline_sphere,
    q_polynomial,
    r_polynomial,
    series_coefficients,
    sphere_polynomial,
    to_rational,
)
from permsphere.pipeline import ball_terms, expand_terms, sphere_terms
from permsphere.growth import derangements

from helpers import rational_expansion, rencontres


class TestBinomialPoly:
    def test_sorted_and_deduped(self):
        poly = BinomialPoly(((3, 3, 1), (1, 4, 2), (0, 9, 9)))
        assert poly.terms == ((3, 3, 1), (1, 4, 2))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            BinomialPoly(((-1, 2, 1),))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            BinomialPoly(((1, 2, 1), (2, 2, 1)))

    def test_str(self):
        assert str(BinomialPoly(((1, 2, 1),))) == "[n-1 choose 1]"


class TestSpherePolynomial:
    def test_k1(self):
        assert sphere_polynomial(L1, 2).terms == ((1, 2, 1),)

    def test_k2(self):
        assert sphere_polynomial(L1, 4).terms == ((3, 3, 1), (1, 4, 2))

    def test_k4_has_correction_term(self):
        assert sphere_polynomial(L1, 8).coefficient(4, 1) == 4

    def test_odd_radius(self):
        assert sphere_polynomial(L1, 5).terms == ()

    def test_radius_zero(self):
        assert sphere_polynomial(L1, 0).evaluate(9) == 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_pipeline_everywhere(self, k):
        poly = sphere_polynomial(L1, 2 * k)
        for n in range(1, 20):
            assert poly.evaluate(n) == pipeline_sphere(L1, n, 2 * k)

    def test_unguarded_valid_in_range(self):
        for k in range(1, 6):
            poly = sphere_polynomial(L1, 2 * k)
            for n in range(k, 15):
                assert to_rational(poly).evaluate(n) == poly.evaluate(n)


class TestBallPolynomial:
    def test_radius_zero(self):
        assert ball_polynomial(L1, 0).terms == ((1, 0, 0),)

    def test_radius_two(self):
        poly = ball_polynomial(L1, 2)
        # a term of degree 0 prints as its coefficient
        assert str(poly) == "[n-1 choose 1] + 1"
        for n in range(1, 10):
            assert poly.evaluate(n) == n

    def test_matches_oracle(self):
        poly = ball_polynomial(L1, 4)
        assert poly.evaluate(4) == 11
        for n in range(2, 7):
            assert poly.evaluate(n) == oracle_ball(L1, n, 4)


class TestPipelineIsPolynomialEvaluation:
    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_sphere_and_ball(self, metric):
        for radius in range(17):
            sphere, ball = sphere_polynomial(metric, radius), ball_polynomial(metric, radius)
            for n in range(1, 13):
                assert pipeline_sphere(metric, n, radius) == sphere.evaluate(n)
                assert pipeline_ball(metric, n, radius) == ball.evaluate(n)


class TestEvalGuarded:
    def test_p6_at_5(self):
        assert sphere_polynomial(L1, 12).evaluate(5) == 20

    def test_p3_at_2(self):
        assert sphere_polynomial(L1, 6).evaluate(2) == 0

    def test_p2_at_4(self):
        assert sphere_polynomial(L1, 4).evaluate(4) == 7

    def test_small_n_vanishing(self):
        # spheres of radius 2k are empty below n = k for k <= 5, but not for k = 6
        for k in range(1, 6):
            for n in range(1, k):
                assert sphere_polynomial(L1, 2 * k).evaluate(n) == 0
        assert sphere_polynomial(L1, 12).evaluate(5) > 0


class TestToRational:
    def test_p1(self):
        assert to_rational(sphere_polynomial(L1, 2)).coefficients == (Fraction(-1), Fraction(1))

    def test_p2(self):
        rational = to_rational(sphere_polynomial(L1, 4))
        assert rational.integer_coefficients == (-6, 1, 1)
        assert rational.denominator == 2
        assert str(rational) == "(n^2 + n - 6)/2"

    def test_p3(self):
        rational = to_rational(sphere_polynomial(L1, 6))
        assert rational.denominator == 6
        assert rational.integer_coefficients == (-6, -25, 6, 1)

    def test_one_zero_polynomial(self):
        # the empty tuple, trailing zeros and a zero sphere are one polynomial
        zero = to_rational(sphere_polynomial(L1, 3))
        assert RationalPoly(()) == RationalPoly((0, 0)) == zero
        assert hash(RationalPoly(())) == hash(RationalPoly((0, 0))) == hash(zero)
        assert RationalPoly(()).degree == 0 and RationalPoly(()).as_dict()["coefficients"] == ["0"]

    def test_denominator_is_the_least_common_multiple(self):
        assert RationalPoly(()).denominator == 1
        assert RationalPoly((0, 0)).integer_coefficients == (0,)
        mixed = RationalPoly((Fraction(1, 6), Fraction(1, 4)))
        assert mixed.denominator == 12 and mixed.integer_coefficients == (2, 3)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_leading_coefficient(self, k):
        rational = to_rational(sphere_polynomial(L1, 2 * k))
        assert rational.coefficients[-1] == Fraction(1, math.factorial(k))
        assert rational.degree == k

    def test_agrees_with_guarded_in_range(self):
        for k in range(1, 6):
            poly = sphere_polynomial(L1, 2 * k)
            rational = to_rational(poly)
            for n in range(k, 20):
                assert rational.evaluate(n) == poly.evaluate(n)


class TestExpandTerms:
    """expand_terms, the one monomial expansion, against the Fraction reference."""

    @staticmethod
    def assert_matches_reference(terms):
        a, denominator = expand_terms(terms)
        assert denominator == math.factorial(max((q for _, _, q in terms), default=0))
        assert [Fraction(c, denominator) for c in a] == rational_expansion(terms)

    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_sphere_and_ball_polynomials(self, metric):
        for radius in range(17):
            self.assert_matches_reference(sphere_polynomial(metric, radius).terms)
            self.assert_matches_reference(ball_polynomial(metric, radius).terms)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_truncations(self, k):
        self.assert_matches_reference(q_polynomial(k).terms)
        self.assert_matches_reference(r_polynomial(k).terms)


class TestPipelineEvaluatesTruncatedTerms:
    """A query's Horner evaluation equals the guarded sum of the terms it builds."""

    @pytest.mark.parametrize("metric, max_radius", [(L1, 16), (KENDALL, 10)], ids=["l1", "kendall"])
    def test_sphere_and_ball(self, metric, max_radius):
        for radius in range(max_radius + 1):
            for n in (*range(1, 2 * radius + 3), 100, 1500, 10**6):
                top = min(n, 2 * radius)
                sphere = BinomialPoly(sphere_terms(metric, radius, top)).evaluate(n)
                ball = BinomialPoly(ball_terms(metric, radius, top)).evaluate(n)
                assert pipeline_sphere(metric, n, radius) == sphere
                assert pipeline_ball(metric, n, radius) == ball


class TestClosedFormBeta:
    def test_top_family(self):
        assert closed_form_beta(4, 5, 1) == 27
        assert closed_form_beta(6, 8, 2) == 405

    def test_rational_intermediate(self):
        assert closed_form_beta(6, 5, 1) == 20

    def test_third_drop(self):
        assert closed_form_beta(8, 6, 1) == 100
        assert connected_beta(L1, 16, 6) == 100

    def test_maximal_radius(self):
        assert closed_form_beta(4, 4, 1) == 4
        assert closed_form_beta(6, 5, 2) == 0
        assert closed_form_beta(9, 6, 1) == 36

    def test_support_zeroes(self):
        assert closed_form_beta(5, 4, 1) == 0  # above the S_4 maximum
        assert closed_form_beta(3, 7, 2) == 0  # m - q > k
        assert closed_form_beta(5, 7, 6) == 0  # m < 2q
        assert closed_form_beta(5, 5, 0) == 0  # q < 1

    def test_not_covered(self):
        assert closed_form_beta(8, 6, 2) is NOT_COVERED

    def test_matches_convolution(self):
        from permsphere.verify import disputed_beta_cell

        for k in range(1, 10):
            for q in range(1, k + 1):
                for m in range(2 * q, k + q + 1):
                    cf = closed_form_beta(k, m, q)
                    if cf is NOT_COVERED or disputed_beta_cell(k, m, q):
                        continue
                    assert cf == beta(L1, 2 * k, m, q), (k, m, q)

    def test_disputed_cells(self):
        # the published constant for the m = k + q - 2 family undercounts for
        # k >= 7; the enumeration-backed table is authoritative there, and the
        # fitted correction (first term doubled) reproduces it exactly
        from permsphere.verify import (
            disputed_beta_cell,
            fitted_second_drop_beta,
            published_second_drop_beta,
        )

        seen = 0
        for k in range(7, 11):
            for q in range(1, k - 5):
                m = k + q - 2
                if not disputed_beta_cell(k, m, q):
                    continue
                seen += 1
                table = beta(L1, 2 * k, m, q)
                assert published_second_drop_beta(k, q) < table
                assert fitted_second_drop_beta(k, q) == table
        assert seen == 1 + 2 + 3 + 4
        assert not disputed_beta_cell(6, 5, 1)
        assert closed_form_beta(6, 5, 1) == beta(L1, 12, 5, 1) == 20


class TestQPolynomial:
    def test_k1(self):
        assert q_polynomial(1).terms == ((1, 2, 1),)

    def test_k3_identical(self):
        assert q_polynomial(3).terms == sphere_polynomial(L1, 6).terms

    def test_k9_stray_term(self):
        assert q_polynomial(9).coefficient(6, 1) == 36


class TestRPolynomial:
    def test_k1(self):
        assert r_polynomial(1).terms == ((1, 2, 1),)

    def test_k2_exact(self):
        assert r_polynomial(2).terms == sphere_polynomial(L1, 4).terms

    def test_k4_difference(self):
        assert sphere_polynomial(L1, 8).evaluate(10) - r_polynomial(4).evaluate(10) == 28


class TestSeries:
    def test_k2_low_coefficients(self):
        assert series_coefficients(2, 4) == [0, 0, 0, 3, 7]

    def test_k1_is_n_minus_1(self):
        coeffs = series_coefficients(1, 12)
        for n in range(2, 13):
            assert coeffs[n] == n - 1

    @pytest.mark.parametrize("k", range(1, 5))
    def test_matches_slice_polynomial(self, k):
        coeffs = series_coefficients(k, 25)
        rk = r_polynomial(k)
        for n in range(26):
            assert coeffs[n] == rk.evaluate(n)


class TestHamming:
    def test_derangements(self):
        assert [derangements(j) for j in range(7)] == [1, 0, 1, 2, 9, 44, 265]

    # a cold cache computes D_3000 without recursing 3000 levels deep
    def test_large_j_with_a_cold_cache(self):
        derangements.cache_clear()
        expected = rencontres(3000)
        assert derangements(3000) == expected[3000]
        assert hamming_sphere(3000, 1500) == expected[1500]

    # no permutation of S_n moves more than n points, and D_j is not built
    def test_j_above_n_is_zero_without_derangements(self):
        before = derangements.cache_info().currsize
        assert hamming_sphere(3, 50000) == 0
        assert hamming_sphere(0, 1) == 0
        assert derangements.cache_info().currsize == before

    def test_point_values(self):
        assert hamming_sphere(5, 2) == 10
        assert hamming_sphere(5, 3) == 20
        assert hamming_sphere(5, 0) == 1

    def test_vs_oracle(self):
        for n in range(2, 7):
            for j in range(n + 2):
                assert hamming_sphere(n, j) == oracle_sphere(HAMMING, n, j)


class TestLeadingTerm:
    @pytest.mark.parametrize("k", (1, 3, 6))
    def test_true_cases(self, k):
        # 1 * [n-k choose k] is the one term of degree k, and none is higher
        terms = sphere_polynomial(L1, 2 * k).terms
        assert [(c, m, q) for c, m, q in terms if q >= k] == [(1, 2 * k, k)]


class TestSerialization:
    def test_binomial_schema(self):
        doc = sphere_polynomial(L1, 4).as_dict()
        assert doc == {
            "metric": "l1",
            "radius": 4,
            "basis": "binomial",
            "terms": [{"coef": "3", "m": 3, "q": 1}, {"coef": "1", "m": 4, "q": 2}],
        }
        json.dumps(doc)

    def test_rational_schema(self):
        doc = to_rational(sphere_polynomial(L1, 4)).as_dict()
        assert doc == {"denominator": "2", "coefficients": ["-6", "1", "1"]}

    def test_big_integers_round_trip(self):
        poly = r_polynomial(9)
        doc = poly.as_dict()
        restored = BinomialPoly(
            tuple((int(t["coef"]), t["m"], t["q"]) for t in doc["terms"]),
            doc["metric"],
            doc["radius"],
        )
        assert restored.terms == poly.terms


class TestKendallPolynomial:
    def test_leading_term(self):
        for k in range(1, 6):
            poly = sphere_polynomial(KENDALL, k)
            assert poly.coefficient(2 * k, k) == 1
            assert all(q <= k for _, _, q in poly.terms)

    def test_vs_oracle(self):
        for k in range(0, 7):
            poly = sphere_polynomial(KENDALL, k)
            for n in range(1, 8):
                assert poly.evaluate(n) == oracle_sphere(KENDALL, n, k)
