"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All equalities are exact big-integer equalities.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""
import math
import random
from fractions import Fraction

import pytest

from permsphere import (
    HAMMING,
    KENDALL,
    L1,
    LINF,
    Permutation,
    beta,
    closed_form_beta,
    concatenate,
    connected_beta,
    distance,
    distance_to_identity,
    hamming_sphere,
    lp,
    oracle_ball,
    oracle_sphere,
    parse,
    pipeline_ball,
    pipeline_sphere,
    q_polynomial,
    r_polynomial,
    series_coefficients,
    sphere_polynomial,
    to_rational,
)
from permsphere.growth import NOT_COVERED, derangements
from permsphere.metrics import max_l1
from permsphere.verify import (
    DISPUTED_P6_CELL,
    PRINTED_SPHERE_POLYS,
    fitted_second_drop_beta,
    printed_polynomial,
)

from helpers import word_cycles, word_is_connected, word_l1, words


def report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_01_oracle_equivalence_l1():
    ok = True
    for n in range(2, 8):
        for radius in range(0, max_l1(n) + 1, 2):
            ok = ok and pipeline_sphere(L1, n, radius) == oracle_sphere(L1, n, radius)
            ok = ok and pipeline_ball(L1, n, radius) == oracle_ball(L1, n, radius)
    report("criterion 1: l1 pipeline equals oracle for n <= 7, all even radii", ok)


def test_criterion_02_oracle_equivalence_kendall():
    ok = True
    for n in range(2, 8):
        for radius in range(0, 22):
            ok = ok and pipeline_sphere(KENDALL, n, radius) == oracle_sphere(KENDALL, n, radius)
            ok = ok and pipeline_ball(KENDALL, n, radius) == oracle_ball(KENDALL, n, radius)
    report("criterion 2: Kendall pipeline equals oracle for n <= 7, k <= 21", ok)


def test_criterion_03_printed_polynomials():
    ok = True
    for k in range(1, 6):
        ok = ok and sphere_polynomial(L1, 2 * k).terms == printed_polynomial(k).terms
    computed = sphere_polynomial(L1, 12)
    printed = printed_polynomial(6)
    for _, m, q in set(computed.terms) | set(printed.terms):
        if (m, q) == DISPUTED_P6_CELL:
            continue
        ok = ok and computed.coefficient(m, q) == printed.coefficient(m, q)
    # the oracle adjudicates the disputed coefficient
    oracle_n7 = oracle_sphere(L1, 7, 12)
    ok = ok and pipeline_sphere(L1, 7, 12) == oracle_n7
    ok = ok and computed.evaluate(7) == oracle_n7
    discrepancy = printed.evaluate(7) != oracle_n7
    suffix = " (printed coefficient contradicted by the oracle)" if discrepancy else ""
    report("criterion 3: printed polynomials match, disputed cell adjudicated" + suffix, ok)


def test_criterion_04_point_values():
    ok = pipeline_sphere(L1, 5, 12) == 20
    for m, expected in {2: 2, 3: 4, 4: 8, 5: 12, 6: 18, 7: 24}.items():
        ok = ok and max_l1(m) == expected
        ok = ok and max(d for d, c in _l1_histogram(m).items() if c) == expected
    for m, count in {4: 4, 5: 20, 6: 36, 7: 252}.items():
        ok = ok and oracle_sphere(L1, m, max_l1(m)) == count
    report("criterion 4: point values, max distances, and maximizer counts", ok)


def _l1_histogram(n):
    from permsphere.enumeration import group_histogram

    return group_histogram(L1, n)


def test_criterion_05_closed_forms_vs_enumeration():
    ok = True
    for k in range(1, 10):
        ok = ok and connected_beta(L1, 2 * k, k + 1) == 3 ** (k - 1)
    for k in range(4, 10):
        ok = ok and connected_beta(L1, 2 * k, k) == 4 * (k - 3) * 3 ** (k - 4)
    for k in range(6, 10):
        enumerated = connected_beta(L1, 2 * k, k - 1)
        closed = closed_form_beta(k, k - 1, 1)
        if enumerated != closed:
            print(
                f"    second-drop closed form at k={k}: closed form {closed}, "
                f"enumerated {enumerated}, fitted correction {fitted_second_drop_beta(k, 1)}"
            )
            ok = False
    for k in (8, 9):
        ok = ok and connected_beta(L1, 2 * k, k - 2) == closed_form_beta(k, k - 2, 1)
    ok = ok and connected_beta(L1, 16, 6) == 100
    report("criterion 5: connected counts up to S_10 match the closed forms", ok)


def test_criterion_06_convolution_vs_closed_forms():
    ok = True
    for k in range(1, 10):
        for q in range(1, k + 1):
            for m in range(2 * q, k + q + 1):
                cf = closed_form_beta(k, m, q)
                if cf is NOT_COVERED:
                    continue
                conv = beta(L1, 2 * k, m, q)
                if cf != conv:
                    print(
                        f"    closed form vs table at (k={k},m={m},q={q}): "
                        f"closed form {cf}, table {conv}"
                    )
                    ok = False
    for k in (9, 10):
        ok = ok and beta(L1, 2 * k, 2 * k - 12, k - 8) == 36 * (k - 8)
    report("criterion 6: convolution agrees with all covered closed forms", ok)


def test_criterion_07_structural_beta_facts():
    ok = True
    for k in range(1, 9):
        for m in range(2 * k, 2 * k + 1):
            ok = ok and beta(L1, 2 * k, m, k) == 1
        for m in range(2 * k - 4, 2 * k):
            ok = ok and beta(L1, 2 * k, m, k) == 0
        for q in range(1, k + 1):
            for m in range(2 * q, q + k + 3):
                if m - q > k:
                    ok = ok and beta(L1, 2 * k, m, q) == 0
    report("criterion 7: all-transposition cell is 1, support bound m - q <= k", ok)


def test_criterion_08_truncations_and_series():
    ok = True
    for k in range(1, 10):
        ok = ok and q_polynomial(k).terms == sphere_polynomial(L1, 2 * k).terms
    for k in range(1, 7):
        coeffs = series_coefficients(k, 30)
        rk = r_polynomial(k)
        ok = ok and all(coeffs[n] == rk.evaluate(n) for n in range(31))
    for k in range(1, 4):
        ok = ok and r_polynomial(k).terms == sphere_polynomial(L1, 2 * k).terms
    for k in range(1, 9):
        pk = to_rational(sphere_polynomial(L1, 2 * k)).coefficients
        rk = to_rational(r_polynomial(k)).coefficients
        for d in (k, k - 1):
            a = pk[d] if d < len(pk) else Fraction(0)
            b = rk[d] if d < len(rk) else Fraction(0)
            ok = ok and a == b
    report("criterion 8: truncations, slice polynomials, and series identity", ok)


def test_criterion_09_hamming():
    ok = True
    for n in range(2, 8):
        for j in range(n + 2):
            ok = ok and hamming_sphere(n, j) == oracle_sphere(HAMMING, n, j)
    ok = ok and derangements(2) == 1 and derangements(4) == 9
    report("criterion 9: Hamming sphere formula matches the oracle", ok)


def test_criterion_10_property_suite():
    ok = True
    # l1 parity on S_6
    ok = ok and all(word_l1(w) % 2 == 0 for w in words(6))
    # right invariance on random S_6 triples
    rng = random.Random(17)
    pool = [Permutation(w) for w in words(6)]
    metrics = (L1, lp(2), LINF, HAMMING, KENDALL)
    for _ in range(50):
        u, v, w = (rng.choice(pool) for _ in range(3))
        for metric in metrics:
            ok = ok and distance(metric, u * w, v * w) == distance(metric, u, v)
    # split-type invariance on S_6
    for w in words(6):
        u = Permutation(w)
        sigma = u.split_type().permutation
        for metric in metrics:
            ok = ok and distance_to_identity(metric, u) == distance_to_identity(metric, sigma)
    # additivity of l1 and Kendall on S_4 x S_4
    for wu in words(4):
        for wv in words(4):
            u, v = Permutation(wu), Permutation(wv)
            for metric in (L1, KENDALL):
                ok = ok and distance_to_identity(metric, u + v) == distance_to_identity(
                    metric, u
                ) + distance_to_identity(metric, v)
    # connected bounds on S_m, m <= 7
    for m in range(2, 8):
        for w in words(m):
            if word_is_connected(w):
                d = word_l1(w)
                t = word_cycles(w)
                ok = ok and d >= 2 * (m - 1) and d >= 2 * (m + t - 2)
    # lp support bound on split types from S_6
    for w in words(6):
        st = Permutation(w).split_type()
        if st.q:
            sigma = st.permutation
            for p in (1, 2, 3):
                ok = ok and 2 * (st.m - st.q) <= distance_to_identity(lp(p), sigma)
    # telescoping on S_7
    for n in range(2, 8):
        for k in range(1, 9):
            ok = ok and pipeline_ball(L1, n, 2 * k) - pipeline_sphere(L1, n, 2 * k) == pipeline_ball(
                L1, n, 2 * k - 2
            )
    # the linf stack of transpositions breaks the size bound
    for r in range(1, 8):
        sigma = concatenate(*[parse("2 1")] * r)
        st = sigma.split_type()
        ok = ok and distance_to_identity(LINF, sigma) == 1 and st.m - st.q == r
    report("criterion 10: invariant and property suite on S_6/S_7", ok)


def test_criterion_11_ratio_surrogate():
    ok = True
    for k in range(1, 6):
        ratios = []
        for n in range(20, 31):
            a = pipeline_sphere(L1, n, 2 * k)
            v = pipeline_ball(L1, n, 2 * k)
            ratio = Fraction(a, v)
            ok = ok and ratio > 1 - Fraction(10, n)
            ratios.append(ratio)
        ok = ok and all(x <= y for x, y in zip(ratios, ratios[1:]))
    report("criterion 11: sphere/ball ratio exceeds 1 - 10/n and is nondecreasing", ok)
