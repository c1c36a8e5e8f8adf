"""Cross-validation matrix: pipeline vs oracle vs closed forms vs the
published reference polynomials.

Verdicts distinguish internal mismatches (our two code paths disagree:
the run fails) from reference discrepancies (both of our paths agree with
the exhaustive oracle but the published constant does not: reported, never
fatal).

A check is one function ``(ctx) -> Iterable[Check]`` plus one ``_CHECKS``
entry; it reads the oracle's whole-group histograms only through ``ctx.whole``.
"""
from __future__ import annotations

import logging
import time
from fractions import Fraction

from .growth import (
    NOT_COVERED,
    BinomialPoly,
    closed_form_beta,
    hamming_sphere,
    q_polynomial,
    r_polynomial,
    series_coefficients,
    sphere_polynomial,
    to_rational,
)
from .metrics import HAMMING, KENDALL, L1, max_kendall, max_l1
from .oracle import DEFAULT_MAX_DEGREE, check_cap, group_histogram, oracle_ball, oracle_sphere
from .perm import Frozen, Record, guarded_binom
from .pipeline import attainable_radii, beta, pipeline_ball, pipeline_sphere

log = logging.getLogger(__name__)

MATCH = "match"
MISMATCH = "mismatch"
DISCREPANCY = "paper-discrepancy"

# Published reference polynomials for l1 spheres of radius 2k, as
# (coefficient, m, q) terms of the guarded binomial basis.
PRINTED_SPHERE_POLYS: dict[int, tuple[tuple[int, int, int], ...]] = {
    1: ((1, 2, 1),),
    2: ((1, 4, 2), (3, 3, 1)),
    3: ((1, 6, 3), (6, 5, 2), (9, 4, 1)),
    4: ((1, 8, 4), (9, 7, 3), (27, 6, 2), (27, 5, 1), (4, 4, 1)),
    5: ((1, 10, 5), (12, 9, 4), (54, 8, 3), (108, 7, 2), (81, 6, 1), (8, 6, 2), (24, 5, 1)),
    6: (
        (1, 12, 6),
        (15, 11, 5),
        (90, 10, 4),
        (270, 9, 3),
        (405, 8, 2),
        (243, 7, 1),
        (12, 8, 3),
        (240, 7, 2),
        (108, 6, 1),
        (20, 5, 1),
    ),
}

# The one printed coefficient known to disagree with the recurrence-built
# table: the (m, q) = (7, 2) cell of the radius-12 polynomial.
DISPUTED_P6_CELL = (7, 2)


def published_second_drop_beta(k: int, q: int) -> int:
    """The published closed form for the m = k + q - 2 family:

        4(k-5) * ((k-6) [k-7 choose q-1] + 15 [k-6 choose q-1]) * 3^(k-q-6)

    Kept only to be reported against the table; ``closed_form_beta`` returns
    the enumeration-backed form, whose first term is twice this one's.
    """
    value = Fraction(
        4 * (k - 5) * ((k - 6) * guarded_binom(k - 7, q - 1) + 15 * guarded_binom(k - 6, q - 1))
    ) * Fraction(3) ** (k - q - 6)
    assert value.denominator == 1, f"non-integer published form at (k={k}, q={q})"
    return value.numerator


def disputed_beta_cell(k: int, m: int, q: int) -> bool:
    """True for cells where the published closed form for the m = k + q - 2
    family disagrees with exhaustive enumeration.

    For k >= 7 (whenever the family's first binomial term is nonzero, i.e.
    q <= k - 6) the published constant is smaller than the enumerated count;
    the two values coincide only at k = 6 or q = k - 5.
    """
    return m == k + q - 2 and 1 <= q <= k - 6


def fitted_second_drop_beta(k: int, q: int) -> int:
    """The enumeration-fitted form of the m = k + q - 2 family, which doubles
    the first term of the published expression; ``closed_form_beta`` holds it.
    """
    return closed_form_beta(k, k + q - 2, q)


# Published maximal l1 distances and maximizer counts for small degrees.
MAX_L1_TABLE = {2: 2, 3: 4, 4: 8, 5: 12, 6: 18, 7: 24}
MAX_L1_SPHERE = {4: 4, 5: 20, 6: 36, 7: 252}


class Check(Record):
    __slots__ = ("name", "formula", "source", "values", "verdict")

    def __init__(
        self,
        name: str,
        formula: str,  # which identity or published value is being exercised
        source: str,  # printed value | closed form | convolution | oracle
        values: dict[str, str] | None = None,
        verdict: str = MATCH,
    ) -> None:
        super().__init__(name, formula, source, {} if values is None else values, verdict)


class VerifyReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: list[Check] | None = None) -> None:
        super().__init__([] if checks is None else checks)

    @property
    def ok(self) -> bool:
        return all(c.verdict != MISMATCH for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checks": [dict(zip(c.__slots__, c._fields())) for c in self.checks]}


def _mismatch_check(
    name: str, formula: str, source: str, bad: list[str], **values: str
) -> Check:
    """A check that fails exactly when ``bad`` lists a mismatch; the
    mismatches follow the given ``values``."""
    return Check(
        name=name,
        formula=formula,
        source=source,
        values={**values, "mismatches": "; ".join(bad) or "none"},
        verdict=MISMATCH if bad else MATCH,
    )


def printed_polynomial(k: int) -> BinomialPoly:
    return BinomialPoly(PRINTED_SPHERE_POLYS[k], "l1", 2 * k)


class VerifyContext(Frozen):
    """The bounds of one verify matrix, and its one read of the oracle."""

    __slots__ = ("max_n", "max_k", "include_printed_p6", "cap")

    def whole(self, metric) -> list[dict[int, int]]:
        """The oracle's histogram of all of S_m for m = 0..max_n, indexed by m; fresh each call."""
        return [{0: 1}] + [group_histogram(metric, m, cap=self.cap) for m in range(1, self.max_n + 1)]


def _oracle_equivalence(ctx: VerifyContext):
    # pipeline vs oracle, l1 and Kendall
    wholes = {metric: ctx.whole(metric) for metric in (L1, KENDALL)}
    for n in range(2, ctx.max_n + 1):
        for metric in (L1, KENDALL):
            # every nonzero radius up to the farthest distance the oracle's sweep reached
            radii = attainable_radii(metric, max(wholes[metric][n]))
            bad = []
            for r in radii:
                ps, os_ = pipeline_sphere(metric, n, r), oracle_sphere(metric, n, r, cap=ctx.cap)
                pb, ob = pipeline_ball(metric, n, r), oracle_ball(metric, n, r, cap=ctx.cap)
                if ps != os_ or pb != ob:
                    bad.append(f"R={r}: sphere {ps}/{os_}, ball {pb}/{ob}")
            yield _mismatch_check(
                f"{metric.name}-oracle-equivalence-n{n}",
                "sphere and ball counts: split-type sum vs exhaustive count",
                "oracle",
                bad,
                radii=str(len(radii)),
            )


def _printed_polynomials(ctx: VerifyContext):
    # published polynomials, k = 1..5 termwise
    for k in range(1, min(5, ctx.max_k) + 1):
        computed = sphere_polynomial(L1, 2 * k)
        printed = printed_polynomial(k)
        ok = computed.terms == printed.terms
        yield Check(
            name=f"printed-polynomial-k{k}",
            formula=f"radius-{2 * k} sphere polynomial, all terms",
            source="printed value",
            values={"computed": str(computed), "printed": str(printed)},
            verdict=MATCH if ok else MISMATCH,
        )

    # the radius-12 polynomial: undisputed terms must match outright
    if ctx.max_k >= 6:
        computed = sphere_polynomial(L1, 12)
        printed = printed_polynomial(6)
        bad = []
        for _, m, q in set(computed.terms) | set(printed.terms):
            if (m, q) == DISPUTED_P6_CELL:
                continue
            if computed.coefficient(m, q) != printed.coefficient(m, q):
                bad.append(f"(m={m},q={q}): {computed.coefficient(m, q)} vs {printed.coefficient(m, q)}")
        yield _mismatch_check(
            "printed-polynomial-k6-undisputed",
            "radius-12 sphere polynomial, all terms except (m=7, q=2)",
            "printed value",
            bad,
        )
        if ctx.include_printed_p6:
            oracle_n7 = oracle_sphere(L1, 7, 12, cap=ctx.cap)
            pipeline_n7 = pipeline_sphere(L1, 7, 12)
            printed_n7 = printed.evaluate(7)
            values = {
                "computed-coefficient": str(computed.coefficient(*DISPUTED_P6_CELL)),
                "printed-coefficient": str(printed.coefficient(*DISPUTED_P6_CELL)),
                "oracle-count-n7": str(oracle_n7),
                "pipeline-count-n7": str(pipeline_n7),
                "printed-count-n7": str(printed_n7),
            }
            if pipeline_n7 != oracle_n7:
                verdict = MISMATCH
            elif printed_n7 != oracle_n7:
                verdict = DISCREPANCY
            else:
                verdict = MATCH
            yield Check(
                name="printed-polynomial-k6-disputed-cell",
                formula="the [n-5 choose 2] coefficient of the radius-12 polynomial, "
                "adjudicated by the exhaustive count over S_7",
                source="printed value",
                values=values,
                verdict=verdict,
            )


def _closed_forms(ctx: VerifyContext):
    # closed forms vs the convolution, and the published second-drop constant
    bad = []
    disputed = []
    undercounts = False
    checked = 0
    for k in range(1, ctx.max_k + 1):
        # the closed forms' domain: q parts of degree >= 2, with m - q <= k
        for q in range(1, k + 1):
            for m in range(2 * q, k + q + 1):
                cf = closed_form_beta(k, m, q)
                if cf is NOT_COVERED:
                    continue
                conv = beta(L1, 2 * k, m, q)
                checked += 1
                if cf != conv:
                    bad.append(f"(k={k},m={m},q={q}): closed {cf} vs table {conv}")
                if disputed_beta_cell(k, m, q):
                    published = published_second_drop_beta(k, q)
                    disputed.append(f"(k={k},m={m},q={q}): published {published}, table {conv}")
                    undercounts = undercounts or published != conv
    yield _mismatch_check(
        "closed-forms-vs-convolution",
        "the four closed-form beta families, max-radius counts, and support bounds",
        "closed form",
        bad,
        cells=str(checked),
    )
    if disputed:
        yield Check(
            name="closed-form-beta-disputed-cells",
            formula="the m = k + q - 2 family for k >= 7: the published constant "
            "undercounts the table; the closed form doubles its first term",
            source="printed value",
            values={"cells": "; ".join(disputed)},
            verdict=DISCREPANCY if undercounts else MATCH,
        )


def _series(ctx: VerifyContext):
    # generating-function coefficients vs the m = k + q slice
    bad = []
    for k in range(1, min(ctx.max_k, 6) + 1):
        coeffs = series_coefficients(k, 30)
        rk = r_polynomial(k)
        for n in range(31):
            if coeffs[n] != rk.evaluate(n):
                bad.append(f"(k={k},n={n})")
    yield _mismatch_check(
        "series-vs-slice-polynomial",
        "Taylor coefficients of X^(k+1)(2X-3)^(k-1)/(X-1)^(k+1)",
        "convolution",
        bad,
    )


def _truncated_identity(ctx: VerifyContext):
    # truncated polynomial identity, where it holds, and slice agreement depth per k
    bad = []
    top = min(ctx.max_k, 9)
    for k in range(1, top + 1):
        if q_polynomial(k).terms != sphere_polynomial(L1, 2 * k).terms:
            bad.append(f"k={k}")
    yield _mismatch_check(
        "truncated-polynomial-identity",
        "high-cell truncation equals the full sphere polynomial (k <= 9)",
        "convolution",
        bad,
        k=f"1..{top}",
    )
    depths = {}
    for k in range(1, ctx.max_k + 1):
        pk = to_rational(sphere_polynomial(L1, 2 * k)).coefficients
        rk = to_rational(r_polynomial(k)).coefficients
        depth = -1
        for d in range(k, -1, -1):
            a = pk[d] if d < len(pk) else 0
            b = rk[d] if d < len(rk) else 0
            if a != b:
                break
            depth = d
        depths[k] = depth
    yield Check(
        name="slice-agreement-depth",
        formula="lowest degree at which the m=k+q slice still matches the full polynomial",
        source="convolution",
        values={f"k={k}": str(d) for k, d in depths.items()},
        verdict=MATCH,
    )


def _hamming(ctx: VerifyContext):
    # Hamming sphere formula vs oracle
    bad = []
    for n in range(2, ctx.max_n + 1):
        for j in range(n + 1):
            if hamming_sphere(n, j) != oracle_sphere(HAMMING, n, j, cap=ctx.cap):
                bad.append(f"(n={n},j={j})")
    yield _mismatch_check(
        "hamming-sphere-formula",
        "derangement count times [n choose j] vs exhaustive count",
        "oracle",
        bad,
    )


def _max_l1(ctx: VerifyContext):
    # maximal distances and maximizer counts
    whole = ctx.whole(L1)
    bad = []
    for m, expected in MAX_L1_TABLE.items():
        if m > ctx.max_n:
            continue
        got = max_l1(m)
        brute = max(whole[m])
        if got != expected or brute != expected:
            bad.append(f"m={m}: closed {got}, brute {brute}, expected {expected}")
        if m in MAX_L1_SPHERE and whole[m].get(expected, 0) != MAX_L1_SPHERE[m]:
            bad.append(f"m={m}: maximizers {whole[m].get(expected, 0)} vs {MAX_L1_SPHERE[m]}")
    yield _mismatch_check(
        "max-l1-distances", "maximal l1 distance table and maximizer counts", "oracle", bad
    )


_CHECKS = (
    _oracle_equivalence, _printed_polynomials, _closed_forms, _series, _truncated_identity, _hamming, _max_l1
)


def run_verify(
    max_n: int = 6, max_k: int = 6, include_printed_p6: bool = False, *, cap: int = DEFAULT_MAX_DEGREE
) -> VerifyReport:
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    # every degree the matrix sweeps: S_1..S_max_n, and S_7 for the disputed cell
    check_cap(max(max_n, 7) if include_printed_p6 and max_k >= 6 else max_n, cap)

    # each table's widest cell first, so that it grows once and its base is
    # scanned once: l1 reads spheres of S_max_n, to radius max_l1(max_n), and
    # cells of radius 2k with m - q <= k, for k <= max_k; Kendall reads
    # spheres of S_max_n
    beta(L1, 2 * max(max_l1(max_n) // 2, max_k), max(max_n - 1, max_k) + 1, 1)
    beta(KENDALL, max_kendall(max_n), max_n, 1)

    ctx = VerifyContext(max_n, max_k, include_printed_p6, cap)
    report = VerifyReport()
    for check in _CHECKS:
        began = time.perf_counter()
        checks = list(check(ctx))
        log.debug(
            "verify check %s: %d checks in %.3f s", check.__name__, len(checks), time.perf_counter() - began
        )
        report.checks.extend(checks)
    return report
