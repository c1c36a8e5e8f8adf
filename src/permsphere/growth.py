"""Counting polynomials in the guarded binomial basis, and closed forms.

The binomial basis is the source of truth: a term (c, m, q) denotes
c * [n+q-m choose q] with the i < 0 guard, so ``BinomialPoly.evaluate`` is
an exact count for *every* n >= 1, not only in the polynomial range
n >= N(R).  The monomial form is derived from the terms by one integer
expansion, ``pipeline.expand_terms``: ``to_rational`` divides it out into
a ``RationalPoly``, the one home of ``Fraction``, and pipeline queries
evaluate it by Horner's rule.  Those queries build only the cells with
m <= n, where n + q - m >= q >= 0 and the guard never applies, so there the
monomial form is the count.  The l1 closed forms stay in integers.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .metrics import L1, MetricId, max_l1
from .perm import Frozen, guarded_binom
from .pipeline import ball_terms, expand_terms, sphere_terms


# closed_form_beta's answer for parameters outside every closed-form family.
NOT_COVERED = None


class BinomialPoly(Frozen):
    """Sum of terms c * [n+q-m choose q]; coefficients are positive counts."""

    __slots__ = ("terms", "metric", "radius")
    terms: tuple[tuple[int, int, int], ...]  # (coefficient, m, q), sorted by (q, m)
    metric: str
    radius: int

    def __init__(
        self, terms: tuple[tuple[int, int, int], ...], metric: str = "l1", radius: int = 0
    ) -> None:
        cleaned = {}
        for coef, m, q in terms:
            if coef < 0:
                raise ValueError(f"negative coefficient {coef} at (m={m}, q={q})")
            if coef == 0:
                continue
            if (m, q) in cleaned:
                raise ValueError(f"duplicate term at (m={m}, q={q})")
            cleaned[(m, q)] = coef
        ordered = tuple(
            (cleaned[(m, q)], m, q) for (m, q) in sorted(cleaned, key=lambda mq: (mq[1], mq[0]))
        )
        super().__init__(ordered, metric, radius)

    def coefficient(self, m: int, q: int) -> int:
        for coef, tm, tq in self.terms:
            if (tm, tq) == (m, q):
                return coef
        return 0

    def evaluate(self, n: int) -> int:
        """The guarded sum of c * [n+q-m choose q]: exact for every n >= 1."""
        return sum(c * guarded_binom(n + q - m, q) for c, m, q in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, m, q in sorted(self.terms, key=lambda t: (-t[2], t[1])):
            if q == 0:
                parts.append(str(c))
            else:
                shift = m - q
                arg = f"n-{shift}" if shift > 0 else "n"
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}[{arg} choose {q}]")
        return " + ".join(parts)

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "radius": self.radius,
            "basis": "binomial",
            "terms": [{"coef": str(c), "m": m, "q": q} for c, m, q in self.terms],
        }


class RationalPoly(Frozen):
    """Monomial-basis polynomial with exact rational coefficients, ascending."""

    __slots__ = ("coefficients",)
    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: tuple[Fraction, ...]) -> None:
        # the empty tuple is the zero polynomial, as (0,) is
        coeffs = tuple(Fraction(c) for c in coefficients) or (Fraction(0),)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        super().__init__(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, n: int) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * n + c
        return total

    @property
    def denominator(self) -> int:
        return math.lcm(*(c.denominator for c in self.coefficients))

    @property
    def integer_coefficients(self) -> tuple[int, ...]:
        """Coefficients of denominator * poly, all integers."""
        d = self.denominator
        return tuple(c.numerator * (d // c.denominator) for c in self.coefficients)

    def __str__(self) -> str:
        def mono(i: int) -> str:
            return "1" if i == 0 else ("n" if i == 1 else f"n^{i}")

        coefficients = self.integer_coefficients
        num = []
        for i in range(self.degree, -1, -1):
            c = coefficients[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if num else "")
            mag = abs(c)
            body = mono(i) if (mag == 1 and i > 0) else (str(mag) if i == 0 else f"{mag}n" if i == 1 else f"{mag}n^{i}")
            num.append(f"{sign}{body}" if not num else f" {sign} {body}")
        inner = "".join(num) or "0"
        d = self.denominator
        return inner if d == 1 else f"({inner})/{d}"

    def as_dict(self) -> dict:
        return {
            "denominator": str(self.denominator),
            "coefficients": [str(c) for c in self.integer_coefficients],
        }


# -- construction from the beta tables ------------------------------------


def sphere_polynomial(metric: MetricId, radius: int) -> BinomialPoly:
    """The counting polynomial for spheres of the given radius."""
    return BinomialPoly(sphere_terms(metric, radius, 2 * radius), metric.name, radius)


def ball_polynomial(metric: MetricId, radius: int) -> BinomialPoly:
    """The counting polynomial for balls: the sphere terms of every radius up to this one."""
    return BinomialPoly(ball_terms(metric, radius, 2 * radius), metric.name, radius)


def to_rational(poly: BinomialPoly) -> RationalPoly:
    """Exact monomial expansion; valid as a count for n >= N(R)."""
    a, denominator = expand_terms(poly.terms)
    return RationalPoly(tuple(Fraction(c, denominator) for c in a))


# -- closed forms for l1 --------------------------------------------------


def times_power_of_3(value: int, e: int, what: str) -> int:
    """value * 3^e for any integer e; ArithmeticError if that is no integer."""
    if e >= 0:
        return value * 3**e
    quotient, rest = divmod(value, 3**-e)
    if rest:
        raise ArithmeticError(f"{what} is not an integer")
    return quotient


def closed_form_beta(k: int, m: int, q: int):
    """beta_{l1}(2k, m, q) from a covered closed-form family, else NOT_COVERED.

    The m = k + q - 2 family (the second drop) is the enumeration-backed
    form 4(k-5) * (2(k-6) [k-7 choose q-1] + 15 [k-6 choose q-1]) * 3^(k-q-6).
    The published constant has (k-6) where this has 2(k-6) and undercounts
    whenever 1 <= q <= k-6; it lives in ``verify.published_second_drop_beta``,
    where the verify matrix reports it as a paper discrepancy.

    Each family is an integer times a power of 3, negative at its last cells,
    where ``times_power_of_3`` divides exactly; past them the integer is 0.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if q < 1 or m < 2 * q:
        return 0
    if m - q > k:
        return 0
    # Spheres of maximal radius in S_m, and emptiness beyond the maximum.
    k_max = max_l1(m) // 2
    if k > k_max:
        return 0
    if k == k_max:
        if q != 1:
            return 0
        r, odd = divmod(m, 2)
        count = math.factorial(r) ** 2
        return (2 * r + 1) * count if odd else count
    if m == k + q:
        return math.comb(k - 1, q - 1) * 3 ** (k - q)
    what = f"closed form at (k={k}, m={m}, q={q})"
    if m == k + q - 1:
        return times_power_of_3(4 * (k - 3) * guarded_binom(k - 4, q - 1), k - q - 3, what)
    if m == k + q - 2:
        inner = 2 * (k - 6) * guarded_binom(k - 7, q - 1) + 15 * guarded_binom(k - 6, q - 1)
        return times_power_of_3(4 * (k - 5) * inner, k - q - 6, what)
    if q == k - 8 and m == 2 * k - 12 and k >= 9:
        return 36 * (k - 8)
    if m == k + q - 3:
        d = k - q
        value = 4 * (k - 7) * guarded_binom(k - 8, q - 1) * (8 * d * d + 60 * d - 137)
        return times_power_of_3(value, k - q - 10, what)
    return NOT_COVERED


def q_polynomial(k: int) -> BinomialPoly:
    """The truncation of the l1 sphere polynomial to the cells m >= k+q-3,
    plus the single stray cell (m, q) = (2k-12, k-8) for k >= 9.

    Identical to the full sphere polynomial for k <= 9.
    """
    if k < 1:
        raise ValueError("k must be positive")
    terms = [(c, m, q) for c, m, q in sphere_terms(L1, 2 * k, 4 * k) if m >= k + q - 3]
    if k >= 9:
        terms.append((closed_form_beta(k, 2 * k - 12, k - 8), 2 * k - 12, k - 8))
    return BinomialPoly(tuple(terms), "l1", 2 * k)


def r_polynomial(k: int) -> BinomialPoly:
    """The m = k + q slice of the l1 sphere polynomial, in closed form.

    Exact for k <= 3; agrees with the full polynomial on high-degree terms.
    """
    if k < 1:
        raise ValueError("k must be positive")
    terms = tuple((closed_form_beta(k, k + q, q), k + q, q) for q in range(1, k + 1))
    return BinomialPoly(terms, "l1", 2 * k)


def series_coefficients(k: int, count: int) -> list[int]:
    """First count+1 Taylor coefficients of X^{k+1} (2X-3)^{k-1} / (X-1)^{k+1}.

    Exact long division; coefficient n equals the guarded evaluation of the
    m = k + q slice polynomial at n.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    # numerator: X^{k+1} * (2X - 3)^{k-1}
    num = [0] * (k + 1) + [
        math.comb(k - 1, j) * (2**j) * ((-3) ** (k - 1 - j)) for j in range(k)
    ]
    # denominator: (X - 1)^{k+1}
    den = [math.comb(k + 1, j) * ((-1) ** (k + 1 - j)) for j in range(k + 2)]
    coeffs = []
    for n in range(count + 1):
        s = num[n] if n < len(num) else 0
        for j in range(1, min(n, k + 1) + 1):
            s -= den[j] * coeffs[n - j]
        coeffs.append(s * den[0])  # den[0] = (-1)^(k+1) is its own inverse
    return coeffs


# -- Hamming spheres ------------------------------------------------------


@cache
def derangements(j: int) -> int:
    """D_j via the exact recurrence D_j = (j-1)(D_{j-1} + D_{j-2})."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    d, before = 1, 0  # D_0; D_1 = 0 * (D_0 + before) whatever before is
    for i in range(1, j + 1):
        d, before = (i - 1) * (d + before), d
    return d


def hamming_sphere(n: int, j: int) -> int:
    """#{u in S_n : H(u) = j} = D_j * C(n, j)."""
    if n < 0 or j < 0:
        raise ValueError("n and j must be nonnegative")
    if j > n:  # C(n, j) = 0: neither compute nor cache D_j
        return 0
    return derangements(j) * math.comb(n, j)
