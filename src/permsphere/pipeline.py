"""The split-type pipeline: it counts connected parts in polynomial time,
combines them through the composition convolution and weighs each (m, q)
cell by the binomial [n+q-m choose q]; a query evaluates the cells it
builds as one integer polynomial in n.

It is one of the two counting routes that check each other, so it never
enumerates a symmetric group and never reads the oracle's sweep: of the
package it imports only ``metrics`` (and, through it, ``perm``);
tests/test_independence.py enforces that.
"""
from __future__ import annotations

import logging
import math
import time
from collections.abc import Callable
from functools import cache

from .metrics import KENDALL, MetricId, max_l1

log = logging.getLogger(__name__)


def _l1_connected(m: int) -> dict[int, int]:
    """Total displacement over the connected permutations of S_m, by a scan
    of positions (Diaconis and Graham; Guay-Paquet and Petersen).

    After position i the state k counts the positions <= i holding values
    > i, which is also the number of values <= i placed after i. Position i
    and value i either pair with each other, or each takes one of the k
    open values or positions, or stays open: k -> k+1 in 1 way, k -> k in
    2k+1 ways, k -> k-1 in k^2 ways. The k open positions and the k open
    values all cross the gap after i, so each step adds 2k to the distance.
    The word is connected when k >= 1 after every i < m and k = 0 at
    i = m; k <= m - i keeps only states that can still close.
    """
    states = {(0, 0): 1}  # (k, distance) -> count
    for i in range(1, m + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (k, d), count in states.items():
            for k2, ways in ((k + 1, 1), (k, 2 * k + 1), (k - 1, k * k)):
                if (k2 == 0) != (i == m) or not 0 <= k2 <= m - i:
                    continue
                key = (k2, d + 2 * k2)
                nxt[key] = nxt.get(key, 0) + count * ways
        states = nxt
    return {d: count for (_, d), count in states.items()}


@cache
def _q_factorial(n: int) -> tuple[int, ...]:
    """Coefficients of [n]_q! = prod_{i<=n} (1 + q + ... + q^(i-1)): the
    inversion counts of S_n."""
    if n == 0:
        return (1,)
    out = [0] * (len(_q_factorial(n - 1)) + n - 1)
    for d, c in enumerate(_q_factorial(n - 1)):
        for j in range(n):
            out[d + j] += c
    return tuple(out)


def _kendall_connected(m: int) -> dict[int, int]:
    """Inversions over the connected permutations of S_m, by Comtet's
    inversion of [m]_q! = sum_j C_j(q) [m-j]_q!: a permutation is its first
    connected part, of degree j, followed by any permutation of the rest."""
    total = list(_q_factorial(m))
    for j in range(1, m):
        first = connected_histogram(KENDALL, j) if j > 1 else {0: 1}
        rest = _q_factorial(m - j)
        for d1, c1 in first.items():
            for d2, c2 in enumerate(rest):
                total[d1 + d2] -= c1 * c2
    return {d: c for d, c in enumerate(total) if c}


# The split-type pipeline's routes, per kind: (step, connected base,
# farthest). Each metric adds over concatenation, and a connected part of
# degree m lies at distance at least step * (m - 1), which bounds the parts of
# a split type inside a ball; the step is also the gap between attainable
# radii. farthest(m) is the largest distance in S_m, 0 at m = 0, and
# farthest(a) + farthest(b) <= farthest(a + b), so it also bounds the
# distance of a whole split type of degree m.
_ROUTES = {
    "l1": (2, _l1_connected, max_l1),
    "kendall": (1, _kendall_connected, lambda m: m * (m - 1) // 2),
}


def _route(metric: MetricId) -> tuple[int, Callable[[int], dict[int, int]], Callable[[int], int]]:
    try:
        return _ROUTES[metric.kind]
    except KeyError:
        raise ValueError(f"no split-type pipeline for {metric.name}; {' and '.join(_ROUTES)} only") from None


@cache
def connected_histogram(metric: MetricId, m: int) -> dict[int, int]:
    """Distance histogram of the connected permutations of S_m, for a
    pipeline metric, computed without enumerating S_m.

    Degree-1 words never occur as split-type parts, so m < 2 yields an
    empty histogram.
    """
    base = _route(metric)[1]
    if m < 2:
        return {}
    began = time.perf_counter()
    hist = base(m)
    log.debug(
        "connected base of degree %d under %s: %d distances in %.3f s",
        m, metric.name, len(hist), time.perf_counter() - began,
    )
    return hist


# -- the beta tables ------------------------------------------------------


def radius_step(metric: MetricId) -> int:
    """Gap between attainable sphere radii: the step of the metric's route."""
    return _route(metric)[0]


def attainable_radii(metric: MetricId, max_radius: int) -> range:
    """The nonzero radii at which spheres can be nonempty, up to max_radius."""
    step = radius_step(metric)
    return range(step, max_radius + 1, step)


def connected_beta(metric: MetricId, radius: int, m: int) -> int:
    """Number of connected split-type parts of degree exactly m at this radius."""
    return connected_histogram(metric, m).get(radius, 0)


class BetaTable:
    """Memoized split-type counts beta_D(R, m, q) for a pipeline metric.

    One memoized row per (radius, m), shared by every query, maps q to beta.
    A split type is a connected first part of degree m1, at distance
    r1 >= step * (m1 - 1), followed by a split type in the row (radius - r1,
    m - m1) with one part fewer. The only base case is the empty split type
    (the row {0: 1} at radius 0, m = 0), so cells outside the support are
    simply absent from their row.
    """

    def __init__(self, metric: MetricId):
        self.metric = metric
        self.step, _, self.farthest = _route(metric)

    def beta(self, radius: int, m: int, q: int) -> int:
        # the empty split type (q = 0) seeds the rows but is no beta cell
        return self._row(radius, m).get(q, 0) if q >= 1 else 0

    @cache
    def _row(self, radius: int, m: int) -> dict[int, int]:
        # every caller shares the cached row: read it, never change it
        if radius == m == 0:
            return {0: 1}
        # no split type of degree m lies past farthest(m), by superadditivity
        if m < 0 or radius > self.farthest(m):
            return {}
        row: dict[int, int] = {}
        for m1 in range(2, min(m, radius // self.step + 1) + 1):
            hist = connected_histogram(self.metric, m1)
            reach = min(radius, self.farthest(m1))
            for r1 in range(self.step * (m1 - 1), reach + 1, self.step):
                count = hist.get(r1)
                if count:
                    for q, rest in self._row(radius - r1, m - m1).items():
                        row[q + 1] = row.get(q + 1, 0) + count * rest
        return row


@cache
def beta_table(metric: MetricId) -> BetaTable:
    return BetaTable(metric)


def beta(metric: MetricId, radius: int, m: int, q: int) -> int:
    return beta_table(metric).beta(radius, m, q)


# -- the polynomial-growth pipeline ---------------------------------------


def size_bound(metric: MetricId, radius: int) -> int:
    """N(R): a bound with m(sigma) - q(sigma) <= N(R) whenever D(sigma) <= R,
    since the q parts of sigma lie at distance at least step * (m - q)."""
    return radius // radius_step(metric)


Terms = tuple[tuple[int, int, int], ...]  # (coefficient, m, q)


@cache
def sphere_terms(metric: MetricId, radius: int, top: int) -> Terms:
    """The nonzero terms (beta(R, m, q), m, q) of the radius-R sphere with
    m <= top, by cell; top = 2R keeps them all."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    table = beta_table(metric)  # refuses a metric with no route, at radius 0 too
    began = time.perf_counter()
    built = BetaTable._row.cache_info().misses
    if radius == 0:
        terms: Terms = ((1, 0, 0),)  # the identity, whose split type is empty
    else:
        bound = size_bound(metric, radius)
        # every part has degree >= 2, so 2q <= m, and m - q <= N(R)
        cells = ((m, q) for q in range(1, min(bound, top // 2) + 1)
                 for m in range(2 * q, min(top, q + bound) + 1))
        terms = tuple((b, m, q) for m, q in cells if (b := table.beta(radius, m, q)))
    log.debug(
        "sphere terms at radius %d, m <= %d, under %s: %d cells, %d rows built in %.3f s",
        radius, top, metric.name, len(terms), BetaTable._row.cache_info().misses - built,
        time.perf_counter() - began,
    )
    return terms


def ball_terms(metric: MetricId, radius: int, top: int) -> Terms:
    """The terms of the radius-R ball with m <= top: the sphere terms summed
    over radii <= R."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # no split type with m <= top lies farther out
    radius = min(radius, _route(metric)[2](top))
    acc: dict[tuple[int, int], int] = {}
    for r in (0, *attainable_radii(metric, radius)):
        # every cell of radius r has m <= 2 * N(r) <= 2r: one key per sphere
        for c, m, q in sphere_terms(metric, r, min(top, 2 * r)):
            acc[(m, q)] = acc.get((m, q), 0) + c
    return tuple((c, m, q) for (m, q), c in acc.items())


@cache
def _falling(d: int, q: int) -> tuple[int, ...]:
    """Coefficients, ascending in n, of (n-d)(n-d-1)...(n-d-q+1)."""
    out = [1]
    for t in range(d, d + q):
        # multiply by (n - t)
        out = [a - t * b for a, b in zip([0, *out], [*out, 0])]
    return tuple(out)


def expand_terms(terms: Terms) -> tuple[tuple[int, ...], int]:
    """(a, D) with sum c * [n+q-m choose q] = (sum a_i n^i) / D as
    polynomials in n, ignoring the i < 0 guard; D = Q! for the largest q.

    [n+q-m choose q] is the falling factorial (n-d)...(n-d-q+1) over q!,
    with d = m - q, so every coefficient is an integer over Q!.
    """
    top = max((q for _, _, q in terms), default=0)
    denominator = math.factorial(top)
    a = [0] * (top + 1)
    for c, m, q in terms:
        scale = c * (denominator // math.factorial(q))
        for i, f in enumerate(_falling(m - q, q)):
            a[i] += scale * f
    return tuple(a), denominator


# A cell with m > n weighs [n+q-m choose q] = 0, so a query at degree n
# builds only the cells with m <= n. Every cell has m <= 2 N(R) <= 2R, so
# top = min(n, 2R) keeps the memo keys bounded as n grows, and a polynomial
# is the query at top = 2R: it shares its terms with every query at
# n >= 2R. Every cell built has n + q - m >= q >= 0, where the guard never
# applies, so at that n the guarded sum equals the plain polynomial of the
# same terms.
#
# A ball is its spheres summed: the ball form at R is the ball form at the
# attainable radius one step in, keyed on min(top, 2(R - step)), plus the
# sphere form at R, which is the key a sphere query at the same n uses. So a
# ball whose inner ball is built costs one vector add. A cold chain is built
# innermost first, so no call nests more than one ball deep however many
# radii the ball holds (496 for Kendall S_32). Below the forms, a
# convolution row past farthest(m) is empty without recursing.


def _sum_forms(
    first: tuple[tuple[int, ...], int], second: tuple[tuple[int, ...], int]
) -> tuple[tuple[int, ...], int]:
    """The sum of two forms, highest degree first, over the larger of their
    denominators. A form of degree Q is over Q!, so the longer form has the
    larger denominator, and the other one divides it."""
    if len(first[0]) < len(second[0]):
        first, second = second, first
    (a, d), (b, e) = first, second
    scale, skip = d // e, len(a) - len(b)
    return a[:skip] + tuple(x + scale * y for x, y in zip(a[skip:], b)), d


@cache
def _pipeline_form(
    metric: MetricId, radius: int, top: int, ball: bool
) -> tuple[tuple[int, ...], int]:
    """expand_terms of the sphere or ball terms with m <= top, its
    coefficients highest degree first, as Horner's rule reads them."""
    began = time.perf_counter()
    if ball:
        step, _, farthest = _route(metric)
        # no split type with m <= top lies past farthest(top)
        last = min(radius, farthest(top))
        last -= last % step
        form = ((0,), 1)
        # innermost first: each inner ball finds the one inside it built
        for r in range(0, last, step):
            form = _pipeline_form(metric, r, min(top, 2 * r), True)
        form = _sum_forms(form, _pipeline_form(metric, last, min(top, 2 * last), False))
        detail = ""
    else:
        terms = sphere_terms(metric, radius, top)
        a, denominator = expand_terms(terms)
        form, detail = (a[::-1], denominator), f"{len(terms)} terms of "
    log.debug(
        "pipeline %s form at radius %d, m <= %d, under %s: %sdegree %d in %.3f s",
        "ball" if ball else "sphere", radius, top, metric.name, detail, len(form[0]) - 1,
        time.perf_counter() - began,
    )
    return form


def _pipeline_count(metric: MetricId, n: int, radius: int, ball: bool) -> int:
    # a warm query is little more than this body, so it makes no call that a
    # comparison or the form's stored order can replace
    if n < 1:
        raise ValueError("n must be positive")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    top = 2 * radius
    coefficients, denominator = _pipeline_form(metric, radius, n if n < top else top, ball)
    total = 0
    for c in coefficients:
        total = total * n + c
    count, rest = divmod(total, denominator)
    if rest:
        raise ArithmeticError(
            f"pipeline count for {metric.name} at n={n}, radius={radius} is not an integer"
        )
    return count


def pipeline_sphere(metric: MetricId, n: int, radius: int) -> int:
    """Sphere cardinality via the split-type sum, exact for every n >= 1."""
    return _pipeline_count(metric, n, radius, ball=False)


def pipeline_ball(metric: MetricId, n: int, radius: int) -> int:
    """Ball cardinality via the split-type sum, exact for every n >= 1."""
    return _pipeline_count(metric, n, radius, ball=True)
