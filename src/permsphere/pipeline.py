"""The split-type pipeline: it counts connected parts in polynomial time,
combines them through the composition convolution and weighs each (m, q)
cell by the binomial [n+q-m choose q]; a query, pipeline_sphere or
pipeline_ball, evaluates the cells it builds as one integer polynomial in n.

It is one of the two counting routes that check each other, so it never
enumerates a symmetric group and never reads the oracle's sweep: of the
package it imports only ``metrics`` (and, through it, ``perm``);
tests/test_independence.py enforces that.
"""
from __future__ import annotations

import logging
import math
import time
from collections import namedtuple
from functools import cache
from itertools import accumulate
from operator import mul

from .metrics import MetricId, max_kendall, max_l1

log = logging.getLogger(__name__)


def _l1_connected(degrees: int, radius: int) -> list[dict[int, int]]:
    """Total displacement over the connected permutations of S_m, for every
    m <= degrees and up to radius, by one scan of positions (Diaconis and
    Graham; Guay-Paquet and Petersen).

    After position i the state k counts the positions <= i holding values
    > i, which is also the number of values <= i placed after i. Position i
    and value i either pair with each other, or each takes one of the k
    open values or positions, or stays open: k -> k+1 in 1 way, k -> k in
    2k+1 ways, k -> k-1 in k^2 ways. The k open positions and the k open
    values all cross the gap after i, so each step adds 2k to the distance.
    A word is connected when k = 0 after its last position and no other, so
    the mass back at k = 0 after position i is the degree-i histogram, and
    leaves the scan. A state is kept only if it can still close by position
    degrees (k <= degrees - i) and within radius (closing adds k(k-1)).
    """
    hists: list[dict[int, int]] = [{}]
    states = {(0, 0): 1}  # (k, distance) -> count
    for i in range(1, degrees + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (k, d), count in states.items():
            for k2, ways in ((k + 1, 1), (k, 2 * k + 1), (k - 1, k * k)):
                d2 = d + 2 * k2
                if 0 <= k2 <= degrees - i and d2 + k2 * (k2 - 1) <= radius:
                    nxt[k2, d2] = nxt.get((k2, d2), 0) + count * ways
        hists.append({d: count for (k, d), count in nxt.items() if not k})
        states = {key: count for key, count in nxt.items() if key[0]}
    return hists


def _kendall_connected(degrees: int, radius: int) -> list[dict[int, int]]:
    """Inversions over the connected permutations of S_m, for every
    m <= degrees and up to radius, by Comtet's inversion of
    [m]_q! = sum_j C_j(q) [m-j]_q!: a permutation is its first connected
    part, of degree j, followed by any permutation of the rest. It works mod
    q^(radius+1), where no part has degree above radius + 1."""
    top = min(degrees, radius + 1)
    # [n]_q! = [n-1]_q! (1 + q + ... + q^(n-1)), the inversion counts of S_n
    factorials = [[1]]
    for n in range(1, top + 1):
        sums = [0, *accumulate(factorials[-1])]
        factorials.append([sums[min(d + 1, len(sums) - 1)] - sums[max(d + 1 - n, 0)]
                           for d in range(min(len(sums) + n - 2, radius + 1))])
    connected: list[list[int]] = [[]]
    for m in range(1, top + 1):
        total = factorials[m][:]
        for j in range(1, m):
            rest = factorials[m - j]
            for d1, c1 in enumerate(connected[j]):
                if c1:
                    for d2, c2 in enumerate(rest[:len(total) - d1], d1):
                        total[d2] -= c1 * c2
        connected.append(total)
    return [{d: c for d, c in enumerate(row) if c} for row in connected] + [{}] * (degrees - top)


# The split-type pipeline's route per kind, a Route of three fields. Each
# metric adds over concatenation, and a connected part of degree m lies at
# distance at least step * (m - 1), which bounds the parts of a split type
# inside a ball; the step is also the gap between attainable radii.
# base(degrees, radius) scans the connected histograms of every degree up to
# degrees, at distances up to radius. farthest(m) is the largest distance in
# S_m, 0 at m = 0, and farthest(a) + farthest(b) <= farthest(a + b), so it
# also bounds the distance of a whole split type of degree m.
Route = namedtuple("Route", "step base farthest")
_ROUTES = {
    "l1": Route(2, _l1_connected, max_l1),
    "kendall": Route(1, _kendall_connected, max_kendall),
}


def _route(metric: MetricId) -> Route:
    try:
        return _ROUTES[metric.kind]
    except KeyError:
        raise ValueError(f"no split-type pipeline for {metric.name}; {' and '.join(_ROUTES)} only") from None


# The latest scan of each base: kind -> (degrees, radius, histograms by
# degree), the memo behind connected_histogram. A read it does not cover
# scans again, at that read's own degree and distance, so one deep read does
# not widen every later scan. A growing table reads its q = 1 rows widest
# first, all at one radius, so the later reads of a growth are covered: a
# cold build, and the verify matrix, scan once, at exact bounds, and a build
# grown a step at a time scans once per step, at that step's bounds.
_scans: dict[str, tuple[int, int, list[dict[int, int]]]] = {}


def connected_histogram(metric: MetricId, m: int, radius: int | None = None) -> dict[int, int]:
    """Distance histogram of the connected permutations of S_m, for a
    pipeline metric, computed without enumerating S_m; with a radius, only
    its distances <= radius. Degree-1 words never occur as split-type parts,
    so m < 2 yields an empty histogram."""
    route = _route(metric)
    if m < 2:
        return {}
    # no word of S_m lies past farthest(m): the whole histogram is the cut there
    need = route.farthest(m) if radius is None else radius
    degrees, bound, hists = _scans.get(metric.kind, (0, 0, []))
    if m > degrees or need > bound:
        began = time.perf_counter()
        hists = route.base(m, need)
        _scans[metric.kind] = m, need, hists
        log.debug(
            "connected base up to degree %d, distances <= %d, under %s: %d distances in %.3f s",
            m, need, metric.name, sum(map(len, hists[2:])), time.perf_counter() - began,
        )
    return {d: c for d, c in hists[m].items() if d <= need}


# -- the beta tables ------------------------------------------------------


def radius_step(metric: MetricId) -> int:
    """Gap between attainable sphere radii: the step of the metric's route."""
    return _route(metric).step


def attainable_radii(metric: MetricId, max_radius: int) -> range:
    """The nonzero radii at which spheres can be nonempty, up to max_radius."""
    step = radius_step(metric)
    return range(step, max_radius + 1, step)


def connected_beta(metric: MetricId, radius: int, m: int) -> int:
    """Number of connected split-type parts of degree exactly m at this radius."""
    return connected_histogram(metric, m, radius).get(radius, 0)


class BetaTable:
    """Split-type counts beta_D(R, m, q) for a pipeline metric, in one table
    that every query shares and grows in place.

    A connected part of degree m1 lies at distance step * (s1 + e1): size
    s1 = m1 - 1 and excess e1 >= 0. So q parts have size s = m - q and
    total t = s + e = R / step, and row (q, s) lists their cells by excess:
    the rows with q - 1 parts times one more part, built bottom up. The table
    holds every cell with t <= total and s <= size, and growing it computes
    only the cells it lacks. A row ends at the largest total it reaches, so
    a read past that, or past farthest(m), is 0 and grows nothing.
    """

    def __init__(self, metric: MetricId):
        self.metric = metric
        route = _route(metric)
        self.step, self.farthest = route.step, route.farthest
        self.total = self.size = self.cells = 0
        self.rows: dict[tuple[int, int], list[int]] = {}

    def _last(self, q: int, s: int) -> int:
        # farthest is convex: q parts of size s lie no farther than one of
        # degree s - q + 2 and q - 1 transpositions
        return (self.farthest(s - q + 2) + (q - 1) * self.farthest(2)) // self.step

    def beta(self, radius: int, m: int, q: int) -> int:
        s = m - q
        t, odd = divmod(radius, self.step)
        # every part has degree >= 2, so s >= q; the empty split type is no cell
        if q < 1 or s < q or odd or t < s:
            return 0
        if t > self.total or s > self.size:
            if t > self._last(q, s):
                return 0
            self._grow(t, s)
        row = self.rows[q, s]
        return row[t - s] if t - s < len(row) else 0

    def _grow(self, total: int, size: int) -> None:
        """Hold every cell with t <= total and s <= size. beta grows only for a read
        with s <= t <= _last(q, s) <= farthest(s + 1) // step, so the table keeps
        size <= total <= farthest(size + 1) // step."""
        self.total, self.size = max(self.total, total), max(self.size, size)
        # fewer parts first, as a row reads the rows with one part fewer, and
        # the largest part first, so that one scan of the base serves them all;
        # a row an earlier total cut resumes at its length, a whole one is skipped
        for q in range(1, self.size + 1):
            for s in range(self.size, q - 1, -1):
                row = self.rows.setdefault((q, s), [])
                end = min(self.total, self._last(q, s)) - s
                if len(row) > end:
                    continue
                self.cells += end + 1 - len(row)
                if q == 1:
                    hist = connected_histogram(self.metric, s + 1, self.step * self.total)
                    row += [hist.get(self.step * (s + e), 0) for e in range(len(row), end + 1)]
                else:
                    row += self._convolve(q, s, len(row), end)

    def _convolve(self, q: int, s: int, lo: int, hi: int) -> list[int]:
        """Excesses lo..hi of row (q, s): a part of size s1, then q - 1 parts."""
        out = [0] * (hi - lo + 1)
        for s1 in range(1, s - q + 2):
            part, rest = self.rows[1, s1], self.rows[q - 1, s - s1]
            if lo == hi:  # one new cell, as a table grown a step at a time adds
                j, k = max(0, hi + 1 - len(part)), min(len(rest), hi + 1)
                out[0] += sum(map(mul, part[hi + 1 - k:hi + 1 - j], reversed(rest[j:k])))
                continue
            for i, x in enumerate(part[:hi + 1]):
                j = max(lo - i, 0)
                for k, y in enumerate(rest[j:hi - i + 1], i + j - lo):
                    out[k] += x * y
        return out


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


def sphere_terms(metric: MetricId, radius: int, top: int) -> Terms:
    """The nonzero terms (beta(R, m, q), m, q) of the radius-R sphere with
    m <= top, by cell; top = 2R keeps them all. A radius off the metric's
    step has no terms."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    bound, off = divmod(radius, radius_step(metric))
    if off:
        return ()
    # every cell has m <= 2 N(R): one memo key per sphere above that
    return _sphere_terms(metric, radius, min(top, 2 * bound))


@cache
def _sphere_terms(metric: MetricId, radius: int, top: int) -> Terms:
    table = beta_table(metric)
    began, built = time.perf_counter(), table.cells
    if radius == 0:
        terms: Terms = ((1, 0, 0),)  # the identity, whose split type is empty
    else:
        bound = size_bound(metric, radius)
        # the widest cell, q = 1 and s = min(top - 1, N(R)) at t = N(R), grows
        # the table to hold every cell of this sphere, so the base is scanned once
        table.beta(radius, min(top, 1 + bound), 1)
        # every part has degree >= 2, so 2q <= m <= top <= 2 N(R), and m - q <= N(R)
        cells = ((m, q) for q in range(1, top // 2 + 1)
                 for m in range(2 * q, min(top, q + bound) + 1))
        terms = tuple((b, m, q) for m, q in cells if (b := table.beta(radius, m, q)))
    log.debug(
        "sphere terms at radius %d, m <= %d, under %s: %d cells, %d cells built in %.3f s",
        radius, top, metric.name, len(terms), table.cells - built, time.perf_counter() - began,
    )
    return terms


def _outermost(metric: MetricId, radius: int, top: int) -> int:
    """The outermost attainable radius of the radius-R ball with m <= top."""
    # no split type with m <= top lies past farthest(top)
    last = min(radius, _route(metric).farthest(top))
    return last - last % radius_step(metric)


def ball_terms(metric: MetricId, radius: int, top: int) -> Terms:
    """The terms of the radius-R ball with m <= top: the sphere terms summed
    over radii <= R."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    radius = _outermost(metric, radius, top)
    # the outermost sphere first, so the table grows once
    sphere_terms(metric, radius, top)
    acc: dict[tuple[int, int], int] = {}
    for r in (0, *attainable_radii(metric, radius)):
        for c, m, q in sphere_terms(metric, r, top):
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


# A query, pipeline_sphere or pipeline_ball, is one frame: it reads its form
# and runs Horner's rule. A cell with m > n weighs
# [n+q-m choose q] = 0, so a query at degree n builds only the cells with
# m <= n. Every cell has m <= 2 N(R) <= 2R, so
# top = min(n, 2R) keeps the memo keys bounded as n grows, and a polynomial
# is the query at top = 2R: it shares its terms with every query at
# n >= 2R. Every cell built has n + q - m >= q >= 0, where the guard never
# applies, so at that n the guarded sum equals the plain polynomial of the
# same terms.
#
# A ball is its spheres summed: the ball form at R is the ball form at the
# attainable radius one step in, keyed on min(top, 2(R - step)), plus the
# sphere form at R, which is the key a sphere query at the same n uses. So a
# ball whose inner ball is built costs one vector add. A cold ball builds its
# outermost sphere form first, whose widest cell grows the table to hold
# every inner sphere's cells. It then walks inward to the nearest ball form
# built and builds the balls outward from there, each reading the one inside
# it once, so no call nests more than one ball deep however many radii the
# ball holds (496 for Kendall S_32), and a ball one radius past a built one
# builds only its own two forms. Below the forms, a cell past farthest(m)
# reads 0 without growing the table.


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


# (metric, radius, top, ball) -> form: the memo behind _pipeline_form, and
# what pipeline_sphere and pipeline_ball read first; a dict so that a cold
# ball can find the nearest ball form built
_forms: dict[tuple[MetricId, int, int, bool], tuple[tuple[int, ...], int]] = {}


def _pipeline_form(
    metric: MetricId, radius: int, top: int, ball: bool
) -> tuple[tuple[int, ...], int]:
    """expand_terms of the sphere or ball terms with m <= top, its
    coefficients highest degree first, as Horner's rule reads them."""
    key = metric, radius, top, ball
    if key in _forms:
        return _forms[key]
    began = time.perf_counter()
    if ball:
        step, last = radius_step(metric), _outermost(metric, radius, top)
        # the outermost sphere first: it grows the table once, so every inner
        # sphere finds its cells built
        outer = _pipeline_form(metric, last, min(top, 2 * last), False)
        # inward to the nearest ball built, then outward: each inner ball
        # finds the one inside it built
        r = last - step
        while r >= 0 and (metric, r, min(top, 2 * r), True) not in _forms:
            r -= step
        form = _forms[metric, r, min(top, 2 * r), True] if r >= 0 else ((0,), 1)
        for r in range(r + step, last, step):
            form = _pipeline_form(metric, r, min(top, 2 * r), True)
        form = _sum_forms(form, outer)
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
    _forms[key] = form
    return form


def _query(ball: bool, name: str, doc: str):
    """pipeline_ball if ball, else pipeline_sphere, as one frame: a warm query
    is little more than this body, so it makes no call that a comparison or
    the form's stored order can replace."""

    def query(metric: MetricId, n: int, radius: int) -> int:
        if n < 1:
            raise ValueError("n must be positive")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        top = 2 * radius
        key = metric, radius, n if n < top else top, ball
        try:
            coefficients, denominator = _forms[key]
        except KeyError:
            coefficients, denominator = _pipeline_form(*key)
        total = 0
        for c in coefficients:
            total = total * n + c
        count, rest = divmod(total, denominator)
        if rest:
            raise ArithmeticError(
                f"pipeline count for {metric.name} at n={n}, radius={radius} is not an integer"
            )
        return count

    query.__name__ = query.__qualname__ = name
    query.__doc__ = doc
    return query


pipeline_sphere = _query(
    False, "pipeline_sphere", "Sphere cardinality via the split-type sum, exact for every n >= 1."
)
pipeline_ball = _query(
    True, "pipeline_ball", "Ball cardinality via the split-type sum, exact for every n >= 1."
)
