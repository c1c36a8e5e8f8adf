"""Exhaustive enumeration over S_n and the split-type counting pipeline.

Two independent counting paths live here:

* the brute-force oracle, which visits all of S_n, each permutation as a
  head paired with a suffix, and tallies the distance of every
  permutation,
* the pipeline, which counts connected parts in polynomial time, combines
  them through the composition convolution and weighs each (m, q) cell by
  the binomial [n+q-m choose q]; a query evaluates the cells it builds as
  one integer polynomial in n.

Cross-validating the two is the whole point of the package, so the pipeline
never enumerates a symmetric group and never reads the oracle's sweep.
"""
from __future__ import annotations

import logging
import math
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from functools import cache, partial
from itertools import chain, combinations, permutations, product

from .metrics import KENDALL, MetricId, distance_to_identity, max_l1
from .perm import Frozen, Permutation

log = logging.getLogger(__name__)

DEFAULT_MAX_DEGREE = 12
# Sweeps above this degree are legal (up to the cap) but get a loud warning.
_COMFORT_DEGREE = 10


class EnumerationCapError(ValueError):
    """Raised when a request would enumerate a symmetric group above the cap."""


def check_cap(n: int, cap: int) -> None:
    """Refuse an oracle sweep of S_n above ``cap``."""
    if n > cap:
        raise EnumerationCapError(f"enumerating S_{n} exceeds the configured cap of {cap}")


# -- the oracle's sweep (cached) ------------------------------------------
#
# Every sweep cuts each permutation into a head and a suffix, and pairs
# each head with each suffix it fits: every permutation is one head entry
# paired with one suffix entry, tallied at d + t (max(d, t) for linf) for
# head distance d and suffix distance t. No list is ever deduplicated or a
# histogram, which would merge permutations at equal distance.
#
# l1, lp, Hamming and linf split at ``split``: the head is the first
# positions, the suffix the last k, with positions and values over 0..n-1.
# Their lists fold the position costs of each arrangement (sum, or max for
# linf), one list of heads and one of suffixes per value set.
#
# Kendall and Cayley build each permutation by its insertion code: values
# 1..n go in one at a time, value i into one of i places, and place c costs
# _STEPS[kind](i)[c]. For Kendall, i put with c values after it opens c
# inversions (inversion tables; Knuth, TAOCP vol. 3, 5.1.1). For Cayley, i
# is a new cycle (cost 0) or follows one of the i - 1 values already placed
# in its cycle (cost 1), so n minus the number of cycles is the sum of the
# steps (Stanley, EC1, Prop. 1.3.7). The first k insertions form a
# permutation of S_k, so the suffix is one list per sweep, the distances of
# S_k itself, and each head is a code for the values k+1..n.
#
# The lists are built by shift and join, not by one fold per arrangement.
# In itertools.permutations order, the list of a value tuple from position
# i is the join, for each value v in turn, of the list of the other values
# from position i + 1 with cost[i][v] folded into every entry. A byte list
# folds c in with one bytes.translate through a 256-byte table, t -> t + c
# (max(c, t) for linf). A sub-list depends only on its position and its
# values, so a sweep builds each once and shares it among every value set
# that holds it: l1 S_10 makes 5,100 translates for its 60,480 list
# entries, and every list still holds one entry per arrangement. A table
# would wrap past 255 without an error, so a byte sweep whose top (the fold
# of each position's largest cost) passes 255 is refused before it starts;
# under the default cap the largest top is l1 S_12's 102.
#
# The suffix lists are bytes, and a _Tally counts them in C. A walker hands
# it a suffix list and its head distances as bytes, one per head, and for
# each head distance d the tally queues the list, repeated once per head at
# d, under the key (d, values), where values is the set of distances the
# list holds. A flush joins each queue and runs bytes.count once for each
# value of its key. That is one pass per value, where a Python loop takes
# one step per entry, and no pass looks for a value its lists cannot hold:
# an l1 head at distance d meets only the even suffix distances of its own
# value set. Counts are never multiplied by the heads sharing a list: the
# repeats are real bytes, so the count still runs over one entry per
# permutation. lp with p >= 2 takes int lists from the same builder, and
# its tally adds d + t entry by entry as each list comes in: its suffix
# lists hold many distinct values (33 at lp:2 S_6, 179 at S_10), and its
# byte path was 1.05 to 2.5 times slower at every size measured
# (BENCH_oracle.json, "tally_paths" and the fourth record). Either way the
# tally alone counts the leaves, and the sweep checks that they are n!.

# A position histogram longer than this (lp with a large p) is a dict.
_LIST_HISTOGRAM_LIMIT = 1 << 20
# Queued byte suffix lists are counted once they hold this many bytes.
_FLUSH_BYTES = 1 << 20

Fold = Callable[[Iterable[int]], int]
_BYTES = bytes(range(256))


def _nonzero(hist) -> dict[int, int]:
    pairs = hist.items() if isinstance(hist, dict) else enumerate(hist)
    return {d: c for d, c in pairs if c}


class _Tally:
    """The leaves of one sweep, by distance.

    ``add`` takes the head distances of a suffix list and the list. When
    ``packed`` it queues a byte suffix list under (d, values) once for each
    head at distance d, where values is the set of values in the list, and
    a flush adds ``data.count(t)`` to ``hist[fold((d, t))]`` for each t in
    values, where ``data`` joins that key's queue; ``passes`` counts those
    bytes.count calls and ``leaves`` the bytes of every joined queue.
    Unless ``packed``, ``add`` adds d + t for each head and suffix entry at
    once, and counts them in ``leaves``."""

    def __init__(self, top: int, fold: Fold, packed: bool = True):
        self.hist = [0] * (top + 1) if top < _LIST_HISTOGRAM_LIMIT else defaultdict(int)
        self.fold = fold
        self.packed = packed
        self.waiting: defaultdict[tuple[int, frozenset[int]], list[bytes]] = defaultdict(list)
        self.size = self.flushes = self.passes = self.leaves = 0

    def add(self, heads: bytes | list[int], data: bytes | list[int]) -> None:
        """Tally ``data`` once for each head distance in ``heads``. When
        ``packed``, the heads at one distance queue ``data`` repeated, in
        pieces that fill at most the room left under _FLUSH_BYTES (one copy
        if ``data`` is longer). The queue is flushed once it has no room for
        another copy, so a piece that fills it is counted as it stands,
        without a join."""
        length = len(data)
        if not self.packed:
            hist = self.hist
            for d in heads:
                for t in data:
                    hist[d + t] += 1
            self.leaves += len(heads) * length
            return
        values = frozenset(data)
        for d in set(heads):
            copies = heads.count(d)
            while copies:
                piece = min(copies, max(1, (_FLUSH_BYTES - self.size) // length))
                self.waiting[d, values].append(data * piece)
                self.size += length * piece
                copies -= piece
                if self.size + length > _FLUSH_BYTES:
                    self.flush()

    def flush(self) -> None:
        hist, fold = self.hist, self.fold
        for (d, values), lists in self.waiting.items():
            data = b"".join(lists)
            for t in values:
                hist[fold((d, t))] += data.count(t)
            self.passes += len(values)
            self.leaves += len(data)
        self.waiting.clear()
        self.size = 0
        self.flushes += 1

    def counts(self) -> dict[int, int]:
        """Flush what still waits; the nonzero counts by distance."""
        if self.waiting:
            self.flush()
        return _nonzero(self.hist)


def _split(n: int) -> int:
    """Length of the head: the last n // 2 positions, and at least one,
    form the suffix (k = 5 of 10, 4 of 9)."""
    return n - max(1, n // 2)


def _position_costs(metric: MetricId, n: int) -> list[list[int]]:
    """cost[i][v]: what value v at position i contributes."""
    if metric.kind == "hamming":
        return [[int(v != i) for v in range(n)] for i in range(n)]
    p = metric.p or 1
    return [[abs(v - i) ** p for v in range(n)] for i in range(n)]


@cache
def _shift_table(c: int, fold: Fold) -> bytes:
    """The bytes.translate table that folds cost c into each byte t: t + c,
    or max(c, t) for linf. Entries whose sum would pass 255 are zero and
    never read, since a byte sweep's top is at most 255."""
    if fold is max:
        return bytes((c,)) * c + _BYTES[c:]
    return _BYTES[c:] + bytes(c)


def _arrangement_lists(
    cost: list[list[int]], fold: Fold, packed: bool
) -> Callable[[int, tuple[int, ...]], bytes | list[int]]:
    """The list builder of one sweep: ``build(i, values)`` lists, for each
    arrangement of ``values`` over positions i, i+1, ..., in
    ``itertools.permutations`` order, the ``fold`` of its position costs,
    as bytes when ``packed`` and else as ints (sum only); no values cost
    nothing. It builds each sub-list once (see the note on shift and join)
    and keeps none of the lists it returns."""
    memo: dict[tuple[int, tuple[int, ...]], bytes | list[int]] = {}

    def build(i: int, values: tuple[int, ...]) -> bytes | list[int]:
        if len(values) < 2:
            c = cost[i][values[0]] if values else 0
            return bytes((c,)) if packed else [c]
        row, parts = cost[i], []
        for j, v in enumerate(values):
            rest = values[:j] + values[j + 1 :]
            sub = memo.get((i + 1, rest))
            if sub is None:
                sub = memo[i + 1, rest] = build(i + 1, rest)
            c = row[v]
            parts.append(sub.translate(_shift_table(c, fold)) if packed else [c + t for t in sub])
        return b"".join(parts) if packed else list(chain.from_iterable(parts))

    return build


def _group_suffix(metric: MetricId, k: int) -> bytes:
    """The distance of every permutation of S_k, in ``itertools.permutations``
    order: the suffix list of the Kendall and Cayley sweeps, which is the
    same for every head."""
    return bytes(distance_to_identity(metric, Permutation(w)) for w in permutations(range(1, k + 1)))


def _walk_costs(metric: MetricId, n: int, packed: bool = True) -> _Tally:
    """l1, lp, Hamming and linf: value v at position i costs cost[i][v],
    and the distance folds the costs, by sum (max for linf). The head and
    suffix lists are bytes when ``packed``; otherwise they are ints, which
    serves the sum metrics only."""
    cost = _position_costs(metric, n)
    fold = max if metric.kind == "linf" else sum
    top = fold(map(max, cost))
    if packed and top > 255:
        raise ValueError(f"{metric.name} distances on S_{n} may reach {top}; a byte list holds 255")
    split = _split(n)
    build = _arrangement_lists(cost, fold, packed)
    tally = _Tally(top, fold, packed)
    for placed in combinations(range(n), split):
        heads = build(0, placed)
        suffix = build(split, tuple(v for v in range(n) if v not in placed))
        tally.add(heads, suffix)
    return tally


# The cost of each of the i places of value i in an insertion code, by
# kind; see the note on the oracle's sweep.
_STEPS = {
    "kendall": range,
    "cayley": lambda i: (0,) + (1,) * (i - 1),
}


def _walk_codes(metric: MetricId, n: int) -> _Tally:
    """Kendall and Cayley: the first k insertions, a permutation of S_k,
    are the suffix list shared by every head; the heads are the codes of
    the values k+1..n, each at the sum of its step costs, all queued in one
    add."""
    step = _STEPS[metric.kind]
    k = n - _split(n)
    suffix = _group_suffix(metric, k)
    tally = _Tally(sum(max(step(i)) for i in range(1, n + 1)), sum)
    heads = bytes(map(sum, product(*map(step, range(k + 1, n + 1)))))
    tally.add(heads, suffix)
    return tally


# lp with p >= 2 tallies entry by entry; see the note on byte lists.
_WALKS = {
    "l1": _walk_costs,
    "lp": partial(_walk_costs, packed=False),
    "hamming": _walk_costs,
    "linf": _walk_costs,
    "kendall": _walk_codes,
    "cayley": _walk_codes,
}


@cache
def _sweep_group(metric: MetricId, n: int) -> dict[int, int]:
    perms = math.factorial(n)
    if n > _COMFORT_DEGREE:
        log.warning("enumerating S_%d (%d permutations); this may take a while", n, perms)
    began = time.perf_counter()
    tally = _WALKS[metric.kind](metric, n)
    hist = tally.counts()
    seconds = time.perf_counter() - began
    log.debug(
        "oracle sweep of S_%d under %s: %d permutations in %.3f s (%.0f per second), "
        "%s tally, %d flushes, %d count passes, %d leaves",
        n, metric.name, perms, seconds, perms / max(seconds, 1e-9),
        "bytes" if tally.packed else "entries", tally.flushes, tally.passes, tally.leaves,
    )
    if tally.leaves != perms:
        raise ArithmeticError(
            f"the oracle sweep of S_{n} under {metric.name} counted {tally.leaves} leaves, not {perms}"
        )
    return hist


def group_histogram(metric: MetricId, n: int, *, cap: int = DEFAULT_MAX_DEGREE) -> dict[int, int]:
    """Distance histogram of all of S_n (the oracle's sweep), for n <= cap."""
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(n, cap)
    return _sweep_group(metric, n)


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


# -- oracle ---------------------------------------------------------------


def oracle_sphere(metric: MetricId, n: int, radius: int, *, cap: int = DEFAULT_MAX_DEGREE) -> int:
    """Exact #{u in S_n : D(u) = radius} by exhaustive enumeration."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return group_histogram(metric, n, cap=cap).get(radius, 0)


def oracle_ball(metric: MetricId, n: int, radius: int, *, cap: int = DEFAULT_MAX_DEGREE) -> int:
    """Exact #{u in S_n : D(u) <= radius} by exhaustive enumeration."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return sum(c for d, c in group_histogram(metric, n, cap=cap).items() if d <= radius)


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


# -- reports --------------------------------------------------------------


class CountReport(Frozen):
    """A pipeline count paired with an optional oracle count and verdict."""

    __slots__ = ("metric", "n", "radius", "pipeline_count", "oracle_count")
    metric: str
    n: int
    radius: int
    pipeline_count: int | None
    oracle_count: int | None

    def __init__(
        self, metric: str, n: int, radius: int, pipeline_count: int | None, oracle_count: int | None
    ) -> None:
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "pipeline_count", pipeline_count)
        object.__setattr__(self, "oracle_count", oracle_count)

    @property
    def match(self) -> bool | None:
        if self.pipeline_count is None or self.oracle_count is None:
            return None
        return self.pipeline_count == self.oracle_count

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "n": self.n,
            "radius": self.radius,
            "pipeline": None if self.pipeline_count is None else str(self.pipeline_count),
            "oracle": None if self.oracle_count is None else str(self.oracle_count),
            "match": self.match,
        }


def count_report(
    metric: MetricId, n: int, radius: int, *, ball: bool = False, method: str = "pipeline",
    cap: int = DEFAULT_MAX_DEGREE,
) -> CountReport:
    """Run the requested counting method(s) and package the result."""
    if method not in ("pipeline", "oracle", "both"):
        raise ValueError(f"unknown method {method!r}")
    pipeline = oracle = None
    if method in ("pipeline", "both"):
        fn = pipeline_ball if ball else pipeline_sphere
        pipeline = fn(metric, n, radius)
    if method in ("oracle", "both"):
        fn = oracle_ball if ball else oracle_sphere
        oracle = fn(metric, n, radius, cap=cap)
    return CountReport(metric.name, n, radius, pipeline, oracle)
