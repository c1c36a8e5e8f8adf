"""The brute-force oracle: the distance histogram of all of S_n, by a true
visit of every permutation, each as a head paired with a suffix.

It is one of the two counting routes that check each other, so of the
package it imports only ``metrics`` and ``perm``, and ``pipeline`` never
imports it; tests/test_independence.py enforces both.
"""
from __future__ import annotations

import logging
import math
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from functools import cache, partial
from itertools import chain, combinations, permutations, product

from .metrics import MetricId, distance_to_identity
from .perm import Permutation

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
