"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from scratch against the raw
definitions (itertools sweeps, prefix checks, BFS in the Cayley graph)
so the tests never validate the library against itself.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator


def words(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(1, n + 1))


def word_is_connected(w: tuple[int, ...]) -> bool:
    """No proper prefix of the word closes on an initial segment."""
    for i in range(1, len(w)):
        if max(w[:i]) <= i:
            return False
    return True


def word_l1(w: tuple[int, ...]) -> int:
    return sum(abs(v - i) for i, v in enumerate(w, 1))


def word_inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def word_lp(p: int):
    """The p-th power of the lp distance to the identity."""
    return lambda w: sum(abs(v - i) ** p for i, v in enumerate(w, 1))


def word_linf(w: tuple[int, ...]) -> int:
    return max(abs(v - i) for i, v in enumerate(w, 1))


def word_hamming(w: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(w, 1) if v != i)


def word_pair_distance(kind: str, u: tuple[int, ...], v: tuple[int, ...], p: int = 1) -> int:
    """Positionwise distance between two words, the shorter one padded with
    fixed points: l1, the p-th power of lp, linf or Hamming."""
    n = max(len(u), len(v))
    u = u + tuple(range(len(u) + 1, n + 1))
    v = v + tuple(range(len(v) + 1, n + 1))
    gaps = [abs(a - b) for a, b in zip(u, v)]
    if kind == "linf":
        return max(gaps, default=0)
    if kind == "hamming":
        return sum(1 for g in gaps if g)
    return sum(g**p for g in gaps)


def word_cayley(w: tuple[int, ...]) -> int:
    """Fewest transpositions: moved points minus nontrivial cycles."""
    return word_hamming(w) - word_cycles(w)


def word_histogram(dist, n: int) -> dict[int, int]:
    """Distance histogram of all of S_n, by a full sweep."""
    hist: dict[int, int] = {}
    for w in words(n):
        d = dist(w)
        hist[d] = hist.get(d, 0) + 1
    return hist


def brute_connected_histogram(dist, m: int) -> dict[int, int]:
    """Distance histogram of the connected words of S_m, by a full sweep."""
    hist: dict[int, int] = {}
    for w in words(m):
        if word_is_connected(w):
            d = dist(w)
            hist[d] = hist.get(d, 0) + 1
    return hist


def mahonian(n: int) -> list[int]:
    """Permutations of S_n by inversion count: M(n, k) is the sum of
    M(n-1, k-j) over the j <= n-1 inversions the last value can add."""
    row = [1]
    for size in range(2, n + 1):
        row = [
            sum(row[k - j] for j in range(size) if 0 <= k - j < len(row))
            for k in range(len(row) + size - 1)
        ]
    return row


def stirling_cycles(n: int) -> list[int]:
    """Unsigned Stirling numbers of the first kind: c(n, k) permutations of
    S_n have k cycles, since c(n, k) = (n-1) c(n-1, k) + c(n-1, k-1)."""
    row = [1]
    for size in range(1, n + 1):
        row = [(size - 1) * (row[k] if k < len(row) else 0) + (row[k - 1] if k else 0)
               for k in range(size + 1)]
    return row


def rencontres(n: int) -> list[int]:
    """Permutations of S_n with exactly k moved points: C(n, k) D_k, with
    the derangement numbers D_k = (k-1)(D_{k-1} + D_{k-2})."""
    derangements = [1, 0]
    for k in range(2, n + 1):
        derangements.append((k - 1) * (derangements[-1] + derangements[-2]))
    return [math.comb(n, k) * derangements[k] for k in range(n + 1)]


def word_cycles(w: tuple[int, ...]) -> int:
    """Number of nontrivial cycles."""
    seen = [False] * len(w)
    cycles = 0
    for i in range(len(w)):
        if not seen[i] and w[i] != i + 1:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = w[j] - 1
    return cycles


def word_split_type(w: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The nontrivial connected slices of the word, each rebased to 1."""
    cuts = [0] + [i for i in range(1, len(w)) if max(w[:i]) <= i] + [len(w)]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo >= 2:
            parts.append(tuple(v - lo for v in w[lo:hi]))
    return tuple(parts)


def concat_words(parts: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    out: list[int] = []
    for p in parts:
        offset = len(out)
        out.extend(v + offset for v in p)
    return tuple(out)


def compositions(total: int, q: int, minimum: int = 1) -> Iterator[tuple[int, ...]]:
    """Ordered ways to write ``total`` as q parts, each >= minimum."""
    if q == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (q - 1) + 1):
        for rest in compositions(total - first, q - 1, minimum):
            yield (first,) + rest


def direct_split_type_counts(dist, m: int) -> dict[tuple[int, int], int]:
    """Count split types of total degree m by assembling connected parts.

    Returns a map (distance, q) -> count, where the distance is computed on
    the fully assembled word (not summed over parts), so this path does not
    assume additivity.
    """
    connected: dict[int, list[tuple[int, ...]]] = {}
    for size in range(2, m + 1):
        connected[size] = [w for w in words(size) if word_is_connected(w)]
    counts: dict[tuple[int, int], int] = {}
    for q in range(1, m // 2 + 1):
        for sizes in compositions(m, q, minimum=2):
            for parts in itertools.product(*(connected[s] for s in sizes)):
                d = dist(concat_words(parts))
                key = (d, q)
                counts[key] = counts.get(key, 0) + 1
    return counts


def bfs_word_distance(target: tuple[int, ...], moves) -> int:
    """Length of the shortest product of ``moves`` reaching ``target``.

    ``moves`` maps a word to its neighbors; used to validate the Kendall
    (adjacent swaps) and Cayley (arbitrary swaps) formulas on small groups.
    """
    start = tuple(range(1, len(target) + 1))
    if target == start:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        word, depth = queue.popleft()
        for nxt in moves(word):
            if nxt == target:
                return depth + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    raise AssertionError("unreachable permutation")


def adjacent_swaps(w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    for i in range(len(w) - 1):
        yield w[:i] + (w[i + 1], w[i]) + w[i + 2 :]


def all_swaps(w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            lst = list(w)
            lst[i], lst[j] = lst[j], lst[i]
            yield tuple(lst)


def rational_expansion(terms: Iterable[tuple[int, int, int]]) -> list[Fraction]:
    """Ascending monomial coefficients of sum c * binom(n+q-m, q), without
    the i < 0 guard, multiplying in one linear factor at a time over exact
    rationals: the reference for ``pipeline.expand_terms``."""
    coeffs = [Fraction(0)]
    for c, m, q in terms:
        # binom(n+q-m, q) = (1/q!) * prod_{t=0..q-1} (n + q - m - t)
        term = [Fraction(c, math.factorial(q))]
        for t in range(q):
            shifted = [Fraction(0)] * (len(term) + 1)
            for i, x in enumerate(term):
                shifted[i + 1] += x
                shifted[i] += x * (q - m - t)
            term = shifted
        width = max(len(coeffs), len(term))
        coeffs = [
            (coeffs[i] if i < len(coeffs) else 0) + (term[i] if i < len(term) else 0)
            for i in range(width)
        ]
    return coeffs
