"""Right-invariant distances on permutations.

All radii are exact integers in each metric's native scale: for ``lp:<p>``
the native value is the p-th power of the distance, so no roots are ever
taken.  Trailing fixed points contribute nothing to any of the metrics,
which makes every distance well defined on the infinite symmetric group.
"""
from __future__ import annotations

from collections.abc import Sequence

from .perm import Frozen, Permutation

_KINDS = ("l1", "lp", "linf", "hamming", "cayley", "kendall")
_INTERNED: dict[tuple[str, int | None], MetricId] = {}


class MetricId(Frozen):
    """Identifier for one of the supported right-invariant metrics.

    There is one instance per metric: ``MetricId(kind, p)`` validates its
    arguments and returns the interned instance, so equality and hashing are
    the object defaults and a memo lookup on a metric costs no Python call.
    A pickle rebuilds the metric from its fields, so it unpickles to the
    interned instance in any process.
    """

    __slots__ = ("kind", "p")
    kind: str
    p: int | None
    # identity, not the record's field-wise comparison (see the docstring)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, kind: str, p: int | None = None) -> MetricId:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; expected one of {_KINDS}")
        if kind == "lp":
            # exactly int: True and 2.0 would find lp:1 and lp:2 in the table
            if type(p) is not int or p < 1:
                raise ValueError("lp metric requires an integer exponent p >= 1")
        elif p is not None:
            raise ValueError(f"metric {kind!r} takes no exponent")
        metric = _INTERNED.get((kind, p))
        if metric is None:
            metric = object.__new__(cls)
            object.__setattr__(metric, "kind", kind)
            object.__setattr__(metric, "p", p)
            metric = _INTERNED.setdefault((kind, p), metric)
        return metric

    @property
    def name(self) -> str:
        return f"lp:{self.p}" if self.kind == "lp" else self.kind

    def __str__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, text: str) -> MetricId:
        """Parse a wire name: l1, lp:<p>, linf, hamming, cayley, kendall.

        ``lp:1`` is the same metric as ``l1`` and is normalized to it.
        """
        text = text.strip().lower()
        if text.startswith("lp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise ValueError(f"invalid lp exponent in {text!r}") from None
            return lp(p)
        return cls(text)


L1 = MetricId("l1")
LINF = MetricId("linf")
HAMMING = MetricId("hamming")
CAYLEY = MetricId("cayley")
KENDALL = MetricId("kendall")


def lp(p: int) -> MetricId:
    metric = MetricId("lp", p)  # validates p
    return L1 if p == 1 else metric


# -- distance to the identity, on raw words -------------------------------


def _cayley(w: Sequence[int]) -> int:
    # Minimal number of transpositions: moved points minus nontrivial cycles.
    n = len(w)
    seen = [False] * n
    moved = 0
    cycles = 0
    for i in range(n):
        if w[i] != i + 1:
            moved += 1
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = w[j] - 1
    return moved - cycles


def _kendall(w: Sequence[int]) -> int:
    # Inversion count: minimal number of adjacent transpositions.
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def distance_to_identity(metric: MetricId, u: Permutation) -> int:
    """Distance from u to the identity, in native scale."""
    w = u.word
    if metric.kind in ("l1", "lp"):
        p = metric.p or 1
        return sum(abs(v - i) ** p for i, v in enumerate(w, 1))
    if metric.kind == "linf":
        return max((abs(v - i) for i, v in enumerate(w, 1)), default=0)
    if metric.kind == "hamming":
        return sum(1 for i, v in enumerate(w, 1) if v != i)
    if metric.kind == "cayley":
        return _cayley(w)
    return _kendall(w)


def distance(metric: MetricId, u: Permutation, v: Permutation) -> int:
    """Distance between two permutations, in native scale.

    Every metric here is right invariant, D(u w, v w) = D(u, v), so
    D(u, v) = D(u v^-1, id).
    """
    return distance_to_identity(metric, u.compose(v.inverse()))


def max_l1(m: int) -> int:
    """Maximal l1 distance in S_m: 2r^2 for m = 2r, 2r^2 + 2r for m = 2r + 1."""
    if m < 1:
        raise ValueError("m must be positive")
    r = m // 2
    return 2 * r * r if m % 2 == 0 else 2 * r * r + 2 * r
