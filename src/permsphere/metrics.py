"""Right-invariant distances on permutations.

All radii are exact integers in each metric's native scale: for ``lp:<p>``
the native value is the p-th power of the distance, so no roots are ever
taken.  Trailing fixed points contribute nothing to any of the metrics,
which makes every distance well defined on the infinite symmetric group.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perm import Permutation

_KINDS = ("l1", "lp", "linf", "hamming", "cayley", "kendall")


@dataclass(frozen=True)
class MetricId:
    """Identifier for one of the supported right-invariant metrics."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "lp":
            if self.p is None or self.p < 1:
                raise ValueError("lp metric requires an integer exponent p >= 1")
        elif self.p is not None:
            raise ValueError(f"metric {self.kind!r} takes no exponent")
        # Every memo lookup hashes its metric, so the field tuple is hashed
        # once here rather than on each lookup.
        object.__setattr__(self, "_hash", hash((self.kind, self.p)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild from the fields: a string's hash differs between processes
        return MetricId, (self.kind, self.p)

    @property
    def name(self) -> str:
        return f"lp:{self.p}" if self.kind == "lp" else self.kind

    def __str__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, text: str) -> "MetricId":
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
    if p == 1:
        return L1
    return MetricId("lp", p)


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
