"""Permutations in one-line notation, concatenation, and split types.

A permutation is stored as the word of its values: ``Permutation((3, 2, 1))``
is the map 1->3, 2->2, 3->1.  Words that differ only by trailing fixed points
denote the same element of the infinite symmetric group, so equality and
hashing strip trailing fixed points while the stored word (and ``degree``)
are kept as given.

>>> Permutation((2, 1, 3)) == Permutation((2, 1))
True
>>> Permutation((3, 2, 1)) + Permutation((2, 1))
Permutation((3, 2, 1, 5, 4))
"""
from __future__ import annotations

import math
import re


def guarded_binom(i: int, j: int) -> int:
    """Binomial coefficient with the square-bracket convention: 0 for i < 0.

    For i >= 0 this is the ordinary ``math.comb`` (which is already 0 when
    0 <= i < j).  For i < 0 the ordinary binomial would be nonzero, so the
    override matters.
    """
    if i < 0:
        return 0
    return math.comb(i, j)


class Record:
    """Base of the package's record classes.

    Each subclass lists its fields in ``__slots__``, in the order of its
    constructor's arguments. ``Record.__init__`` takes one value per field,
    positionally, and sets each once through ``object.__setattr__``; a
    subclass that validates or normalizes its input passes the result on to
    it. Records of one class are equal when their fields are, and their repr
    is a constructor call with the fields by name. A plain record is mutable
    and unhashable.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, *fields: object) -> None:
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A record that hashes by its fields and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through the constructor, which validates and normalizes
        return type(self), self._fields()


def _validate_word(word: tuple[int, ...]) -> None:
    n = len(word)
    seen = [False] * n
    for v in word:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"invalid entry {v!r}: entries must be integers >= 1")
        if v > n:
            raise ValueError(f"value {v} out of range 1..{n} (some value in 1..{n} is missing)")
        if seen[v - 1]:
            raise ValueError(f"duplicate value {v}")
        seen[v - 1] = True


class Permutation(Frozen):
    """A permutation given by its one-line word over 1..degree."""

    __slots__ = ("word",)
    word: tuple[int, ...]

    def __init__(self, word: tuple[int, ...]) -> None:
        word = tuple(word)
        _validate_word(word)
        super().__init__(word)

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int = 0) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse whitespace- or comma-separated 1-based values.

        >>> Permutation.parse("1, 4 3 2")
        Permutation((1, 4, 3, 2))
        """
        tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
        values = []
        for t in tokens:
            try:
                values.append(int(t))
            except ValueError:
                raise ValueError(f"invalid entry {t!r}: not an integer") from None
        return cls(tuple(values))

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.word)

    @property
    def normalized_word(self) -> tuple[int, ...]:
        """The word with trailing fixed points stripped."""
        w = self.word
        n = len(w)
        while n > 0 and w[n - 1] == n:
            n -= 1
        return w[:n]

    def __call__(self, i: int) -> int:
        if i < 1:
            raise ValueError(f"positions are 1-based, got {i}")
        return self.word[i - 1] if i <= len(self.word) else i

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.normalized_word == other.normalized_word

    def __hash__(self) -> int:
        return hash(self.normalized_word)

    def __str__(self) -> str:
        return " ".join(map(str, self.word))

    def __repr__(self) -> str:
        return f"Permutation({self.word!r})"

    # -- group operations ---------------------------------------------

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.word)
        for i, v in enumerate(self.word, 1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Composition self o other: i -> self(other(i))."""
        n = max(self.degree, other.degree)
        return Permutation(tuple(self(other(i)) for i in range(1, n + 1)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def __add__(self, other: "Permutation") -> "Permutation":
        """Concatenation: other's word shifted by self's degree and appended."""
        m = self.degree
        return Permutation(self.word + tuple(v + m for v in other.word))

    # -- cuts and split decomposition ---------------------------------

    def cuts(self) -> tuple[int, ...]:
        """Positions i in [1, degree) where the first i values are exactly 1..i.

        One left-to-right pass tracking the running maximum.

        >>> Permutation((1, 4, 3, 2, 5, 7, 6)).cuts()
        (1, 4, 5)
        """
        out = []
        running_max = 0
        for i, v in enumerate(self.word[:-1], 1):
            if v > running_max:
                running_max = v
            if running_max == i:
                out.append(i)
        return tuple(out)

    def is_connected(self) -> bool:
        """True iff the permutation has no cut.  Undefined for degree 0."""
        if self.degree == 0:
            raise ValueError("connectivity of the empty word is undefined")
        return not self.cuts()

    def split_decomposition(self) -> "SplitDecomposition":
        """Factor into connected slices between consecutive cuts.

        >>> [p.word for p in Permutation((1, 4, 3, 2, 5, 7, 6)).split_decomposition().parts]
        [(1,), (3, 2, 1), (1,), (2, 1)]
        """
        cut_positions = self.cuts()
        bounds = (0,) + cut_positions + (self.degree,)
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            parts.append(Permutation(tuple(v - lo for v in self.word[lo:hi])))
        return SplitDecomposition(tuple(parts), cut_positions)

    def split_type(self) -> "SplitType":
        """Concatenation of the nontrivial (degree >= 2) connected parts."""
        parts = tuple(p for p in self.split_decomposition().parts if p.degree >= 2)
        return SplitType(parts)


class SplitDecomposition(Frozen):
    """Ordered connected factors of a permutation, with the cut positions."""

    __slots__ = ("parts", "cut_positions")
    parts: tuple[Permutation, ...]
    cut_positions: tuple[int, ...]

    def reassemble(self) -> Permutation:
        return concatenate(*self.parts)


class SplitType(Frozen):
    """Concatenation of nontrivial connected permutations.

    ``m`` is its total degree (the smallest symmetric group containing it)
    and ``q`` the number of parts.  The identity has the empty split type
    with m = q = 0.
    """

    __slots__ = ("parts",)
    parts: tuple[Permutation, ...]

    def __init__(self, parts: tuple[Permutation, ...]) -> None:
        for p in parts:
            if p.degree < 2:
                raise ValueError(f"split type part {p.word} is trivial (degree < 2)")
            if not p.is_connected():
                raise ValueError(f"split type part {p.word} is not connected")
        super().__init__(parts)

    @property
    def m(self) -> int:
        return sum(p.degree for p in self.parts)

    @property
    def q(self) -> int:
        return len(self.parts)

    @property
    def permutation(self) -> Permutation:
        return concatenate(*self.parts)

    def __str__(self) -> str:
        return " + ".join(str(p) for p in self.parts) if self.parts else "(empty)"


def count_embeddings(n: int, sigma: SplitType) -> int:
    """Number of permutations in S_n whose split type is ``sigma``.

    Equals the guarded binomial [n+q-m choose q]: zero as soon as
    n < m - q, the ordinary binomial otherwise.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return guarded_binom(n + sigma.q - sigma.m, sigma.q)


def parse(text: str) -> Permutation:
    return Permutation.parse(text)


def concatenate(*perms: Permutation) -> Permutation:
    out = Permutation.identity(0)
    for p in perms:
        out = out + p
    return out
