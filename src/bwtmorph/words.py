"""Finite words over ordered integer alphabets.

A word is a plain ``bytes`` value: symbol ``i`` is the byte ``i``, and the
symbol order is the byte order, so lexicographic comparison of words is
ordinary bytes comparison. Rendering symbols as letters (``a``, ``b``, ...)
is a presentation concern handled by :class:`Alphabet` at the boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterator, NamedTuple

Word = bytes
Run = tuple[int, int]

EMPTY: Word = b""


class EmptyWordError(ValueError):
    """Raised by operations that are undefined on the empty word."""


def _require_nonempty(w: Word) -> None:
    if not w:
        raise EmptyWordError("operation undefined on the empty word")


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet; the position of a letter in ``letters`` is its symbol.

    The declared order is the listing order, e.g. ``Alphabet("$ab")``
    declares ``$ < a < b``.
    """

    letters: str

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("alphabet needs at least one letter")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letters in alphabet {self.letters!r}")
        if len(self.letters) > 256:
            raise ValueError(f"alphabet of {len(self.letters)} letters is over the 256 symbols a word can hold")

    @property
    def size(self) -> int:
        return len(self.letters)

    @cached_property
    def _codes(self) -> dict[int, int]:
        return {ord(c): i for i, c in enumerate(self.letters)}

    def word(self, text: str) -> Word:
        if not set(text) <= set(self.letters):
            bad = next(c for c in text if c not in self.letters)
            raise ValueError(f"letter {bad!r} not in alphabet {self.letters!r}")
        return bytes(text.translate(self._codes), "latin-1")

    def render(self, w: Word) -> str:
        # Deleting the symbols leaves the strays; `letters` maps chr(i) to letter i.
        if w.translate(None, bytes(range(self.size))):
            raise ValueError(f"symbol outside alphabet {self.letters!r}")
        return w.decode("latin-1").translate(self.letters)


BINARY = Alphabet("ab")


def rle(w: Word) -> list[Run]:
    """Run-length encoding as (symbol, count) pairs; empty word gives []."""
    return [(s, len(list(g))) for s, g in groupby(w)]


class PrimitiveRoot(NamedTuple):
    root: Word
    exponent: int


def primitive_root(w: Word) -> PrimitiveRoot:
    """Unique primitive z and p >= 1 with z**p == w.

    The least i >= 1 at which w occurs in ww is the length of the
    primitive root.
    """
    _require_nonempty(w)
    p = (w + w).find(w, 1)
    return PrimitiveRoot(w[:p], len(w) // p)


def is_primitive(w: Word) -> bool:
    _require_nonempty(w)
    return (w + w).find(w, 1) == len(w)


def all_circular_factors(w: Word) -> dict[Word, int]:
    """Each distinct factor of some rotation of w, the empty one included, with its least start."""
    # Starts run down, so a factor keeps its least one; every length shares the list's ints.
    doubled, starts = w + w, list(range(len(w) - 1, -1, -1))
    found: dict[Word, int] = {EMPTY: 0}
    for length in range(1, len(w) + 1):
        found.update({doubled[i : i + length]: i for i in starts})
    return found


def commute(u: Word, v: Word) -> bool:
    """True iff uv == vu, i.e. u and v are powers of one primitive word."""
    _require_nonempty(u)
    _require_nonempty(v)
    return u + v == v + u


def constant_words(size: int, n: int) -> frozenset[Word]:
    """The words s**n of length n, one per symbol s; the filter for non-constant words."""
    return frozenset(bytes([s]) * n for s in range(size))


def necklaces(size: int, n: int) -> Iterator[Word]:
    """Canonical necklace representatives of length n, in ascending order.

    The arguments are checked at the call, and the words come from a
    generator running the Fredricksen-Kessler-Maiorana successor: raise the
    last symbol that can still grow, then repeat the prefix ending there,
    of length p, periodically to length n. That visits the prenecklaces
    (prefixes of necklaces) in ascending order, and a prenecklace whose
    period p divides n is exactly a least rotation, so each rotation class
    is emitted once, in order.
    """
    if size < 1:
        raise ValueError("alphabet size must be at least 1")
    if n < 1:
        raise ValueError("necklace length must be at least 1")
    return _necklaces(size, n)


def _necklaces(size: int, n: int) -> Iterator[Word]:
    top = size - 1
    a = bytearray(n)
    yield bytes(a)
    while True:
        i = n - 1
        while i >= 0 and a[i] == top:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        p = q = i + 1
        # a[j] = a[j - p] for j >= p: the prefix a[:q] that already has
        # period p is copied after itself, so q doubles with each slice.
        while q < n:
            a[q:] = a[: n - q]
            q += q
        if n % p == 0:
            yield bytes(a)
