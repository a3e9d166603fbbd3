"""Circular factorizations, synchronization pairs, and finite-delay decisions.

A split (u1, u2) of a factor u synchronizes when every way u can occur
inside the image of a binary source word forces a codeword boundary exactly
between u1 and u2. Pairs and delays quantify over all binary source words.
Scopes exist only for the finite-delay decision: an explicit finite list, or
the words whose circular single-letter runs respect given bounds (with no
bound at all, every binary word). The decision reads the dichotomy and
searches for no pair; its tests check it against raw enumeration of bounded
source words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .morphisms import Morphism, _require_injective
from .primitivity import PowerCase, is_recognizable, power_words
from .words import Word


@dataclass(frozen=True)
class FiniteList:
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("finite scope needs at least one word")


@dataclass(frozen=True)
class BoundedLetterRuns:
    """Words whose circular a-runs and b-runs stay within the bounds (None = unbounded)."""

    max_a: int | None
    max_b: int | None

    def __post_init__(self) -> None:
        if self.max_a == 0 and self.max_b == 0:
            raise ValueError("run bounds 0 and 0 admit no non-empty word")


Scope = FiniteList | BoundedLetterRuns

FULL_BINARY = BoundedLetterRuns(None, None)


class CircularFactorization(NamedTuple):
    rotation_offset: int
    codewords: tuple[int, ...]


class SyncPair(NamedTuple):
    factor: Word
    split: int


class SyncDelay(NamedTuple):
    delay: int | None
    longest: tuple[int, ...]


class SyncVerdict(NamedTuple):
    synchronizing: bool
    reason: str


def circular_factorizations(w: Word, m: Morphism) -> list[CircularFactorization]:
    """All factorizations of the rotations of w into codewords.

    Two decodings that cut the circle at the same positions are one circular
    factorization; each is reported from its least cut position. The empty
    list means no rotation of w lies in the code's closure.
    """
    _require_injective(m)
    if not w:
        raise ValueError("circular factorization needs a non-empty word")
    n = len(w)
    doubled = w + w
    found: list[CircularFactorization] = []
    covered: set[int] = set()
    for offset in range(n):
        # The code is uniquely decipherable, so decoding from a cut of a
        # factorization found earlier would only find that one again.
        if offset in covered:
            continue
        seq = m.decode(doubled[offset : offset + n])
        if seq is None:
            continue
        pos = offset
        for idx in seq:
            covered.add(pos % n)
            pos += len(m.images[idx])
        found.append(CircularFactorization(offset, seq))
    return found


def _interpretation_splits(u: Word, images: tuple[Word, ...]) -> int:
    """Bitmask of the splits of u at which every interpretation of u cuts.

    An interpretation places u in the image of a source word: a proper suffix
    of a codeword, whole codewords, then a proper prefix of a codeword (each
    part may be absent), or u strictly inside one codeword, which cuts
    nowhere. Every binary source word counts; with no interpretation, every
    split survives.

    The walk goes left to right and keeps, per reachable cut position, the
    cuts that every path there shares (None while unreached).
    """
    n = len(u)
    must: list[int | None] = [None] * (n + 1)

    def reach(p: int, cuts: int) -> None:
        old = must[p]
        must[p] = cuts if old is None else old & cuts

    reach(0, 1)
    for img in images:
        if img.find(u, 1, len(img) - 1) != -1:  # u strictly inside img
            return 0
        # u starts in img, after a cut at p.
        for p in range(1, min(len(img) - 1, n) + 1):
            if img.endswith(u[:p]):
                reach(p, 1 << p)
    survivors = (1 << (n + 1)) - 1
    for p, cuts in enumerate(must):
        if cuts is None:
            continue
        if p == n:
            survivors &= cuts
        for img in images:
            if u.startswith(img, p):
                q = p + len(img)
                reach(q, cuts | 1 << q)
            elif p < n and len(img) > n - p and img.startswith(u[p:]):  # u ends inside img
                survivors &= cuts
        if not survivors:
            return 0
    return survivors


def find_sync_pairs(factor: Word, m: Morphism) -> list[SyncPair]:
    """All synchronizing splits of factor over all binary source words.

    They are decided over the interpretations of factor, in time polynomial
    in |factor|.
    """
    _require_injective(m)
    survivors = _interpretation_splits(factor, m.images)
    return [SyncPair(factor, s) for s in range(len(factor) + 1) if survivors >> s & 1]


def sync_delay_for_word(m: Morphism, w: Word) -> SyncDelay:
    """Least k such that every circular factor of m(w) of length >= k has a sync pair.

    The quantification runs over all binary source words. A pair of u is a
    pair of every factor that extends u, since each interpretation of the
    longer factor restricts to one of u; so the factors without a pair are
    closed under taking factors. Let b(i), returned in `longest`, be the
    length of the longest non-empty factor without a pair that starts at
    position i of the circular image. By that closure, the lengths without a
    pair at i are 1 .. b(i), and b(i) >= b(i-1) - 1, so one pass starts each
    i at max(b(i-1) - 1, 0) and grows while the next factor has no pair; it
    decides at most 3|m(w)| factors. The delay is max b(i) + 1, or None when
    some b(i) reaches |m(w)|.
    """
    _require_injective(m)
    if not w:
        raise ValueError("delay is undefined for the empty word")
    image = m.apply(w)
    n = len(image)
    doubled = image + image
    longest: list[int] = []
    length = 0
    for start in range(n):
        length = max(length - 1, 0)
        while length < n and not _interpretation_splits(doubled[start : start + length + 1], m.images):
            length += 1
        longest.append(length)
    return SyncDelay(None if n in longest else max(longest) + 1, tuple(longest))


def decide_sync_finite_delay(m: Morphism, scope: Scope) -> SyncVerdict:
    """Dichotomy-based decision, without enumerating factors.

    Recognizable morphisms synchronize with finite delay on every scope.
    A preserving morphism with conjugate images does iff the scope bounds
    the circular runs of at least one letter. A non-preserving morphism
    does iff only finitely many powers of its witness words occur
    circularly in the scope.
    """
    cls = power_words(m)
    if is_recognizable(cls).recognizable:
        return SyncVerdict(True, "recognizable, so synchronizing with finite delay on every scope")
    # Not recognizable: a preserving morphism has conjugate images.
    preserving = cls.case is PowerCase.PRESERVING
    if isinstance(scope, FiniteList):
        # A finite list bounds the circular runs of both letters, so the
        # conjugate-image verdict names the first one, a.
        if preserving:
            return SyncVerdict(True, "conjugate images but circular a-runs are bounded in the scope")
        return SyncVerdict(True, "finite scope: only finitely many powers of any witness occur")
    max_a, max_b = scope.max_a, scope.max_b
    if preserving:
        if max_a is not None or max_b is not None:
            which = "a" if max_a is not None else "b"
            return SyncVerdict(True, f"conjugate images but circular {which}-runs are bounded in the scope")
        return SyncVerdict(False, "conjugate images and both letters have unbounded circular runs")
    bounds = (max_a, max_b)
    witness = cls.rotation_witness
    # The rotation witness x**l y**j has one circular run of each letter, so
    # its letter counts are its longest circular runs; its rotations and
    # powers have the same runs, so it stands for its whole rotation class.
    if any(bounds[c] is None for c in cls.letter_witnesses) or (
        witness is not None and all(cap is None or witness.count(c) <= cap for c, cap in enumerate(bounds))
    ):
        return SyncVerdict(False, "unbounded powers of a power-witness word occur in the scope")
    return SyncVerdict(True, "every power-witness word exceeds the scope's run bounds")
