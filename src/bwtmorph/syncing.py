"""Circular factorizations, synchronization pairs, and finite-delay decisions.

A split (u1, u2) of a factor u synchronizes when every way u can occur
inside the image of a scoped source word forces a codeword boundary exactly
between u1 and u2. Scopes describe which source words quantify the check:
an explicit finite list, or the words whose circular single-letter runs
respect given bounds; with no bound at all that is every binary word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .morphisms import Morphism, _require_injective
from .primitivity import is_primitivity_preserving, is_recognizable, power_words
from .words import Word, all_circular_factors, circular_factors, rle


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


Scope = FiniteList | BoundedLetterRuns

FULL_BINARY = BoundedLetterRuns(None, None)


class CircularFactorization(NamedTuple):
    rotation_offset: int
    codewords: tuple[int, ...]


class SyncPair(NamedTuple):
    factor: Word
    split: int


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


def _interpretation_splits(u: Word, images: tuple[Word, ...], bounds: tuple[int | None, int | None]) -> int:
    """Bitmask of the splits of u at which every interpretation of u cuts.

    An interpretation places u in the image of a source word: a proper suffix
    of a codeword, whole codewords, then a proper prefix of a codeword (each
    part may be absent), or u strictly inside one codeword, which cuts
    nowhere. Only source words whose linear letter runs stay within bounds
    (None = unbounded) count; with no interpretation, every split survives.

    The walk goes left to right and keeps, per reachable (cut position, last
    letter, run length), the cuts that every path there shares. A letter
    without a bound resets the run state, so the unbounded walk has one state
    per position.
    """
    n = len(u)

    def step(letter: int, last: int | None, run: int) -> tuple[int | None, int] | None:
        cap = bounds[letter]
        if cap is None:
            return (None, 0)
        run = run + 1 if letter == last else 1
        return (letter, run) if run <= cap else None

    must: list[dict[tuple[int | None, int], int]] = [{} for _ in range(n + 1)]

    def reach(p: int, state: tuple[int | None, int], cuts: int) -> None:
        old = must[p].get(state)
        must[p][state] = cuts if old is None else old & cuts

    reach(0, (None, 0), 1)
    for letter, img in enumerate(images):
        state = step(letter, None, 0)
        if state is None:
            continue
        if img.find(u, 1, len(img) - 1) != -1:  # u strictly inside img
            return 0
        # u starts in img, after a cut at p.
        for p in range(1, min(len(img) - 1, n) + 1):
            if img.endswith(u[:p]):
                reach(p, state, 1 << p)
    survivors = (1 << (n + 1)) - 1
    for p in range(n + 1):
        for (last, run), cuts in must[p].items():
            if p == n:
                survivors &= cuts
            for letter, img in enumerate(images):
                state = step(letter, last, run)
                if state is None:
                    continue
                if u.startswith(img, p):
                    q = p + len(img)
                    reach(q, state, cuts | 1 << q)
                elif p < n and len(img) > n - p and img.startswith(u[p:]):  # u ends inside img
                    survivors &= cuts
        if not survivors:
            return 0
    return survivors


def _finite_scope_splits(u: Word, m: Morphism, words: tuple[Word, ...]) -> int:
    """Bitmask of the splits of u that every occurrence of u cuts at, in the
    images of the circular factors of the listed words."""
    survivors = (1 << (len(u) + 1)) - 1
    for f in set().union(*map(all_circular_factors, words)):
        image = m.apply(f)
        cuts = pos = 1
        for s in f:
            pos <<= len(m.images[s])
            cuts |= pos
        start = image.find(u)
        while start != -1 and survivors:
            survivors &= cuts >> start
            start = image.find(u, start + 1)
    return survivors


def find_sync_pairs(factor: Word, m: Morphism, scope: Scope) -> list[SyncPair]:
    """All synchronizing splits of factor over the scoped source words.

    Infinite scopes are decided over the interpretations of factor, in time
    polynomial in |factor|; a finite scope is scanned word by word.
    """
    _require_injective(m)
    if isinstance(scope, FiniteList):
        survivors = _finite_scope_splits(factor, m, scope.words)
    else:
        survivors = _interpretation_splits(factor, m.images, (scope.max_a, scope.max_b))
    return [SyncPair(factor, s) for s in range(len(factor) + 1) if survivors >> s & 1]


def sync_delay_for_word(m: Morphism, w: Word) -> int | None:
    """Least k such that every circular factor of m(w) of length >= k has a sync pair.

    The quantification runs over all binary source words. None when some
    full rotation of the image admits no pair at all. A pair of u is a pair
    of every factor that extends u, since each interpretation of the longer
    factor restricts to one of u; so the factors without a pair are closed
    under taking factors. Whether every circular factor of a length has a
    pair is therefore monotone in the length, and the delay is the first
    length at which it holds, found by doubling and then bisecting. A
    rotation without a pair leaves a factor without one at every length.
    """
    _require_injective(m)
    if not w:
        raise ValueError("delay is undefined for the empty word")
    image = m.apply(w)

    def all_paired(length: int) -> bool:
        return all(_interpretation_splits(f, m.images, (None, None)) for f in circular_factors(image, length))

    lo, hi = 0, 1  # no length up to lo works
    while not all_paired(hi):
        if hi == len(image):
            return None
        lo, hi = hi, min(2 * hi, len(image))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if all_paired(mid) else (mid, hi)
    return hi


def _longest_circular_runs(w: Word) -> tuple[int, int]:
    """The longest circular a-run and b-run of w; a constant word is one run.

    Every run of ww lies in a circular run of w, and a word with both
    letters has each circular run whole in ww.
    """
    longest: dict[int, int] = {}
    for s, count in rle(w + w):
        longest[s] = max(longest.get(s, 0), min(count, len(w)))
    return longest.get(0, 0), longest.get(1, 0)


def decide_sync_finite_delay(m: Morphism, scope: Scope) -> SyncVerdict:
    """Dichotomy-based decision, without enumerating factors.

    Recognizable morphisms synchronize with finite delay on every scope.
    A preserving morphism with conjugate images does iff the scope bounds
    the circular runs of at least one letter. A non-preserving morphism
    does iff only finitely many powers of its witness words occur
    circularly in the scope.
    """
    _require_injective(m)
    rec = is_recognizable(m)
    if rec.recognizable:
        return SyncVerdict(True, "recognizable, so synchronizing with finite delay on every scope")
    preserving = is_primitivity_preserving(m).preserving
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
    for x in power_words(m).members():
        if len(x) == 1:
            unbounded = bounds[x[0]] is None
        else:
            # Powers of a mixed word all share its circular run profile.
            unbounded = all(cap is None or run <= cap for run, cap in zip(_longest_circular_runs(x), bounds))
        if unbounded:
            return SyncVerdict(False, "unbounded powers of a power-witness word occur in the scope")
    return SyncVerdict(True, "every power-witness word exceeds the scope's run bounds")
