"""Circular factorizations, synchronization pairs, and finite-delay decisions.

A split (u1, u2) of a factor u synchronizes when every way u can occur
inside the image of a scoped source word forces a codeword boundary exactly
between u1 and u2. Scopes describe which source words quantify the check:
an explicit finite list, all binary words, or the words whose circular
single-letter runs respect given bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .morphisms import Morphism, _require_injective
from .primitivity import is_primitivity_preserving, is_recognizable, power_words
from .words import EMPTY, Word, all_circular_factors, circular_factors, rle


@dataclass(frozen=True)
class FiniteList:
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("finite scope needs at least one word")


@dataclass(frozen=True)
class FullBinary:
    pass


@dataclass(frozen=True)
class BoundedLetterRuns:
    """Words whose circular a-runs and b-runs stay within the bounds (None = unbounded)."""

    max_a: int | None
    max_b: int | None


Scope = FiniteList | FullBinary | BoundedLetterRuns

FULL_BINARY = FullBinary()


class CircularFactorization(NamedTuple):
    rotation_offset: int
    codewords: tuple[int, ...]


class SyncPair(NamedTuple):
    factor: Word
    split: int


class SyncVerdict(NamedTuple):
    synchronizing: bool
    reason: str


def _decode(word: Word, images: tuple[Word, ...]) -> tuple[int, ...] | None:
    """The unique factorization of word into codewords, or None.

    Depth-first with dead-position memoization; a two-word code admits at
    most one factorization per word, so the first complete parse is it.
    The parse so far is the path: backtracking pops its last codeword and
    tries the next one at the same position.
    """
    dead: set[int] = set()
    seq: list[int] = []
    pos = nxt = 0
    while pos < len(word):
        idx = len(images) if pos in dead else nxt
        while idx < len(images) and not word.startswith(images[idx], pos):
            idx += 1
        if idx < len(images):
            seq.append(idx)
            pos += len(images[idx])
            nxt = 0
            continue
        dead.add(pos)
        if not seq:
            return None
        last = seq.pop()
        pos -= len(images[last])
        nxt = last + 1
    return tuple(seq)


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
        seq = _decode(doubled[offset : offset + n], m.images)
        if seq is None:
            continue
        pos = offset
        for idx in seq:
            covered.add(pos % n)
            pos += len(m.images[idx])
        found.append(CircularFactorization(offset, seq))
    return found


def _binary_words_up_to(limit: int) -> Iterator[Word]:
    yield EMPTY
    for length in range(1, limit + 1):
        for tup in product((0, 1), repeat=length):
            yield bytes(tup)


def _run_bounds_ok(w: Word, max_a: int | None, max_b: int | None) -> bool:
    bounds = (max_a, max_b)
    return all(bounds[s] is None or count <= bounds[s] for s, count in rle(w))


def _context_bound(factor_len: int, m: Morphism) -> int:
    # One full codeword of context on each side of the factor is enough to
    # reproduce every boundary constraint a longer source word could impose.
    shortest = min(len(img) for img in m.images)
    return (factor_len + 2 * m.size) // shortest + 2


def _scope_words(scope: Scope, factor_len: int, m: Morphism) -> Iterable[Word]:
    if isinstance(scope, FiniteList):
        out: set[Word] = set()
        for w in scope.words:
            out |= all_circular_factors(w)
        return sorted(out, key=lambda f: (len(f), f))
    limit = _context_bound(factor_len, m)
    if isinstance(scope, FullBinary):
        return _binary_words_up_to(limit)
    return (f for f in _binary_words_up_to(limit) if _run_bounds_ok(f, scope.max_a, scope.max_b))


def _boundary_set(f: Word, m: Morphism) -> frozenset[int]:
    cuts = [0]
    for s in f:
        cuts.append(cuts[-1] + len(m.images[s]))
    return frozenset(cuts)


def _surviving_splits(
    factor: Word, contexts: Iterable[tuple[Word, frozenset[int]]]
) -> set[int]:
    allowed = set(range(len(factor) + 1))
    for image, boundaries in contexts:
        start = image.find(factor)
        while start != -1:
            allowed = {s for s in allowed if start + s in boundaries}
            if not allowed:
                return allowed
            start = image.find(factor, start + 1)
    return allowed


def find_sync_pairs(factor: Word, m: Morphism, scope: Scope) -> list[SyncPair]:
    """All synchronizing splits of factor over the scoped source words.

    For infinite scopes the quantified source words are truncated at the
    context bound; contexts further from the factor cannot change whether
    a boundary lands inside it.
    """
    _require_injective(m)
    contexts = ((m.apply(f), _boundary_set(f, m)) for f in _scope_words(scope, len(factor), m))
    return [SyncPair(factor, s) for s in sorted(_surviving_splits(factor, contexts))]


def sync_delay_for_word(m: Morphism, w: Word) -> int | None:
    """Least k such that every circular factor of m(w) of length >= k has a sync pair.

    The quantification runs over all binary source words. None when some
    full rotation of the image admits no pair at all.
    """
    _require_injective(m)
    if not w:
        raise ValueError("delay is undefined for the empty word")
    image = m.apply(w)
    universe = [
        (m.apply(f), _boundary_set(f, m))
        for f in _binary_words_up_to(_context_bound(len(image), m))
    ]
    for length in range(len(image), -1, -1):
        bad = any(
            not _surviving_splits(factor, universe)
            for factor in circular_factors(image, length)
        )
        if bad:
            return None if length == len(image) else length + 1
    return 1


def _max_circular_run(w: Word, symbol: int) -> int:
    if not w:
        return 0
    if all(s == symbol for s in w):
        return len(w)
    return max((count for s, count in rle(w + w) if s == symbol), default=0)


def _scope_run_bounds(scope: Scope) -> tuple[int | None, int | None]:
    if isinstance(scope, FiniteList):
        return (
            max(_max_circular_run(w, 0) for w in scope.words),
            max(_max_circular_run(w, 1) for w in scope.words),
        )
    if isinstance(scope, FullBinary):
        return (None, None)
    return (scope.max_a, scope.max_b)


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
    max_a, max_b = _scope_run_bounds(scope)
    if is_primitivity_preserving(m).preserving:
        if max_a is not None or max_b is not None:
            which = "a" if max_a is not None else "b"
            return SyncVerdict(True, f"conjugate images but circular {which}-runs are bounded in the scope")
        return SyncVerdict(False, "conjugate images and both letters have unbounded circular runs")
    witnesses = power_words(m).members()
    if isinstance(scope, FiniteList):
        return SyncVerdict(True, "finite scope: only finitely many powers of any witness occur")
    bounds = (max_a, max_b)
    for x in witnesses:
        if len(x) == 1:
            unbounded = bounds[x[0]] is None
        else:
            # Powers of a mixed word all share its circular run profile.
            unbounded = _run_bounds_ok(x + x, max_a, max_b)
        if unbounded:
            return SyncVerdict(False, "unbounded powers of a power-witness word occur in the scope")
    return SyncVerdict(True, "every power-witness word exceeds the scope's run bounds")
