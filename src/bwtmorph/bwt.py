"""Burrows-Wheeler transform on rotation multisets, inversion, and run counts.

The transform here is the rotation-sorting one: no sentinel is added, and a
smallest-symbol terminator is just an ordinary symbol. Equal rotations of a
non-primitive word are kept with multiplicity and ordered by their original
shift, which makes the primary index deterministic.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import NamedTuple

from .words import Word, _require_nonempty

# Above this length, rotation sorting switches from doubled-word slice
# comparison to cyclic prefix doubling; both orders are identical by
# construction. The slice keys cost n**2 bytes, and on a 2-core x86-64 VM the
# slice path stays faster up to about 1.6k symbols on random binary words and
# 1.8k on Fibonacci-$ and periodic ones; 1024 keeps the slice memory near 1 MB.
_SMALL_SORT_LIMIT = 1024


class BwtResult(NamedTuple):
    transformed: Word
    primary_index: int


def rotation_order(w: Word) -> list[int]:
    """Shifts of the rotations of w in ascending lexicographic order.

    Equal rotations are tie-broken by ascending shift.
    """
    _require_nonempty(w)
    n = len(w)
    if n <= _SMALL_SORT_LIMIT:
        doubled = w + w
        return sorted(range(n), key=lambda i: doubled[i : i + n])
    return _rotation_order_doubling(w)


def _rotation_order_doubling(w: Word) -> list[int]:
    """Prefix doubling (Manber and Myers) over the n cyclic positions.

    keys[i] orders rotation i by its first `length` cyclic symbols, and every
    key is below `base`, so keys[i] * base + keys[i + length] orders the first
    2*length symbols exactly. Before base**2 would pass 60 bits, the keys are
    re-ranked by the sorted distinct keys, which stay few while rotations are
    tied, or the loop stops if all keys differ. Positions are sorted once, at
    the end: rotations still tied are equal, and the stable sort keeps them in
    ascending shift order.
    """
    n = len(w)
    keys = list(w)
    base = max(w) + 1
    length = 1
    while length < n:
        if base * base > 1 << 60:
            distinct = set(keys)
            if len(distinct) == n:
                break
            distinct = sorted(distinct)
            rank = dict(zip(distinct, range(n)))
            # Each table goes once read: at most three n-key lists are alive.
            del distinct
            keys = list(map(rank.__getitem__, keys))
            base = len(rank)
            del rank
        keys = [a * base + b for a, b in zip(keys, keys[length:] + keys[:length])]
        base *= base
        length *= 2
    return sorted(range(n), key=keys.__getitem__)


def bwt(w: Word) -> BwtResult:
    """Last symbols of the sorted rotations, plus the rank of w itself."""
    order = rotation_order(w)
    transformed = bytes(map((w[-1:] + w[:-1]).__getitem__, order))
    return BwtResult(transformed, order.index(0))


def inverse_bwt(t: Word, primary_index: int) -> Word:
    """Invert the transform by walking the last-to-first column mapping.

    A text that no word has as its transform with this primary index
    raises ValueError.
    """
    _require_nonempty(t)
    n = len(t)
    if not 0 <= primary_index < n:
        raise ValueError(f"primary index {primary_index} out of range for length {n}")
    # Occurrences of each symbol keep their order from t to the first
    # column, which starts at the count of smaller symbols.
    counts = [0] * (max(t) + 1)
    for c in t:
        counts[c] += 1
    start = list(accumulate(counts, initial=0))
    lf = [0] * n
    for i, c in enumerate(t):
        lf[i] = start[c]
        start[c] += 1
    # The walk stops when it is back at the primary row. A transform of
    # w = z**p, z primitive, has a cycle of n / p rows there, its primary
    # index is p times that of z, so a multiple of p, and it is bwt(z) with
    # each symbol repeated p times in one block; the text and index are a
    # transform exactly when all three hold, and the walk then spells z once.
    out = bytearray()
    row = primary_index
    while True:
        out.append(t[row])
        row = lf[row]
        if row == primary_index:
            break
    p, rest = divmod(n, len(out))
    if rest or primary_index % p or any(t[j::p] != t[::p] for j in range(1, p)):
        raise ValueError(f"text is no transform: no word has it with primary index {primary_index}")
    out.reverse()
    return bytes(out) * p


def run_count(w: Word) -> int:
    """Number of equal-letter runs of the transform of w.

    Only the rotations of the primitive root z of w = z**p are sorted:
    bwt(z**p) repeats each symbol of bwt(z) p times in one block, since the
    p copies of each rotation of z are adjacent in the sorted order, so both
    have the same runs. The least i >= 1 at which w occurs in ww is
    |z|, as in `words.primitive_root`, and the first 2|z| symbols of ww are
    zz. Up to the sort cutoff the rotations themselves are sorted and the
    last symbol of each is read, as every n-th symbol of their join: equal
    rotations are equal strings, so how ties are ordered cannot change the
    last column. Above it the rotation order of z indexes
    zz[|z| - 1 : 2|z| - 1] = z[-1] z[:-1]. The column's runs are counted by
    `groupby` without building (symbol, length) pairs.
    """
    _require_nonempty(w)
    doubled = w + w
    n = doubled.find(w, 1)
    if n <= _SMALL_SORT_LIMIT:
        rotations = [doubled[i : i + n] for i in range(n)]
        rotations.sort()
        column = b"".join(rotations)[n - 1 :: n]
    else:
        column = bytes(map(doubled[n - 1 : 2 * n - 1].__getitem__, rotation_order(w[:n])))
    return len(list(groupby(column)))
