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
# construction. The slice keys cost n**2 bytes, and measured on random,
# Fibonacci and periodic words the slice path stays the faster one up to
# about 2k symbols; 1024 keeps the slice memory near 1 MB.
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

    keys[i] orders rotation i by its first `length` cyclic symbols, and
    every key is below `base`. The first windows are packed without
    sorting: keys[i] * base + keys[i + length] is the base-`base` numeral
    of the first 2*length symbols, so it orders them exactly; packing goes
    on while base**2 fits in 60 bits (32 symbols of a binary word). Each
    later round sorts, re-ranks, and packs (rank[i], rank[i + length]) the
    same way. It stops once all ranks differ, or once length >= n:
    rotations still tied are then equal, and every round sorts range(n)
    stably, so they keep ascending shift order.
    """
    n = len(w)
    keys = list(w)
    base = max(w) + 1
    length = 1
    while length < n and base * base <= 1 << 60:
        keys = [a * base + b for a, b in zip(keys, keys[length:] + keys[:length])]
        base *= base
        length *= 2
    while True:
        order = sorted(range(n), key=keys.__getitem__)
        if length >= n:
            return order
        rank = [0] * n
        top = prev = -1
        for i in order:
            key = keys[i]
            if key != prev:
                top += 1
                prev = key
            rank[i] = top
        if top == n - 1:
            return order
        base = top + 1
        keys = [a * base + b for a, b in zip(rank, rank[length:] + rank[:length])]
        length *= 2


def bwt(w: Word) -> BwtResult:
    """Last symbols of the sorted rotations, plus the rank of w itself."""
    order = rotation_order(w)
    transformed = bytes(w[i - 1] for i in order)
    return BwtResult(transformed, order.index(0))


def inverse_bwt(t: Word, primary_index: int) -> Word:
    """Invert the transform by walking the last-to-first column mapping."""
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
    out = bytearray()
    row = primary_index
    for _ in range(n):
        out.append(t[row])
        row = lf[row]
    out.reverse()
    return bytes(out)


def run_count(w: Word) -> int:
    """Number of equal-letter runs of the transform of w.

    Only the rotations of the primitive root z of w = z**p are sorted:
    bwt(z**p) repeats each symbol of bwt(z) p times (see `bwt_of_power`),
    so both have the same runs. The least i >= 1 at which w occurs in ww is
    |z|, as in `words.primitive_root`, and the first 2|z| symbols of ww are
    zz. Up to the sort cutoff the rotations themselves are sorted and the
    last symbol of each is read: equal rotations are equal strings, so how
    ties are ordered cannot change the last column. Above it the column is
    read off the rotation order. The runs of the column are counted by
    `groupby` without building their (symbol, length) pairs.
    """
    _require_nonempty(w)
    doubled = w + w
    n = doubled.find(w, 1)
    if n <= _SMALL_SORT_LIMIT:
        rotations = [doubled[i : i + n] for i in range(n)]
        rotations.sort()
        column = [r[-1] for r in rotations]
    else:
        z = w[:n]
        column = [z[i - 1] for i in rotation_order(z)]
    return len(list(groupby(column)))


def bwt_of_power(z: Word, p: int) -> BwtResult:
    """Transform of z**p computed from the transform of z.

    Each symbol of bwt(z) expands to a block of p copies, and the rank of
    the input grows p-fold; no rotation of z**p is ever sorted.
    """
    if p < 1:
        raise ValueError("exponent must be positive")
    base = bwt(z)
    expanded = b"".join(bytes([s]) * p for s in base.transformed)
    return BwtResult(expanded, base.primary_index * p)
