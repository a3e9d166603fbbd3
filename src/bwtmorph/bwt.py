"""Burrows-Wheeler transform on rotation multisets, inversion, and run counts.

The transform here is the rotation-sorting one: no sentinel is added, and a
smallest-symbol terminator is just an ordinary symbol. Equal rotations of a
non-primitive word are kept with multiplicity and ordered by their original
shift, which makes the primary index deterministic.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Callable, NamedTuple

from .words import Word, _require_nonempty

# Above this length, rotation sorting and run counting switch from sorting
# the rotation rows to cyclic prefix doubling; both orders are identical by
# construction. The rows cost about 2n**2 bytes while they are cut (w**(n+1),
# then n rows of n + 1 symbols), and on a 2-core x86-64 VM with Python 3.11
# the row sort stays faster up to about 1.7k symbols on random binary words
# and 2.8k on Fibonacci-$ and periodic ones; 1024 keeps the rows near 2 MB.
_SMALL_SORT_LIMIT = 1024

# From this length up, run_count reads the last symbol of each sorted row
# one by one instead of slicing it out of the rows' n(n + 1)-byte join,
# which above glibc's 128 KB mmap threshold can be mapped and unmapped, and
# page-faulted, on every call. Per call on 10 random binary words, in a
# fresh process per length (2-core x86-64 VM, Python 3.11), join and slice
# against one read per row:
#     n      16      64     256     512     640     768    1024
#   join    1.4     5.7    41.2   116.8   157.2   214.8  1321 us
#   read    1.8     7.5    44.8   119.9   159.0   205.1   956 us
_COLUMN_READ_FROM = 640


@lru_cache(maxsize=64)
def _row_cutter(n: int) -> Callable[[bytes], tuple[bytes, ...]]:
    """The unpack of n fields of n + 1 bytes, built once per length.

    The 64 lengths kept cover the 31 of a sensitivity sweep; a cutter holds
    about 32 bytes per field, so the cache stays near 2 MB at most.
    """
    return struct.Struct(f"{n + 1}s" * n).unpack


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
        return sorted(range(n), key=_rotation_rows(w).__getitem__)
    return _rotation_order_doubling(w)


def _rotation_rows(w: Word) -> tuple[bytes, ...]:
    """Row j is rotation j of w followed by w[j], cut from w**(n+1) in one call.

    Piece j of n + 1 symbols starts at j * (n + 1), which is j modulo n. The
    extra symbol orders no two rows that differ: rows that differ do so within
    their first n symbols. Equal rotations have equal first symbols, so their
    rows stay equal, and a stable sort keeps them in shift order.
    """
    n = len(w)
    return _row_cutter(n)(w * (n + 1))


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
    zz. Up to the sort cutoff the rows of z (rotation j, then z[j]), cut
    as in `_rotation_rows`, are sorted, which is the rotation order since
    the rotations of a primitive word are distinct, and the column is the
    last symbol of each rotation, byte |z| - 1 of each row: sliced from the
    rows' join, or read row by row from `_COLUMN_READ_FROM` on. Above it
    the rotation order of z indexes zz[|z| - 1 : 2|z| - 1] = z[-1] z[:-1].
    Read as one big-endian integer x, the column c gives x ^ x >> 8, whose
    byte i is c[i] ^ c[i - 1] for i >= 1, zero exactly where neighbours are
    equal, so the runs are |z| less the zero bytes from byte 1 on.
    """
    _require_nonempty(w)
    doubled = w + w
    n = doubled.find(w, 1)
    if n > _SMALL_SORT_LIMIT:
        column = bytes(map(doubled[n - 1 : 2 * n - 1].__getitem__, rotation_order(w[:n])))
    else:
        rows = sorted(_row_cutter(n)(w[:n] * (n + 1)))
        if n < _COLUMN_READ_FROM:
            column = b"".join(rows)[n - 1 :: n + 1]
        else:
            column = bytes(map(itemgetter(n - 1), rows))
    x = int.from_bytes(column, "big")
    return n - (x ^ x >> 8).to_bytes(n, "big").count(0, 1)
