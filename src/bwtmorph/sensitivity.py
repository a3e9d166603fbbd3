"""Run-count sensitivity of morphisms, exactly, by necklace enumeration.

The per-word deltas compare the number of transform runs before and after a
morphism is applied. The length-n maxima are taken over one representative
per rotation class, which is exact because run counts are invariant under
rotation on both sides.

Constant words are skipped by default: a morphism sends a**n to a power of
a single image, whose run count does not depend on n, and keeping them
would drown the classification signal (every non-trivial morphism gains a
constant offset from r(a**n) = 1). Pass include_constant_words=True to
maximize over all of Sigma**n literally.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, NamedTuple

from .bwt import run_count
from .morphisms import Morphism, is_cyclic, rho
from .primitivity import is_primitivity_preserving, power_words
from .words import Word, constant_words, necklaces


class SensitivityRow(NamedTuple):
    n: int
    as_value: int
    ms_value: Fraction
    as_witness: Word
    ms_witness: Word


class ExperimentTable(NamedTuple):
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]


def sensitivity(m: Morphism, n: int, include_constant_words: bool = False) -> SensitivityRow:
    """Exact maxima of the additive and multiplicative deltas over length n.

    Witnesses are the least canonical necklaces attaining each maximum;
    enumeration order makes that deterministic.
    """
    sigma = m.source_size
    if n < 2 and sigma >= 2:
        raise ValueError("sensitivity needs n >= 2 on alphabets with two or more letters")
    if n < 1:
        raise ValueError("sensitivity needs n >= 1")
    best_add: int | None = None
    # The ratio maximum is kept as num / den and compared by cross
    # multiplication (run counts are positive). Every image is non-empty, so
    # its run count is at least 1 and the first word beats the start 0 / 1.
    num, den = 0, 1
    add_witness = mul_witness = b""
    skipped = frozenset() if include_constant_words else constant_words(sigma, n)
    apply = m.apply
    for w in necklaces(sigma, n):
        if w in skipped:
            continue
        before = run_count(w)
        after = run_count(apply(w))
        add = after - before
        if best_add is None or add > best_add:
            best_add, add_witness = add, w
        if after * den > num * before:
            num, den, mul_witness = after, before, w
    if best_add is None:
        raise ValueError(f"no qualifying words of length {n}")
    return SensitivityRow(n, best_add, Fraction(num, den), add_witness, mul_witness)


def is_bwt_run_preserving(m: Morphism) -> bool:
    """Bounded additive sensitivity, decided structurally.

    Cyclic morphisms are trivially bounded; acyclic ones are bounded
    exactly when they preserve primitivity.
    """
    if not m.is_binary():
        raise ValueError("run preservation is decided for binary morphisms only")
    if is_cyclic(m) is not None:
        return True
    return is_primitivity_preserving(power_words(m)).preserving


_A, _B = b"\x00", b"\x01"


def wk_word(k: int) -> Word:
    """The k-th member of the quadratic-length family driving unbounded growth.

    Blocks a b^i a a and a b^i a b a^(i-2) for i = 2 .. k-1, closed by
    a b^k a; the longest b-run is k and the length grows as k^2.
    """
    if k <= 5:
        raise ValueError("the family is defined for k > 5")
    # The two blocks of each i have 3i + 4 letters, the closing one k + 2.
    length = (3 * k * k + 7 * k - 18) // 2
    if length > sys.maxsize:
        raise OverflowError(f"w_k for k = {k} has {length} letters, more than the largest size {sys.maxsize}")
    parts = []
    for i in range(2, k):
        parts.append(_A + _B * i + _A + _A)
        parts.append(_A + _B * i + _A + _B + _A * (i - 2))
    parts.append(_A + _B * k + _A)
    return b"".join(parts)


def rho_experiment(p: int, ks: Iterable[int]) -> ExperimentTable:
    """Run growth of the b -> b**p morphism along the quadratic family."""
    if p <= 1:
        raise ValueError("exponent must exceed 1")
    m = rho(p)
    rows = []
    for k in ks:
        w = wk_word(k)
        before = run_count(w)
        after = run_count(m.apply(w))
        rows.append((k, before, after, after - before, Fraction(after, before)))
    return ExperimentTable(("k", "r_before", "r_after", "delta_plus", "delta_times"), tuple(rows))


# Three letters $ < a < b; the morphism fixes $ and acts as the Fibonacci
# morphism on a and b.
DOLLAR_FIBONACCI = Morphism((b"\x00", b"\x01\x02", b"\x01"))


def _fibonacci_length(j: int) -> int:
    """F(j + 2), the length of the j-th iterate of a, counted before building.

    The count stops at the first length over the largest size, so a huge j
    raises OverflowError after about 90 steps.
    """
    shorter, length = 1, 1
    for _ in range(j):
        shorter, length = length, shorter + length
        if length > sys.maxsize:
            raise OverflowError(f"the Fibonacci word of index {j} has more than {sys.maxsize} letters, the largest size")
    return length


def _fibonacci_word(j: int) -> Word:
    _fibonacci_length(j)
    w = b"\x01"
    for _ in range(j):
        w = DOLLAR_FIBONACCI.apply(w)
    return w


def fibonacci_dollar_experiment(ks: Iterable[int]) -> ExperimentTable:
    """Run-count ratios along terminated Fibonacci words of index 2k and 2k+1.

    The morphism maps each even-index terminated word to the next one;
    that identity is re-checked before measuring.
    """
    rows = []
    for k in ks:
        if k < 0:
            raise ValueError(f"the terminated Fibonacci words need k >= 0, got {k}")
        lower = _fibonacci_word(2 * k) + b"\x00"
        upper = _fibonacci_word(2 * k + 1) + b"\x00"
        if DOLLAR_FIBONACCI.apply(lower) != upper:
            raise AssertionError("image of the even-index word must be the odd-index word")
        before = run_count(lower)
        after = run_count(upper)
        rows.append((k, before, after, Fraction(after, before)))
    return ExperimentTable(("k", "r_even", "r_odd", "ratio"), tuple(rows))
