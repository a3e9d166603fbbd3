"""Generic helpers that several test modules share.

Oracles stay in the test module of their topic; this module holds only the
word builders, enumerators (circular factors among them), the per-word run
deltas, the runtime budget and the opt-in marker.
"""

import os
import time
from fractions import Fraction
from itertools import product

import pytest

from bwtmorph.bwt import run_count
from bwtmorph.morphisms import Morphism
from bwtmorph.words import BINARY, EmptyWordError

w = BINARY.word

# Sweeps too slow for every run; CI runs them on one Python version.
SLOW = pytest.mark.skipif(not os.environ.get("BWTMORPH_SLOW_TESTS"), reason="set BWTMORPH_SLOW_TESTS=1 to run")


def bm(a_img, b_img):
    return Morphism((w(a_img), w(b_img)))


def rotations(word):
    """All |w| rotations, with multiplicity, in shift order."""
    if not word:
        raise EmptyWordError("rotations are undefined on the empty word")
    doubled = word + word
    n = len(word)
    return [doubled[i : i + n] for i in range(n)]


def canonical_rotation(word):
    """Lexicographically least rotation: the canonical necklace representative."""
    return min(rotations(word))


def delta_plus(m, word):
    """r(m(w)) - r(w), the additive change of one word's run count."""
    if not word:
        raise EmptyWordError("delta is undefined on the empty word")
    return run_count(m.apply(word)) - run_count(word)


def delta_times(m, word):
    """r(m(w)) / r(w), the multiplicative change of one word's run count."""
    if not word:
        raise EmptyWordError("delta is undefined on the empty word")
    return Fraction(run_count(m.apply(word)), run_count(word))


def binary_words(max_len, min_len=0):
    for n in range(min_len, max_len + 1):
        for tup in product((0, 1), repeat=n):
            yield bytes(tup)


def circular_factors(word, length):
    """Distinct length-`length` factors occurring in some rotation of word."""
    if length < 0 or length > len(word):
        raise ValueError(f"factor length {length} out of range for |w|={len(word)}")
    if length == 0:
        return {b""}
    doubled = word + word[: length - 1]
    return {doubled[i : i + length] for i in range(len(word))}


def injective_image_pairs(max_size):
    for total in range(2, max_size + 1):
        for la in range(1, total):
            for ia in product((0, 1), repeat=la):
                u = bytes(ia)
                for ib in product((0, 1), repeat=total - la):
                    v = bytes(ib)
                    if u + v != v + u:
                        yield u, v


class budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, f"budget {self.seconds}s exceeded: {self.elapsed:.1f}s"
        return False
