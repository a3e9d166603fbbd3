import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtmorph.words import (
    BINARY,
    Alphabet,
    EmptyWordError,
    all_circular_factors,
    circular_factors,
    commute,
    constant_words,
    is_primitive,
    necklaces,
    primitive_root,
    rle,
)
from helpers import binary_words, canonical_rotation, rotations

w = BINARY.word


def test_rle_examples():
    assert rle(w("bbbaaaaa")) == [(1, 3), (0, 5)]
    assert rle(b"") == []
    assert rle(Alphabet("abc").word("bcab")) == [(1, 1), (2, 1), (0, 1), (1, 1)]


def expand(runs):
    return b"".join(bytes([s]) * count for s, count in runs)


def test_rle_round_trip_exhaustive():
    for word in binary_words(16, min_len=1):
        assert expand(rle(word)) == word


def test_rle_round_trip_random_large():
    rng = random.Random(1)
    for _ in range(200):
        word = bytes(rng.randint(0, 3) for _ in range(rng.randint(17, 300)))
        runs = rle(word)
        assert expand(runs) == word
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))


def test_primitive_root_examples():
    assert primitive_root(w("abab")) == (w("ab"), 2)
    assert primitive_root(w("aaaa")) == (w("a"), 4)
    assert primitive_root(w("abaab")) == (w("abaab"), 1)
    with pytest.raises(EmptyWordError):
        primitive_root(b"")


def brute_force_root(word):
    # Smallest divisor-length prefix that powers up to the word.
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d], n // d
    raise AssertionError


def test_primitive_root_soundness_exhaustive():
    for word in binary_words(12, min_len=1):
        root, exp = primitive_root(word)
        assert root * exp == word
        assert (root, exp) == brute_force_root(word)
        assert is_primitive(root)


def test_rotations():
    assert sorted(rotations(w("ab"))) == [w("ab"), w("ba")]
    assert rotations(w("aa")) == [w("aa"), w("aa")]
    assert len(set(rotations(w("abaab")))) == 5
    with pytest.raises(EmptyWordError):
        rotations(b"")


def test_rotation_count_matches_exponent():
    for word in binary_words(10, min_len=1):
        exp = primitive_root(word).exponent
        assert len(set(rotations(word))) == len(word) // exp


def test_circular_factors():
    assert circular_factors(w("ab"), 2) == {w("ab"), w("ba")}
    assert circular_factors(w("abbab"), 1) == {w("a"), w("b")}
    assert circular_factors(w("abaab"), 3) == {w("aab"), w("aba"), w("baa"), w("bab")}
    assert circular_factors(w("ab"), 0) == {b""}
    with pytest.raises(ValueError):
        circular_factors(w("ab"), 3)


def test_circular_factors_against_rotation_slicing():
    rng = random.Random(2)
    for _ in range(50):
        word = bytes(rng.randint(0, 1) for _ in range(rng.randint(1, 12)))
        for length in range(len(word) + 1):
            expected = {rot[:length] for rot in rotations(word)}
            assert circular_factors(word, length) == expected
        assert all_circular_factors(word) == {
            f for length in range(len(word) + 1) for f in circular_factors(word, length)
        }


def test_commute():
    assert commute(w("ab"), w("abab"))
    assert not commute(w("ab"), w("ba"))
    assert commute(w("ababbba"), w("ababbba") * 2)
    with pytest.raises(EmptyWordError):
        commute(b"", w("a"))


def test_commute_iff_same_primitive_root():
    for u in binary_words(8, min_len=1):
        for v in binary_words(8, min_len=1):
            same_root = primitive_root(u).root == primitive_root(v).root
            assert commute(u, v) == same_root


def test_necklace_counts():
    assert len(list(necklaces(2, 2))) == 3
    assert len(list(necklaces(2, 5))) == 8
    # Burnside: (1/6) * sum over d | 6 of phi(6/d) * 2^d = 14.
    assert len(list(necklaces(2, 6))) == 14


def burnside_necklace_count(size, n):
    # (1/n) * sum over d | n of phi(d) * size^(n/d), phi counted by gcd.
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            phi = sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)
            total += phi * size ** (n // d)
    assert total % n == 0
    return total // n


def test_necklace_counts_match_burnside_over_the_sweep_range():
    # The sensitivity sweep reaches binary n <= 16 and ternary n <= 9.
    for size, longest in ((2, 16), (3, 9)):
        for n in range(1, longest + 1):
            assert len(list(necklaces(size, n))) == burnside_necklace_count(size, n), (size, n)
    for n in range(1, 17):
        assert list(necklaces(1, n)) == [bytes(n)]


def test_necklaces_partition_binary_words():
    for n in range(1, 13):
        reps = list(necklaces(2, n))
        assert reps == sorted(reps)
        covered = set()
        for rep in reps:
            assert canonical_rotation(rep) == rep
            cls = set(rotations(rep))
            assert not cls & covered
            covered |= cls
        assert len(covered) == 2 ** n


def test_necklaces_are_the_least_rotations_in_order():
    for size in (1, 2, 3, 4):
        for n in range(1, {1: 6, 2: 11, 3: 7, 4: 6}[size]):
            least = sorted({canonical_rotation(bytes(t)) for t in product(range(size), repeat=n)})
            assert list(necklaces(size, n)) == least, (size, n)


def test_necklaces_check_arguments_at_the_call():
    with pytest.raises(ValueError):
        necklaces(0, 3)
    with pytest.raises(ValueError):
        necklaces(2, 0)


def test_constant_words():
    assert constant_words(3, 2) == {w("aa"), w("bb"), Alphabet("abc").word("cc")}
    for size in (1, 2, 3):
        for n in range(1, 8):
            expected = {rep for rep in necklaces(size, n) if len(set(rep)) == 1}
            assert constant_words(size, n) == expected, (size, n)


def test_alphabet_rendering():
    dollar = Alphabet("$ab")
    assert dollar.word("a$b") == bytes([1, 0, 2])
    assert dollar.render(bytes([1, 0, 2])) == "a$b"
    assert (dollar.word(""), dollar.render(b"")) == (b"", "")
    # The error names the first stray letter in text order, not set order.
    for text, bad in (("xyz", "x"), ("ab$zy", "z"), ("\x01a", "\x01")):
        with pytest.raises(ValueError) as exc:
            dollar.word(text)
        assert str(exc.value) == f"letter {bad!r} not in alphabet '$ab'"
    for stray in (bytes([3]), bytes([0, 1, 255, 2])):
        with pytest.raises(ValueError) as exc:
            dollar.render(stray)
        assert str(exc.value) == "symbol outside alphabet '$ab'"
    with pytest.raises(ValueError):
        Alphabet("aa")


def test_alphabet_holds_at_most_256_letters():
    letters = "".join(map(chr, range(0x100, 0x100 + 256)))
    assert Alphabet(letters).render(bytes(range(256))) == letters
    with pytest.raises(ValueError, match="257 letters"):
        Alphabet(letters + "a")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("$é→") | st.characters(), min_size=1, max_size=256, unique=True).map("".join),
    st.data(),
)
def test_alphabet_round_trip(letters, data):
    alpha = Alphabet(letters)
    text = "".join(data.draw(st.lists(st.sampled_from(letters), max_size=300)))
    word = alpha.word(text)
    assert word == bytes(letters.index(c) for c in text)
    assert alpha.render(word) == text
