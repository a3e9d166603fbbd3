import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtmorph.bwt import (
    _SMALL_SORT_LIMIT,
    BwtResult,
    _rotation_order_doubling,
    _row_cutter,
    bwt,
    inverse_bwt,
    rotation_order,
    run_count,
)
from bwtmorph.morphisms import EXCHANGE, FIBONACCI, FIBONACCI_TILDE, compose
from bwtmorph.words import BINARY, Alphabet, EmptyWordError, is_primitive, necklaces, rle
from helpers import SLOW, rotations

w = BINARY.word
TERNARY = Alphabet("abc")


def slice_order(word):
    # Rotations compared as explicit slices, equal ones by ascending shift.
    rots = rotations(word)
    return sorted(range(len(word)), key=lambda i: (rots[i], i))


def brute_bwt(word):
    # The last symbols of the explicitly sorted rotations spell the transform.
    order = slice_order(word)
    return bytes(word[i - 1] for i in order), order.index(0)


def bwt_of_power(z, p):
    """Transform of z**p from the transform of z, without sorting z**p.

    Each symbol of bwt(z) expands to a block of p copies, and the rank of
    the input grows p-fold.
    """
    base = bwt(z)
    expanded = b"".join(bytes([s]) * p for s in base.transformed)
    return BwtResult(expanded, base.primary_index * p)


def words_over(symbols, max_len):
    for n in range(1, max_len + 1):
        for tup in product(symbols, repeat=n):
            yield bytes(tup)


@pytest.mark.parametrize("ternary, binary", [(8, 14), pytest.param(10, 18, marks=SLOW)])
def test_rotation_kernel_matches_the_definitions(ternary, binary):
    # rotation_order and run_count share one row sort up to the cutoff, so
    # both are checked against sorting the rotations themselves: every word
    # over 3 symbols and over 2 up to the given lengths, the powers z**p of
    # the words 2 and 4 symbols shorter (equal rotations tie), the extreme
    # symbols 0 and 255, and lengths next to the cutoff.
    words = [*words_over((0, 1, 2), ternary), *words_over((0, 1), binary)]
    roots = [*words_over((0, 1, 2), ternary - 2), *words_over((0, 1), binary - 4)]
    words += [z * p for z in roots for p in (2, 3, 4)]
    words += [*words_over((0, 255), 10), *words_over((0, 1, 254, 255), 5), bytes(range(256)), bytes(range(255, -1, -1))]
    rng = random.Random(9)
    for n in (1, _SMALL_SORT_LIMIT - 1, _SMALL_SORT_LIMIT, _SMALL_SORT_LIMIT + 1):
        for sigma in (2, 256):
            z = bytes(rng.randrange(sigma) for _ in range(n))
            words += [z, z * 2, bytes([255, 0]) * (n // 2) + z[: n % 2]]
    for word in words:
        assert rotation_order(word) == slice_order(word), word
        assert run_count(word) == len(rle(brute_bwt(word)[0])), word


def test_row_cutter_cache_serves_each_length_its_own_cutter():
    # Lengths interleave, pass the cache's size, then come back to the first
    # ones; each answer must still be the one of sorting the rotations. The
    # run count is also checked at n = 1 and n = 2, where the XOR has no or
    # one neighbour pair.
    held = _row_cutter.cache_info().maxsize
    lengths = [5, 7, 5, _SMALL_SORT_LIMIT, 3, 7, 1, 2, 1]
    lengths += list(range(8, 8 + held + 4)) + [5, 7, _SMALL_SORT_LIMIT, 3, 2, 1]
    assert len(set(lengths)) > held
    rng = random.Random(10)
    for n in lengths:
        for word in (bytes(rng.randrange(3) for _ in range(n)), bytes(rng.randrange(2) for _ in range(n))):
            assert rotation_order(word) == slice_order(word), word
            assert run_count(word) == len(rle(brute_bwt(word)[0])), word
    for word in (b"\x00", b"\x05", b"\x00\x00", b"\x00\x01", b"\x01\x00", b"\x00\xff"):
        assert run_count(word) == len(rle(brute_bwt(word)[0])), word


def test_known_transforms():
    assert bwt(w("abaababa")).transformed == w("bbbaaaaa")
    assert run_count(w("abaababa")) == 2
    assert bwt(w("aaaab")).transformed == w("baaaa")
    assert bwt(TERNARY.word("bcba")).transformed == TERNARY.word("bcab")
    assert run_count(TERNARY.word("bcba")) == 4
    assert run_count(TERNARY.word("acab")) == 3
    assert bwt(b"\x00" * 7) == (b"\x00" * 7, 0)
    with pytest.raises(EmptyWordError):
        bwt(b"")
    with pytest.raises(EmptyWordError):
        run_count(b"")


def test_run_count_table_values():
    assert run_count(w("aaabb")) == 4
    assert run_count(w("ababb")) == 2
    assert run_count(w("abbbb")) == 2


def test_matches_brute_force():
    for n in range(1, 9):
        for tup in product((0, 1), repeat=n):
            word = bytes(tup)
            assert bwt(word) == brute_bwt(word)


def fibonacci_dollar(min_length):
    # The first Fibonacci word of at least min_length letters over $ < a < b,
    # closed by the terminator $.
    word = w("a")
    while len(word) < min_length:
        word = FIBONACCI.apply(word)
    return bytes(s + 1 for s in word) + b"\x00"


def test_doubling_path_matches_small_path():
    rng = random.Random(3)
    for _ in range(100):
        word = bytes(rng.randint(0, 2) for _ in range(rng.randint(1, 60)))
        assert _rotation_order_doubling(word) == rotation_order(word)
    words = [b"\x00", b"\x01", b"\x00\x01", b"\x01\x00", b"\x01\x01"]
    words += [bytes([s]) * n for s in (0, 2) for n in (3, 64, 1500)]
    words += [z * p for z in (w("ab"), w("aab"), w("abbab")) for p in (1, 2, 7, 400)]
    words += [fibonacci_dollar(length) for length in (5, 100, 1000, 3000)]
    words += [
        bytes(rng.randint(0, 1) for _ in range(n))
        for n in (_SMALL_SORT_LIMIT - 1, _SMALL_SORT_LIMIT, _SMALL_SORT_LIMIT + 1)
    ]
    words.append(w("ab") * (_SMALL_SORT_LIMIT // 2) + w("a"))
    # Larger alphabets pack fewer symbols per starting window (4 letters:
    # 16, 256 letters: 4), so the packing rounds and the ranked rounds vary.
    words += [bytes(rng.randrange(sigma) for _ in range(rng.randint(1025, 3000))) for sigma in (4, 256) for _ in range(2)]
    words += [bytes([255, 0, 255]) * 400, bytes(range(256)) * 5]
    # Terminated Fibonacci words keep few distinct keys for many rounds,
    # so the re-ranking sorts stay small while ties last.
    fib = fibonacci_dollar(4182)
    words += [fibonacci_dollar(length) for length in (1025, 1598, 2585)]
    words += [fib[: n - 1] + b"\x00" for n in (1025, 2000, 4182)]
    # Over 256 symbols, packing 8 symbols would pass 60 bits, so the keys
    # are re-ranked once they cover 4 symbols.
    words += [bytes(rng.randrange(256) for _ in range(2000)), bytes(range(256)) * 8 + b"\x00"]
    # Powers above the cutoff: equal rotations stay tied to the final sort
    # and must come out in ascending shift order.
    long_root = bytes(rng.randint(0, 1) for _ in range(700))
    words += [b"\x00" * 1100, w("ab") * 600, w("aab") * 700, fib[:1000] * 2, long_root * 3]
    words += [bytes(rng.randrange(4) for _ in range(300)) * 4]
    # Lengths next to powers of two, where the last round just reaches n.
    for k in (10, 11, 12):
        for n in (2**k - 1, 2**k, 2**k + 1):
            words += [bytes(rng.randint(0, 1) for _ in range(n)), fib[: n - 1] + b"\x00"]
    for word in words:
        expected = slice_order(word)
        assert _rotation_order_doubling(word) == expected
        assert rotation_order(word) == expected
    # Words of one to three symbols go straight to the doubling sort, where
    # packing overshoots the length after one or two rounds.
    for sigma in (1, 2, 3, 256):
        for n in (1, 2, 3):
            for _ in range(20):
                word = bytes(rng.randrange(sigma) for _ in range(n))
                assert _rotation_order_doubling(word) == slice_order(word)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=80).map(bytes), st.integers(1, 4))
def test_doubling_order_is_the_slice_order_with_shift_ties(root, power):
    word = root * power
    assert _rotation_order_doubling(word) == slice_order(word)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.binary(min_size=1, max_size=80),
        st.binary(min_size=_SMALL_SORT_LIMIT - 40, max_size=_SMALL_SORT_LIMIT + 200),
    ).map(lambda raw: bytes(x % 3 for x in raw)),
    st.integers(1, 3),
)
def test_run_count_counts_the_runs_of_the_transform(root, power):
    # run_count sorts rotation strings up to the cutoff and reads the
    # rotation order above it; both must agree with the transform itself.
    for word in (root, root * power):
        assert run_count(word) == len(rle(bwt(word).transformed))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.binary(min_size=1, max_size=64),
        st.integers(_SMALL_SORT_LIMIT + 1, _SMALL_SORT_LIMIT + 200).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    ).map(lambda raw: bytes(x % 3 for x in raw))
)
def test_inverse_undoes_bwt(word):
    # Short words take the slice path, long ones the doubling path.
    res = bwt(word)
    assert inverse_bwt(res.transformed, res.primary_index) == word


def test_large_word_uses_doubling_and_round_trips():
    rng = random.Random(4)
    for sigma in (2, 4):
        word = bytes(rng.randrange(sigma) for _ in range(3000))
        res = bwt(word)
        assert inverse_bwt(res.transformed, res.primary_index) == word


def test_rotation_invariance_exhaustive():
    for n in range(1, 13):
        for rep in necklaces(2, n):
            reference = bwt(rep).transformed
            for rot in set(rotations(rep)):
                assert bwt(rot).transformed == reference


def test_parikh_preservation():
    # The transform permutes the word's letters, so letter counts are kept.
    rng = random.Random(5)
    for _ in range(100):
        word = bytes(rng.randint(0, 2) for _ in range(rng.randint(1, 40)))
        assert sorted(bwt(word).transformed) == sorted(word)


def test_inverse_round_trip_random():
    rng = random.Random(6)
    for _ in range(300):
        word = bytes(rng.randint(0, 1) for _ in range(rng.randint(1, 64)))
        res = bwt(word)
        assert inverse_bwt(res.transformed, res.primary_index) == word
    with pytest.raises(ValueError):
        inverse_bwt(w("ab"), 2)


def test_inverse_walks_the_stable_last_to_first_map():
    # A transform inverts along the map that numbers equal symbols in text
    # order, and the walk is the same for every alphabet size. Any other
    # text is rejected: the walk's word has a different transform.
    rng = random.Random(7)
    for trial in range(600):
        n = rng.randint(1, 40)
        text = bytes(rng.choice((0, 1, 2, 5)) for _ in range(n))
        index = rng.randrange(n)
        if trial % 2:
            text, index = bwt(text)
        lf = {i: rank for rank, i in enumerate(sorted(range(n), key=lambda i: (text[i], i)))}
        row, out = index, []
        for _ in range(n):
            out.append(text[row])
            row = lf[row]
        walked = bytes(reversed(out))
        if bwt(walked) == (text, index):
            assert inverse_bwt(text, index) == walked
        else:
            assert trial % 2 == 0
            with pytest.raises(ValueError, match="no transform"):
                inverse_bwt(text, index)


def test_inverse_rejects_exactly_the_texts_that_are_no_transform():
    for n in range(1, 9):
        transforms = {}
        for tup in product((0, 1), repeat=n):
            transforms[tuple(bwt(bytes(tup)))] = bytes(tup)
        for tup in product((0, 1), repeat=n):
            for index in range(n):
                expected = transforms.get((bytes(tup), index))
                if expected is None:
                    with pytest.raises(ValueError, match="no transform"):
                        inverse_bwt(bytes(tup), index)
                else:
                    assert inverse_bwt(bytes(tup), index) == expected


def test_power_law_and_power_transform():
    for n in range(1, 11):
        for rep in necklaces(2, n):
            if not is_primitive(rep):
                continue
            base_runs = run_count(rep)
            for p in range(2, 5):
                assert run_count(rep * p) == base_runs
    for n in range(1, 9):
        for tup in product((0, 1), repeat=n):
            z = bytes(tup)
            for p in range(1, 5):
                assert bwt_of_power(z, p) == bwt(z * p)
    assert bwt_of_power(w("ab"), 3).transformed == w("bbbaaa")
    assert run_count(w("abaababa") * 2) == 2


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.binary(min_size=1, max_size=40),
        st.binary(min_size=_SMALL_SORT_LIMIT // 8, max_size=_SMALL_SORT_LIMIT // 4),
    ).map(lambda raw: bytes(x % 3 for x in raw)),
    st.integers(1, 12),
)
def test_run_count_of_a_power_is_the_run_count_of_its_root(z, p):
    # bwt_of_power never sorts z**p, so it is an oracle for the root shortcut.
    assert run_count(z * p) == run_count(z) == len(rle(bwt_of_power(z, p).transformed))


def test_run_count_of_powers_across_the_sort_cutoff():
    # The powers pass the cutoff while their roots stay below it, or both
    # pass it; the full transform sorts every rotation of the power.
    rng = random.Random(8)
    short_root = bytes(rng.randint(0, 1) for _ in range(256))
    long_root = bytes(rng.randint(0, 2) for _ in range(1500))
    for word in (w("ab") * 3000, w("aab") * 400, short_root * 5, bytes(range(256)) * 5, long_root * 2):
        assert len(word) > _SMALL_SORT_LIMIT
        assert run_count(word) == len(rle(bwt(word).transformed))
    # Constant words are powers of a one-letter root: one run at any length.
    for s in (0, 1, 2, 255):
        for n in (1, 2, _SMALL_SORT_LIMIT, _SMALL_SORT_LIMIT + 1, 5000):
            assert run_count(bytes([s]) * n) == 1


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.binary(min_size=1, max_size=40),
        st.binary(min_size=_SMALL_SORT_LIMIT // 4, max_size=_SMALL_SORT_LIMIT // 2),
    ).map(lambda raw: bytes(x % 3 for x in raw)),
    st.integers(1, 4),
)
def test_bwt_of_power_is_bwt_of_the_power(z, p):
    # Powers of the long roots pass the sort cutoff, so both sort paths are compared.
    assert bwt_of_power(z, p) == bwt(z * p)


def test_two_run_images_of_sturmian_letter_images():
    for m in (FIBONACCI, FIBONACCI_TILDE, compose(FIBONACCI, FIBONACCI_TILDE), compose(EXCHANGE, FIBONACCI)):
        image = m.images[0]
        assert len(set(image)) == 2
        for exponent in range(1, 4):
            assert run_count(image * exponent) == 2
