import math
import sys
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtmorph.bwt import bwt, run_count
from bwtmorph.morphisms import (
    EXCHANGE,
    FIBONACCI,
    FIBONACCI_TILDE,
    PERIOD_DOUBLING,
    THUE_MORSE,
    Morphism,
    compose,
    is_cyclic,
    is_sturmian,
    rho,
)
from bwtmorph.sensitivity import (
    DOLLAR_FIBONACCI,
    _fibonacci_length,
    _fibonacci_word,
    fibonacci_dollar_experiment,
    is_bwt_run_preserving,
    rho_experiment,
    sensitivity,
    wk_word,
)
from bwtmorph.words import BINARY, Alphabet, necklaces, rle
from helpers import SLOW, bm, canonical_rotation, delta_plus, delta_times, injective_image_pairs

w = BINARY.word
TERNARY = Alphabet("abc")


CYCLIC = Morphism((w("ababbba"), w("ababbba") * 2))


def cyclic_sensitivity_constants(m):
    """(r(z) - 2, r(z) / 2) for the common primitive root z of a cyclic morphism.

    These equal the length-independent sensitivity maxima whenever
    r(z) >= 2; for r(z) = 1 the formula undershoots, since the minimum
    run count over non-constant words is 2.
    """
    r = run_count(is_cyclic(m))
    return r - 2, Fraction(r, 2)


def distinct_bounded_b_runs(word):
    # Distinct lengths i of circular b-runs, each flanked by a's; valid for
    # words with at least two a's and one b.
    first_a = word.index(0)
    rotated = word[first_a:] + word[:first_a]
    return {count for s, count in rle(rotated) if s == 1}


def rho_ms_bound_check(p, max_n):
    """Exhaustively verify the run-growth bounds for the b -> b**p morphism.

    Over every necklace up to max_n with at least two a's and one b:
    the additive delta is at most twice the run count before, the ratio is
    at most 3, and the run count after is bounded by the one before plus
    twice the number of distinct circular a b^i a factors.
    """
    m = rho(p)
    for n in range(3, max_n + 1):
        for word in necklaces(2, n):
            if word.count(0) < 2 or word.count(1) < 1:
                continue
            before = run_count(word)
            after = run_count(m.apply(word))
            if after - before > 2 * before:
                return False
            if Fraction(after, before) > 3:
                return False
            if after > before + 2 * len(distinct_bounded_b_runs(word)):
                return False
    return True


def test_delta_examples():
    assert delta_plus(PERIOD_DOUBLING, w("aaaab")) == 2
    assert delta_times(PERIOD_DOUBLING, w("abbbb")) == 1
    swap3 = Morphism((TERNARY.word("b"), TERNARY.word("a"), TERNARY.word("c")))
    assert delta_plus(swap3, TERNARY.word("bcba")) == -1
    with pytest.raises(ValueError):
        delta_plus(PERIOD_DOUBLING, b"")


def test_sensitivity_period_doubling_length5():
    row = sensitivity(PERIOD_DOUBLING, 5)
    assert (row.as_value, row.ms_value) == (2, Fraction(2))
    assert row.as_witness == w("aaaab")
    assert delta_plus(PERIOD_DOUBLING, row.as_witness) == row.as_value
    assert delta_times(PERIOD_DOUBLING, row.ms_witness) == row.ms_value


def test_sensitivity_thue_morse_constant():
    for n in range(2, 9):
        assert sensitivity(THUE_MORSE, n).as_value == 2


def test_sensitivity_sturmian_zero():
    fixtures = [
        FIBONACCI,
        FIBONACCI_TILDE,
        EXCHANGE,
        compose(FIBONACCI, FIBONACCI_TILDE),
        compose(EXCHANGE, FIBONACCI),
    ]
    for m in fixtures:
        assert is_sturmian(m)
        for n in range(2, 9):
            assert sensitivity(m, n).as_value == 0, (m.images, n)
    # Non-Sturmian control in the same range.
    assert not is_sturmian(THUE_MORSE)
    assert sensitivity(THUE_MORSE, 5).as_value != 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from((EXCHANGE, FIBONACCI, FIBONACCI_TILDE)), min_size=1, max_size=6))
def test_products_of_sturmian_generators_have_zero_sensitivity(factors):
    m = reduce(compose, factors)
    assert is_sturmian(m)
    for n in range(2, 10):
        assert sensitivity(m, n).as_value == 0, (m.images, n)


def test_sensitivity_cyclic_example():
    for n in range(2, 9):
        row = sensitivity(CYCLIC, n)
        assert (row.as_value, row.ms_value) == (4, Fraction(3))
    # Maximizing over constant words as well shifts both maxima, since
    # r(a^n) = 1 undercuts the two-run minimum of non-constant words.
    row = sensitivity(CYCLIC, 6, include_constant_words=True)
    assert (row.as_value, row.ms_value) == (5, Fraction(6))


def reference_sensitivity(m, n, include_constant_words):
    # Every least rotation from a brute-force list, run counts read off the
    # transform, and the ratio kept as a Fraction; strict > keeps the least
    # witness of each maximum.
    def runs(word):
        return len(rle(bwt(word).transformed))

    reps = sorted({canonical_rotation(bytes(t)) for t in product(range(m.source_size), repeat=n)})
    best = None
    for rep in reps:
        if len(set(rep)) == 1 and not include_constant_words:
            continue
        before, after = runs(rep), runs(m.apply(rep))
        add, mul = after - before, Fraction(after, before)
        if best is None:
            best = [add, mul, rep, rep]
        if add > best[0]:
            best[0], best[2] = add, rep
        if mul > best[1]:
            best[1], best[3] = mul, rep
    return (n, best[0], best[1], best[2], best[3])


def test_sensitivity_equals_the_fraction_reference():
    binary = [THUE_MORSE, PERIOD_DOUBLING, FIBONACCI, rho(2), CYCLIC, bm("a", "bab"), bm("abaa", "aaab")]
    ternary = [
        Morphism((TERNARY.word("b"), TERNARY.word("a"), TERNARY.word("c"))),
        Morphism((TERNARY.word("ab"), TERNARY.word("c"), TERNARY.word("cab"))),
    ]
    for fixtures, top in ((binary, 10), (ternary, 6)):
        for m in fixtures:
            for n in range(2, top + 1):
                for include in (False, True):
                    row = sensitivity(m, n, include_constant_words=include)
                    assert tuple(row) == reference_sensitivity(m, n, include), (m.images, n, include)


def test_cyclic_sensitivity_constants():
    assert cyclic_sensitivity_constants(CYCLIC) == (4, Fraction(3))
    assert run_count(w("ababbba")) == 6
    assert cyclic_sensitivity_constants(Morphism((w("a"), w("aa")))) == (-1, Fraction(1, 2))
    assert cyclic_sensitivity_constants(Morphism((w("ab"), w("abab")))) == (0, Fraction(1))


def test_cyclic_constants_match_direct_computation():
    # Over non-constant words the minimum run count is exactly 2, so the
    # formula is exact for every cyclic morphism, including single-run roots.
    for m in (CYCLIC, Morphism((w("a"), w("aa"))), Morphism((w("ab"), w("abab")))):
        constants = cyclic_sensitivity_constants(m)
        for n in (2, 4, 6):
            row = sensitivity(m, n)
            assert (row.as_value, row.ms_value) == constants, (m.images, n)


def test_is_bwt_run_preserving():
    assert is_bwt_run_preserving(THUE_MORSE)
    assert not is_bwt_run_preserving(PERIOD_DOUBLING)
    assert is_bwt_run_preserving(bm("abbaab", "ababba"))
    assert not is_bwt_run_preserving(rho(2))
    assert is_bwt_run_preserving(CYCLIC)
    with pytest.raises(ValueError):
        is_bwt_run_preserving(Morphism((w("a"),)))


def test_wk_word():
    word = wk_word(6)
    assert word.startswith(w("abbaa") + w("abbab"))
    # Independent length formula: blocks (i+3) + (2i+1) and the k+2 tail.
    for k in (6, 8, 11):
        expected = sum((i + 3) + (2 * i + 1) for i in range(2, k)) + k + 2
        assert len(wk_word(k)) == expected
    # The closing block contributes the unique longest b-run, of length k.
    from bwtmorph.words import rle

    for k in (6, 9):
        runs = [count for s, count in rle(wk_word(k)) if s == 1]
        assert max(runs) == k
        assert runs.count(k) == 1
    with pytest.raises(ValueError):
        wk_word(5)


def test_word_lengths_are_known_before_the_words_are_built():
    # The closed form of the length, and a word over the largest size fails
    # before a letter of it is built.
    for k in range(6, 31):
        assert len(wk_word(k)) == (3 * k * k + 7 * k - 18) // 2
    assert len(wk_word(30)) == 1446
    with pytest.raises(OverflowError):
        wk_word(10**21)
    fib = [1, 2]
    while fib[-1] <= sys.maxsize:
        fib.append(fib[-2] + fib[-1])
    # fib[j] is F(j + 2); the last entry is the first over the largest size.
    for j in range(12):
        assert _fibonacci_length(j) == fib[j] == len(_fibonacci_word(j))
    assert _fibonacci_length(len(fib) - 2) == fib[-2]
    for j in (len(fib) - 1, 10**21):
        with pytest.raises(OverflowError):
            _fibonacci_length(j)


def test_rho_experiment_growth():
    table = rho_experiment(2, range(6, 13))
    assert table.headers == ("k", "r_before", "r_after", "delta_plus", "delta_times")
    deltas = []
    for k, before, after, delta, ratio in table.rows:
        assert delta == after - before >= 2 * (k - 2)
        assert ratio == Fraction(after, before)
        deltas.append(delta)
    assert deltas == sorted(set(deltas))
    # Growth behaves like the square root of the word length.
    for k, _, _, delta, _ in table.rows:
        assert 1.4 <= delta / math.sqrt(len(wk_word(k))) <= 1.6


def test_fibonacci_dollar_experiment():
    # Third iterate of the binary part, then the terminator.
    aba = bytes([1, 2, 1])
    assert DOLLAR_FIBONACCI.apply(aba + b"\x00") == bytes([1, 2, 1, 1, 2, 0])
    table = fibonacci_dollar_experiment([2, 3])
    assert table.rows == (
        (2, 4, 5, Fraction(5, 4)),
        (3, 4, 7, Fraction(7, 4)),
    )


def test_rho_ms_bounds():
    assert rho_ms_bound_check(2, 12)
    assert rho_ms_bound_check(3, 10)
    # The refined bound is tight on aab: one circular a-b^i-a factor, and
    # doubling the b lifts the run count from 2 to exactly 2 + 2*1.
    assert run_count(w("aab")) == 2
    assert run_count(rho(2).apply(w("aab"))) == 4


def test_binary_delta_nonnegative():
    fixtures = [THUE_MORSE, PERIOD_DOUBLING, FIBONACCI, rho(2), bm("ba", "ababaa"), bm("baa", "abb")]
    for m in fixtures:
        for n in range(1, 13):
            for rep in necklaces(2, n):
                assert delta_plus(m, rep) >= 0, (m.images, rep)


def test_bounded_versus_unbounded_growth_profiles():
    preserving = [THUE_MORSE, bm("abaa", "aaab"), bm("abbaab", "ababba"), bm("baa", "abb")]
    for m in preserving:
        values = [sensitivity(m, n).as_value for n in range(2, 13)]
        # Bounded: the maximum is reached early and the tail is flat.
        assert values[6:] == [values[6]] * len(values[6:]), (m.images, values)
    growing = [PERIOD_DOUBLING, rho(2), bm("a", "bab"), bm("ba", "ababaa")]
    for m in growing:
        values = [sensitivity(m, n).as_value for n in range(2, 13)]
        assert values[-1] > values[1] > values[0] or values[-1] > values[1] >= values[0], (m.images, values)
        assert len(set(values)) >= 3 or values[-1] >= values[0] + 4, (m.images, values)


def test_ms_plateau():
    fixtures = [THUE_MORSE, PERIOD_DOUBLING, rho(2), bm("abbaab", "ababba")]
    for m in fixtures:
        values = [sensitivity(m, n).ms_value for n in range(2, 17)]
        assert max(values) == max(values[:11]), (m.images, values)


def test_power_image_decomposition_identity():
    # (u^p, v^q) always factors as eta after rho_q after E after rho_p after E.
    cases = [
        (bm("ba", "babaababaa"[:5] * 2), w("ba"), 1, w("babaa"), 2),
        (PERIOD_DOUBLING, w("ab"), 1, w("a"), 2),
        (bm("abab", "b"), w("ab"), 2, w("b"), 1),
    ]
    for m, u, p, v, q in cases:
        eta = Morphism((u, v))
        rebuilt = compose(compose(compose(compose(eta, rho(q)), EXCHANGE), rho(p)), EXCHANGE)
        assert rebuilt == m, (m.images, rebuilt.images)


def test_sturmian_iff_zero_sensitivity_on_fixture_set():
    fixtures = [
        FIBONACCI,
        FIBONACCI_TILDE,
        EXCHANGE,
        compose(FIBONACCI, EXCHANGE),
        THUE_MORSE,
        PERIOD_DOUBLING,
        bm("abaa", "aaab"),
        rho(2),
    ]
    for m in fixtures:
        zero = all(sensitivity(m, n).as_value == 0 for n in range(2, 13))
        assert zero == is_sturmian(m), m.images


# (flat, growing) counts of the injective binary morphisms with |u| + |v| up
# to each size. The size-5 sweep takes about four times as long as size 4,
# so it runs only when BWTMORPH_SLOW_TESTS is set.
THEOREM_COUNTS = {4: (32, 22), 5: (100, 74)}


@pytest.mark.parametrize("max_size", [4, pytest.param(5, marks=SLOW)])
def test_main_theorem_bounded_iff_run_preserving(max_size):
    # The main theorem: an injective binary morphism has bounded additive
    # sensitivity iff is_bwt_run_preserving says so. Bounded shows as the
    # same maximum at n = 16 as at n = 10, unbounded as growth between them.
    flat = growing = 0
    for u, v in injective_image_pairs(max_size):
        m = Morphism((u, v))
        at_10, at_16 = sensitivity(m, 10).as_value, sensitivity(m, 16).as_value
        if is_bwt_run_preserving(m):
            assert at_16 == at_10, (m.images, at_10, at_16)
            flat += 1
        else:
            assert at_16 > at_10, (m.images, at_10, at_16)
            growing += 1
    assert (flat, growing) == THEOREM_COUNTS[max_size]
