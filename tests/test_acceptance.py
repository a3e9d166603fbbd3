"""Acceptance gate: one test per criterion, each printing its own pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is exact unless the criterion itself is a
growth-shape property, and each test enforces its runtime budget.
"""

import random
from fractions import Fraction
from itertools import product

from bwtmorph import fixtures
from bwtmorph.bwt import bwt, inverse_bwt, run_count
from bwtmorph.cli import main
from bwtmorph.morphisms import (
    EXCHANGE,
    FIBONACCI,
    FIBONACCI_TILDE,
    THUE_MORSE,
    Morphism,
    compose,
    factor_through_tau,
    named_morphism,
    rho,
)
from bwtmorph.primitivity import (
    PowerCase,
    is_primitivity_preserving,
    is_recognizable,
    power_words,
)
from bwtmorph.sensitivity import (
    fibonacci_dollar_experiment,
    sensitivity,
    wk_word,
)
from bwtmorph.syncing import (
    FULL_BINARY,
    BoundedLetterRuns,
    circular_factorizations,
    decide_sync_finite_delay,
    find_sync_pairs,
    sync_delay_for_word,
)
from bwtmorph.words import BINARY, Alphabet, is_primitive
from helpers import bm, budget, circular_factors, delta_plus
from test_bwt import bwt_of_power
from test_sensitivity import cyclic_sensitivity_constants, rho_ms_bound_check

w = BINARY.word


def report(number, text):
    print(f"criterion {number:2d}: PASS  {text}")


def test_criterion_01_table1_reproduction(capsys):
    with budget(1.0) as timer:
        assert main(["reproduce", "table1"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    expected_rows = [" ".join(str(c) for c in row) for row in fixtures.TABLE1]
    assert out[:6] == expected_rows
    assert out[6] == "AS_pi(5)=2 MS_pi(5)=2"
    assert out[7] == "fixture match: ok"
    with capsys.disabled():
        report(1, f"table regenerated byte-identically, AS=MS=2 ({timer.elapsed:.2f}s)")


def test_criterion_02_figure1(capsys):
    with budget(1.0):
        res = bwt(w("abaababa"))
        assert BINARY.render(res.transformed) == "bbbaaaaa"
        assert run_count(w("abaababa")) == 2
    with capsys.disabled():
        report(2, "bwt(abaababa) = bbbaaaaa with r = 2")


def test_criterion_03_thue_morse_constant_sensitivity(capsys):
    with budget(60.0) as timer:
        for n in range(2, 17):
            assert sensitivity(THUE_MORSE, n).as_value == 2, n
    with capsys.disabled():
        report(3, f"AS of the Thue-Morse morphism is 2 for n in [2,16] ({timer.elapsed:.1f}s)")


def test_criterion_04_sturmian_zero_sensitivity(capsys):
    fixture_set = [
        FIBONACCI,
        FIBONACCI_TILDE,
        EXCHANGE,
        compose(FIBONACCI, FIBONACCI_TILDE),
        compose(EXCHANGE, FIBONACCI),
    ]
    with budget(60.0) as timer:
        for m in fixture_set:
            for n in range(2, 15):
                assert sensitivity(m, n).as_value == 0, (m.images, n)
    with capsys.disabled():
        report(4, f"AS = 0 on [2,14] for all five Sturmian fixtures ({timer.elapsed:.1f}s)")


def test_criterion_05_square_root_growth(capsys):
    pi = named_morphism("period-doubling")
    with budget(120.0) as timer:
        rho2 = rho(2)
        rho_deltas = []
        pi_deltas = []
        for k in range(6, 13):
            word = wk_word(k)
            d_rho = delta_plus(rho2, word)
            d_pi = delta_plus(pi, word)
            assert d_rho >= 2 * (k - 2), (k, d_rho)
            rho_deltas.append(d_rho)
            pi_deltas.append(d_pi)
        assert all(b > a for a, b in zip(rho_deltas, rho_deltas[1:]))
        assert all(b > a for a, b in zip(pi_deltas, pi_deltas[1:]))
    with capsys.disabled():
        report(5, f"deltas on the quadratic family grow monotonically, >= 2(k-2) ({timer.elapsed:.1f}s)")


def test_criterion_06_classification_fixtures(capsys):
    with budget(1.0) as timer:
        assert is_primitivity_preserving(power_words(THUE_MORSE)).preserving
        assert is_primitivity_preserving(power_words(bm("abaa", "aaab"))).preserving
        for m in (FIBONACCI, FIBONACCI_TILDE, EXCHANGE, compose(FIBONACCI, FIBONACCI_TILDE), compose(EXCHANGE, FIBONACCI)):
            assert is_primitivity_preserving(power_words(m)).preserving
        expected_witnesses = [
            (bm("ab", "aa"), "b"),
            (bm("a", "bab"), "ab"),
            (bm("abba", "b"), "abb"),
            (bm("ba", "ababaa"), "aab"),
        ]
        for m, witness in expected_witnesses:
            verdict = is_primitivity_preserving(power_words(m))
            assert not verdict.preserving
            assert verdict.witness == w(witness), (m.images, verdict)
            assert not is_primitive(m.apply(verdict.witness))
        # (abab, baba): both images are squares, so a letter is the witness.
        # The word ab cannot witness anything here: its image ababbaba is
        # primitive. (aba, b), whose image of ab is (ab)^2, is checked too.
        squares = bm("abab", "baba")
        verdict = is_primitivity_preserving(power_words(squares))
        assert (verdict.preserving, verdict.witness) == (False, w("a"))
        assert is_primitive(squares.apply(w("ab")))
        verdict = is_primitivity_preserving(power_words(bm("aba", "b")))
        assert (verdict.preserving, verdict.witness) == (False, w("ab"))
    with capsys.disabled():
        report(6, f"all preservation fixtures and witnesses check out ({timer.elapsed:.2f}s)")


def _canonical_primitive_words(max_len):
    reps = []
    for n in range(1, max_len + 1):
        for tup in product("ab", repeat=n):
            word = "".join(tup)
            rots = {word[i:] + word[:i] for i in range(n)}
            if len(rots) == n and min(rots) == word:
                reps.append(word)
    reps.sort(key=len)
    return reps


def test_criterion_07_exhaustive_oracle_equivalence(capsys):
    with budget(600.0) as timer:
        reps = _canonical_primitive_words(12)
        tables = {}
        case_tally = {case: 0 for case in PowerCase}
        checked = 0
        for total in range(2, 11):
            for la in range(1, total):
                for ua in product("ab", repeat=la):
                    u = "".join(ua)
                    for vb in product("ab", repeat=total - la):
                        v = "".join(vb)
                        if u + v == v + u:
                            continue
                        checked += 1
                        table = tables.get((u, v))
                        if table is None:
                            table = {ord("a"): u, ord("b"): v}
                        oracle_witness = None
                        for rep in reps:
                            image = rep.translate(table)
                            if (image + image).find(image, 1) != len(image):
                                oracle_witness = rep
                                break
                        m = Morphism((BINARY.word(u), BINARY.word(v)))
                        verdict = is_primitivity_preserving(power_words(m))
                        assert verdict.preserving == (oracle_witness is None), (u, v, oracle_witness)
                        if not verdict.preserving:
                            assert is_primitive(verdict.witness)
                            assert not is_primitive(m.apply(verdict.witness))
                        case_tally[power_words(m).case] += 1
        assert checked > 16000
    tally = {case.value: count for case, count in case_tally.items()}
    with capsys.disabled():
        report(7, f"{checked} morphisms agree with brute force; power cases {tally} ({timer.elapsed:.1f}s)")


def test_criterion_08_recognizability_fixtures(capsys):
    with budget(1.0) as timer:
        m1, m2 = bm("baa", "abb"), bm("baa", "aba")
        assert len(circular_factorizations(w("baaabbabbbaa"), m1)) == 1
        assert is_recognizable(power_words(m1)).recognizable
        assert len(circular_factorizations(w("baabaabaabaa"), m2)) == 2
        assert not is_recognizable(power_words(m2)).recognizable
        assert len(circular_factorizations(w("ab") * 6, THUE_MORSE)) == 2
        assert not is_recognizable(power_words(THUE_MORSE)).recognizable
        psi = factor_through_tau(m2)
        assert psi is not None and psi.images == (w("ba"), w("a"))
        psi = factor_through_tau(THUE_MORSE)
        assert psi is not None and psi.images == (w("a"), w("b"))
    with capsys.disabled():
        report(8, f"factorization counts 1/2/2 and tau-factorizations match ({timer.elapsed:.2f}s)")


def test_criterion_09_synchronization(capsys):
    with budget(10.0) as timer:
        for n in range(2, 6):
            assert sync_delay_for_word(THUE_MORSE, w("a" * n + "b")).delay == 2 * n + 1, n
        image = THUE_MORSE.apply(w("abbaab"))
        assert BINARY.render(image) == "abbabaababba"
        assert sync_delay_for_word(THUE_MORSE, w("abbaab")).delay == 5
        assert all(find_sync_pairs(f, THUE_MORSE) for f in circular_factors(image, 5))
        assert any(not find_sync_pairs(f, THUE_MORSE) for f in circular_factors(image, 4))
        assert decide_sync_finite_delay(THUE_MORSE, BoundedLetterRuns(2, 2)).synchronizing
        full = decide_sync_finite_delay(THUE_MORSE, FULL_BINARY).synchronizing
        assert full is False
        assert full == is_recognizable(power_words(THUE_MORSE)).recognizable
    with capsys.disabled():
        report(9, f"delays 2n+1, threshold at 5 for tau(abbaab), scope dichotomy ({timer.elapsed:.1f}s)")


def test_criterion_10_rho_multiplicative_bounds(capsys):
    with budget(120.0) as timer:
        assert rho_ms_bound_check(2, 14)
        assert rho_ms_bound_check(3, 14)
    with capsys.disabled():
        report(10, f"delta bounds hold for p in {{2,3}} up to length 14 ({timer.elapsed:.1f}s)")


def test_criterion_11_cyclic_example(capsys):
    cyc = Morphism((w("ababbba"), w("ababbba") * 2))
    with budget(60.0) as timer:
        assert run_count(w("ababbba")) == 6
        assert cyclic_sensitivity_constants(cyc) == (4, Fraction(3))
        for n in range(2, 13):
            row = sensitivity(cyc, n)
            assert (row.as_value, row.ms_value) == (4, Fraction(3)), n
    with capsys.disabled():
        report(11, f"cyclic sensitivity is (4, 3) on [2,12], matching r(z)-2 and r(z)/2 ({timer.elapsed:.1f}s)")


def test_criterion_12_fibonacci_dollar_ratio(capsys):
    with budget(30.0) as timer:
        table = fibonacci_dollar_experiment([4, 6, 8, 10])
        ratios = [row[3] for row in table.rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
    with capsys.disabled():
        report(12, f"run-count ratios increase strictly: {[str(r) for r in ratios]} ({timer.elapsed:.1f}s)")


def test_criterion_13_bwt_engine_properties(capsys):
    with budget(60.0) as timer:
        rng = random.Random(20240517)
        for _ in range(1000):
            word = bytes(rng.randint(0, 1) for _ in range(rng.randint(1, 64)))
            res = bwt(word)
            assert inverse_bwt(res.transformed, res.primary_index) == word
        for n in range(1, 9):
            for tup in product((0, 1), repeat=n):
                z = bytes(tup)
                if not is_primitive(z):
                    continue
                reference = run_count(z)
                for p in range(1, 5):
                    assert bwt_of_power(z, p) == bwt(z * p)
                    assert run_count(z * p) == reference
    with capsys.disabled():
        report(13, f"1000 round trips, power transform and run law exact ({timer.elapsed:.1f}s)")


def test_criterion_14_ternary_negative_delta(capsys):
    with budget(1.0) as timer:
        ternary = Alphabet("abc")
        swap3 = Morphism((ternary.word("b"), ternary.word("a"), ternary.word("c")))
        word = ternary.word("bcba")
        assert run_count(word) == 4
        assert run_count(swap3.apply(word)) == 3
        assert delta_plus(swap3, word) == -1
    with capsys.disabled():
        report(14, f"delta of the ternary letter swap on bcba is -1 ({timer.elapsed:.2f}s)")
