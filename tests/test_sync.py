import json
import random
from collections import defaultdict
from itertools import groupby, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bwtmorph import syncing
from bwtmorph.cli import main
from bwtmorph.morphisms import PERIOD_DOUBLING, THUE_MORSE, Morphism
from bwtmorph.primitivity import is_recognizable, power_words
from bwtmorph.syncing import (
    FULL_BINARY,
    BoundedLetterRuns,
    FiniteList,
    circular_factorizations,
    decide_sync_finite_delay,
    find_sync_pairs,
    sync_delay_for_word,
)
from bwtmorph.words import BINARY, all_circular_factors, necklaces
from helpers import SLOW, binary_words, bm, budget, canonical_rotation, circular_factors, injective_image_pairs

w = BINARY.word


REC = bm("baa", "abb")
CONJ = bm("baa", "aba")


# The oracle enumerates source words, exponentially many in their length. It
# scans the image of every source word and intersects, over every occurrence
# of the factor, the splits that land on a codeword boundary. Source words of
# length |factor| + 2 realize every interpretation: at most |factor| whole
# codewords plus one cut codeword on each side.


def longest_run(f, letter):
    return max((len(list(g)) for s, g in groupby(f) if s == letter), default=0)


def source_contexts(m, sources):
    """(image, boundary positions, (longest a-run, longest b-run)) per source word."""
    contexts = []
    for f in sources:
        pos, boundaries = 0, {0}
        for s in f:
            pos += len(m.images[s])
            boundaries.add(pos)
        contexts.append((m.apply(f), boundaries, (longest_run(f, 0), longest_run(f, 1))))
    return contexts


def brute_split_classes(factor, contexts):
    """Per run profile of the source words: the splits that every occurrence
    of factor in their images puts on a codeword boundary."""
    every = set(range(len(factor) + 1))
    classes = {}
    for image, boundaries, runs in contexts:
        allowed = classes.get(runs, every)
        start = image.find(factor)
        while start != -1:
            allowed = {s for s in allowed if start + s in boundaries}
            start = image.find(factor, start + 1)
        classes[runs] = allowed
    return classes


def within(runs, max_a, max_b):
    return all(cap is None or run <= cap for run, cap in zip(runs, (max_a, max_b)))


def within_bounds(classes, factor, max_a=None, max_b=None):
    allowed = set(range(len(factor) + 1))
    for runs, splits in classes.items():
        if within(runs, max_a, max_b):
            allowed &= splits
    return allowed


def brute_splits(factor, m, max_source_len):
    """Surviving splits by raw enumeration of the source words up to a length."""
    contexts = source_contexts(m, binary_words(max_source_len))
    return within_bounds(brute_split_classes(factor, contexts), factor)


def splits(factor, m):
    return {pair.split for pair in find_sync_pairs(factor, m)}


def test_circular_factorization_counts():
    assert len(circular_factorizations(w("baaabbabbbaa"), REC)) == 1
    assert len(circular_factorizations(w("baabaabaabaa"), CONJ)) == 2
    assert len(circular_factorizations(w("ab") * 6, THUE_MORSE)) == 2


def test_circular_factorization_contents():
    facts = circular_factorizations(w("baabaabaabaa"), CONJ)
    assert [(f.rotation_offset, f.codewords) for f in facts] == [
        (0, (0, 0, 0, 0)),
        (2, (1, 1, 1, 1)),
    ]
    # No rotation of this word decodes at all.
    assert circular_factorizations(w("ababab"), REC) == []
    with pytest.raises(ValueError):
        circular_factorizations(b"", REC)


def test_circular_factorizations_of_a_long_image():
    source = bytes(i * i % 3 % 2 for i in range(3000))
    image = THUE_MORSE.apply(source)
    assert circular_factorizations(image, THUE_MORSE) == [(0, tuple(source))]
    # Rotating by one letter moves every cut back by one.
    facts = circular_factorizations(image[1:] + image[:1], THUE_MORSE)
    assert facts == [(1, tuple(source[1:] + source[:1]))]


def brute_circular_factorizations(word, m):
    """Every parse of every rotation, grouped by its cut set modulo |word|;
    each group is reported from its least cut."""
    n = len(word)

    def parses(rest):
        if not rest:
            yield ()
        for c, image in enumerate(m.images):
            if rest.startswith(image):
                for tail in parses(rest[len(image):]):
                    yield (c,) + tail

    groups = {}
    for offset in range(n):
        for seq in parses(word[offset:] + word[:offset]):
            cuts, pos = set(), offset
            for c in seq:
                cuts.add(pos % n)
                pos += len(m.images[c])
            groups.setdefault(frozenset(cuts), []).append((offset, seq))
    return sorted(min(group) for group in groups.values())


def test_circular_factorizations_match_brute_force():
    # Every injective binary morphism with images of at most 3 letters, on
    # every word of at most 7 letters.
    images = list(binary_words(3, min_len=1))
    words = list(binary_words(7, min_len=1))
    for u, v in product(images, repeat=2):
        if u + v == v + u:
            continue
        m = Morphism((u, v))
        for word in words:
            assert circular_factorizations(word, m) == brute_circular_factorizations(word, m), (u, v, word)


def test_factorizations_spell_the_rotation():
    words = [w("baaabbabbbaa"), w("abbaabbaabba"), w("ab") * 4]
    for m in (REC, CONJ, THUE_MORSE):
        for word in words:
            for fact in circular_factorizations(word, m):
                rot = word[fact.rotation_offset:] + word[: fact.rotation_offset]
                assert b"".join(m.images[c] for c in fact.codewords) == rot


def test_sync_pairs_at_double_letters():
    assert find_sync_pairs(w("bb"), THUE_MORSE) == [(w("bb"), 1)]
    assert find_sync_pairs(w("aa"), THUE_MORSE) == [(w("aa"), 1)]
    # Purely alternating factors never pin a boundary.
    for k in (1, 2, 3):
        assert find_sync_pairs(w("ab") * k, THUE_MORSE) == []


def test_sync_pairs_match_brute_enumeration():
    # Source words of length 9 and 7 go well past the |factor| + 2 that
    # realizes every interpretation.
    for factor in [w("bb"), w("aa"), w("abab"), w("abba"), w("aab"), w("babab")]:
        fast = {pair.split for pair in find_sync_pairs(factor, THUE_MORSE)}
        assert fast == brute_splits(factor, THUE_MORSE, 9), factor
    for factor in [w("aab"), w("baa"), w("aabaa"), w("bba")]:
        fast = {pair.split for pair in find_sync_pairs(factor, REC)}
        assert fast == brute_splits(factor, REC, 7), factor


def test_interpretations_match_the_enumerator_exhaustively():
    # Every injective morphism with images of length <= 3, every factor of
    # length <= 4.
    for u, v in product(binary_words(3, min_len=1), repeat=2):
        if u + v == v + u:
            continue
        m = Morphism((u, v))
        contexts = source_contexts(m, binary_words(6))
        for factor in binary_words(4):
            # The source words of length <= |factor| + 2 come first.
            classes = brute_split_classes(factor, contexts[: 2 ** (len(factor) + 3) - 1])
            assert splits(factor, m) == within_bounds(classes, factor), (u, v, factor)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=4).map(bytes), min_size=2, max_size=2),
    st.lists(st.integers(0, 1), max_size=5).map(bytes),
)
def test_interpretation_splits_equal_the_oracle(images, factor):
    u, v = images
    assume(u + v != v + u)
    m = Morphism((u, v))
    assert splits(factor, m) == brute_splits(factor, m, len(factor) + 2)


def test_sync_delay_for_word():
    for n in (2, 3):
        assert sync_delay_for_word(THUE_MORSE, w("a" * n + "b")).delay == 2 * n + 1
    assert sync_delay_for_word(THUE_MORSE, w("abbaab")).delay == 5


def top_down_delay(m, word):
    """The delay by its definition: scan lengths from |m(word)| down to the
    longest one with a circular factor that has no pair."""
    image = m.apply(word)
    for length in range(len(image), -1, -1):
        if not all(find_sync_pairs(f, m) for f in circular_factors(image, length)):
            return None if length == len(image) else length + 1
    return 1


def test_delay_equals_the_top_down_scan():
    # Every injective morphism of size <= 5 with every word of length <= 5.
    # Over all source words the delay depends only on the set of images and
    # the rotation class of the image, so the scan runs once per such pair.
    sources = list(binary_words(5, min_len=1))
    images = [f for f in sources if len(f) <= 4]
    scanned = {}
    for u, v in product(images, repeat=2):
        if len(u) + len(v) > 5 or u + v == v + u:
            continue
        m = Morphism((u, v))
        for word in sources:
            key = (frozenset(m.images), canonical_rotation(m.apply(word)))
            if key not in scanned:
                scanned[key] = top_down_delay(m, word)
            assert sync_delay_for_word(m, word).delay == scanned[key], (u, v, word)


def test_sync_delay_for_long_a_runs():
    # Enumerating source words past each factor would need 2^(2n+4) of them.
    for n in range(1, 21):
        assert sync_delay_for_word(THUE_MORSE, w("a" * n + "b")).delay == 2 * n + 1, n


def run_sync(capsys, *argv):
    assert main(["sync", *argv]) == 0
    return capsys.readouterr().out


def test_sync_cli_on_a_ten_letter_word(capsys):
    # A 20-letter image: far beyond what enumerating source words can reach.
    out = run_sync(capsys, "thue-morse", "--word", "aabbabaabb")
    assert out.splitlines()[-1] == "delay: 5"
    # A pair of a factor extends to every factor containing it, so these
    # two lengths pin the delay.
    image = THUE_MORSE.apply(w("aabbabaabb"))
    assert all(brute_splits(f, THUE_MORSE, 7) for f in circular_factors(image, 5))
    assert not all(brute_splits(f, THUE_MORSE, 6) for f in circular_factors(image, 4))


def test_sync_cli_on_a_200_letter_word(capsys):
    # 13 is also what the top-down scan finds, far outside this budget.
    rng = random.Random(200)
    word = "".join(rng.choice("ab") for _ in range(200))
    with budget(5.0):
        out = run_sync(capsys, "thue-morse", "--word", word)
    assert out.splitlines()[-1] == "delay: 13"


def test_sync_cli_counts_with_a_one_letter_image(capsys):
    # A one-letter image lets a factor of length k span k codewords.
    m = bm("a", "ab")
    image = m.apply(w("abab"))
    expected = [
        {
            "length": n,
            "with_pair": sum(1 for f in circular_factors(image, n) if brute_splits(f, m, n + 2)),
            "total": len(circular_factors(image, n)),
        }
        for n in range(len(image) + 1)
    ]
    payload = json.loads(run_sync(capsys, "a=a,b=ab", "--word", "abab", "--json"))
    assert payload["factors_with_sync_pair"] == expected
    assert payload["delay"] == 1


def test_longest_factor_without_a_pair_per_start():
    # b(i) by its definition: the longest non-empty factor at start i to
    # which find_sync_pairs gives no pair, for every injective image pair of
    # size <= 4 and every word of <= 4 letters.
    for u, v in injective_image_pairs(4):
        m = Morphism((u, v))
        for word in binary_words(4, min_len=1):
            image = m.apply(word)
            doubled = image + image
            expected = tuple(
                max((n for n in range(1, len(image) + 1) if not find_sync_pairs(doubled[i : i + n], m)), default=0)
                for i in range(len(image))
            )
            assert sync_delay_for_word(m, word).longest == expected, (u, v, word)


def test_sync_rows_equal_the_per_factor_oracle(capsys):
    # Each row counted by deciding every distinct circular factor of its
    # length on its own, for every injective image pair of size <= 4 and
    # every word of <= 5 letters.
    with budget(10.0):
        for u, v in injective_image_pairs(4):
            m = Morphism((u, v))
            morphism = f"a={BINARY.render(u)},b={BINARY.render(v)}"
            for word in binary_words(5, min_len=1):
                image = m.apply(word)
                expected = []
                for n in range(len(image) + 1):
                    factors = circular_factors(image, n)
                    pairs = sum(1 for f in factors if find_sync_pairs(f, m))
                    expected.append({"length": n, "with_pair": pairs, "total": len(factors)})
                payload = json.loads(run_sync(capsys, morphism, "--word", BINARY.render(word), "--json"))
                assert payload["factors_with_sync_pair"] == expected, (u, v, word)


def test_sync_decides_at_most_three_factors_per_image_letter(capsys, monkeypatch):
    # One pass over the starts decides every row; the empty factor's own
    # walk fits in the same bound.
    walk = syncing._interpretation_splits
    calls = 0

    def counted(u, images):
        nonlocal calls
        calls += 1
        return walk(u, images)

    monkeypatch.setattr(syncing, "_interpretation_splits", counted)
    rng = random.Random(28)
    words = ["a" * 20 + "b", "a" * 60 + "b"] + ["".join(rng.choice("ab") for _ in range(n)) for n in (50, 120)]
    for word in words:
        calls = 0
        run_sync(capsys, "thue-morse", "--word", word)
        assert 0 < calls <= 3 * len(THUE_MORSE.apply(w(word))), (word, calls)


def test_sync_delay_monotone_at_the_threshold():
    word = w("aab")
    delay = sync_delay_for_word(THUE_MORSE, word).delay
    image = THUE_MORSE.apply(word)
    factors = all_circular_factors(image)
    assert all(find_sync_pairs(f, THUE_MORSE) for f in factors if len(f) >= delay)
    assert any(not find_sync_pairs(f, THUE_MORSE) for f in factors if len(f) == delay - 1)


def test_sync_delay_absent_when_a_rotation_never_synchronizes():
    # The image rotation aab of baa forces incompatible splits from the
    # contexts aa and ab, so no delay up to the image length works.
    assert sync_delay_for_word(REC, w("a")).delay is None
    assert brute_splits(w("aab"), REC, 7) == set()
    assert brute_splits(w("baa"), REC, 7) != set()


def test_decide_sync_finite_delay():
    assert decide_sync_finite_delay(THUE_MORSE, BoundedLetterRuns(2, 2)).synchronizing
    with pytest.raises(ValueError):
        BoundedLetterRuns(0, 0)
    assert not decide_sync_finite_delay(THUE_MORSE, FULL_BINARY).synchronizing
    assert not decide_sync_finite_delay(THUE_MORSE, BoundedLetterRuns(None, None)).synchronizing
    assert decide_sync_finite_delay(THUE_MORSE, BoundedLetterRuns(7, None)).synchronizing
    assert not decide_sync_finite_delay(PERIOD_DOUBLING, FULL_BINARY).synchronizing
    assert decide_sync_finite_delay(PERIOD_DOUBLING, FiniteList((w("abb"),))).synchronizing
    # The power witness of (ab, aa)-style failures is the letter b, so a
    # scope with bounded b-runs regains finite delay.
    assert decide_sync_finite_delay(PERIOD_DOUBLING, BoundedLetterRuns(None, 3)).synchronizing
    assert not decide_sync_finite_delay(PERIOD_DOUBLING, BoundedLetterRuns(3, None)).synchronizing
    # Mixed rotation-class witness: powers of ab fit any scope with runs >= 1.
    assert not decide_sync_finite_delay(bm("a", "bab"), BoundedLetterRuns(1, 1)).synchronizing
    assert decide_sync_finite_delay(REC, FULL_BINARY).synchronizing


# Run bounds of the decision check below. A bound of 3 would need longer
# factors: (a, bbb) maps a b-run of 3 to an image b-run of 9.
RUN_BOUNDS = (1, 2, None)


def factor_split_classes(m, length):
    """Per factor of the given length in the image of a source word of length
    at most length + 2, its split classes over the source words whose images
    contain it. Those source words realize every occurrence and every
    interpretation of a factor of that length."""
    holders = defaultdict(list)
    for context in source_contexts(m, binary_words(length + 2)):
        image = context[0]
        for factor in {image[i : i + length] for i in range(len(image) - length + 1)}:
            holders[factor].append(context)
    return {factor: brute_split_classes(factor, held) for factor, held in holders.items()}


@pytest.mark.parametrize("max_size, length, cases", [(4, 8, 486), pytest.param(5, 9, 1566, marks=SLOW)])
def test_decide_delay_matches_the_bounded_enumerator(max_size, length, cases):
    # Every injective morphism up to a size, on every pair of run bounds.
    # A pair of a factor is a pair of every factor that extends it, within a
    # scope too, so every scoped factor of one length keeping a split proves
    # finite delay; a scoped factor without one is what "no" must show at
    # that length. With bounds of at least 1, the linear factors of the
    # scoped words are exactly the words whose linear runs respect the
    # bounds, which is how brute_split_classes groups its source words.
    checked = 0
    for u, v in injective_image_pairs(max_size):
        m = Morphism((u, v))
        classes = factor_split_classes(m, length)
        for max_a, max_b in product(RUN_BOUNDS, repeat=2):
            paired = all(
                within_bounds(by_runs, factor, max_a, max_b)
                for factor, by_runs in classes.items()
                if any(within(runs, max_a, max_b) for runs in by_runs)
            )
            verdict = decide_sync_finite_delay(m, BoundedLetterRuns(max_a, max_b))
            assert verdict.synchronizing == paired, (u, v, max_a, max_b)
            checked += 1
    assert checked == cases


DECIDE_DELAY_SCOPES = ["full", "runs:2:inf", "runs:inf:2", "runs:1:1", "file:bbbb"]
RECOGNIZABLE = "yes (recognizable, so synchronizing with finite delay on every scope)"
CONJ_A_BOUNDED = "yes (conjugate images but circular a-runs are bounded in the scope)"
CONJ_B_BOUNDED = "yes (conjugate images but circular b-runs are bounded in the scope)"
CONJ_UNBOUNDED = "no (conjugate images and both letters have unbounded circular runs)"
WITNESS_UNBOUNDED = "no (unbounded powers of a power-witness word occur in the scope)"
WITNESS_BOUNDED = "yes (every power-witness word exceeds the scope's run bounds)"
FINITE_WITNESS = "yes (finite scope: only finitely many powers of any witness occur)"
CONJUGATE_TEXTS = [CONJ_UNBOUNDED, CONJ_A_BOUNDED, CONJ_B_BOUNDED, CONJ_A_BOUNDED, CONJ_A_BOUNDED]


@pytest.mark.parametrize(
    "morphism, verdicts",
    [
        ("a=baa,b=abb", [RECOGNIZABLE] * 5),
        ("a=baa,b=aba", CONJUGATE_TEXTS),
        ("period-doubling", [WITNESS_UNBOUNDED, WITNESS_UNBOUNDED, WITNESS_BOUNDED, WITNESS_BOUNDED, FINITE_WITNESS]),
        ("a=a,b=bab", [WITNESS_UNBOUNDED] * 4 + [FINITE_WITNESS]),
        ("thue-morse", CONJUGATE_TEXTS),
    ],
)
def test_decide_delay_text_on_every_scope_kind(capsys, tmp_path, morphism, verdicts):
    # One case per branch of the dichotomy, crossed with every kind of scope.
    (tmp_path / "bbbb").write_text("bbbb\n")
    for scope, verdict in zip(DECIDE_DELAY_SCOPES, verdicts):
        scope = scope.replace("file:", f"file:{tmp_path}/")
        assert main(["decide-delay", morphism, "--scope", scope]) == 0
        assert capsys.readouterr().out == f"synchronizing with finite delay: {verdict}\n", (morphism, scope)


def test_full_scope_decision_equals_recognizability():
    for la, lb in product(range(1, 4), repeat=2):
        for ia in product((0, 1), repeat=la):
            for ib in product((0, 1), repeat=lb):
                m = Morphism((bytes(ia), bytes(ib)))
                u, v = m.images
                if u + v == v + u:
                    continue
                verdict = decide_sync_finite_delay(m, FULL_BINARY)
                assert verdict.synchronizing == is_recognizable(power_words(m)).recognizable, (u, v)


def test_recognizability_bridge_on_samples():
    for m in (REC, CONJ, THUE_MORSE, bm("ab", "ab" + "b")):
        expected = is_recognizable(power_words(m)).recognizable
        unique = True
        for n in range(1, 9):
            for tup in product((0, 1), repeat=n):
                word = m.apply(bytes(tup))
                if len(circular_factorizations(word, m)) != 1:
                    unique = False
                    break
            if not unique:
                break
        assert unique == expected, m.images


def test_recognizable_morphisms_are_injective_on_necklaces():
    for m in (REC, bm("ab", "b"), bm("aab", "b")):
        assert is_recognizable(power_words(m)).recognizable
        seen = {}
        for n in range(1, 7):
            for rep in necklaces(2, n):
                key = canonical_rotation(m.apply(rep))
                assert key not in seen, (m.images, rep, seen[key])
                seen[key] = rep
    # The conjugate-image morphism collides: images of a^4 and b^4 share a class.
    assert canonical_rotation(CONJ.apply(w("aaaa"))) == canonical_rotation(CONJ.apply(w("bbbb")))
