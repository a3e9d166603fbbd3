from itertools import product

import pytest

from bwtmorph.morphisms import PERIOD_DOUBLING, THUE_MORSE, Morphism
from bwtmorph.primitivity import is_recognizable
from bwtmorph.syncing import (
    FULL_BINARY,
    BoundedLetterRuns,
    FiniteList,
    _boundary_set,
    circular_factorizations,
    decide_sync_finite_delay,
    find_sync_pairs,
    sync_delay_for_word,
)
from bwtmorph.words import BINARY, all_circular_factors, canonical_rotation, necklaces

w = BINARY.word


def bm(a_img, b_img):
    return Morphism((w(a_img), w(b_img)))


REC = bm("baa", "abb")
CONJ = bm("baa", "aba")


def brute_splits(factor, m, max_source_len):
    """Surviving splits by raw enumeration of all source words up to a length."""
    allowed = set(range(len(factor) + 1))
    for n in range(0, max_source_len + 1):
        for tup in product((0, 1), repeat=n):
            f = bytes(tup)
            image = m.apply(f)
            boundaries = _boundary_set(f, m)
            start = image.find(factor)
            while start != -1:
                allowed = {s for s in allowed if start + s in boundaries}
                start = image.find(factor, start + 1)
    return allowed


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


def test_factorizations_spell_the_rotation():
    words = [w("baaabbabbbaa"), w("abbaabbaabba"), w("ab") * 4]
    for m in (REC, CONJ, THUE_MORSE):
        for word in words:
            for fact in circular_factorizations(word, m):
                rot = word[fact.rotation_offset:] + word[: fact.rotation_offset]
                assert b"".join(m.images[c] for c in fact.codewords) == rot


def test_sync_pairs_at_double_letters():
    assert find_sync_pairs(w("bb"), THUE_MORSE, FULL_BINARY) == [(w("bb"), 1)]
    assert find_sync_pairs(w("aa"), THUE_MORSE, FULL_BINARY) == [(w("aa"), 1)]
    # Purely alternating factors never pin a boundary.
    for k in (1, 2, 3):
        assert find_sync_pairs(w("ab") * k, THUE_MORSE, FULL_BINARY) == []


def test_sync_pairs_match_brute_enumeration():
    # Validates the bounded-context reduction against raw enumeration that
    # goes well past the bound.
    for factor in [w("bb"), w("aa"), w("abab"), w("abba"), w("aab"), w("babab")]:
        fast = {pair.split for pair in find_sync_pairs(factor, THUE_MORSE, FULL_BINARY)}
        assert fast == brute_splits(factor, THUE_MORSE, 9), factor
    for factor in [w("aab"), w("baa"), w("aabaa"), w("bba")]:
        fast = {pair.split for pair in find_sync_pairs(factor, REC, FULL_BINARY)}
        assert fast == brute_splits(factor, REC, 7), factor


def test_sync_pairs_finite_scope():
    scope = FiniteList((w("aab"),))
    assert [p.split for p in find_sync_pairs(w("bb"), THUE_MORSE, scope)] == [1]
    # Within a single-word scope the alternating factor is pinned, because
    # the conflicting all-b context never occurs there.
    assert find_sync_pairs(w("abab"), THUE_MORSE, scope) != []


def test_sync_delay_for_word():
    for n in (2, 3):
        assert sync_delay_for_word(THUE_MORSE, w("a" * n + "b")) == 2 * n + 1
    assert sync_delay_for_word(THUE_MORSE, w("abbaab")) == 5


def test_sync_delay_monotone_at_the_threshold():
    word = w("aab")
    delay = sync_delay_for_word(THUE_MORSE, word)
    image = THUE_MORSE.apply(word)
    factors = all_circular_factors(image)
    assert all(
        find_sync_pairs(f, THUE_MORSE, FULL_BINARY) for f in factors if len(f) >= delay
    )
    assert any(
        not find_sync_pairs(f, THUE_MORSE, FULL_BINARY)
        for f in factors
        if len(f) == delay - 1
    )


def test_sync_delay_absent_when_a_rotation_never_synchronizes():
    # The image rotation aab of baa forces incompatible splits from the
    # contexts aa and ab, so no delay up to the image length works.
    assert sync_delay_for_word(REC, w("a")) is None
    assert brute_splits(w("aab"), REC, 7) == set()
    assert brute_splits(w("baa"), REC, 7) != set()


def test_decide_sync_finite_delay():
    assert decide_sync_finite_delay(THUE_MORSE, BoundedLetterRuns(2, 2)).synchronizing
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


def test_full_scope_decision_equals_recognizability():
    for la, lb in product(range(1, 4), repeat=2):
        for ia in product((0, 1), repeat=la):
            for ib in product((0, 1), repeat=lb):
                m = Morphism((bytes(ia), bytes(ib)))
                u, v = m.images
                if u + v == v + u:
                    continue
                verdict = decide_sync_finite_delay(m, FULL_BINARY)
                assert verdict.synchronizing == is_recognizable(m).recognizable, (u, v)


def test_recognizability_bridge_on_samples():
    for m in (REC, CONJ, THUE_MORSE, bm("ab", "ab" + "b")):
        expected = is_recognizable(m).recognizable
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
        assert is_recognizable(m).recognizable
        seen = {}
        for n in range(1, 7):
            for rep in necklaces(2, n):
                key = canonical_rotation(m.apply(rep))
                assert key not in seen, (m.images, rep, seen[key])
                seen[key] = rep
    # The conjugate-image morphism collides: images of a^4 and b^4 share a class.
    assert canonical_rotation(CONJ.apply(w("aaaa"))) == canonical_rotation(CONJ.apply(w("bbbb")))
