import random
from itertools import product
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtmorph.morphisms import (
    EXCHANGE,
    FIBONACCI,
    FIBONACCI_TILDE,
    IDENTITY,
    PERIOD_DOUBLING,
    PHI,
    PHI_E,
    PHI_TILDE,
    PHI_TILDE_E,
    THUE_MORSE,
    BifixStatus,
    Morphism,
    OrderClass,
    _elementary_peels,
    abelian_order_class,
    bifix_status,
    compose,
    factor_through_tau,
    format_morphism,
    is_cyclic,
    is_injective_binary,
    is_sturmian,
    named_morphism,
    parse_morphism,
    rho,
    thue_morse_like,
)
from bwtmorph.words import BINARY, primitive_root
from helpers import bm

w = BINARY.word


class PeelStep(NamedTuple):
    outer: Morphism
    elementary: Morphism


def peel_elementary(m):
    """Split m as outer composed with one elementary morphism, if possible.

    The candidates are tried in the fixed order PHI, PHI_E, PHI_TILDE,
    PHI_TILDE_E and the first match is returned; None exactly when m is
    bifix, where no image is a prefix or suffix of the other.
    """
    for elementary, psi_images in _elementary_peels(*m.images):
        return PeelStep(Morphism(psi_images, m.target_size), elementary)
    return None


def test_construction_rejects_erasing():
    with pytest.raises(ValueError):
        Morphism((w("ab"), b""))
    with pytest.raises(ValueError):
        Morphism(())
    with pytest.raises(ValueError):
        Morphism((w("ab"),), target_size=1)


def test_apply():
    assert PERIOD_DOUBLING.apply(w("aaaab")) == w("ababababaa")
    m = bm("ba", "ababaa")
    image = m.apply(w("aab"))
    assert image == w("babaababaa")
    assert primitive_root(image) == (w("babaa"), 2)
    assert m.apply(b"") == b""
    with pytest.raises(ValueError):
        m.apply(b"\x02")


def test_compose():
    assert compose(PERIOD_DOUBLING, THUE_MORSE).images == (w("abaa"), w("aaab"))
    tft = compose(THUE_MORSE, compose(FIBONACCI, THUE_MORSE))
    assert tft.images == (w("abbaab"), w("ababba"))
    m = bm("ab", "ba")
    assert compose(m, IDENTITY) == m
    with pytest.raises(ValueError):
        compose(Morphism((w("a"),)), THUE_MORSE)


def test_apply_distributes_and_compose_matches():
    rng = random.Random(7)
    morphisms = [FIBONACCI, THUE_MORSE, PERIOD_DOUBLING, bm("ba", "ababaa")]
    for _ in range(100):
        u = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, 12)))
        v = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, 12)))
        m = rng.choice(morphisms)
        inner = rng.choice(morphisms)
        assert m.apply(u + v) == m.apply(u) + m.apply(v)
        assert compose(m, inner).apply(u) == m.apply(inner.apply(u))


def same_alphabet_morphisms(count):
    # count morphisms on the same k letters, so any two compose.
    def over(k):
        image = st.lists(st.integers(0, k - 1), min_size=1, max_size=4).map(bytes)
        morphism = st.lists(image, min_size=k, max_size=k).map(lambda images: Morphism(tuple(images), k))
        return st.tuples(*[morphism] * count)

    return st.integers(1, 3).flatmap(over)


@settings(max_examples=100, deadline=None)
@given(same_alphabet_morphisms(3), st.lists(st.integers(0, 2), max_size=6).map(bytes))
def test_compose_is_associative(triple, word):
    f, g, h = triple
    left = compose(f, compose(g, h))
    assert left == compose(compose(f, g), h)
    word = bytes(s % f.source_size for s in word)
    assert left.apply(word) == f.apply(g.apply(h.apply(word)))


def test_injectivity():
    assert is_injective_binary(THUE_MORSE)
    assert not is_injective_binary(bm("ab", "abab"))
    assert not is_injective_binary(Morphism((w("ababbba"), w("ababbba") * 2)))
    with pytest.raises(ValueError):
        is_injective_binary(Morphism((w("a"),)))


def test_is_cyclic():
    assert is_cyclic(Morphism((w("ababbba"), w("ababbba") * 2))) == w("ababbba")
    assert is_cyclic(bm("ab", "ba")) is None
    assert is_cyclic(bm("aa", "aaa")) == w("a")
    # Binary: cyclic iff not injective.
    for la, lb in product(range(1, 4), repeat=2):
        for ia in product((0, 1), repeat=la):
            for ib in product((0, 1), repeat=lb):
                m = Morphism((bytes(ia), bytes(ib)))
                assert (is_cyclic(m) is None) == is_injective_binary(m)


def test_abelian_order_class():
    assert abelian_order_class(rho(3)) == OrderClass.PRESERVING
    assert abelian_order_class(EXCHANGE) == OrderClass.REVERSING
    assert abelian_order_class(THUE_MORSE) == OrderClass.PRESERVING
    with pytest.raises(ValueError):
        abelian_order_class(bm("ab", "abab"))


def test_abelian_order_class_exhaustive():
    # A preserving morphism must map the sorted word list of every Parikh
    # class to a sorted list, and a reversing one to a reversed-sorted list.
    fixtures = [FIBONACCI, THUE_MORSE, PERIOD_DOUBLING, EXCHANGE, rho(2), bm("ba", "ababaa")]
    for m in fixtures:
        preserving = abelian_order_class(m) == OrderClass.PRESERVING
        for n in range(1, 11):
            classes = {}
            for tup in product((0, 1), repeat=n):
                word = bytes(tup)
                classes.setdefault(word.count(0), []).append(word)
            for group in classes.values():
                images = [m.apply(word) for word in group]
                expected = sorted(images, reverse=not preserving)
                assert images == expected, (m.images, n)


def test_bifix_status():
    assert bifix_status(FIBONACCI) == BifixStatus.SUFFIX_ONLY
    assert bifix_status(FIBONACCI_TILDE) == BifixStatus.PREFIX_ONLY
    assert bifix_status(THUE_MORSE) == BifixStatus.BIFIX
    assert bifix_status(bm("a", "aba")) == BifixStatus.NEITHER


def test_peel_elementary():
    step = peel_elementary(FIBONACCI)
    assert step == (IDENTITY, PHI)
    step = peel_elementary(bm("aba", "a"))
    assert step is not None
    assert compose(step.outer, step.elementary) == bm("aba", "a")
    # Preference order picks PHI over the equally valid PHI_TILDE split.
    assert step.elementary == PHI
    assert peel_elementary(bm("abbaab", "ababba")) is None


def test_peel_round_trip_and_bifix_link():
    for la, lb in product(range(1, 5), repeat=2):
        for ia in product((0, 1), repeat=la):
            for ib in product((0, 1), repeat=lb):
                m = Morphism((bytes(ia), bytes(ib)))
                if not is_injective_binary(m):
                    continue
                step = peel_elementary(m)
                if step is None:
                    assert bifix_status(m) == BifixStatus.BIFIX
                else:
                    assert step.elementary in (PHI, PHI_E, PHI_TILDE, PHI_TILDE_E)
                    assert compose(step.outer, step.elementary) == m


def test_is_sturmian():
    assert is_sturmian(FIBONACCI)
    assert is_sturmian(FIBONACCI_TILDE)
    assert is_sturmian(EXCHANGE)
    assert is_sturmian(compose(FIBONACCI, FIBONACCI))
    assert is_sturmian(compose(FIBONACCI, FIBONACCI_TILDE))
    assert is_sturmian(compose(EXCHANGE, FIBONACCI))
    assert not is_sturmian(THUE_MORSE)
    assert not is_sturmian(PERIOD_DOUBLING)
    assert not is_sturmian(rho(2))


def test_is_sturmian_on_a_long_peel_chain():
    # a -> a, b -> a^k b peels k times down to the identity, and
    # a -> a, b -> a^k bb down to the bifix dead end (a, bb).
    assert is_sturmian(bm("a", "a" * 3000 + "b"))
    assert not is_sturmian(bm("a", "a" * 3000 + "bb"))


def dfs_is_sturmian(m):
    """Search every peel chain, memoising the images that lead nowhere."""
    terminal = {IDENTITY.images, EXCHANGE.images}
    failed = set()

    def reaches(images):
        if images in terminal:
            return True
        if images in failed:
            return False
        if any(reaches(peeled) for _, peeled in _elementary_peels(*images)):
            return True
        failed.add(images)
        return False

    return reaches(m.images)


def test_greedy_peeling_equals_the_peel_chain_search():
    # Every injective pair of size <= 12; 658 of them are Sturmian.
    found = 0
    for size in range(2, 13):
        for la in range(1, size):
            for ia in product((0, 1), repeat=la):
                for ib in product((0, 1), repeat=size - la):
                    u, v = bytes(ia), bytes(ib)
                    if u + v == v + u:
                        continue
                    m = Morphism((u, v))
                    expected = dfs_is_sturmian(m)
                    assert is_sturmian(m) == expected, (u, v)
                    found += expected
    assert found == 658


def test_sturmian_closed_under_elementary_composition():
    rng = random.Random(8)
    generators = [PHI, PHI_E, PHI_TILDE, PHI_TILDE_E, EXCHANGE, IDENTITY]
    for _ in range(60):
        m = IDENTITY
        for _ in range(rng.randint(1, 6)):
            m = compose(m, rng.choice(generators))
        assert is_sturmian(m), m.images


def test_factor_through_tau():
    psi = factor_through_tau(bm("baa", "aba"))
    assert psi is not None and psi.images == (w("ba"), w("a"))
    assert compose(psi, THUE_MORSE) == bm("baa", "aba")
    assert factor_through_tau(THUE_MORSE) == IDENTITY
    assert factor_through_tau(bm("baa", "abb")) is None
    assert factor_through_tau(bm("ab", "a")) is None


def test_named_and_parsed_morphisms():
    assert named_morphism("fibonacci") == FIBONACCI
    assert named_morphism("rho:3").images == (w("a"), w("bbb"))
    assert named_morphism("tm-like:2:1") == thue_morse_like(2, 1)
    with pytest.raises(ValueError):
        named_morphism("nope")

    parsed = parse_morphism("a=ab,b=ba")
    assert parsed.morphism == THUE_MORSE
    assert parsed.source.letters == "ab"
    assert format_morphism(parsed.morphism, parsed.source, parsed.target) == "a=ab,b=ba"

    dollar = parse_morphism("$=$,a=ab,b=a", target_letters="$ab")
    assert dollar.source.letters == "$ab"
    assert dollar.morphism.images == (bytes([0]), bytes([1, 2]), bytes([1]))
    with pytest.raises(ValueError):
        parse_morphism("a=,b=ba")


def test_morphism_letters_are_no_separator_and_no_whitespace():
    # Without the rule each would parse as fewer pairs with odd images, such
    # as a -> "ab b=ba" over the target alphabet " =ab".
    for text in ("a=ab b=ba", "a=a,b==", "a=a=b,b=b", " =a,b=b", "a=a\tb,b=b", "a=ab,b=b\n"):
        with pytest.raises(ValueError, match="cannot be whitespace, '=' or ','"):
            parse_morphism(text)
    with pytest.raises(ValueError, match="cannot be whitespace"):
        parse_morphism("a=a b,b=b", target_letters=" ab")
    assert parse_morphism("$=$,a=ab,b=a").target.letters == "$ab"
