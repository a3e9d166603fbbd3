import json
import random
import sys
from itertools import product

import pytest

from bwtmorph.cli import main
from bwtmorph.morphisms import FIBONACCI, IDENTITY, PERIOD_DOUBLING, THUE_MORSE, Morphism, compose
from bwtmorph.primitivity import (
    HolubForm,
    PowerCase,
    PowerWordClassification,
    are_conjugates,
    classify_holub_form,
    is_primitivity_preserving,
    is_recognizable,
    power_words,
)
from bwtmorph.syncing import circular_factorizations
from bwtmorph.words import BINARY, commute, is_primitive, primitive_root
from helpers import SLOW, binary_words, bm, canonical_rotation, injective_image_pairs, rotations

w = BINARY.word


def power_word_members(cls):
    """The full (finite) set of primitive words mapped to powers: the witness
    letters, then the distinct rotations of the rotation witness in shift order."""
    out = [bytes([c]) for c in cls.letter_witnesses]
    if cls.rotation_witness is not None:
        out.extend(dict.fromkeys(rotations(cls.rotation_witness)))
    return out


def holub_candidates(u, v):
    """Holub's finite test set: the images oriented longer first (u first on a
    tie) and the pairs (l, j) for which u**l v**j can be a power, namely
    (2, 1) and (1, j) with j at most (|u| - 4) / |v| + 2."""
    if len(u) < len(v):
        u, v = v, u
    bound = max(1, (len(u) - 4) // len(v) + 2)
    return u, v, [(2, 1)] + [(1, j) for j in range(1, bound + 1)]


def first_hit(u, v):
    """The oriented images and the first pair of Holub's test set whose candidate is a power, or None."""
    big, small, pairs = holub_candidates(u, v)
    return big, small, next(((l, j) for l, j in pairs if not is_primitive(big * l + small * j)), None)


def _search_case1(u, v):
    # u = (pq)^m p, v = q(pq)^n with m + n >= 1, so |uv| = (m + n + 1)|pq|:
    # each divisor det >= 2 of |uv| fixes |pq|, and then |u| fixes m and |p|.
    total = len(u) + len(v)
    for det in range(2, total // 2 + 1):
        if total % det:
            continue
        size = total // det
        mm, lp = divmod(len(u), size)
        if lp == 0 or mm >= det:
            continue
        p = u[:lp]
        q = v[: size - lp]
        form = HolubForm(1, p, q, {"m": mm, "n": det - 1 - mm})
        if not commute(p, q) and form.rebuild() == (u, v):
            return form
    return None


def _search_case2(u, v, n):
    # u = (pq^n)^m p with p non-empty needs m n |q| < |u|.
    q = v
    for mm in range(1, (len(u) - 1) // (n * len(q)) + 1):
        lp = len(u) - mm * n * len(q)
        if lp < mm + 1 or lp % (mm + 1):
            continue
        p = u[: lp // (mm + 1)]
        form = HolubForm(2, p, q, {"m": mm, "n": n})
        if not commute(p, q) and form.rebuild() == (u, v):
            return form
    return None


def _search_case3(u, v, k):
    # v = q(pq)^m fixes |p| per (m, |q|), and |p| >= 1 needs (m + 1)|q| <= |v| - m;
    # then |u| = n(|pq| + (k-1)|v|) + 2|pq| + (k-2)|v| fixes n.
    for mm in range(1, len(v) + 1):
        for lq in range(1, (len(v) - mm) // (mm + 1) + 1):
            lp = len(v) - (mm + 1) * lq
            if lp % mm:
                continue
            lp //= mm
            q = v[:lq]
            p = v[lq : lq + lp]
            if commute(p, q):
                continue
            nn, rest = divmod(len(u) - 2 * (lp + lq) - (k - 2) * len(v), lp + lq + (k - 1) * len(v))
            if nn < 0 or rest:
                continue
            form = HolubForm(3, p, q, {"k": k, "m": mm, "n": nn})
            if form.rebuild() == (u, v):
                return form
    return None


def _search_case4(u, v):
    # v = qppq fixes |p| per |q|; then |u| = m|pq| + |p| fixes m.
    if len(v) % 2:
        return None
    for lq in range(1, len(v) // 2):
        lp = len(v) // 2 - lq
        q = v[:lq]
        p = v[lq : lq + lp]
        if commute(p, q):
            continue
        mm, rest = divmod(len(u) - lp, lp + lq)
        if mm < 2 or rest:
            continue
        form = HolubForm(4, p, q, {"m": mm})
        if form.rebuild() == (u, v):
            return form
    return None


def holub_form_search(u, v):
    """Holub's parametric form of a morphism's images, found by search.

    Each family of the hit's pair is searched over its parameters in
    increasing order, rebuilding the images for every candidate: (2, 1) is
    case 4, (1, 1) case 1, and (1, j) with j >= 2 case 2, else case 3.
    """
    big, small, hit = first_hit(u, v)
    if hit is None:
        return None
    if hit == (2, 1):
        return _search_case4(big, small)
    if hit == (1, 1):
        return _search_case1(big, small)
    return _search_case2(big, small, hit[1]) or _search_case3(big, small, hit[1])


def test_holub_test_set_examples():
    u, v, pairs = holub_candidates(w("abba"), w("b"))
    assert (u, v) == (w("abba"), w("b"))
    assert pairs == [(2, 1), (1, 1), (1, 2)]
    assert not is_primitive(u + v * 2)
    assert is_primitivity_preserving(power_words(bm("abba", "b"))).witness == w("abb")

    u, v, pairs = holub_candidates(*THUE_MORSE.images)
    assert pairs == [(2, 1), (1, 1)]
    assert all(is_primitive(u * l + v * m) for l, m in pairs)

    # The longer image is b's, so the hit (1, 2) is the source word baa.
    u, v, pairs = holub_candidates(w("ba"), w("ababaa"))
    assert (u, v) == (w("ababaa"), w("ba"))
    assert not is_primitive(u + v * 2)
    assert is_primitivity_preserving(power_words(bm("ba", "ababaa"))).witness == w("aab")


def test_is_primitivity_preserving_fixtures():
    assert is_primitivity_preserving(power_words(THUE_MORSE)) == (True, None)
    assert is_primitivity_preserving(power_words(bm("abaa", "aaab"))) == (True, None)
    for text, witness in [
        ("ab,aa", "b"),
        ("a,bab", "ab"),
        ("abba,b", "abb"),
        ("ba,ababaa", "aab"),
        ("aba,b", "ab"),
    ]:
        m = bm(*text.split(","))
        verdict = is_primitivity_preserving(power_words(m))
        assert not verdict.preserving
        assert verdict.witness == w(witness)
        assert is_primitive(verdict.witness)
        assert not is_primitive(m.apply(verdict.witness))
    # Both images are squares here, so the letters themselves witness failure.
    verdict = is_primitivity_preserving(power_words(bm("abab", "baba")))
    assert (verdict.preserving, verdict.witness) == (False, w("a"))
    with pytest.raises(ValueError):
        is_primitivity_preserving(power_words(bm("ab", "abab")))


def test_power_words_fixtures():
    cls = power_words(PERIOD_DOUBLING)
    assert cls.case == PowerCase.ONE_LETTER_POWER
    assert cls.letter_witnesses == (1,)
    assert power_word_members(cls) == [w("b")]

    cls = power_words(bm("a", "bab"))
    assert cls.case == PowerCase.ROTATION_CLASS
    assert (cls.rotation_witness, cls.z, cls.k) == (w("ab"), w("ab"), 2)
    assert sorted(power_word_members(cls)) == [w("ab"), w("ba")]

    cls = power_words(THUE_MORSE)
    assert cls.case == PowerCase.PRESERVING
    assert power_word_members(cls) == []

    cls = power_words(bm("abab", "baba"))
    assert cls.case == PowerCase.TWO_LETTER_POWERS
    assert cls.letter_witnesses == (0, 1)

    # The images are oriented the longer first, the first on a tie, and the
    # pair is the exponents of the first power u**l v**j that the scan finds.
    for u, v, images, pair in [
        ("ba", "ababaa", ("ababaa", "ba"), (1, 2)),
        ("a", "bab", ("bab", "a"), (1, 1)),
        ("aba", "bab", ("aba", "bab"), (1, 1)),
        ("bab", "aba", ("bab", "aba"), (1, 1)),
        ("ab", "ba", ("ab", "ba"), None),
    ]:
        cls = power_words(bm(u, v))
        assert (cls.images, cls.pair) == (tuple(map(w, images)), pair), (u, v)


def test_power_words_members_are_sound():
    for u, v in injective_image_pairs(8):
        m = Morphism((u, v))
        cls = power_words(m)
        for member in power_word_members(cls):
            assert is_primitive(member)
            assert not is_primitive(m.apply(member))
        if cls.rotation_witness is not None:
            image = m.apply(cls.rotation_witness)
            assert image == cls.z * cls.k
            assert is_primitive(cls.z) and cls.k > 1
            # Every rotation of the witness is mapped to a power too.
            for rot in rotations(cls.rotation_witness):
                assert not is_primitive(m.apply(rot))


def test_at_most_one_power_among_candidates():
    for u, v in injective_image_pairs(9):
        big, small, pairs = holub_candidates(u, v)
        hits = [(l, j) for l, j in pairs if not is_primitive(big * l + small * j)]
        assert len(hits) <= 1, (u, v, hits)
        # The library's scan reports the same hit, as a source word's rotation class.
        witness = power_words(Morphism((u, v))).rotation_witness
        if hits:
            (l, j), = hits
            x, y = (w("b"), w("a")) if len(u) < len(v) else (w("a"), w("b"))
            assert witness == canonical_rotation(x * l + y * j), (u, v)
        else:
            assert witness is None, (u, v)


def test_classify_holub_form_examples():
    form = classify_holub_form(power_words(bm("a", "bab")))
    assert form is not None
    assert (form.case_index, form.p, form.q) == (1, w("b"), w("a"))
    assert form.exponents == {"m": 1, "n": 0}

    form = classify_holub_form(power_words(bm("abba", "b")))
    assert form is not None
    assert (form.case_index, form.p, form.q) == (2, w("a"), w("b"))
    assert form.exponents == {"m": 1, "n": 2}

    form = classify_holub_form(power_words(bm("abbababbabababbababba", "babab")))
    assert form is not None
    assert (form.case_index, form.p, form.q) == (3, w("a"), w("b"))
    assert form.exponents == {"k": 3, "m": 2, "n": 1}

    form = classify_holub_form(power_words(bm("abbabbabbabba", "bbaabb")))
    assert form is not None
    assert (form.case_index, form.p, form.q) == (4, w("a"), w("bb"))
    assert form.exponents == {"m": 4}

    assert classify_holub_form(power_words(THUE_MORSE)) is None
    assert classify_holub_form(power_words(PERIOD_DOUBLING)) is None


def test_classify_holub_form_parametric_families():
    # Build instances of each parametric family and require an exact rebuild.
    p, q = w("a"), w("b")
    case1 = ((p + q) * 2 + p, q + (p + q) * 1)
    case2 = ((p + q * 3) * 2 + p, q)
    v3 = q + (p + q) * 1
    case3 = ((p + q + v3) * 1 + p + q + v3 * 0 + q + p, v3)
    case4 = ((p + q) * 3 + p, q + p + p + q)
    for u, v in (case1, case2, case3, case4):
        m = Morphism((u, v))
        form = classify_holub_form(power_words(m))
        assert form is not None, (u, v)
        assert form.rebuild() == holub_candidates(u, v)[:2]
        assert not commute(form.p, form.q)
    # A 20 001-letter v of case 3: its parameters are read off the power
    # that the scan finds, in time linear in |u| + |v|.
    long3 = HolubForm(3, p, q, {"k": 3, "m": 10000, "n": 1})
    assert classify_holub_form(power_words(Morphism(long3.rebuild()))) == long3


# (pairs, forms) per size: every injective image pair of that total size at
# most, and how many of them have a parametric form. Size 16 takes about
# a minute, so it runs only when BWTMORPH_SLOW_TESTS is set.
HOLUB_FORM_COUNTS = {12: (81_606, 1_684), 16: (1_834_074, 10_042)}


@pytest.mark.parametrize("max_size", [12, pytest.param(16, marks=SLOW)])
def test_classify_holub_form_equals_the_search(max_size):
    pairs = forms = 0
    for u, v in injective_image_pairs(max_size):
        pairs += 1
        form = classify_holub_form(power_words(Morphism((u, v))))
        assert form == holub_form_search(u, v), (u, v)
        if form is not None:
            forms += 1
            assert form.rebuild() == holub_candidates(u, v)[:2], (u, v)
    assert (pairs, forms) == HOLUB_FORM_COUNTS[max_size]


def test_classify_holub_form_on_random_family_members():
    # Members of each family with |p|, |q| <= 6 and small exponents reach
    # images longer than the exhaustive sweep does; a member may also fit an
    # earlier form of the search, so the form is compared with the search.
    rng = random.Random(19)
    words = list(binary_words(6, min_len=1))
    checked = 0
    while checked < 2000:
        p, q = rng.choice(words), rng.choice(words)
        case = rng.randint(1, 4)
        exponents = {
            1: {"m": rng.randint(0, 4), "n": rng.randint(1, 4)},
            2: {"m": rng.randint(1, 4), "n": rng.randint(1, 4)},
            3: {"k": rng.randint(2, 4), "m": rng.randint(1, 4), "n": rng.randint(0, 3)},
            4: {"m": rng.randint(2, 5)},
        }[case]
        u, v = HolubForm(case, p, q, exponents).rebuild()
        if commute(p, q) or commute(u, v):
            continue
        checked += 1
        form = classify_holub_form(power_words(Morphism((u, v))))
        assert form is not None and form == holub_form_search(u, v), (u, v)


def test_readers_equal_the_candidate_loop_exhaustively():
    # Every injective morphism whose images have at most 6 letters each. The
    # library finds the first power with one prefix-function pass; the oracle
    # tests each candidate of Holub's set on its own, and its first hit fixes
    # what all three readers report.
    images = list(binary_words(6, min_len=1))
    letter_cases = [PowerCase.PRESERVING, PowerCase.ONE_LETTER_POWER, PowerCase.TWO_LETTER_POWERS]
    # (2, 1) is Holub's case 4, (1, 1) his case 1, and (1, j) with j >= 2 case 2 or 3.
    holub_cases = {(2, 1): (4,), (1, 1): (1,)}
    count = 0
    for u, v in product(images, repeat=2):
        if u + v == v + u:
            continue
        count += 1
        m = Morphism((u, v))
        big, small, hit = first_hit(u, v)
        letters = tuple(c for c, image in enumerate((u, v)) if not is_primitive(image))
        cls = power_words(m)
        verdict, form = is_primitivity_preserving(cls), classify_holub_form(cls)
        if hit is None:
            expected = PowerWordClassification(letter_cases[len(letters)], letters, None, None, None, (big, small), None)
            assert cls == expected, (u, v)
            assert form is None, (u, v)
            witness = None
        else:
            l, j = hit
            x, y = (w("b"), w("a")) if len(u) < len(v) else (w("a"), w("b"))
            witness = canonical_rotation(x * l + y * j)
            case = PowerCase.ROTATION_CLASS_PLUS_LETTER if letters else PowerCase.ROTATION_CLASS
            z, k = primitive_root(m.apply(witness))
            assert cls == PowerWordClassification(case, letters, witness, z, k, (big, small), hit), (u, v)
            assert form is not None and form.rebuild() == (big, small), (u, v)
            assert form.case_index in holub_cases.get(hit, (2, 3)), (u, v)
        witness = bytes(letters[:1]) if letters else witness
        assert verdict == (witness is None, witness), (u, v)
    assert count == 15666


def classify_json(capsys, a_image):
    assert main(["classify", f"a={a_image},b=b", "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_classify_on_long_images(capsys):
    # 20 000-letter first images: a candidate loop that rebuilds each u v**j
    # would take quadratic time on the first, which scans all 19 998 of them.
    out = classify_json(capsys, "a" * 19999 + "b")
    assert (out["primitivity_preserving"], out["pp_witness"], out["power_case"]) == (True, None, "1a")
    assert (out["holub_form"], out["recognizable"]) == (None, True)

    out = classify_json(capsys, "ab" * 10000)
    assert (out["primitivity_preserving"], out["pp_witness"], out["power_case"]) == (False, "a", "1b")
    assert (out["power_letters"], out["power_rotation_witness"], out["holub_form"]) == (["a"], None, None)

    out = classify_json(capsys, "ab" * 9999 + "a")
    assert (out["primitivity_preserving"], out["pp_witness"], out["power_case"]) == (False, "ab", "2a")
    assert (out["power_rotation_witness"], out["power_z"], out["power_k"]) == ("ab", "ab", 10000)
    assert out["holub_form"] == {"case": 1, "exponents": {"m": 1, "n": 0}, "p": "ab" * 4999 + "a", "q": "b"}


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "a=abaa,b=aaab", "--json"],
        ["classify", "a=a,b=bab"],
        ["mu-powers", "a=a,b=bab", "--json"],
        ["decide-delay", "a=ab,b=aa", "--scope", "runs:2:inf"],
        ["decide-delay", "a=baa,b=aba", "--scope", "full", "--json"],
    ],
)
def test_one_power_words_call_per_command(monkeypatch, capsys, argv):
    # Holub's scan runs once per call: every module of the package that binds
    # power_words gets a counting wrapper, the readers included.
    calls = []

    def counted(m):
        calls.append(m)
        return power_words(m)

    modules = [
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "bwtmorph" and vars(module).get("power_words") is power_words
    ]
    assert {"bwtmorph.cli", "bwtmorph.primitivity", "bwtmorph.syncing"} <= set(modules)
    for name in modules:
        monkeypatch.setattr(sys.modules[name], "power_words", counted)
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert len(calls) == 1, argv


def test_are_conjugates():
    assert are_conjugates(w("baa"), w("aba"))
    assert not are_conjugates(w("baa"), w("abb"))
    assert are_conjugates(w("ab"), w("ab"))
    assert not are_conjugates(w("ab"), w("abb"))
    with pytest.raises(ValueError):
        are_conjugates(b"", w("a"))


def test_is_recognizable():
    assert is_recognizable(power_words(bm("baa", "abb"))) == (True, "primitivity-preserving with non-conjugate images")
    verdict = is_recognizable(power_words(bm("baa", "aba")))
    assert (verdict.recognizable, verdict.reason) == (False, "conjugate images")
    verdict = is_recognizable(power_words(PERIOD_DOUBLING))
    assert (verdict.recognizable, verdict.reason) == (False, "not primitivity-preserving")
    # Recognizable implies primitivity-preserving on every small morphism.
    for u, v in injective_image_pairs(7):
        m = Morphism((u, v))
        cls = power_words(m)
        if is_recognizable(cls).recognizable:
            assert is_primitivity_preserving(cls).preserving


def test_decodes_over():
    assert THUE_MORSE.decode(w("abba")) == (0, 1)
    assert THUE_MORSE.decode(w("b")) is None
    assert THUE_MORSE.decode(b"") == ()
    # The parse a.a dead-ends at b, so the decoder backtracks to a.ab.
    assert bm("a", "ab").decode(w("aab")) == (0, 1)
    # A word decodes iff it is the image of a source word, and then into that word.
    for u, v in injective_image_pairs(5):
        m = Morphism((u, v))
        spelled = {m.apply(s): s for s in binary_words(6)}
        for word in binary_words(6):
            decoded = m.decode(word)
            assert decoded == (tuple(spelled[word]) if word in spelled else None), (u, v, word)


def check_pp_decomposition(outer, inner):
    """Decide preservation of outer composed with inner without composing.

    Requires inner = (p, q) preserving, and no word mapped to a power by
    outer may be spellable from p and q.
    """
    if not is_primitivity_preserving(power_words(inner)).preserving:
        return False
    cls = power_words(outer)
    if any(inner.decode(bytes([c])) is not None for c in cls.letter_witnesses):
        return False
    # Some rotation of the witness is spelled by p and q iff the witness has
    # a circular factorization; one pass finds that without listing rotations.
    return cls.rotation_witness is None or not circular_factorizations(cls.rotation_witness, inner)


def test_check_pp_decomposition_fixtures():
    assert check_pp_decomposition(PERIOD_DOUBLING, THUE_MORSE)
    assert not check_pp_decomposition(bm("aba", "b"), THUE_MORSE)
    assert check_pp_decomposition(IDENTITY, FIBONACCI)


def test_check_pp_decomposition_matches_composition():
    rng = random.Random(9)
    pairs = list(injective_image_pairs(6))
    for _ in range(300):
        outer = Morphism(rng.choice(pairs))
        inner = Morphism(rng.choice(pairs))
        expected = is_primitivity_preserving(power_words(compose(outer, inner))).preserving
        assert check_pp_decomposition(outer, inner) == expected
    # A long rotation witness, ab^4000, of 4 001 letters.
    outer = bm("a" + "b" * 4000 + "a", "b")
    assert len(power_words(outer).rotation_witness) == 4001
    expected = is_primitivity_preserving(power_words(compose(outer, THUE_MORSE))).preserving
    assert check_pp_decomposition(outer, THUE_MORSE) == expected
