"""Primitivity preservation, power-word structure, and recognizability.

The preservation test is finite: orient the images so the longer one comes
first, then the only exponent pairs (l, m) that can make u**l v**m a power
are (2, 1) and (1, m) with m at most (|u| - 4) / |v| + 2. The candidates
(1, m) are the prefixes of one word, so one prefix-function pass checks them
all in time linear in the size of the morphism. That scan, `_first_power`,
is the one analysis that the verdict, power words and Holub form read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .morphisms import Morphism, _require_injective
from .words import PrimitiveRoot, Word, commute, is_primitive, primitive_root


def _first_power(m: Morphism) -> tuple[tuple[Word, Word], tuple[tuple[int, int], Word, PrimitiveRoot] | None]:
    """Holub's exponent scan: the oriented images and the first candidate u**l v**j that is a power.

    The morphism must be injective. The images are oriented so that u is the
    longer (u first on a tie); the pairs are (2, 1), then (1, j) for j up to
    J = (|u| - 4) / |v| + 2. Each u v**j is the prefix of length
    L = |u| + j|v| of u v**J, and one prefix-function pass (Knuth, Morris and
    Pratt) gives every prefix its longest proper border k: the prefix is a
    power iff k > 0 and L - k, its least period, divides L. A hit is the pair,
    the canonical rotation of the source word whose image is the candidate,
    and the primitive root of that image; None when every candidate is primitive.
    """
    _require_injective(m)
    u, v = m.images
    x, y = 0, 1
    if len(u) < len(v):
        u, v, x, y = v, u, 1, 0
    # The formula can go below 1 for short images; (1, 1) is always checked.
    bound = max(1, (len(u) - 4) // len(v) + 2)
    s = u + v * bound
    border = [0, 0]  # border[L]: the longest proper border of s[:L]
    k = 0
    for c in s[1:]:
        while k and c != s[k]:
            k = border[k]
        if c == s[k]:
            k += 1
        border.append(k)
    ends = range(len(u) + len(v), len(s) + 1, len(v))
    powers = ((1, j) for j, end in enumerate(ends, 1) if border[end] and end % (end - border[end]) == 0)
    pair = (2, 1) if not is_primitive(u + u + v) else next(powers, None)
    if pair is None:
        return (u, v), None
    # x**l y**j has two runs, and its least rotation starts at one of them.
    head, tail = bytes([x]) * pair[0], bytes([y]) * pair[1]
    witness = min(head + tail, tail + head)
    return (u, v), (pair, witness, primitive_root(m.apply(witness)))


class PowerCase(Enum):
    """Shape of the set of primitive words mapped to powers."""

    PRESERVING = "1a"
    ONE_LETTER_POWER = "1b"
    TWO_LETTER_POWERS = "1c"
    ROTATION_CLASS = "2a"
    ROTATION_CLASS_PLUS_LETTER = "2b"


@dataclass(frozen=True)
class PowerWordClassification:
    case: PowerCase
    letter_witnesses: tuple[int, ...]
    rotation_witness: Word | None
    z: Word | None
    k: int | None


def power_words(m: Morphism) -> PowerWordClassification:
    """Exact description of the primitive words whose image under m is a power."""
    _, hit = _first_power(m)
    letters = tuple(c for c, image in enumerate(m.images) if not is_primitive(image))
    if hit is None:
        if not letters:
            case = PowerCase.PRESERVING
        elif len(letters) == 1:
            case = PowerCase.ONE_LETTER_POWER
        else:
            case = PowerCase.TWO_LETTER_POWERS
        return PowerWordClassification(case, letters, None, None, None)
    if len(letters) > 1:
        raise AssertionError("a power among the mixed candidates excludes two non-primitive images")
    case = PowerCase.ROTATION_CLASS_PLUS_LETTER if letters else PowerCase.ROTATION_CLASS
    _, witness, (z, k) = hit
    return PowerWordClassification(case, letters, witness, z, k)


class PpVerdict(NamedTuple):
    preserving: bool
    witness: Word | None


def is_primitivity_preserving(m: Morphism) -> PpVerdict:
    """Decide whether every primitive word keeps a primitive image.

    On failure the witness is a primitive word whose image is a power:
    a letter when its own image is a power, otherwise the canonical
    rotation of the word found by the finite exponent scan.
    """
    cls = power_words(m)
    if cls.letter_witnesses:
        return PpVerdict(False, bytes(cls.letter_witnesses[:1]))
    return PpVerdict(cls.case is PowerCase.PRESERVING, cls.rotation_witness)


@dataclass(frozen=True)
class HolubForm:
    """Parametric shape of an oriented image pair (u, v) with a power in u*v*."""

    case_index: int
    p: Word
    q: Word
    exponents: dict[str, int]

    def rebuild(self) -> tuple[Word, Word]:
        p, q, e = self.p, self.q, self.exponents
        if self.case_index == 1:
            return (p + q) * e["m"] + p, q + (p + q) * e["n"]
        if self.case_index == 2:
            return (p + q * e["n"]) * e["m"] + p, q
        if self.case_index == 3:
            v = q + (p + q) * e["m"]
            block = p + q + v * (e["k"] - 1)
            return block * e["n"] + p + q + v * (e["k"] - 2) + q + p, v
        if self.case_index == 4:
            return (p + q) * e["m"] + p, q + p + p + q
        raise ValueError(f"no case {self.case_index}")


def _case1(u: Word, v: Word) -> HolubForm | None:
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


def _case2(u: Word, v: Word, n: int) -> HolubForm | None:
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


def _case3(u: Word, v: Word, k: int) -> HolubForm | None:
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


def _case4(u: Word, v: Word) -> HolubForm | None:
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


def classify_holub_form(m: Morphism) -> HolubForm | None:
    """Match the oriented images against the parametric power families.

    Only meaningful when the mixed-candidate scan finds a power; returns
    None for preserving morphisms and for those whose only failures are
    letter images.
    """
    (u, v), hit = _first_power(m)
    if hit is None:
        return None
    (l, j), _, _ = hit
    if (l, j) == (2, 1):
        return _case4(u, v)
    if (l, j) == (1, 1):
        return _case1(u, v)
    return _case2(u, v, j) or _case3(u, v, j)


def are_conjugates(u: Word, v: Word) -> bool:
    """True iff v is a rotation of u."""
    if not u or not v:
        raise ValueError("conjugacy is defined on non-empty words")
    return len(u) == len(v) and v in u + u


class RecognizabilityVerdict(NamedTuple):
    recognizable: bool
    reason: str


def is_recognizable(m: Morphism) -> RecognizabilityVerdict:
    """Whether every image admits a unique circular factorization into codewords.

    Preserving morphisms are recognizable exactly when the two images are
    not conjugate; a non-preserving morphism never is, because arbitrarily
    large powers of its witness words all map into single rotation classes.
    """
    verdict = is_primitivity_preserving(m)
    if not verdict.preserving:
        return RecognizabilityVerdict(False, "not primitivity-preserving")
    if are_conjugates(*m.images):
        return RecognizabilityVerdict(False, "conjugate images")
    return RecognizabilityVerdict(True, "primitivity-preserving with non-conjugate images")
