"""Primitivity preservation, power-word structure, and recognizability.

The preservation test is finite: orient the images so the longer one comes
first, then the only exponent pairs (l, m) that can make u**l v**m a power
are (2, 1) and (1, m) with m at most (|u| - 4) / |v| + 2. The candidates
(1, m) are the prefixes of one word, so one prefix-function pass checks them
all in time linear in the size of the morphism. That scan is `power_words`,
the one analysis of a morphism: the preservation verdict, the Holub form and
recognizability take its `PowerWordClassification` and read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .morphisms import Morphism, _require_injective
from .words import Word, is_primitive, primitive_root


class PowerCase(Enum):
    """Shape of the set of primitive words mapped to powers."""

    PRESERVING = "1a"
    ONE_LETTER_POWER = "1b"
    TWO_LETTER_POWERS = "1c"
    ROTATION_CLASS = "2a"
    ROTATION_CLASS_PLUS_LETTER = "2b"


@dataclass(frozen=True)
class PowerWordClassification:
    """The primitive words mapped to powers, and the scan that found them.

    `images` are the oriented images (u, v), the longer first; `pair` is the
    exponent pair (l, j) of the first power u**l v**j of Holub's test set,
    whose source word's least rotation is `rotation_witness` and whose image
    is z**k. These four are None when every candidate is primitive.
    """

    case: PowerCase
    letter_witnesses: tuple[int, ...]
    rotation_witness: Word | None
    z: Word | None
    k: int | None
    images: tuple[Word, Word]
    pair: tuple[int, int] | None


_LETTER_CASES = (PowerCase.PRESERVING, PowerCase.ONE_LETTER_POWER, PowerCase.TWO_LETTER_POWERS)


def power_words(m: Morphism) -> PowerWordClassification:
    """Exact description of the primitive words whose image under m is a power.

    The morphism must be injective. Holub's exponent scan orients the images
    so that u is the longer (u first on a tie) and tests the pairs (2, 1),
    then (1, j) for j up to J = (|u| - 4) / |v| + 2. Each u v**j is the
    prefix of length L = |u| + j|v| of u v**J, and one prefix-function pass
    (Knuth, Morris and Pratt) gives every prefix its longest proper border b:
    the prefix is a power iff b > 0 and L - b, its least period, divides L.
    The first hit, if any, is the rotation class; the letters whose own
    images are powers complete the set.
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
    b = 0
    for c in s[1:]:
        while b and c != s[b]:
            b = border[b]
        if c == s[b]:
            b += 1
        border.append(b)
    ends = range(len(u) + len(v), len(s) + 1, len(v))
    powers = ((1, j) for j, end in enumerate(ends, 1) if border[end] and end % (end - border[end]) == 0)
    pair = (2, 1) if not is_primitive(u + u + v) else next(powers, None)
    letters = tuple(c for c, image in enumerate(m.images) if not is_primitive(image))
    if pair is None:
        return PowerWordClassification(_LETTER_CASES[len(letters)], letters, None, None, None, (u, v), None)
    if len(letters) > 1:
        raise AssertionError("a power among the mixed candidates excludes two non-primitive images")
    case = PowerCase.ROTATION_CLASS_PLUS_LETTER if letters else PowerCase.ROTATION_CLASS
    # x**l y**j has two runs, and its least rotation starts at one of them.
    head, tail = bytes([x]) * pair[0], bytes([y]) * pair[1]
    witness = min(head + tail, tail + head)
    z, k = primitive_root(m.apply(witness))
    return PowerWordClassification(case, letters, witness, z, k, (u, v), pair)


class PpVerdict(NamedTuple):
    preserving: bool
    witness: Word | None


def is_primitivity_preserving(cls: PowerWordClassification) -> PpVerdict:
    """Decide whether every primitive word keeps a primitive image, from `power_words(m)`.

    On failure the witness is a primitive word whose image is a power:
    a letter when its own image is a power, otherwise the canonical
    rotation of the word found by the finite exponent scan.
    """
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


def classify_holub_form(cls: PowerWordClassification) -> HolubForm | None:
    """Read the parametric form of the oriented images off the power that `power_words` finds.

    None when the scan finds no power: for preserving morphisms and for those
    whose only failures are letter images. The hit's pair (l, j) fixes the
    case, and u**l v**j splits into d equal blocks of length s, where d is the
    least divisor above 1 of the exponent of its primitive root:

    - (2, 1) is case 4, uuv = ((pq)**m ppq)**2 with v = qppq, so |pq| = |v|/2;
    - (1, 1) is case 1, uv = (pq)**d with |pq| = s;
    - (1, j) is case 2, u v**j = (p v**j)**d with q = v, when p = u[:s - j|v|]
      is non-empty (p cannot commute with v, or u would);
    - otherwise case 3, u v**j = (pq v**(j-1))**d with pq = u[:s - (j-1)|v|],
      where v = q(pq)**m fixes |q| = |v| - m|pq| with 1 <= |q| <= |pq|.

    The least d gives the first match of a search over each family's
    parameters in increasing order, which the tests keep as the oracle.
    Holub's theorem says that the form exists; the rebuild check guards that.
    """
    if cls.pair is None:
        return None
    (u, v), (l, j), k = cls.images, cls.pair, cls.k
    d = next(i for i in range(2, k + 1) if k % i == 0)
    s = (l * len(u) + j * len(v)) // d
    if (l, j) == (2, 1):
        mm, r = divmod(len(u), len(v) // 2)
        form = HolubForm(4, u[:r], u[r : len(v) // 2], {"m": mm})
    elif j == 1:
        mm, r = divmod(len(u), s)
        form = HolubForm(1, u[:r], v[: s - r], {"m": mm, "n": d - 1 - mm})
    elif s > j * len(v):
        form = HolubForm(2, u[: s - j * len(v)], v, {"m": d - 1, "n": j})
    else:
        t = u[: s - (j - 1) * len(v)]
        mm = (len(v) - 1) // len(t)
        c = len(v) - mm * len(t)
        form = HolubForm(3, t[: len(t) - c], v[:c], {"k": j, "m": mm, "n": d - 2})
    if form.rebuild() != (u, v):
        raise AssertionError(f"the images {u!r}, {v!r} fit no parametric form")
    return form


def are_conjugates(u: Word, v: Word) -> bool:
    """True iff v is a rotation of u."""
    if not u or not v:
        raise ValueError("conjugacy is defined on non-empty words")
    return len(u) == len(v) and v in u + u


class RecognizabilityVerdict(NamedTuple):
    recognizable: bool
    reason: str


def is_recognizable(cls: PowerWordClassification) -> RecognizabilityVerdict:
    """Whether every image admits a unique circular factorization into codewords, from `power_words(m)`.

    Preserving morphisms are recognizable exactly when the two images are
    not conjugate; a non-preserving morphism never is, because arbitrarily
    large powers of its witness words all map into single rotation classes.
    """
    if not is_primitivity_preserving(cls).preserving:
        return RecognizabilityVerdict(False, "not primitivity-preserving")
    if are_conjugates(*cls.images):
        return RecognizabilityVerdict(False, "conjugate images")
    return RecognizabilityVerdict(True, "primitivity-preserving with non-conjugate images")
