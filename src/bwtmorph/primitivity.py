"""Primitivity preservation, power-word structure, and recognizability.

The preservation test is finite: orient the images so the longer one comes
first, then the only exponent pairs (l, m) that can make u**l v**m a power
are (2, 1) and (1, m) with m at most (|u| - 4) / |v| + 2. Checking the
primitivity of those candidates, plus the two images themselves, decides the
property in time polynomial in the size of the morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .morphisms import Morphism, _require_binary, _require_injective
from .words import PrimitiveRoot, Word, canonical_rotation, commute, is_primitive, primitive_root, rotations


def _first_power(m: Morphism) -> tuple[tuple[int, int], Word, PrimitiveRoot] | None:
    """Holub's exponent scan: the first candidate u**l v**j that is a power.

    The images are oriented so that u is the longer (u first on a tie); the
    pairs are (2, 1), then (1, j) for j up to (|u| - 4) / |v| + 2. A hit is
    the pair (l, j), the canonical rotation of the source word whose image is
    the candidate, and the primitive root of that image. None when every
    candidate is primitive. The morphism must be injective.
    """
    u, v = m.images
    x, y = 0, 1
    if len(u) < len(v):
        u, v, x, y = v, u, 1, 0
    # The formula can go below 1 for short images; (1, 1) is always checked.
    bound = max(1, (len(u) - 4) // len(v) + 2)
    for l, j in [(2, 1), *((1, j) for j in range(1, bound + 1))]:
        if not is_primitive(u * l + v * j):
            witness = canonical_rotation(bytes([x]) * l + bytes([y]) * j)
            return (l, j), witness, primitive_root(m.apply(witness))
    return None


class PpVerdict(NamedTuple):
    preserving: bool
    witness: Word | None


def is_primitivity_preserving(m: Morphism) -> PpVerdict:
    """Decide whether every primitive word keeps a primitive image.

    On failure the witness is a primitive word whose image is a power:
    a letter when its own image is a power, otherwise the canonical
    rotation of the word found by the finite exponent scan.
    """
    _require_injective(m)
    for letter, image in enumerate(m.images):
        if not is_primitive(image):
            return PpVerdict(False, bytes([letter]))
    hit = _first_power(m)
    return PpVerdict(True, None) if hit is None else PpVerdict(False, hit[1])


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

    def members(self) -> list[Word]:
        """The full (finite) set: witness letters plus the rotation class."""
        out = [bytes([c]) for c in self.letter_witnesses]
        if self.rotation_witness is not None:
            seen = set()
            for r in rotations(self.rotation_witness):
                if r not in seen:
                    seen.add(r)
                    out.append(r)
        return out


def power_words(m: Morphism) -> PowerWordClassification:
    """Exact description of the primitive words whose image under m is a power."""
    _require_injective(m)
    letters = tuple(c for c, image in enumerate(m.images) if not is_primitive(image))
    hit = _first_power(m)
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
    q = v
    for mm in range(1, len(u) + 1):
        lp = len(u) - mm * n * len(q)
        if lp < mm + 1 or lp % (mm + 1):
            continue
        p = u[: lp // (mm + 1)]
        form = HolubForm(2, p, q, {"m": mm, "n": n})
        if not commute(p, q) and form.rebuild() == (u, v):
            return form
    return None


def _case3(u: Word, v: Word, k: int) -> HolubForm | None:
    # v = q(pq)^m fixes |p| per (m, |q|); then
    # |u| = n(|pq| + (k-1)|v|) + 2|pq| + (k-2)|v| fixes n.
    for mm in range(1, len(v) + 1):
        for lq in range(1, len(v)):
            lp = len(v) - (mm + 1) * lq
            if lp < mm or lp % mm:
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
    _require_injective(m)
    hit = _first_power(m)
    if hit is None:
        return None
    u, v = sorted(m.images, key=len, reverse=True)  # the scan's orientation: a stable sort
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


def check_pp_decomposition(outer: Morphism, inner: Morphism) -> bool:
    """Decide preservation of outer composed with inner without composing.

    Requires inner = (p, q) preserving, and no word mapped to a power by
    outer may be spellable from p and q.
    """
    _require_binary(inner)
    if inner.target_size > outer.source_size:
        raise ValueError("alphabet mismatch: inner does not feed outer")
    if not is_primitivity_preserving(inner).preserving:
        return False
    return all(inner.decode(x) is None for x in power_words(outer).members())
