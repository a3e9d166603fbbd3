"""Morphisms between free monoids over integer alphabets.

A morphism is stored as the tuple of letter images (index = source symbol).
Images are non-empty: erasing morphisms are rejected at construction.
Classification helpers (order class, bifix structure, elementary peeling)
are defined for binary sources only, matching their mathematical scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from .words import BINARY, Alphabet, Word, commute, primitive_root

@dataclass(frozen=True)
class Morphism:
    images: tuple[Word, ...]
    target_size: int = 0  # 0 means: infer from the images

    def __post_init__(self) -> None:
        if not self.images:
            raise ValueError("morphism needs at least one image")
        if any(len(img) == 0 for img in self.images):
            raise ValueError("erasing morphisms are not allowed: every image must be non-empty")
        used = max(max(img) for img in self.images) + 1
        if self.target_size == 0:
            object.__setattr__(self, "target_size", used)
        elif used > self.target_size:
            raise ValueError(f"image symbol {used - 1} outside declared target of size {self.target_size}")

    @property
    def source_size(self) -> int:
        return len(self.images)

    @property
    def size(self) -> int:
        return sum(len(img) for img in self.images)

    def is_binary(self) -> bool:
        return len(self.images) == 2

    def apply(self, w: Word) -> Word:
        try:
            return b"".join(map(self.images.__getitem__, w))
        except IndexError:
            raise ValueError(f"word contains a symbol outside the source alphabet of size {self.source_size}") from None

    def decode(self, w: Word) -> tuple[int, ...] | None:
        """A factorization of w into images, as source symbols; None when w has none.

        Depth-first with dead-position memoization; the first complete parse
        is returned, and it is the only one when the images form a code (an
        injective morphism). The parse so far is the path: backtracking pops
        its last image and tries the next one at the same position.
        """
        images = self.images
        dead: set[int] = set()
        seq: list[int] = []
        pos = nxt = 0
        while pos < len(w):
            idx = len(images) if pos in dead else nxt
            while idx < len(images) and not w.startswith(images[idx], pos):
                idx += 1
            if idx < len(images):
                seq.append(idx)
                pos += len(images[idx])
                nxt = 0
                continue
            dead.add(pos)
            if not seq:
                return None
            last = seq.pop()
            pos -= len(images[last])
            nxt = last + 1
        return tuple(seq)


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner: images are outer applied to inner's images."""
    if inner.target_size > outer.source_size:
        raise ValueError(
            f"alphabet mismatch: inner targets {inner.target_size} symbols, outer reads {outer.source_size}"
        )
    return Morphism(tuple(outer.apply(img) for img in inner.images), outer.target_size)


def _require_binary(m: Morphism) -> None:
    if not m.is_binary():
        raise ValueError("operation requires a binary source alphabet")


def is_injective_binary(m: Morphism) -> bool:
    """For binary sources, injective iff acyclic iff the images do not commute."""
    _require_binary(m)
    u, v = m.images
    return not commute(u, v)


def _require_injective(m: Morphism) -> None:
    if not is_injective_binary(m):
        raise ValueError("operation requires an injective (acyclic) binary morphism")


def is_cyclic(m: Morphism) -> Word | None:
    """The common primitive root of all images, or None when there is none."""
    z = primitive_root(m.images[0]).root
    if all(primitive_root(img).root == z for img in m.images[1:]):
        return z
    return None


class OrderClass(Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"


def abelian_order_class(m: Morphism) -> OrderClass:
    """Whether m preserves or reverses order among words of equal Parikh vector.

    A binary acyclic morphism always does one or the other, so comparing the
    images of ab and ba decides the class.
    """
    _require_injective(m)
    u, v = m.images
    return OrderClass.PRESERVING if u + v < v + u else OrderClass.REVERSING


class BifixStatus(Enum):
    PREFIX_ONLY = "prefix"
    SUFFIX_ONLY = "suffix"
    BIFIX = "bifix"
    NEITHER = "neither"


def bifix_status(m: Morphism) -> BifixStatus:
    """Prefix: neither image is a prefix of the other; suffix symmetric."""
    _require_binary(m)
    u, v = m.images
    prefix = not (u.startswith(v) or v.startswith(u))
    suffix = not (u.endswith(v) or v.endswith(u))
    if prefix and suffix:
        return BifixStatus.BIFIX
    if prefix:
        return BifixStatus.PREFIX_ONLY
    if suffix:
        return BifixStatus.SUFFIX_ONLY
    return BifixStatus.NEITHER


def _binary(text: str) -> Word:
    return BINARY.word(text)


IDENTITY = Morphism((_binary("a"), _binary("b")))
EXCHANGE = Morphism((_binary("b"), _binary("a")))
FIBONACCI = Morphism((_binary("ab"), _binary("a")))
FIBONACCI_TILDE = Morphism((_binary("ba"), _binary("a")))
THUE_MORSE = Morphism((_binary("ab"), _binary("ba")))
PERIOD_DOUBLING = Morphism((_binary("ab"), _binary("aa")))

# The four elementary factors of the Sturmian monoid, in peeling preference
# order. PHI_E and PHI_TILDE_E are PHI and PHI_TILDE composed with EXCHANGE.
PHI = FIBONACCI
PHI_E = Morphism((_binary("a"), _binary("ab")))
PHI_TILDE = FIBONACCI_TILDE
PHI_TILDE_E = Morphism((_binary("a"), _binary("ba")))


def rho(p: int) -> Morphism:
    """The morphism fixing a and sending b to b**p."""
    if p < 1:
        raise ValueError("exponent must be positive")
    return Morphism((b"\x00", b"\x01" * p))


def thue_morse_like(p: int, q: int) -> Morphism:
    """(a b**p, b a**q)."""
    if p < 1 or q < 1:
        raise ValueError("exponents must be positive")
    return Morphism((b"\x00" + b"\x01" * p, b"\x01" + b"\x00" * q))


def _elementary_peels(u: Word, v: Word) -> Iterator[tuple[Morphism, tuple[Word, Word]]]:
    # A strict prefix/suffix relation between the images pins down which
    # elementary factor can be split off and what the outer images must be.
    if len(v) < len(u) and u.startswith(v):
        yield PHI, (v, u[len(v):])
    if len(u) < len(v) and v.startswith(u):
        yield PHI_E, (u, v[len(u):])
    if len(v) < len(u) and u.endswith(v):
        yield PHI_TILDE, (v, u[: len(u) - len(v)])
    if len(u) < len(v) and v.endswith(u):
        yield PHI_TILDE_E, (u, v[: len(v) - len(u)])


def is_sturmian(m: Morphism) -> bool:
    """True iff m is a composition of FIBONACCI, FIBONACCI_TILDE and EXCHANGE.

    A morphism that maps one Sturmian word to a Sturmian word is Sturmian
    (Mignosi and Seebold, 1993), so every peel of a Sturmian morphism leaves
    a Sturmian morphism: peeling the first available elementary factor until
    none is left reaches the identity or the exchange exactly when m is
    Sturmian. The total image length strictly shrinks at each peel.
    """
    _require_injective(m)
    images = m.images
    while images not in (IDENTITY.images, EXCHANGE.images):
        peel = next(_elementary_peels(*images), None)
        if peel is None:
            return False
        images = peel[1]
    return True


def factor_through_tau(m: Morphism) -> Morphism | None:
    """A morphism psi with m = psi after THUE_MORSE, when one exists.

    Exists iff the images split as m(a) = pq and m(b) = qp with p, q both
    non-empty; split points are scanned left to right and the first match
    gives psi = (p, q).
    """
    _require_binary(m)
    u, v = m.images
    if len(u) != len(v):
        return None
    for cut in range(1, len(u)):
        p, q = u[:cut], u[cut:]
        if q + p == v:
            return Morphism((p, q), m.target_size)
    return None


_NAMED = {
    "identity": IDENTITY,
    "fibonacci": FIBONACCI,
    "fibonacci-tilde": FIBONACCI_TILDE,
    "exchange": EXCHANGE,
    "thue-morse": THUE_MORSE,
    "period-doubling": PERIOD_DOUBLING,
}


_FAMILIES = {"rho": ("rho:<p>", rho), "tm-like": ("tm-like:<p>:<q>", thue_morse_like)}


def named_morphism(key: str) -> Morphism:
    """Resolve a CLI keyword: a fixed name, rho:<p>, or tm-like:<p>:<q>."""
    if key in _NAMED:
        return _NAMED[key]
    name, *fields = key.split(":")
    if name not in _FAMILIES:
        raise ValueError(f"unknown morphism name {key!r}")
    form, family = _FAMILIES[name]
    if len(fields) != form.count(":") or not all(f.isdecimal() and int(f) > 0 for f in fields):
        raise ValueError(f"bad morphism name {key!r}: expected {form} with positive integers")
    return family(*map(int, fields))


class ParsedMorphism(NamedTuple):
    morphism: Morphism
    source: Alphabet
    target: Alphabet


# What no letter of a morphism text may be: the separators and whitespace
# (`\s` matches exactly the characters for which str.isspace() is true).
_NOT_A_LETTER = re.compile(r"[\s=,]")


def parse_morphism(text: str, target_letters: str | None = None) -> ParsedMorphism:
    """Parse the ``a=ab,b=ba`` format.

    Source alphabet order follows the listing order of the pairs; the
    target alphabet defaults to the ASCII-sorted set of letters appearing
    in the images, unless an explicit letter order is given. A named
    morphism maps a and b to words over a and b; with an explicit letter
    order it parses as that ``a=..,b=..`` text. No letter, source or image,
    may be whitespace, ``=`` or ``,``: those would let a mistyped text such
    as ``a=ab b=ba`` parse as one image.
    """
    if "=" not in text:
        m = named_morphism(text)
        if target_letters is None:
            return ParsedMorphism(m, BINARY, BINARY)
        text = format_morphism(m, BINARY, BINARY)
    pairs = []
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"bad morphism component {part!r}, expected letter=image")
        letter, image = part.split("=", 1)
        if len(letter) != 1:
            raise ValueError(f"source symbol {letter!r} must be a single letter")
        if not image:
            raise ValueError(f"empty image for {letter!r}: erasing morphisms are not allowed")
        bad = _NOT_A_LETTER.search(letter + image)
        if bad:
            raise ValueError(f"letter {bad.group()!r} in {part!r}: morphism letters cannot be whitespace, '=' or ','")
        pairs.append((letter, image))
    source_letters = "".join(letter for letter, _ in pairs)
    source = Alphabet(source_letters)
    if target_letters is None:
        target_letters = "".join(sorted({c for _, image in pairs for c in image}))
    target = Alphabet(target_letters)
    images = tuple(target.word(image) for _, image in pairs)
    return ParsedMorphism(Morphism(images, target.size), source, target)


def format_morphism(m: Morphism, source: Alphabet, target: Alphabet) -> str:
    return ",".join(f"{source.letters[i]}={target.render(img)}" for i, img in enumerate(m.images))
