"""Seeded op lists for the benchmark workloads, with independent output checks.

An op is one ``bwtmorph.cli.main(argv)`` call. Each op carries a check that
reads its stdout and returns an error message, or None when the output is
right. Nothing here imports bwtmorph: the references below (rotation sort by
slices, letter-by-letter morphism application, brute-force primitivity) are
written from the definitions, so a defect in the library cannot hide in its
own check.

The seed draws the argv; it never changes how much work a workload asks for.
Sizes, morphisms and sync words are fixed per workload, so two seeds cost the
same and run-to-run spread measures the host, not the draw.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from functools import cache
from itertools import groupby, product
from math import gcd
from typing import Callable, NamedTuple

DEFAULT_SEED = 0


class Op(NamedTuple):
    argv: tuple[str, ...]
    check: Callable[[str], str | None]
    items: int


class Workload(NamedTuple):
    item: str
    ops: tuple[Op, ...]
    sizes: dict


# ---------------------------------------------------------------- references

# Above this length a full-rotation sort key costs n*n bytes, so long words are
# first sorted by a prefix and only tied prefixes are compared in full.
_FULL_KEY_LIMIT = 4096
_PREFIX = 64


def rotation_order(w: str) -> list[int]:
    """Shifts of the rotations of w in ascending order, ties by shift."""
    n = len(w)
    doubled = w + w
    if n <= _FULL_KEY_LIMIT:
        return sorted(range(n), key=lambda i: (doubled[i : i + n], i))
    order: list[int] = []
    by_prefix = sorted(range(n), key=lambda i: (doubled[i : i + _PREFIX], i))
    for _, group in groupby(by_prefix, key=lambda i: doubled[i : i + _PREFIX]):
        order.extend(sorted(group, key=lambda i: (doubled[i : i + n], i)))
    return order


def bwt(w: str) -> tuple[str, int]:
    order = rotation_order(w)
    return "".join(w[i - 1] for i in order), order.index(0)


def runs(s: str) -> int:
    return sum(1 for _ in groupby(s))


def run_count(w: str) -> int:
    return runs(bwt(w)[0])


def apply(images: dict[str, str], w: str) -> str:
    return "".join(images[c] for c in w)


def is_primitive(w: str) -> bool:
    return (w + w).find(w, 1) == len(w)


def canonical_necklaces(letters: str, n: int) -> list[str]:
    """Least rotations of length n in ascending order, periodic ones included."""
    out = []
    for tup in product(letters, repeat=n):
        w = "".join(tup)
        if all(w <= w[i:] + w[:i] for i in range(1, n)):
            out.append(w)
    return out


def necklace_count(k: int, n: int) -> int:
    """Number of k-ary necklaces of length n: (1/n) sum over d | n of phi(d) k^(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            phi = sum(1 for j in range(1, d + 1) if gcd(j, d) == 1)
            total += phi * k ** (n // d)
    return total // n


def factor_counts(w: str) -> list[int]:
    """Number of distinct circular factors of w of each length 0..|w|."""
    doubled = w + w
    return [len({doubled[i : i + k] for i in range(len(w))}) for k in range(len(w) + 1)]


def wk_word(k: int) -> str:
    """Blocks a b^i a a and a b^i a b a^(i-2) for i = 2..k-1, closed by a b^k a."""
    parts = []
    for i in range(2, k):
        parts.append("a" + "b" * i + "aa")
        parts.append("a" + "b" * i + "ab" + "a" * (i - 2))
    parts.append("a" + "b" * k + "a")
    return "".join(parts)


def dollar_fibonacci(j: int) -> str:
    """j-fold image of a under $ -> $, a -> ab, b -> a (letters ordered $ < a < b)."""
    w = "a"
    for _ in range(j):
        w = apply({"$": "$", "a": "ab", "b": "a"}, w)
    return w


@cache
def _primitive_reps(max_len: int) -> tuple[str, ...]:
    return tuple(w for n in range(1, max_len + 1) for w in canonical_necklaces("ab", n) if is_primitive(w))


def preserves_primitivity(u: str, v: str) -> bool:
    """Brute force: no primitive binary word of length <= 12 has a power as its image."""
    images = {"a": u, "b": v}
    return all(is_primitive(apply(images, rep)) for rep in _primitive_reps(12))


# -------------------------------------------------------------------- checks


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _checked(body: Callable[[str], None]) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        try:
            body(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def _lines(out: str) -> list[str]:
    _expect(out.endswith("\n"), "stdout does not end with a newline")
    return out[:-1].split("\n")


def _fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _table_row(images: dict[str, str], w: str) -> str:
    image = apply(images, w)
    return " ".join((w, bwt(w)[0], str(run_count(w)), image, bwt(image)[0], str(run_count(image))))


def _maxima(images: dict[str, str], letters: str, n: int) -> tuple[int, Fraction, str, str]:
    """(AS, MS, AS witness, MS witness) over the non-constant necklaces of length n."""
    best_add = best_mul = None
    for w in canonical_necklaces(letters, n):
        if len(set(w)) == 1:
            continue
        before, after = run_count(w), run_count(apply(images, w))
        if best_add is None or after - before > best_add[0]:
            best_add = (after - before, w)
        if best_mul is None or Fraction(after, before) > best_mul[0]:
            best_mul = (Fraction(after, before), w)
    return best_add[0], best_mul[0], best_add[1], best_mul[1]


def _table_lines(images: dict[str, str], ns: range) -> list[str]:
    rows = [_table_row(images, w) for n in ns for w in canonical_necklaces("ab", n) if len(set(w)) > 1]
    for n in ns:
        add, mul, as_w, ms_w = _maxima(images, "ab", n)
        rows.append(f"n={n} AS={add} MS={_fraction(mul)} as_witness={as_w} ms_witness={ms_w}")
    return rows


# A sensitivity row over at most this many words of its length is checked
# against maxima recomputed over every necklace; longer rows check their
# witnesses and known constants only.
_EXHAUSTIVE_WORDS = 1 << 13


def _sensitivity_check(images: dict[str, str], letters: str, n: int, constants: tuple | None):
    def body(out: str) -> None:
        rows = list(csv.reader(_lines(out)))
        _expect(rows[0] == ["n", "as", "ms_num", "ms_den", "as_witness", "ms_witness"], "bad CSV header")
        _expect(len(rows) == 2, f"expected one row, got {len(rows) - 1}")
        got_n, add, num, den, as_w, ms_w = rows[1]
        add, mul = int(add), Fraction(int(num), int(den))
        _expect(int(got_n) == n and mul.denominator == int(den), f"bad row {rows[1]}")
        for w in (as_w, ms_w):
            _expect(len(w) == n and len(set(w)) > 1, f"witness {w!r} is not a non-constant word of length {n}")
        _expect(run_count(apply(images, as_w)) - run_count(as_w) == add, f"AS={add} not attained by {as_w}")
        _expect(Fraction(run_count(apply(images, ms_w)), run_count(ms_w)) == mul, f"MS={mul} not attained by {ms_w}")
        if constants is not None:
            want_add, want_mul = constants
            _expect(add == want_add and want_mul in (None, mul), f"(AS, MS) = ({add}, {mul}), expected {constants}")
        if len(letters) ** n <= _EXHAUSTIVE_WORDS:
            best = _maxima(images, letters, n)
            _expect(best == (add, mul, as_w, ms_w), f"row ({add}, {mul}, {as_w}, {ms_w}), exhaustive {best}")

    return _checked(body)


def _exact_check(expected: list[str]):
    def body(out: str) -> None:
        got = _lines(out)
        for i, (g, e) in enumerate(zip(got, expected)):
            _expect(g == e, f"line {i}: {g!r}, expected {e!r}")
        _expect(len(got) == len(expected), f"{len(got)} lines, expected {len(expected)}")

    return _checked(body)


# ------------------------------------------------------- sensitivity-sweep

_PERIOD_DOUBLING = {"a": "ab", "b": "aa"}
_CYCLIC = "a=ababbba,b=ababbbaababbba"

# (argv morphism, extra argv, images, letters, largest n, (AS, MS) known for every n)
_SWEEP = (
    ("thue-morse", (), {"a": "ab", "b": "ba"}, "ab", 16, (2, None)),
    ("period-doubling", (), _PERIOD_DOUBLING, "ab", 16, None),
    ("rho:2", (), {"a": "a", "b": "bb"}, "ab", 16, None),
    ("fibonacci", (), {"a": "ab", "b": "a"}, "ab", 16, (0, None)),
    (_CYCLIC, (), {"a": "ababbba", "b": "ababbbaababbba"}, "ab", 16, (4, Fraction(3))),
    ("a=b,b=a,c=c", ("--alphabet", "abc"), {"a": "b", "b": "a", "c": "c"}, "abc", 9, None),
)
_TABLE_NS = range(5, 9)


def _sensitivity_sweep(rng: random.Random) -> Workload:
    ops = []
    for morphism, extra, images, letters, top, constants in _SWEEP:
        for n in range(2, top + 1):
            argv = ("sensitivity", morphism, "--n-from", str(n), "--n-to", str(n)) + extra
            ops.append(Op(argv, _sensitivity_check(images, letters, n, constants), necklace_count(len(letters), n)))
    add, mul, _, _ = _maxima(_PERIOD_DOUBLING, "ab", 5)
    reproduce = _table_lines(_PERIOD_DOUBLING, range(5, 6))[:-1]
    reproduce += [f"AS_pi(5)={add} MS_pi(5)={_fraction(mul).removesuffix('/1')}", "fixture match: ok"]
    ops.append(Op(("reproduce", "table1"), _exact_check(reproduce), 2 * necklace_count(2, 5)))
    argv = ("sensitivity", "period-doubling", "--n-from", str(_TABLE_NS[0]), "--n-to", str(_TABLE_NS[-1]), "--table1")
    visited = 2 * sum(necklace_count(2, n) for n in _TABLE_NS)
    ops.append(Op(argv, _exact_check(_table_lines(_PERIOD_DOUBLING, _TABLE_NS)), visited))
    rng.shuffle(ops)
    sizes = {"n": "2..16 binary, 2..9 ternary", "table1_n": f"{_TABLE_NS[0]}..{_TABLE_NS[-1]}", "morphisms": len(_SWEEP)}
    return Workload("necklaces visited", tuple(ops), sizes)


# ---------------------------------------------------------------- long-words

_RANDOM_LENGTHS = (1025, 1500, 2000, 3000, 4000, 6000, 8000, 12000, 16000)
_RHO_KS = range(6, 31)
_RHO_SQRT_KS = range(6, 13)
_FIB_DOLLAR_KS = (4, 6, 8, 10)


def _experiment_rows(ks: range) -> tuple[list[str], int]:
    """Expected rho:2 CSV rows along the quadratic family, and symbols sorted."""
    rows = ["k,r_before,r_after,delta_plus,delta_times"]
    symbols = 0
    for k in ks:
        w = wk_word(k)
        image = apply({"a": "a", "b": "bb"}, w)
        before, after = run_count(w), run_count(image)
        rows.append(f"{k},{before},{after},{after - before},{_fraction(Fraction(after, before))}")
        symbols += len(w) + len(image)
    return rows, symbols


def _fib_dollar_check(out: str) -> None:
    lines = _lines(out)
    _expect(lines[0] == "k,r_even,r_odd,ratio" and lines[-1] == "ratio check: ok", "missing header or ok line")
    rows = [line.split(",") for line in lines[1:-1]]
    _expect([int(r[0]) for r in rows] == list(_FIB_DOLLAR_KS), "wrong k column")
    for k, r_even, r_odd, ratio in rows:
        even, odd = int(r_even), int(r_odd)
        _expect(ratio == _fraction(Fraction(odd, even)), f"ratio {ratio} is not {odd}/{even}")
        lower = dollar_fibonacci(2 * int(k)) + "$"
        if len(lower) <= _FULL_KEY_LIMIT:
            _expect(run_count(lower) == even, f"r_even at k={k}")
            _expect(run_count(dollar_fibonacci(2 * int(k) + 1) + "$") == odd, f"r_odd at k={k}")


def _long_words(rng: random.Random) -> Workload:
    ops = []
    for n in _RANDOM_LENGTHS:
        w = "".join(rng.choice("ab") for _ in range(n))
        t, index = bwt(w)
        ops.append(Op(("bwt", w, "--alphabet", "ab"), _exact_check([f"{t} (index={index}, r={runs(t)})"]), n))
        ops.append(Op(("inverse-bwt", t, str(index), "--alphabet", "ab"), _exact_check([w]), n))
    rows, symbols = _experiment_rows(_RHO_KS)
    ops.append(Op(("experiment", "rho", "--p", "2", "--k", f"{_RHO_KS[0]}..{_RHO_KS[-1]}"), _exact_check(rows), symbols))
    rows, symbols = _experiment_rows(_RHO_SQRT_KS)
    ops.append(Op(("reproduce", "rho-sqrt"), _exact_check(rows + ["bound check: ok"]), symbols))
    symbols = sum(len(dollar_fibonacci(2 * k)) + len(dollar_fibonacci(2 * k + 1)) + 2 for k in _FIB_DOLLAR_KS)
    ops.append(Op(("reproduce", "fib-dollar"), _checked(_fib_dollar_check), symbols))
    rng.shuffle(ops)
    sizes = {
        "random_word_lengths": list(_RANDOM_LENGTHS),
        "rho_k": f"{_RHO_KS[0]}..{_RHO_KS[-1]}",
        "wk_length_max": len(wk_word(_RHO_KS[-1])),
        "fib_dollar_k": list(_FIB_DOLLAR_KS),
        "fib_dollar_length_max": len(dollar_fibonacci(2 * _FIB_DOLLAR_KS[-1] + 1)) + 1,
    }
    return Workload("symbols transformed", tuple(ops), sizes)


# ------------------------------------------------------------ classify-sweep

_CLASSIFY_MAX_SIZE = 10
_CLASSIFY_POPULATION = 16218
_CLASSIFY_SAMPLE = 1000


def injective_binary_morphisms(max_size: int) -> list[tuple[str, str]]:
    """Every (u, v) over {a, b} with |u| + |v| <= max_size whose images do not commute."""
    out = []
    for total in range(2, max_size + 1):
        for la in range(1, total):
            for u in map("".join, product("ab", repeat=la)):
                for v in map("".join, product("ab", repeat=total - la)):
                    if u + v != v + u:
                        out.append((u, v))
    return out


def _classify_check(u: str, v: str):
    def body(out: str) -> None:
        data = json.loads(out)
        _expect(data["injective"] is True, "reported as not injective")
        want = preserves_primitivity(u, v)
        _expect(data["primitivity_preserving"] is want, f"primitivity_preserving is not {want}")

    return _checked(body)


def _classify_sweep(rng: random.Random) -> Workload:
    population = injective_binary_morphisms(_CLASSIFY_MAX_SIZE)
    if len(population) != _CLASSIFY_POPULATION:
        raise AssertionError(f"{len(population)} morphisms, expected {_CLASSIFY_POPULATION}")
    sample = rng.sample(population, _CLASSIFY_SAMPLE)
    ops = tuple(Op(("classify", f"a={u},b={v}", "--json"), _classify_check(u, v), 1) for u, v in sample)
    sizes = {"sample": _CLASSIFY_SAMPLE, "population": len(population), "max_size": _CLASSIFY_MAX_SIZE}
    return Workload("morphisms classified", ops, sizes)


# ---------------------------------------------------------------- sync-words

# Thue-Morse words, one per op. The cost of a word depends on more than its
# length and class: the delay search stops at the first bad factor in set
# order, and rotating or exchanging the letters changes that order and the
# cost by up to 1.6x. So the words are fixed and the seed orders the ops.
_SYNC_WORDS = ("aab", "aba", "abb", "bab", "aaab", "aabb", "aaaab", "aabab", "aaaaab")
_SYNC_FIXED = (("period-doubling", {"a": "ab", "b": "aa"}, "aabab"), ("a=baa,b=abb", {"a": "baa", "b": "abb"}, "aab"))


def _sync_check(images: dict[str, str], w: str):
    image = apply(images, w)

    def body(out: str) -> None:
        data = json.loads(out)
        _expect(data["image"] == image, f"image {data['image']!r}, expected {image!r}")
        trivial = {"offset": 0, "codewords": list(w)}
        _expect(trivial in data["factorizations"], "the factorization of the image at offset 0 is missing")
        got = [(row["length"], row["total"]) for row in data["factors_with_sync_pair"]]
        _expect(got == list(enumerate(factor_counts(image))), f"circular factor totals {got}")
        _expect(all(0 <= row["with_pair"] <= row["total"] for row in data["factors_with_sync_pair"]), "with_pair out of range")
        _expect(data["delay"] is None or 1 <= data["delay"] <= len(image) + 1, f"delay {data['delay']}")

    return _checked(body)


def _sync_words(rng: random.Random) -> Workload:
    words = [("thue-morse", {"a": "ab", "b": "ba"}, w) for w in _SYNC_WORDS] + list(_SYNC_FIXED)
    ops = [
        Op(("sync", morphism, "--word", w, "--json"), _sync_check(images, w), sum(factor_counts(apply(images, w))))
        for morphism, images, w in words
    ]
    rng.shuffle(ops)
    sizes = {"thue_morse_words": list(_SYNC_WORDS), "fixed": [f"{m} {w}" for m, _, w in _SYNC_FIXED]}
    return Workload("circular factors decided", tuple(ops), sizes)


# ------------------------------------------------------------------ registry

BUILDERS = {
    "sensitivity-sweep": _sensitivity_sweep,
    "long-words": _long_words,
    "classify-sweep": _classify_sweep,
    "sync-words": _sync_words,
}


def build(name: str, seed: int) -> Workload:
    """The op list of a workload; the same name and seed always give the same ops."""
    return BUILDERS[name](random.Random(f"{name}/{seed}"))
