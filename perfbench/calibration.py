"""A fixed pure-Python reference kernel that measures how fast the host runs right now.

On a shared host the same op can take 1.5 to 1.8 times longer in one second
than in the next, for reasons outside the program. The worker runs this
kernel in short slices between ops, outside the timed ops, and scales each
op's time by ``REFERENCE_S`` over the mean of the slices just before and
after it. A timing then reads as the seconds it would take on a host where
one slice takes ``REFERENCE_S``; a slower stretch slows the kernel and the
program alike and cancels out.

The kernel imports only the standard library, never bwtmorph, so no change
to the program can move it. Its steps mirror what the workloads do: slice
sorts of rotations, letter loops, dictionary lookups with joins, building an
argparse parser, and scattered lookups in a list too large for the core's
own caches. The last step slows most on a busy host, as the long rotation
sorts of long-words do; without it the kernel under-corrected those ops.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from itertools import groupby

# Seconds one slice takes on the reference host; the scale of every timing.
REFERENCE_S = 0.012

_rng = random.Random(20250417)
_SHORT = "".join(_rng.choice("ab") for _ in range(600))
_LONG = "".join(_rng.choice("ab") for _ in range(6000))
_IMAGES = {"a": "ab", "b": "a"}


def _sort_rotations(w: str, key_len: int) -> int:
    doubled = w + w
    order = sorted(range(len(w)), key=lambda i: (doubled[i : i + key_len], i))
    last = "".join(w[i - 1] for i in order)
    return sum(1 for _ in groupby(last))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("one", "two", "three"):
        p = sub.add_parser(name)
        p.add_argument("word")
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--json", action="store_true")
    return parser


def _scattered_lookups(n: int) -> int:
    # 7919 is prime and does not divide n, so every entry is read once, in an
    # order that jumps through the whole list.
    ranks = list(range(n))
    picked = [ranks[(i * 7919) % n] for i in range(n)]
    return sum(picked)


def _work() -> int:
    total = _scattered_lookups(50000)
    total += _sort_rotations(_SHORT, len(_SHORT))
    total += _sort_rotations(_LONG, 48)
    word = "a"
    while len(word) < 4000:
        word = "".join(_IMAGES[c] for c in word)
    total += sum(1 for c in word if c == "a")
    total += len(_parser().parse_args(["two", "abba", "--n", "5"]).word)
    return total


CHECKSUM = _work()


def slice_seconds() -> float:
    """Wall seconds of one slice: one run of the reference work."""
    start = time.perf_counter()
    if _work() != CHECKSUM:
        raise AssertionError("reference kernel gave a different result")
    return time.perf_counter() - start


def scale(op_seconds: list[float], slice_index: list[int], slices: list[float]) -> list[float]:
    """Op times scaled to the reference host.

    ``slice_index[i]`` is the number of slices run before op i. The op is
    scaled by the mean of the slice just before it and the one just after;
    the last op of a run has only the one before. Slices further away would
    smooth the many short ops a little, but lag behind the host on long ops.
    """
    return [
        seconds * REFERENCE_S / statistics.fmean(slices[index - 1 : index + 1])
        for seconds, index in zip(op_seconds, slice_index)
    ]
