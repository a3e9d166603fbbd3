"""Span tracing of bwtmorph's layers, installed from outside the package.

Every public function of the traced modules, and the method
``Morphism.apply``, is replaced by a wrapper that records a span in a
:class:`Tracer`. The library itself carries no tracing code. Spans are kept
in memory, aggregated per (name, parent name): a sensitivity sweep records
about a million of them per pass. A span's self time is its duration minus the
duration of its child spans, so the self times of one op add up to the time
spent inside its outermost span.

Three traps decide how the wrappers are installed:

* ``bwtmorph/__init__.py`` re-exports the function ``bwt``, so the attribute
  ``bwtmorph.bwt`` is that function, not the module. Modules are therefore
  taken from ``sys.modules``.
* Consumers bind names with ``from .bwt import run_count``. Every module of the
  package that holds a traced function under any name gets the wrapper.
* ``Morphism.apply`` is a method, so it is patched on the class.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterator

PACKAGE = "bwtmorph"
MODULES = ("words", "bwt", "morphisms", "primitivity", "syncing", "sensitivity", "cli")

# The module function morphisms.apply only delegates to Morphism.apply; the
# method is traced under that name so every application counts once.
METHODS = {"morphisms.apply": ("morphisms", "Morphism", "apply")}
SKIPPED = frozenset(METHODS)

# Parent name of the outermost span of an op.
ROOT = "<op>"


def _len_first(args, result) -> int:
    return len(args[0])


def _len_result(args, result) -> int:
    return len(result)


def _nonempty(args, result) -> int:
    return 1 if result else 0


# Work counters recorded at a span boundary: span name -> (counter, measure).
COUNTERS: dict[str, tuple[str, Callable]] = {
    "bwt.rotation_order": ("symbols", _len_first),
    "bwt.inverse_bwt": ("symbols", _len_first),
    "morphisms.apply": ("symbols_out", _len_result),
    "syncing.find_sync_pairs": ("hits", _nonempty),
}


class Tracer:
    """Open spans on a stack; closed spans aggregated per (name, parent)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.op_self_s = 0.0

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            key = (name, parent[0])
        else:
            key = (name, ROOT)
        agg = self.spans[key]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        self.op_self_s += duration - child

    def take_op_self_s(self) -> float:
        """Self time recorded since the previous call: one op's, when called per op."""
        total, self.op_self_s = self.op_self_s, 0.0
        return total

    def table(self) -> list[dict]:
        """The aggregated spans, as written out with a traced run's result."""
        return [
            {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": self_s}
            for (name, parent), (calls, total, self_s) in sorted(self.spans.items())
        ]


def _traced_iterator(tracer: Tracer, name: str, it: Iterator) -> Iterator:
    # Time is spent inside next(), so each next() is a span of the producer.
    counts = tracer.counts
    while True:
        tracer.enter(name)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            tracer.exit()
        counts[(name, "items")] += 1
        yield item


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counter = COUNTERS.get(name)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            tracer.counts[(name, counter[0])] += counter[1](args, result)
        if type(result) is types.GeneratorType:
            return _traced_iterator(tracer, name, result)
        return result

    return wrapper


def layer_functions() -> dict[str, Callable]:
    """Span name -> original function, for every traced function and method."""
    found: dict[str, Callable] = {}
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(module).items():
            name = f"{short}.{attr}"
            if attr.startswith("_") or name in SKIPPED:
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[name] = obj
    for name, (short, cls, attr) in METHODS.items():
        found[name] = vars(getattr(sys.modules[f"{PACKAGE}.{short}"], cls))[attr]
    return found


Patch = tuple[object, str, object]


def install(tracer: Tracer) -> list[Patch]:
    """Replace every traced function wherever the package binds it; return the undo list."""
    originals = layer_functions()
    wrappers = {id(fn): (fn, _wrap(tracer, name, fn)) for name, fn in originals.items()}
    patches: list[Patch] = []
    modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                patches.append((module, attr, obj))
                setattr(module, attr, entry[1])
    for name, (short, cls, attr) in METHODS.items():
        owner = getattr(sys.modules[f"{PACKAGE}.{short}"], cls)
        original = vars(owner)[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, wrappers[id(original)][1])
    return patches


def uninstall(patches: list[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer):
    """Trace the package while the block runs; the originals are back afterwards."""
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)
