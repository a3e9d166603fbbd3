"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Layers are bwtmorph's modules. A metric is named ``<span>.<field>``, where the
span is ``<module>.<function>`` or a whole module. Counts and times are per
pass over the workload's op list, the median over the run's traced passes.
"""

from __future__ import annotations

from typing import NamedTuple

from tracer import MODULES, Tracer


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload this should move


_PARSER = "op_p50_s and items_per_s on classify-sweep, and setup_s; flat on sensitivity-sweep and long-words"
_SWEEP = "run_s on sensitivity-sweep"
_SORT = "run_s on sensitivity-sweep (short words) and long-words (long words)"
_CLASSIFY = "run_s and items_per_s on classify-sweep"
_SYNC = "run_s on sync-words"
_OWN = "run_s of its own workload: the layer's loop overhead"
_MODULE = "run_s on every workload that spends time in the module"
_TRACE = "nothing: the cost of tracing itself"

METRICS = (
    LayerMetric("cli.build_parser.calls", "count", "lower", _PARSER),
    LayerMetric("cli.build_parser.self_s", "s", "lower", _PARSER),
    LayerMetric("cli.main.self_s", "s", "lower", _PARSER),
    LayerMetric("words.necklaces.items", "count", "lower", _SWEEP),
    LayerMetric("words.necklaces.self_s", "s", "lower", _SWEEP),
    LayerMetric("words.rle.calls", "count", "lower", _SWEEP),
    LayerMetric("words.rle.self_s", "s", "lower", _SWEEP),
    LayerMetric("bwt.rotation_order.calls", "count", "lower", _SORT),
    LayerMetric("bwt.rotation_order.symbols", "count", "lower", _SORT),
    LayerMetric("bwt.rotation_order.self_s", "s", "lower", _SORT),
    LayerMetric("bwt.bwt.calls", "count", "lower", _SORT),
    LayerMetric("bwt.bwt.self_s", "s", "lower", _SORT),
    LayerMetric("bwt.run_count.calls", "count", "lower", _SORT),
    LayerMetric("bwt.run_count.self_s", "s", "lower", _SORT),
    LayerMetric("bwt.inverse_bwt.calls", "count", "lower", "run_s on long-words"),
    LayerMetric("bwt.inverse_bwt.symbols", "count", "lower", "run_s on long-words"),
    LayerMetric("bwt.inverse_bwt.self_s", "s", "lower", "run_s on long-words"),
    LayerMetric("morphisms.apply.calls", "count", "lower", "run_s on sensitivity-sweep (many short) and long-words (few long)"),
    LayerMetric("morphisms.apply.symbols_out", "count", "lower", "run_s on sensitivity-sweep and long-words"),
    LayerMetric("morphisms.apply.self_s", "s", "lower", "run_s on sensitivity-sweep and long-words"),
    LayerMetric("morphisms.is_sturmian.self_s", "s", "lower", _CLASSIFY),
    LayerMetric("morphisms.parse_morphism.self_s", "s", "lower", _CLASSIFY),
    LayerMetric("primitivity.is_primitivity_preserving.calls", "count", "lower", _CLASSIFY),
    LayerMetric("primitivity.is_primitivity_preserving.self_s", "s", "lower", _CLASSIFY),
    LayerMetric("primitivity.is_primitivity_preserving.calls_per_op", "count/op", "lower", _CLASSIFY + " (2 today: one call is redundant)"),
    LayerMetric("primitivity.power_words.self_s", "s", "lower", _CLASSIFY),
    LayerMetric("primitivity.classify_holub_form.self_s", "s", "lower", _CLASSIFY),
    LayerMetric("primitivity.is_recognizable.self_s", "s", "lower", _CLASSIFY),
    LayerMetric("syncing.sync_delay_for_word.calls", "count", "lower", _SYNC),
    LayerMetric("syncing.sync_delay_for_word.self_s", "s", "lower", _SYNC),
    LayerMetric("syncing.find_sync_pairs.calls", "count", "lower", _SYNC),
    LayerMetric("syncing.find_sync_pairs.self_s", "s", "lower", _SYNC),
    LayerMetric("syncing.find_sync_pairs.hit_ratio", "ratio", "higher", _SYNC),
    LayerMetric("syncing.contexts", "count", "lower", _SYNC + " (exponential context enumeration)"),
    LayerMetric("words.all_circular_factors.calls", "count", "lower", _SYNC),
    LayerMetric("words.all_circular_factors.self_s", "s", "lower", _SYNC),
    LayerMetric("words.all_circular_factors.calls_per_op", "count/op", "lower", _SYNC + " (one per op would do)"),
    LayerMetric("syncing.circular_factorizations.calls", "count", "lower", _SYNC),
    LayerMetric("syncing.circular_factorizations.self_s", "s", "lower", _OWN),
    LayerMetric("sensitivity.sensitivity.self_s", "s", "lower", _OWN),
    LayerMetric("sensitivity.rho_experiment.self_s", "s", "lower", _OWN),
    LayerMetric("sensitivity.fibonacci_dollar_experiment.self_s", "s", "lower", _OWN),
) + tuple(LayerMetric(f"{module}.self_s", "s", "lower", _MODULE) for module in MODULES) + (
    LayerMetric("trace.run_s_untraced", "s", "lower", _TRACE),
    LayerMetric("trace.run_s_traced", "s", "lower", _TRACE),
    LayerMetric("trace.overhead", "ratio", "lower", _TRACE),
)

# Span names that must record at least one call on each workload. A renamed
# function or a shadowed module would otherwise zero its layer silently.
EXPECTED_SPANS = {
    "sensitivity-sweep": (
        "cli.main", "cli.build_parser", "morphisms.parse_morphism", "words.necklaces", "words.rle",
        "bwt.rotation_order", "bwt.bwt", "bwt.run_count", "morphisms.apply", "sensitivity.sensitivity",
    ),
    "long-words": (
        "cli.main", "bwt.rotation_order", "bwt.bwt", "bwt.run_count", "bwt.inverse_bwt", "words.rle",
        "morphisms.apply", "sensitivity.rho_experiment", "sensitivity.fibonacci_dollar_experiment",
    ),
    "classify-sweep": (
        "cli.main", "cli.build_parser", "morphisms.parse_morphism", "morphisms.is_sturmian",
        "primitivity.is_primitivity_preserving", "primitivity.power_words",
        "primitivity.classify_holub_form", "primitivity.is_recognizable",
    ),
    "sync-words": (
        "cli.main", "morphisms.apply", "syncing.sync_delay_for_word", "syncing.find_sync_pairs",
        "syncing.circular_factorizations", "words.all_circular_factors",
    ),
}


def span_calls(tracer: Tracer) -> dict[str, int]:
    calls: dict[str, int] = {}
    for (name, _), (count, _, _) in tracer.spans.items():
        calls[name] = calls.get(name, 0) + count
    return calls


def values(tracer: Tracer, ops: int) -> dict[str, float]:
    """Every span-derived metric of METRICS for one traced pass of `ops` ops."""
    calls = span_calls(tracer)
    self_s: dict[str, float] = {}
    for (name, _), (_, _, seconds) in tracer.spans.items():
        self_s[name] = self_s.get(name, 0.0) + seconds
    out: dict[str, float] = {}
    for metric in METRICS:
        span, field = metric.name.rsplit(".", 1)
        if span == "trace":
            continue
        if metric.name == "syncing.contexts":
            out[metric.name] = sum(
                count for (name, parent), (count, _, _) in tracer.spans.items()
                if name == "morphisms.apply" and parent.startswith("syncing.")
            )
        elif span in MODULES:
            out[metric.name] = sum(s for name, s in self_s.items() if name.startswith(span + "."))
        elif field == "calls":
            out[metric.name] = calls.get(span, 0)
        elif field == "self_s":
            out[metric.name] = self_s.get(span, 0.0)
        elif field == "calls_per_op":
            out[metric.name] = calls.get(span, 0) / ops
        elif field == "hit_ratio":
            out[metric.name] = tracer.counts[(span, "hits")] / calls[span] if calls.get(span) else 0.0
        else:
            out[metric.name] = tracer.counts[(span, field)]
    return out
