"""Tests of the benchmark itself: op lists, span arithmetic, wrapper install and removal."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bwtmorph  # noqa: E402
import bwtmorph.cli as cli  # noqa: E402
from bwtmorph.morphisms import Morphism  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _argvs(name: str, seed: int) -> list[tuple]:
    return [(op.argv, op.items) for op in workloads.build(name, seed).ops]


def test_same_seed_same_ops_and_seed_changes_argv_not_work():
    for name in workloads.BUILDERS:
        first, again, other = _argvs(name, 3), _argvs(name, 3), _argvs(name, 4)
        assert first == again, name
        assert [a for a, _ in first] != [a for a, _ in other], name
        if name != "sync-words":
            assert sorted(i for _, i in first) == sorted(i for _, i in other), name
        assert len(first) == len(other), name


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_arithmetic_on_a_synthetic_tree():
    # main [0, 10] holds parse [1, 3] and sort [4, 9]; sort holds rle [5, 6] and rle [7, 8.5].
    t = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 7, 8.5, 9, 10]))
    t.enter("cli.main")
    t.enter("parse")
    t.exit()
    t.enter("sort")
    t.enter("rle")
    t.exit()
    t.enter("rle")
    t.exit()
    t.exit()
    t.exit()
    spans = {(row["name"], row["parent"]): row for row in t.table()}
    assert spans[("cli.main", tracing.ROOT)]["self_s"] == 10 - 2 - 5
    assert spans[("parse", "cli.main")]["self_s"] == 2
    assert spans[("sort", "cli.main")]["self_s"] == 5 - 1 - 1.5
    assert spans[("rle", "sort")]["calls"] == 2
    assert spans[("rle", "sort")]["self_s"] == 2.5
    assert t.take_op_self_s() == 10
    assert t.take_op_self_s() == 0


def _bindings() -> dict:
    found = {}
    for key, module in sys.modules.items():
        if key == "bwtmorph" or key.startswith("bwtmorph."):
            for attr, obj in vars(module).items():
                if callable(obj):
                    found[(key, attr)] = obj
    found[("Morphism", "apply")] = vars(Morphism)["apply"]
    return found


def test_wrappers_trace_every_binding_and_restore_the_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert cli.run_count is not before[("bwtmorph.cli", "run_count")]
        assert bwtmorph.bwt is not before[("bwtmorph", "bwt")]
        code = cli.main(["sensitivity", "thue-morse", "--n-from", "4", "--n-to", "4"])
    assert code == 0
    assert _bindings() == before
    calls = layers.span_calls(tracer)
    assert calls["cli.main"] == 1 and calls["sensitivity.sensitivity"] == 1
    assert tracer.counts[("words.necklaces", "items")] == workloads.necklace_count(2, 4)
    assert calls["bwt.run_count"] == 2 * (workloads.necklace_count(2, 4) - 2)
    assert ("morphisms.apply", "sensitivity.sensitivity") in tracer.spans


def test_layer_values_on_a_traced_op():
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        cli.main(["classify", "a=ab,b=ba", "--json"])
    values = layers.values(tracer, ops=1)
    assert values["primitivity.is_primitivity_preserving.calls_per_op"] == 2
    assert values["cli.self_s"] > 0
    assert abs(sum(values[f"{m}.self_s"] for m in tracing.MODULES) - tracer.take_op_self_s()) < 1e-9


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    # Three passes of two ops: the pass time is the sum of the two ops' medians.
    fake = {"passes": [{"wall_s": 2.0}] * 3, "op_seconds": [0.5, 1.5, 0.5, 2.5, 0.5, 1.5], "ops_per_pass": 2,
            "min_passes": 3, "items_per_pass": 4, "peak_rss_mb": 30.0, "reference_slices_s": [0.01] * 4,
            "scaled_pass_seconds": [1.0, 1.5, 0.6], "scaled_op_seconds": [0.2, 0.8, 0.3, 0.7, 0.1, 0.9]}
    values, detail = run.end_to_end(fake, {"wall_s": [0.1, 0.2, 0.3], "scaled_s": [0.3, 0.2, 0.6]})
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    assert values["run_s"] == pytest.approx(1.0) and values["items_per_s"] == pytest.approx(4)
    assert values["op_p50_s"] == pytest.approx(0.5) and values["setup_s"] == 0.3 and values["peak_rss_mb"] == 30.0
    assert detail["wall_s"]["run_s"] == 2.0 and detail["wall_s"]["setup_s"] == 0.2
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in layers.METRICS]
    assert set(layers.EXPECTED_SPANS) == set(workloads.BUILDERS)
    traced = tracing.layer_functions()
    for spans in layers.EXPECTED_SPANS.values():
        assert set(spans) <= set(traced)


def test_checks_reject_wrong_outputs():
    ops = {op.argv: op for op in workloads.build("sensitivity-sweep", 0).ops}
    op = ops[("sensitivity", "thue-morse", "--n-from", "6", "--n-to", "6")]
    good = "n,as,ms_num,ms_den,as_witness,ms_witness\n6,2,2,1,aaaaab,aaaaab\n"
    seconds, stdout, failure = worker.run_op(cli, op.argv)
    assert failure is None and op.check(stdout) is None
    assert op.check(good.replace("6,2,2,1", "6,3,2,1")) is not None
    assert op.check(good.replace("aaaaab,aaaaab", "aaaaab,aaabab")) is not None
    u, v = "aba", "b"
    assert workloads.preserves_primitivity(u, v) is False  # ab -> abab
    classify = workloads._classify_check(u, v)
    assert classify(json.dumps({"injective": True, "primitivity_preserving": True})) is not None
    assert classify(json.dumps({"injective": True, "primitivity_preserving": False})) is None


def test_scaling_to_the_reference_host():
    ref = calibration.REFERENCE_S
    # Slices say the host ran at reference speed, then half speed from the third slice on.
    slices = [ref, ref, 2 * ref, 2 * ref]
    scaled = calibration.scale([1.0, 1.0, 1.0, 1.0], [1, 2, 3, 4], slices)
    # Each op sees the slice before it and the one after, the last op only the one before.
    assert scaled == pytest.approx([1.0, 2 / 3, 0.5, 0.5])
    assert calibration.slice_seconds() > 0


def test_reference_transform_and_percentiles():
    assert workloads.bwt("abaababa") == ("bbbaaaaa", 3)
    assert workloads.run_count("aabab" * 900) == 2  # the prefix-sort path, with tied prefixes
    assert workloads.necklace_count(2, 6) == len(workloads.canonical_necklaces("ab", 6)) == 14
    assert run.tail_percentile(273) == 96.3
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)  # weights 1, 3, 3, 1
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0 and run.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    clusters = sorted([1.0] * 90 + [2.0] * 10)
    assert 1.0 < run.percentile(clusters, 90) < 2.0
