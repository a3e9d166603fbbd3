"""Run one workload in this interpreter and print its measurements as one JSON line.

run.py starts this script in a fresh interpreter with the package's ``src``
directory on ``PYTHONPATH``. The worker is a single closed-loop client: it
calls ``bwtmorph.cli.main(argv)`` for each op of the list, one after the
other, with stdout captured, and repeats the whole list (a pass) until the
time budget is spent. Outputs are checked between passes, outside the timed
region. Untraced passes also run slices of a reference kernel between ops,
by which each op's time is scaled to a reference host (calibration.py). With
tracing on, untraced and traced passes alternate, so both run times come from
the same stretch of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration
import layers
import tracer as tracing
import workloads

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
DIGESTS = Path(__file__).with_name("digests.json")

# An op's span self times must add up to its traced wall time within this
# share of the wall time plus this allowance; the gap is the stdout capture
# around the call, which no span covers.
SELF_SUM_SHARE = 0.01
SELF_SUM_ALLOWANCE_S = 0.001

# Failures listed in the result; all of them are counted.
LISTED_FAILURES = 20

# An untraced pass runs a slice of the reference kernel before its first op
# and again each time its ops have taken this many seconds since the last one.
CALIBRATE_EVERY_S = 0.1


def run_op(cli, argv: tuple[str, ...]) -> tuple[float, str, str | None]:
    """(seconds, stdout, failure or None) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception:  # an op that raises is a failed op, and the run goes on
        code = None
        failure = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return seconds, out.getvalue(), failure


def run_pass(cli, ops, tracer: tracing.Tracer | None, slices: list[float] | None) -> dict:
    """Run every op once. Given a list, also append reference slices to it
    between ops, and give each op the number of slices run before it."""
    gc.collect()
    op_seconds, outputs, failures, self_sums, slice_index = [], [], [], [], []
    since_slice = CALIBRATE_EVERY_S
    for op in ops:
        if slices is not None and since_slice >= CALIBRATE_EVERY_S:
            slices.append(calibration.slice_seconds())
            since_slice = 0.0
        seconds, stdout, failure = run_op(cli, op.argv)
        since_slice += seconds
        op_seconds.append(seconds)
        outputs.append(stdout)
        failures.append(failure)
        if slices is not None:
            slice_index.append(len(slices))
        if tracer is not None:
            self_sums.append(tracer.take_op_self_s())
    return {
        "wall_s": sum(op_seconds),
        "op_seconds": op_seconds,
        "outputs": outputs,
        "failures": failures,
        "self_sums": self_sums,
        "slice_index": slice_index,
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digests(name: str, seed: int) -> list[str] | None:
    if seed != workloads.DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(name)


def check_first_pass(ops, result: dict, digests: list[str] | None) -> list[str | None]:
    """Independent checks of every op, plus the recorded digests when given."""
    if digests is not None and len(digests) != len(ops):
        raise SystemExit(f"digests.json lists {len(digests)} ops, the workload has {len(ops)}")
    verdicts = []
    for i, (op, stdout, failure) in enumerate(zip(ops, result["outputs"], result["failures"])):
        if failure is None:
            failure = op.check(stdout)
        if failure is None and digests is not None and sha256(stdout) != digests[i]:
            failure = "stdout digest differs from the one recorded for the default seed"
        verdicts.append(failure)
    return verdicts


def self_sum_gaps(ops, result: dict) -> list[tuple[float, str]]:
    """Per op, wall time minus span self time, as a share of the tolerance."""
    gaps = []
    for op, wall, self_sum in zip(ops, result["op_seconds"], result["self_sums"]):
        share = abs(wall - self_sum) / (SELF_SUM_SHARE * wall + SELF_SUM_ALLOWANCE_S)
        gaps.append((share, f"{' '.join(op.argv)[:80]}: span self times {self_sum:.6f} s, wall {wall:.6f} s"))
    return gaps


def check_later_pass(result: dict, reference: list[str | None]) -> list[str | None]:
    """A later pass must print what the first pass printed and passed its checks with."""
    return [
        failure or ("differs from the first pass" if ref is None or out != ref else None)
        for failure, out, ref in zip(result["failures"], result["outputs"], reference)
    ]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.build(name, seed)
    ops = workload.ops
    digests = recorded_digests(name, seed)
    import bwtmorph.cli as cli

    # The op list with its check data and the imported modules stay alive for
    # the whole run. Freezing them keeps the collector from rescanning them, so
    # a collection that lands in an op costs what the program's own objects cost.
    gc.collect()
    gc.freeze()

    if trace:
        unknown = sorted(set(layers.EXPECTED_SPANS[name]) - set(tracing.layer_functions()))
        if unknown:
            raise SystemExit(f"tracer completeness: no function to trace for {unknown}")
    # A traced run repeats an untraced and a traced pass as one unit.
    unit, needed = (2, 2 * MIN_TRACED_PAIRS) if trace else (1, MIN_PASSES)
    passes, untraced, slices, failures, reference = [], [], [], [], []
    traced_values, gaps, tracer = [], [], None
    failed = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                result = run_pass(cli, ops, tracer, None)
            traced_values.append(layers.values(tracer, len(ops)))
            gaps += self_sum_gaps(ops, result)
        else:
            result = run_pass(cli, ops, None, slices)
            untraced.append((result["op_seconds"], result["slice_index"]))
        if passes:
            verdicts = check_later_pass(result, reference)
        else:
            verdicts = check_first_pass(ops, result, digests)
            reference = [out if v is None else None for out, v in zip(result["outputs"], verdicts)]
        for i, verdict in enumerate(verdicts):
            if verdict is not None:
                failed += 1
                if len(failures) < LISTED_FAILURES:
                    failures.append({"pass": len(passes), "argv": " ".join(ops[i].argv)[:120], "failure": verdict})
        passes.append({"traced": traced, "wall_s": result["wall_s"]})
        elapsed = time.perf_counter() - start
        if len(passes) >= needed and len(passes) % unit == 0 and elapsed * (1 + unit / len(passes)) > seconds:
            break

    # Each untraced op and pass, also scaled to the reference host.
    scaled = [calibration.scale(seconds, index, slices) for seconds, index in untraced]
    out = {
        "workload": name,
        "seed": seed,
        "item": workload.item,
        "ops_per_pass": len(ops),
        "items_per_pass": sum(op.items for op in ops),
        "sizes": workload.sizes,
        "digests_checked": digests is not None,
        "passes": passes,
        "min_passes": MIN_PASSES,
        "op_seconds": [s for seconds, _ in untraced for s in seconds],
        "scaled_op_seconds": [s for seconds in scaled for s in seconds],
        "scaled_pass_seconds": [sum(seconds) for seconds in scaled],
        "reference_slices_s": slices,
        "attempted": len(passes) * len(ops),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out.update(trace_summary(name, passes, traced_values, tracer, gaps))
    return out


def trace_summary(name: str, passes: list[dict], traced_values: list[dict], last: tracing.Tracer, gaps: list) -> dict:
    """Layer metrics of a traced run, after the completeness and self-time checks."""
    calls = layers.span_calls(last)
    missing = [span for span in layers.EXPECTED_SPANS[name] if not calls.get(span)]
    if missing:
        raise SystemExit(f"tracer completeness: no call recorded on {name} for {missing}")
    bad = [text for share, text in gaps if share > 1]
    if bad:
        raise SystemExit("span self times do not add up to op wall times:\n" + "\n".join(bad[:10]))
    values = {key: statistics.median(v[key] for v in traced_values) for key in traced_values[0]}
    values["trace.run_s_untraced"] = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    values["trace.run_s_traced"] = statistics.median(p["wall_s"] for p in passes if p["traced"])
    values["trace.overhead"] = values["trace.run_s_traced"] / values["trace.run_s_untraced"]
    return {
        "layers": values,
        "spans": last.table(),
        "self_sum_tolerance": {"share": SELF_SUM_SHARE, "allowance_s": SELF_SUM_ALLOWANCE_S},
        "self_sum_worst_share_of_tolerance": max(share for share, _ in gaps),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
