"""bwtmorph benchmark: one workload, every metric by name and unit.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sensitivity-sweep --seed 0 --seconds 30 --trace 0

The workload runs in a fresh interpreter (perfbench/worker.py) as one
closed-loop client making in-process ``bwtmorph.cli.main(argv)`` calls. With
``--trace 0`` the last line of stdout holds the end-to-end metrics, measured
untraced; with ``--trace 1`` it holds the per-layer metrics of BENCHMARK.json,
from passes with every layer function wrapped in a span. End-to-end timings
are scaled to a reference host speed, which the worker measures between ops
(calibration.py). The lines before the last print each metric with its unit,
the unscaled wall times, and a JSON record of the run: environment, seed, op
and item counts, input sizes and failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 7
SETUP_CODE = "import bwtmorph.cli as cli; cli.build_parser()"
WORKER_TIMEOUT_S = 150

def percentile(sorted_values: list[float], p: float) -> float:
    """The p-th percentile, p in [0, 100], by the Bernstein-polynomial estimator.

    It averages the order statistics weighted by the binomial(n - 1, p/100)
    probabilities of their ranks. An op list has a few distinct op sizes, so
    the samples form clusters; interpolating between the two nearest ranks
    jumps from one cluster to the next when a single op runs slow, while
    these weights spread over the several ranks around p.
    """
    n, q = len(sorted_values), p / 100
    if q <= 0 or q >= 1 or n == 1:
        return sorted_values[0] if q <= 0 else sorted_values[-1]
    log_weights = [
        math.lgamma(n) - math.lgamma(i + 1) - math.lgamma(n - i) + i * math.log(q) + (n - 1 - i) * math.log1p(-q)
        for i in range(n)
    ]
    top = max(log_weights)
    weights = [math.exp(w - top) for w in log_weights]
    return sum(v * w for v, w in zip(sorted_values, weights)) / sum(weights)


def tail_percentile(samples: int) -> float:
    """Highest percentile, to 0.1, with at least ten of `samples` beyond it."""
    return math.floor(1000 * (1 - 10 / samples)) / 10


def pass_seconds(op_seconds: list[float], ops_per_pass: int) -> float:
    """Time of one pass: the sum over ops of each op's median over passes.

    A slow stretch of the host that hits one op in one pass then moves only
    that op's median, not the whole pass.
    """
    return sum(statistics.median(op_seconds[op::ops_per_pass]) for op in range(ops_per_pass))


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str]) -> dict[str, list[float]]:
    """Wall and scaled seconds of fresh interpreters, with a reference slice before, between and after them."""
    # A wait with a timeout polls in steps of up to 50 ms, which would round
    # every sample up; a plain wait returns as soon as the interpreter exits.
    samples, slices = [], []
    for _ in range(SETUP_RUNS):
        slices.append(calibration.slice_seconds())
        start = time.perf_counter()
        code = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT).wait()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, SETUP_CODE)
    slices.append(calibration.slice_seconds())
    scaled = calibration.scale(samples, list(range(1, SETUP_RUNS + 1)), slices)
    return {"wall_s": samples, "scaled_s": scaled}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(result: dict, setup: dict) -> tuple[dict[str, float], dict]:
    """Metrics from the times scaled to the reference host, and the wall times beside them."""
    ops = sorted(result["scaled_op_seconds"])
    wall_ops = sorted(result["op_seconds"])
    tail_p = tail_percentile(result["ops_per_pass"] * result["min_passes"])
    run_s = pass_seconds(result["scaled_op_seconds"], result["ops_per_pass"])
    values = {
        "run_s": run_s,
        "items_per_s": result["items_per_pass"] / run_s,
        "op_p50_s": percentile(ops, 50),
        "op_tail_s": percentile(ops, tail_p),
        "setup_s": statistics.median(setup["scaled_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = {
        "run_s": pass_seconds(result["op_seconds"], result["ops_per_pass"]),
        "op_p50_s": percentile(wall_ops, 50),
        "op_tail_s": percentile(wall_ops, tail_p),
        "setup_s": statistics.median(setup["wall_s"]),
    }
    slices = result["reference_slices_s"]
    detail = {
        "wall_s": wall,
        "pass_wall_s": [p["wall_s"] for p in result["passes"]],
        "pass_scaled_s": result["scaled_pass_seconds"],
        "reference_slices": len(slices),
        "reference_slice_median_s": statistics.median(slices),
        "op_samples": len(ops),
        "op_tail_percentile": tail_p,
        "op_tail_samples_beyond": sum(1 for s in ops if s > values["op_tail_s"]),
        "setup_samples_s": setup["wall_s"],
    }
    return values, detail


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one bwtmorph benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="time budget of the run; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not (SRC / "bwtmorph" / "cli.py").is_file():
        print(f"error: no bwtmorph sources under {SRC}", file=sys.stderr)
        return 2

    env = worker_env()
    setup = {} if args.trace else measure_setup(env)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "item": result["item"],
        "ops_per_pass": result["ops_per_pass"],
        "items_per_pass": result["items_per_pass"],
        "input_sizes": result["sizes"],
        "passes": len(result["passes"]),
        "digests_checked": result["digests_checked"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "failures": result["failures"],
    }
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layers"]
        record["spans"] = result["spans"]
        record["self_sum_tolerance"] = result["self_sum_tolerance"]
        record["self_sum_worst_share_of_tolerance"] = result["self_sum_worst_share_of_tolerance"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, detail = end_to_end(result, setup)
        record.update(detail)
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 1

    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    if not args.trace:
        print(f"op_tail_s is p{record['op_tail_percentile']} of {record['op_samples']} op samples")
        print(
            f"timings are scaled to a host where a reference slice takes {calibration.REFERENCE_S} s; here the "
            f"median of {record['reference_slices']} slices took {record['reference_slice_median_s']:.6f} s"
        )
        print("wall: " + ", ".join(f"{name} = {seconds:.6g} s" for name, seconds in record["wall_s"].items()))
    print(f"fail_ratio = {record['fail_ratio']:.6g} ({record['failed']} of {record['attempted']} ops)")
    for failure in result["failures"]:
        print(f"failed: pass {failure['pass']}: {failure['argv']}: {failure['failure']}")
    print("record: " + json.dumps(record, sort_keys=True))
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
