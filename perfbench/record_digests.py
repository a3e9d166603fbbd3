"""Record the stdout digests of every op of every workload for the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json. The benchmark compares each op's stdout with
its digest whenever it runs with the default seed. Outputs are checked
independently before they are recorded; the command refuses to record a
failing op. Rerun it only when an output change is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bwtmorph.cli as cli  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for name in workloads.BUILDERS:
        ops = workloads.build(name, workloads.DEFAULT_SEED).ops
        result = worker.run_pass(cli, ops, None)
        failures = [(op.argv, v) for op, v in zip(ops, worker.check_first_pass(ops, result, None)) if v]
        if failures:
            for argv, verdict in failures[:10]:
                print(f"{name}: {' '.join(argv)[:80]}: {verdict}", file=sys.stderr)
            return 1
        digests[name] = [worker.sha256(out) for out in result["outputs"]]
    worker.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests to {worker.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
