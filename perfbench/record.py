"""Record the stored reference values that run.py checks outputs against.

    python3 perfbench/record.py [--workloads a,b] [--seeds 0-10]

Runs each workload once per seed in a fresh process, untimed, and writes
`reference/<workload>.json`: for each seed, the result values of every
operation, rounded to 9 significant digits (far inside the 1e-6 relative
tolerance). A workload that ignores its seed is stored once, under "*".
Refuses to store a run in which any operation failed. Re-record only
when a change is meant to alter results, and say so in the change.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import run
import workloads
from report import seed_range


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="kernel_sweep,clock_deep,hatn_search,reproduce_parallel")
    parser.add_argument("--seeds", default="0-10", type=seed_range)
    args = parser.parse_args(argv)
    (run.HERE / "reference").mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        seeded = workloads.WORKLOADS[name].inputs(1) != workloads.WORKLOADS[name].inputs(2)
        stored = {}
        for seed in args.seeds if seeded else [workloads.DEFAULT_SEED]:
            rec = run.Run(name, seed, time.monotonic() + run.HARD_LIMIT_S)
            rec.reference = None
            result = rec.rep(trace=False)
            if result is None or rec.failed:
                print(f"{name} seed {seed}: {rec.failed} of {rec.attempted} operations failed",
                      file=sys.stderr)
                return 1
            values = [[float(f"{v:.9g}") for v in vals] for _, vals in result["ops"]]
            stored[str(seed) if seeded else "*"] = values
            print(f"{name} seed {seed}: {len(values)} operations", file=sys.stderr)
        path = run.HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(stored, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
