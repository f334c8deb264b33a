"""Run the benchmark over several seeds and print every metric by name and unit.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--trace] [--out FILE]

Each (workload, seed) is one `run.py` invocation of `run_seconds` from
BENCHMARK.json. For each end-to-end metric the table gives the median
over seeds, the quartiles and their distance as a share of the median
(the spread that BENCHMARK.json's `bound` is compared with). `--trace`
adds one traced run per workload on the default seed and prints its
per-layer metrics. `--out` writes everything as JSON.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0", type=seed_range)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, spec["run_seconds"], False) for s in args.seeds]
        entry = {
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "inputs": {d["seed"]: d["inputs"] for d, _ in runs},
            "end_to_end": {},
        }
        print(f"{workload}: {len(runs)} runs, {entry['failed']} of {entry['attempted']} "
              "operations failed")
        for name in bounds:
            stats = quartiles([r["metrics"][name]["value"] for _, r in runs])
            stats["unit"] = runs[0][1]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print(f"  {name:<14} {stats['median']:>12.4f} {stats['unit']:<6} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} "
                  f"spread {100 * stats['iqr_frac']:5.1f}% (bound {100 * bounds[name]:.0f}%)")
        if args.trace:
            details, traced = run_once(workload, 0, spec["run_seconds"], True)
            entry["per_layer"] = traced["metrics"]
            entry["trace_details"] = {k: details[k] for k in ("missing", "counts_repeat")}
            for name, m in traced["metrics"].items():
                print(f"    {name:<36} {m['value']:>14.6g} {m['unit']}")
        report[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
