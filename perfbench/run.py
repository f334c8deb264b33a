"""pearsonlab benchmark: time to solution in a fresh process, per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from `src/`.
Each repetition starts a fresh process (`child.py`), so it pays for the
cold caches a CLI user pays for. Repetitions follow one another until
`--seconds` is used up; every metric is the median over them.

With `--trace 0` the last line of standard output reports the end-to-end
metrics (`wall_s`, `cpu_s`, `setup_s`, `peak_rss_mb`). With `--trace 1`
traced and untraced repetitions alternate and it reports the per-layer
metrics of `tracer.py` plus `trace.overhead_s`, the traced minus the
untraced median `wall_s`. The line before it holds the details: drawn
inputs, quartiles and sample counts, the failure fraction, wrappers
reported missing.

An operation fails when its row is an error row, when its run crashes,
times out or exits non-zero, or when a value differs by more than 1e-6
relative from the stored reference for the seed (`reference/`) or, for
a seed without one, from the first repetition of the run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

HARD_LIMIT_S = 170.0  # the whole run, set-up probes included
SETUP_SAMPLES = 5  # set-up is sampled at least this often per run
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_reference(name: str, seed: int):
    path = HERE / "reference" / f"{name}.json"
    if not path.is_file():
        return None
    stored = json.loads(path.read_text())
    return stored.get(str(seed), stored.get("*"))


class Run:
    """The repetitions of one workload and seed, and their accounting."""

    def __init__(self, name: str, seed: int, limit: float):
        self.name = name
        self.seed = seed
        self.work = workloads.WORKLOADS[name]
        self.inputs = self.work.inputs(seed)
        self.expected = self.work.ops(self.inputs)
        self.reference = load_reference(name, seed)
        self.limit = limit  # monotonic time by which every process has ended
        self.dir = WORK / f"{name}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.spawned = 0

    def spawn(self, *flags: str) -> dict | None:
        """Start one fresh process and wait for it; None when it crashed."""
        n = self.spawned
        self.spawned += 1
        result_path = self.dir / f"result-{n}.json"
        log_path = self.dir / f"log-{n}.txt"
        env = dict(os.environ, TMPDIR=str(self.dir))
        cmd = [sys.executable, str(HERE / "child.py"), self.name, str(self.seed),
               str(self.dir), str(result_path), *flags]
        t_spawn = time.monotonic()
        with open(log_path, "w") as log:
            # own process group, so a timeout also stops the CLI's pool workers
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL, env=env, start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.limit - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        code = proc.returncode
        if code != 0 or not result_path.is_file():
            sys.stderr.write(f"{self.name} seed {self.seed}: run exited {code}\n")
            sys.stderr.write(log_path.read_text()[-2000:])
            return None
        result = json.loads(result_path.read_text())
        self.setups.append(result["t_ready"] - t_spawn)
        return result

    def rep(self, trace: bool) -> dict | None:
        """One repetition of the workload, with its operations accounted."""
        result = self.spawn(*(["--trace"] if trace else []))
        self.attempted += self.expected
        if result is None or result["exit_code"] != 0:
            self.failed += self.expected
            return None
        ops = result["ops"]
        reference = self.reference
        if reference is None and self.reps:
            reference = [values for _, values in self.reps[0]["ops"]]
        bad = workloads.failed_ops(ops, reference, self.expected)
        bad |= set(result.get("spot_failed", []))
        self.failed += len(bad)
        result["trace"] = trace
        self.reps.append(result)
        return result


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, their distance as a share of the median, and count."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Repeat the workload for `seconds`; return (result line, details line)."""
    start = time.monotonic()
    deadline = start + seconds
    run = Run(name, seed, start + HARD_LIMIT_S)
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        if trace:
            run.rep(trace=False)
        run.rep(trace=trace)
        durations.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(durations) > deadline:
            break
    if not trace:
        while len(run.setups) < SETUP_SAMPLES and time.monotonic() < run.limit - 10.0:
            run.spawn("--setup-only")

    plain = [r for r in run.reps if not r["trace"]]
    traced = [r for r in run.reps if r["trace"]]
    details = {
        "workload": name,
        "seed": seed,
        "inputs": run.inputs,
        "reference": "stored" if run.reference is not None else "in-run",
        "reps": len(run.reps),
        "ops": run.attempted,
        "ops_failed": run.failed,
        "ops_failed_frac": run.failed / run.attempted,
    }
    samples = {key: [r[key] for r in plain] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = run.setups
    details["samples"] = {key: quartiles(v) for key, v in samples.items() if v}
    metrics = {}
    if not trace:
        for key, unit in END_TO_END.items():
            if samples[key]:
                metrics[key] = {"value": statistics.median(samples[key]), "unit": unit}
    elif traced:
        layers = {}
        for key in traced[0]["layers"]:
            vals = [r["layers"][key] for r in traced]
            layers[key] = None if None in vals else statistics.median(vals)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = (
            traced_wall - statistics.median(samples["wall_s"]) if samples["wall_s"] else None
        )
        details["traced_wall_s"] = traced_wall
        details["missing"] = sorted(k for k, v in layers.items() if v is None)
        details["missing_wrappers"] = traced[0]["missing"]
        details["counts_repeat"] = all(
            r["layers"][k] == traced[0]["layers"][k] for r in traced[1:] for k in tracer.COUNT_METRICS
        )
        for key, value in layers.items():
            metrics[key] = {"value": 0 if value is None else value, "unit": tracer.unit(key)}
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pearsonlab" / "__init__.py").is_file():
        print(f"no pearsonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
