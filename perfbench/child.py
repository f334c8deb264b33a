"""One repetition of a workload in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR RESULT [--trace] [--setup-only]

Set-up is the interpreter start, `import pearsonlab` (which pulls in
scipy), building the canonical potential and writing the workload's
config. The timed work follows; outputs are checked after it, outside
the timed interval. The result is written to RESULT as JSON. A crash
leaves no RESULT, and `run.py` then counts every operation as failed.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _usage() -> tuple[float, float]:
    """CPU seconds and peak resident MB of this process and its reaped workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main(argv) -> int:
    name, seed, workdir, result_path = argv[:4]
    seed = int(seed)
    trace = "--trace" in argv
    sys.path.insert(0, str(ROOT / "src"))
    import pearsonlab as pl
    from pearsonlab import cli

    if not Path(pl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pearsonlab imported from {pl.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3

    import workloads
    from tracer import Tracer

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    work = workloads.WORKLOADS[name]
    V = cli.canonical_potential().build()
    inputs = work.inputs(seed)
    calls = work.prepare(inputs, workdir) if work.prepare else None
    if tracer:
        tracer.reset()
    t_ready = time.monotonic()
    if "--setup-only" in argv:
        _write(result_path, {"t_ready": t_ready})
        return 0

    cpu0, _ = _usage()
    if calls is not None:
        code = max(cli.main(argv) for argv in calls)
        ops = work.collect(inputs, workdir)
    else:
        code = 0
        ops = work.run(pl, V, inputs)
    t_done = time.monotonic()
    cpu1, rss = _usage()

    result = {
        "t_ready": t_ready,
        "wall_s": t_done - t_ready,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": rss,
        "exit_code": code,
        "inputs": inputs,
        "ops": ops,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        tracer.dump(os.path.join(workdir, "spans.json"))
    if work.spot_check:
        result["spot_failed"] = work.spot_check(pl, V, inputs, ops, seed)
    _write(result_path, result)
    return 0


def _write(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
