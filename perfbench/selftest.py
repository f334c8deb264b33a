"""Tests of the benchmark itself (not of pearsonlab).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

The file name keeps it out of the package's own test collection: the
count-repeatability test runs three workloads twice each (about a
minute on two cores).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=200)


class CrashAccounting(unittest.TestCase):
    def test_crashing_cli_run_counts_every_operation_failed(self):
        # `hatn --ell 1` on the bump-free potential dies in the CSV writer
        # (its error row holds a comma) and leaves no CSV
        out = bench("--workload", "hatn_bump_free", "--seconds", "1")
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("Traceback", out.stderr)
        self.assertIn("outside [0, 0]", out.stderr)
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertFalse(result["correct"])

    def test_failed_ops(self):
        ops = [(True, [1.0]), (False, []), (True, [2.0 * (1 + 2e-6)]), (True, [3.0 * (1 + 5e-7)])]
        reference = [[1.0], [1.5], [2.0], [3.0]]
        self.assertEqual(workloads.failed_ops(ops, reference, 5), {1, 2, 4})
        self.assertEqual(workloads.failed_ops(ops, None, 4), {1})


class Tracing(unittest.TestCase):
    def test_traced_work_counts_repeat(self):
        for name in ("kernel_sweep", "clock_deep", "hatn_search"):
            with self.subTest(workload=name):
                rec = run.Run(name, workloads.DEFAULT_SEED, time.monotonic() + run.HARD_LIMIT_S)
                first, second = rec.rep(trace=True), rec.rep(trace=True)
                self.assertEqual(rec.failed, 0)
                for key in tracer.COUNT_METRICS:
                    self.assertIsNotNone(first["layers"][key], key)
                    self.assertEqual(first["layers"][key], second["layers"][key], key)

    def test_removed_function_is_reported_missing(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        import pearsonlab.propagate  # noqa: F401

        t = tracer.Tracer()
        t.install([
            ("pearsonlab.propagate", "bump_transfer_removed", t.span("propagate.x")),
            ("pearsonlab.removed_module", "phase", t.span("spectrum.phase")),
        ])
        self.assertEqual(t.missing, [
            "pearsonlab.propagate.bump_transfer_removed", "pearsonlab.removed_module.phase",
        ])
        t.missing.append("pearsonlab.propagate.bump_transfer")
        layers = t.metrics()
        self.assertIsNone(layers["propagate.bump_traversals"])
        self.assertIsNone(layers["propagate.bump_maps_distinct"])
        self.assertEqual(layers["spectrum.phase.calls"], 0)


class Seeds(unittest.TestCase):
    def test_default_seed_is_the_paper_grid(self):
        k = workloads.kernel_inputs(workloads.DEFAULT_SEED)
        self.assertEqual(k["xi_grid"], [0.5, 1.0, 2.0])
        self.assertEqual(k["a_grid"], [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
        self.assertEqual(workloads.clock_inputs(workloads.DEFAULT_SEED)["xi_star"], 1.0)
        self.assertEqual(workloads.hatn_inputs(workloads.DEFAULT_SEED)["window"], [0.5, 2.0])

    def test_seed_draws_repeatable_inputs(self):
        for draw in (workloads.kernel_inputs, workloads.clock_inputs, workloads.hatn_inputs):
            self.assertEqual(draw(7), draw(7))
            self.assertNotEqual(draw(7), draw(workloads.DEFAULT_SEED))


class Checkout(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            out = bench("--workload", "kernel_sweep", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
