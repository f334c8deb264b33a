"""Benchmark workloads: inputs drawn from a seed, the timed work, and its checks.

Each workload drives pearsonlab from outside, through the CLI `main()` or
the public library functions, on `canonical_potential()` unchanged. The
default seed (0) reproduces the paper-scale grids; any other seed draws
perturbed inputs from `random.Random`, so the same seed always gives the
same inputs.

Only the standard library is imported here. Functions that need the
package receive its modules from the child process (`child.py`), which
is the only place the package is imported.
"""
from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

# route-agreement gate of the roadmap, also used against stored values
REL_TOL = 1e-6

AB_BASE = tuple(-2.0 + 0.5 * i for i in range(9))  # criterion-4 (a, b) grid
KERNEL_L_GRID = (100.0, 1000.0, 10000.0)
CLOCK_L_GRID = (100.0, 1000.0, 10000.0, 100000.0)
CLOCK_DEPTH = 6
SPOT_CHECKS = 4  # kernel rows re-derived by cd_quadrature per run

_CANONICAL_KEYS = (
    "amplitude_rule = power\n"
    "amplitude_c = 1.0\n"
    "amplitude_p = 0.25\n"
    "center_rule = geometric\n"
    "center_n1 = 10.0\n"
    "center_gamma = 10.0\n"
    "count = 12\n"
)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _grid_text(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _write_config(path: str, lines: dict) -> str:
    """Config file for the CLI: the canonical potential plus the workload keys."""
    with open(path, "w") as fh:
        fh.write(_CANONICAL_KEYS)
        for key, value in lines.items():
            fh.write(f"{key} = {value}\n")
    return path


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _op(row: dict, columns) -> tuple[bool, list[float]]:
    """One CSV row as (status ok, result values)."""
    if row["status"] != "ok":
        return False, []
    return True, [float(row[c]) for c in columns]


# -- kernel_sweep --------------------------------------------------------------


def kernel_inputs(seed: int) -> dict:
    xi = (0.5, 1.0, 2.0)
    shift = 0.0
    if seed != DEFAULT_SEED:
        rng = _rng("kernel_sweep", seed)
        xi = tuple(round(x * rng.uniform(0.9, 1.1), 6) for x in xi)
        shift = round(rng.uniform(-0.25, 0.25), 6)
    ab = [g + shift for g in AB_BASE]
    return {"l_grid": list(KERNEL_L_GRID), "xi_grid": list(xi), "a_grid": ab, "b_grid": ab}


def kernel_ops(inputs: dict) -> int:
    return (
        len(inputs["l_grid"]) * len(inputs["xi_grid"])
        * len(inputs["a_grid"]) * len(inputs["b_grid"])
    )


def kernel_prepare(inputs: dict, workdir: str) -> list[list[str]]:
    cfg = _write_config(os.path.join(workdir, "kernel.cfg"), {
        key: _grid_text(inputs[key]) for key in ("l_grid", "xi_grid", "a_grid", "b_grid")
    })
    out = os.path.join(workdir, "kernel.csv")
    return [["kernel", "--config", cfg, "--workers", "1", "--out", out]]


def kernel_collect(inputs: dict, workdir: str) -> list:
    return [_op(r, ["value_re"]) for r in _csv_rows(os.path.join(workdir, "kernel.csv"))]


def kernel_spot_check(pl, V, inputs: dict, ops: list, seed: int) -> list[int]:
    """Indices of rows whose value the quadrature route does not reproduce.

    kernel_ratio goes through cd_formula and cd_diagonal; cd_quadrature
    carries the running integral instead, so it is an independent route.
    """
    rows = [
        (L, xi, a, b)
        for L in inputs["l_grid"] for xi in inputs["xi_grid"]
        for a in inputs["a_grid"] for b in inputs["b_grid"]
    ]
    picks = _rng("kernel_spot", seed).sample(range(len(rows)), SPOT_CHECKS)
    bad = []
    for i in sorted(picks):
        ok, values = ops[i]
        if not ok:
            continue
        L, xi, a, b = rows[i]
        den = pl.cd_quadrature(V, xi, xi, L).value
        want = pl.cd_quadrature(V, xi + a / L, xi + b / L, L).value / den
        if not close(values[0], want):
            bad.append(i)
    return bad


# -- clock_deep ----------------------------------------------------------------


def clock_inputs(seed: int) -> dict:
    xi_star = 1.0
    if seed != DEFAULT_SEED:
        xi_star = round(_rng("clock_deep", seed).uniform(0.5, 2.0), 6)
    return {"l_grid": list(CLOCK_L_GRID), "xi_star": xi_star, "depth": CLOCK_DEPTH}


def clock_ops(inputs: dict) -> int:
    return len(inputs["l_grid"]) * 2 * inputs["depth"]


def clock_prepare(inputs: dict, workdir: str) -> list[list[str]]:
    cfg = _write_config(os.path.join(workdir, "clock.cfg"), {
        "l_grid": _grid_text(inputs["l_grid"]),
        "xi_star": repr(inputs["xi_star"]),
        "depth": inputs["depth"],
    })
    out = os.path.join(workdir, "clock.csv")
    return [["clock", "--config", cfg, "--workers", "1", "--out", out]]


def clock_collect(inputs: dict, workdir: str) -> list:
    return [_op(r, ["statistic"]) for r in _csv_rows(os.path.join(workdir, "clock.csv"))]


# -- hatn_search ---------------------------------------------------------------


def hatn_inputs(seed: int) -> dict:
    window = (0.5, 2.0)
    if seed != DEFAULT_SEED:
        rng = _rng("hatn_search", seed)
        lo = round(rng.uniform(0.4, 0.8), 6)
        window = (lo, round(lo + rng.uniform(0.8, 1.6), 6))
    return {"ell": 1, "tolerance": 0.5, "window": list(window), "ab_bound": 1.0, "xi_points": 5}


def hatn_run(pl, V, inputs: dict) -> list:
    value = pl.empirical_hat_N(
        V, inputs["ell"], inputs["tolerance"], tuple(inputs["window"]), inputs["ab_bound"],
        xi_points=inputs["xi_points"],
    )
    return [(True, [float(value)])]


# -- reproduce_parallel --------------------------------------------------------

# kernel_convergence: 3 L x 3 xi rows; clock_convergence: 3 L rows;
# dos_comparison: 3 L x 12 bins rows
REPRODUCE_FILES = (
    ("kernel_convergence.csv", ["sup_abs_error"], 9),
    ("clock_convergence.csv", ["max_deviation"], 3),
    ("dos_comparison.csv", ["count", "mass"], 36),
)


def reproduce_prepare(inputs: dict, workdir: str) -> list[list[str]]:
    return [["reproduce", "--outdir", workdir, "--workers", str(inputs["workers"])]]


def reproduce_collect(inputs: dict, workdir: str) -> list:
    ops = []
    for name, columns, _ in REPRODUCE_FILES:
        ops += [_op(r, columns) for r in _csv_rows(os.path.join(workdir, name))]
    return ops


# -- hatn_bump_free: a known CLI crash ------------------------------------------
#
# Not a benchmark workload (BENCHMARK.json does not list it). `hatn --ell 1`
# on the default bump-free potential records the error row
# "truncation level 1 outside [0, 0]", whose comma makes the CSV writer
# raise, so the CLI dies with a traceback. selftest.py runs it to check
# that a crashing run counts all its operations as failed.


def bump_free_prepare(inputs: dict, workdir: str) -> list[list[str]]:
    out = os.path.join(workdir, "hatn.csv")
    return [["hatn", "--ell", "1", "--tolerance", "0.5", "--window", "0.5,2",
             "--ab-bound", "1", "--workers", "1", "--out", out]]


def bump_free_collect(inputs: dict, workdir: str) -> list:
    return [_op(r, ["hat_n"]) for r in _csv_rows(os.path.join(workdir, "hatn.csv"))]


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """How one workload draws inputs, runs and is checked.

    A CLI workload has `prepare` (writes its configs, returns the argv of
    each `pearsonlab.cli.main` call) and `collect` (reads the CSVs back as
    operations). A library workload has `run` instead. Each operation is
    a pair (status ok, result values).
    """

    name: str
    inputs: Callable[[int], dict]
    ops: Callable[[dict], int]
    prepare: Callable | None = None
    collect: Callable | None = None
    run: Callable | None = None
    spot_check: Callable | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel_sweep", kernel_inputs, kernel_ops,
                 prepare=kernel_prepare, collect=kernel_collect,
                 spot_check=kernel_spot_check),
        Workload("clock_deep", clock_inputs, clock_ops,
                 prepare=clock_prepare, collect=clock_collect),
        Workload("hatn_search", hatn_inputs, lambda inputs: 1, run=hatn_run),
        Workload("reproduce_parallel",
                 lambda seed: {"workers": 2, "seed_used": False},
                 lambda inputs: sum(n for _, _, n in REPRODUCE_FILES),
                 prepare=reproduce_prepare, collect=reproduce_collect),
        Workload("hatn_bump_free", lambda seed: {"ell": 1, "potential": "bump-free"},
                 lambda inputs: 1, prepare=bump_free_prepare, collect=bump_free_collect),
    )
}


def close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def failed_ops(ops: list, reference: list | None, expected: int) -> set[int]:
    """Indices of failed operations, counting missing rows as failed.

    An operation fails when its row is an error row, or when a stored or
    in-run reference exists and a value differs by more than REL_TOL.
    """
    bad = {i for i, (ok, _) in enumerate(ops) if not ok}
    bad |= set(range(len(ops), expected))
    if reference is not None:
        for i, (ok, values) in enumerate(ops[:expected]):
            want = reference[i] if i < len(reference) else None
            if ok and (want is None or len(want) != len(values)
                       or not all(close(g, w) for g, w in zip(values, want))):
                bad.add(i)
    return {i for i in bad if i < expected}
