"""Command-line front end: experiment configs, sweeps, and CSV emission.

One binary with subcommands (kernel, clock, dos, verify, hatn,
reproduce). Settings come from an optional `key = value` config file plus
flag overrides, flags winning. Every run writes a single CSV atomically
(temp file then rename), with a `# schema=1` comment line, a fixed
header, and 17-significant-digit numeric formatting, so identical
configurations produce byte-identical files regardless of worker count.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .kernel import _ratio_grid, kernel_ratio, sine_kernel
from .potential import (
    POTENTIAL_KEYS,
    PearsonPotential,
    PotentialSpec,
    empirical_hat_N,
    field_readers,
    parse_key_values,
    potential_spec_from_mapping,
    replace_fields,
)
from .spectrum import clock_statistics, density_of_states
from .verify import (
    probe_kappa_schedule,
    probe_one_bump,
    probe_transfer_bound,
    probe_truncation_step,
    staircase_m,
)

__all__ = ["main", "run", "reproduce_headline", "ExperimentConfig", "ConfigError"]

SCHEMA_LINE = "# schema=1"
WORKERS_ENV = "PEARSONLAB_WORKERS"

HEADERS = {
    "kernel": ["method", "xi", "a", "b", "L", "value_re", "value_im", "target", "abs_error", "status"],
    "clock": ["L", "xi_star", "n", "spacing", "statistic", "deviation", "status"],
    "dos": ["L", "bin_lo", "bin_hi", "count", "mass", "free_mass", "rel_error", "status"],
    "verify": ["lemma_id", "parameters", "measured", "reference", "verdict", "status"],
    "hatn": ["ell", "tolerance", "window_lo", "window_hi", "ab_bound", "hat_n", "status"],
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one experiment.

    Every field but kind and potential is a config key of the same name
    and is read as the type of its default; the potential's keys are the
    fields of PotentialSpec.
    """

    kind: str
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    xi_grid: tuple[float, ...] = (1.0,)
    l_grid: tuple[float, ...] = (100.0,)
    a_grid: tuple[float, ...] = (0.0,)
    b_grid: tuple[float, ...] = (0.0,)
    xi_star: float = 1.0
    depth: int = 3
    interval: tuple[float, float] = (1.0, 4.0)
    bins: int = 12
    ell: int = 0
    tolerance: float = 0.05
    ab_bound: float = 2.0
    probe: str = "one_bump"
    probe_lambda: float = 1e-3
    probe_xi: float = 1.0
    probe_m: int = 2
    probe_ell: int = 0
    probe_count: int = 16
    out: str = "results.csv"
    workers: int = 1
    steps_per_bump: int | None = None

    def validate(self) -> None:
        if self.kind not in HEADERS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for name in ("xi_grid", "l_grid", "a_grid", "b_grid"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must not be empty")
        if any(x <= 0 for x in self.xi_grid):
            raise ConfigError("xi_grid values must be positive")
        if list(self.l_grid) != sorted(self.l_grid) or len(set(self.l_grid)) != len(self.l_grid):
            raise ConfigError("l_grid must be strictly increasing")
        if any(l <= 0 for l in self.l_grid):
            raise ConfigError("l_grid values must be positive")
        if len(self.interval) != 2:
            raise ConfigError("interval needs exactly two endpoints")
        if self.kind == "clock" and self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.kind in ("dos", "hatn"):
            lo, hi = self.interval
            if not 0 < lo < hi < np.inf:
                raise ConfigError("interval must be inside (0, inf)")
        if self.kind == "hatn" and not 0 <= self.ab_bound < np.inf:
            raise ConfigError("ab_bound must be non-negative and finite")
        if self.kind == "dos" and self.bins < 1:
            raise ConfigError("bins must be at least 1")
        if self.kind == "verify" and self.probe not in (*PROBES, "suite"):
            raise ConfigError(f"unknown probe {self.probe!r}")
        if self.kind == "verify" and self.probe_ell < 0:
            raise ConfigError("probe_ell must be non-negative")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        try:
            self.potential.build()
        except ValueError as exc:
            raise ConfigError(f"potential spec invalid: {exc}") from exc


# -- config file parsing -------------------------------------------------------


def _parse_kv_file(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_key_values(text, origin=f"{path}:")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_mapping(kind: str, mapping: dict[str, str]) -> ExperimentConfig:
    pot_keys = {k: v for k, v in mapping.items() if k in POTENTIAL_KEYS}
    keys = {k: v for k, v in mapping.items() if k not in POTENTIAL_KEYS and k != "kind"}
    try:
        cfg = replace_fields(ExperimentConfig(kind, potential_spec_from_mapping(pot_keys)), keys)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if mapping.get("kind", kind) != kind:
        raise ConfigError(
            f"config kind {mapping['kind']!r} does not match subcommand {kind!r}"
        )
    return cfg


# -- tasks ---------------------------------------------------------------------
#
# A task is (kind, key columns, function, args); function(*args) returns
# its CSV rows.


def _kernel_rows(V, L, xi, a_grid, b_grid, steps):
    try:  # one grid; if it raises, each pair is evaluated alone for its own error row
        grid = _ratio_grid(V, xi, a_grid, b_grid, L, steps)
    except Exception:  # noqa: BLE001 - the per-pair loop records the errors
        grid = [[None] * len(b_grid)] * len(a_grid)
    rows = []
    for a, grid_row in zip(a_grid, grid):
        for b, value in zip(b_grid, grid_row):
            try:
                value = kernel_ratio(V, xi, a, b, L, steps=steps) if value is None else value
                target = sine_kernel(xi, a, b)
                re = value.real if isinstance(value, complex) else value
                im = value.imag if isinstance(value, complex) else 0.0
                rows.append(
                    ["kernel_ratio", xi, a, b, L, re, im, target, abs(value - target), "ok"]
                )
            except Exception as exc:  # noqa: BLE001 - recorded per (a, b) pair
                rows.append(["kernel_ratio", xi, a, b, L, "", "", "", "", f"error: {exc}"])
    return rows


def _clock_rows(V, L, xi_star, depth, steps):
    report = clock_statistics(V, L, xi_star, depth, steps=steps)
    rows = []
    window = report.window
    for i, stat in enumerate(report.statistics):
        n = window.n_min + i
        spacing = window.value(n + 1) - window.value(n)
        rows.append([L, xi_star, n, spacing, stat, abs(stat - 1.0), "ok"])
    return rows


def _dos_rows(V, L, interval, bins, steps):
    est = density_of_states(V, L, interval, bins, steps=steps)
    rows = []
    for i in range(len(est.counts)):
        free = est.free_masses[i]
        rel = abs(est.masses[i] - free) / free if free > 0 else ""
        rows.append(
            [L, est.edges[i], est.edges[i + 1], est.counts[i], est.masses[i], free, rel, "ok"]
        )
    return rows


def _probe_params_text(parameters: dict) -> str:
    parts = []
    for key in sorted(parameters):
        val = parameters[key]
        if isinstance(val, float):
            parts.append(f"{key}={val:.17g}")
        elif isinstance(val, tuple):
            parts.append(f"{key}=" + "|".join(f"{v:.17g}" for v in val))
        else:
            parts.append(f"{key}={val}")
    return ";".join(parts)


def _probe_rows(call):
    probe = call()  # no probe has a closed-form reference: that column stays empty
    return [
        [probe.lemma_id, _probe_params_text(probe.parameters), probe.measured, "",
         probe.verdict, "ok"]
    ]


def _hatn_rows(V, ell, tolerance, window, ab_bound, steps):
    value = empirical_hat_N(V, ell, tolerance, window, ab_bound, steps=steps)
    return [[ell, tolerance, window[0], window[1], ab_bound, value, "ok"]]


def _kappa_probe(count: int, m_max: int):
    lams = [(n + 1) ** (-0.25) for n in range(count)]
    return probe_kappa_schedule(lams, staircase_m(lams, m_max=m_max))


# Each probe, in suite order: the fewest bumps a potential needs for the
# suite to run it, and its picklable call built from a config and potential.
PROBES = {
    "one_bump": (0, lambda cfg, V: partial(
        probe_one_bump, cfg.probe_lambda, cfg.probe_xi, steps=cfg.steps_per_bump)),
    "transfer_bound": (0, lambda cfg, V: partial(
        probe_transfer_bound, cfg.probe_m, tuple(np.geomspace(1.0, 100.0, 9)),
        (-1.0, -0.5, 0.0, 0.5, 1.0))),
    "kappa_schedule": (0, lambda cfg, V: partial(_kappa_probe, cfg.probe_count, cfg.probe_m)),
    "truncation_step": (2, lambda cfg, V: partial(
        probe_truncation_step, V, cfg.probe_ell, cfg.probe_xi,
        _truncation_grid(V, cfg.probe_ell), steps=cfg.steps_per_bump)),
}


def _truncation_grid(V: PearsonPotential, ell: int) -> tuple[float, ...]:
    if ell + 1 > V.bump_count:
        return (1.0,)
    lo = V.centers[ell]
    hi = V.centers[ell + 1] if ell + 1 < V.bump_count else lo + 10.0
    return tuple(np.linspace(lo, hi, 5))


def _tasks(cfg: ExperimentConfig, V: PearsonPotential) -> list:
    """The tasks of one experiment on V, in row order."""
    steps = cfg.steps_per_bump
    if cfg.kind == "kernel":
        return [
            ("kernel", ("kernel_ratio", xi), _kernel_rows,
             (V, L, xi, cfg.a_grid, cfg.b_grid, steps))
            for L in cfg.l_grid for xi in cfg.xi_grid
        ]
    if cfg.kind == "clock":
        return [
            ("clock", (L, cfg.xi_star), _clock_rows, (V, L, cfg.xi_star, cfg.depth, steps))
            for L in cfg.l_grid
        ]
    if cfg.kind == "dos":
        return [
            ("dos", (L,), _dos_rows, (V, L, cfg.interval, cfg.bins, steps)) for L in cfg.l_grid
        ]
    if cfg.kind == "verify":
        # a suite is the individual probes as independent parallel tasks
        names = (
            [name for name, (bumps, _) in PROBES.items() if V.bump_count >= bumps]
            if cfg.probe == "suite"
            else [cfg.probe]
        )
        return [("verify", (name,), _probe_rows, (PROBES[name][1](cfg, V),)) for name in names]
    keys = (cfg.ell, cfg.tolerance, *cfg.interval, cfg.ab_bound)
    args = (V, cfg.ell, cfg.tolerance, cfg.interval, cfg.ab_bound, steps)
    return [("hatn", keys, _hatn_rows, args)]


def _run_task(task):
    """A task's rows; an exception is recorded as one error row under its key columns."""
    kind, keys, fn, args = task
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - recorded as the task's row
        pad = [""] * (len(HEADERS[kind]) - len(keys) - 1)
        return [[*keys, *pad, f"error: {exc}"]]


def _execute(tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    # imported here: concurrent.futures.process pulls in multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks))


# -- CSV emission --------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    text = str(v)
    if "," in text or "\n" in text:
        raise ValueError(f"CSV fields must not contain commas or newlines: {text!r}")
    return text


@lru_cache(maxsize=64)
def _template(kinds: tuple) -> str:
    """The %-template that gives a row of fields of these types _fmt's text."""
    specs = ("%.17g" if issubclass(k, (float, np.floating))
             else "%d" if issubclass(k, (int, np.integer)) else "%s" for k in kinds)
    return ",".join(specs) + "\n"


def write_csv(path: str, header: list[str], rows) -> None:
    """Write rows atomically: temp file in the target directory, then rename.

    A sweep has many rows and few tuples of field types, so each row is one
    % with the template of its types, not one _fmt call per field. A line
    with a field's comma or newline is formatted again by _fmt, which raises.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(SCHEMA_LINE + "\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                line = _template(tuple(map(type, row))) % tuple(row)
                if line.count(",") != len(row) - 1 or line.count("\n") != 1:
                    line = ",".join(map(_fmt, row)) + "\n"
                fh.write(line)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(cfg: ExperimentConfig) -> int:
    """Dispatch one experiment; returns the process exit status."""
    cfg.validate()
    results = _execute(_tasks(cfg, cfg.potential.build()), cfg.workers)
    rows = [row for chunk in results for row in chunk]
    write_csv(cfg.out, HEADERS[cfg.kind], rows)
    failures = [row for row in rows if str(row[-1]).startswith("error")]
    for row in failures:
        print(f"row failed: {row[-1]}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {len(rows)} rows failed", file=sys.stderr)
        return 1
    return 0


# -- headline reproduction -----------------------------------------------------


def canonical_potential() -> PotentialSpec:
    """12 bumps: amplitudes n^(-1/4) (square sum divergent), centers 10, 100, 1000, ..."""
    return PotentialSpec(
        amplitude_rule="power",
        amplitude_c=1.0,
        amplitude_p=0.25,
        center_rule="geometric",
        center_n1=10.0,
        center_gamma=10.0,
        count=12,
    )


def reproduce_headline(
    outdir: str,
    *,
    workers: int = 1,
    l_grid: tuple[float, ...] = (100.0, 1000.0, 10000.0),
    steps: int | None = None,
) -> int:
    """Desk-scale pipeline on the canonical sparse potential.

    Emits three CSV files into outdir: kernel_convergence.csv (sup of
    |kernel_ratio - sinc| over real |a|, |b| <= 2 per xi and L),
    clock_convergence.csv (max spacing deviation at xi_star = 1, depth 3),
    and dos_comparison.csv (eigenvalue histogram against the free density
    over [1, 4]).
    """
    os.makedirs(outdir, exist_ok=True)
    V = canonical_potential().build()
    ab = tuple(np.linspace(-2.0, 2.0, 9))
    xi_list = (0.5, 1.0, 2.0)

    kernel = ExperimentConfig(
        "kernel", xi_grid=xi_list, l_grid=l_grid, a_grid=ab, b_grid=ab, steps_per_bump=steps
    )
    clock = ExperimentConfig("clock", l_grid=l_grid, xi_star=1.0, depth=3, steps_per_bump=steps)
    dos = ExperimentConfig("dos", l_grid=l_grid, interval=(1.0, 4.0), bins=12,
                           steps_per_bump=steps)
    # one sweep, so one process pool, over the tasks of all three experiments
    groups = [_tasks(cfg, V) for cfg in (kernel, clock, dos)]
    results = _execute([task for group in groups for task in group], workers)
    k, c = len(groups[0]), len(groups[0]) + len(groups[1])
    kernel_rows = []
    for (L, xi), chunk in zip([(L, xi) for L in l_grid for xi in xi_list], results[:k]):
        errs = [row[8] for row in chunk if row[9] == "ok"]
        status = "ok" if len(errs) == len(chunk) else "error: some pairs failed"
        kernel_rows.append([L, xi, max(errs) if errs else "", status])
    write_csv(
        os.path.join(outdir, "kernel_convergence.csv"),
        ["L", "xi", "sup_abs_error", "status"],
        kernel_rows,
    )

    clock_rows = []
    for L, chunk in zip(l_grid, results[k:c]):
        devs = [row[5] for row in chunk if row[6] == "ok"]
        status = "ok" if devs and len(devs) == len(chunk) else "error: window failed"
        clock_rows.append([L, clock.xi_star, clock.depth, max(devs) if devs else "", status])
    write_csv(
        os.path.join(outdir, "clock_convergence.csv"),
        ["L", "xi_star", "depth", "max_deviation", "status"],
        clock_rows,
    )

    dos_rows = [row for chunk in results[c:] for row in chunk]
    write_csv(os.path.join(outdir, "dos_comparison.csv"), HEADERS["dos"], dos_rows)

    bad = [r for r in kernel_rows + clock_rows + dos_rows if str(r[-1]).startswith("error")]
    return 1 if bad else 0


# -- argument parsing ----------------------------------------------------------

# Each experiment's help line and its own flags as config keys. The flag of
# a key is --key with '-' for '_'; a (flag, key) pair names another flag.
FLAGS = {
    "kernel": ("kernel ratio sweep against the sinc target",
               ("xi_grid", "l_grid", "a_grid", "b_grid")),
    "clock": ("eigenvalue spacing statistics around xi_star", ("l_grid", "xi_star", "depth")),
    "dos": ("density of states histogram against the free law", ("l_grid", "interval", "bins")),
    "verify": ("run quantitative bound probes",
               ("probe", "probe_lambda", "probe_xi", "probe_m", "probe_ell", "probe_count")),
    "hatn": ("search the sinc-closeness onset length",
             ("ell", "tolerance", ("window", "interval"), "ab_bound")),
}

_FLAG_HELP = {
    "out": "output CSV path",
    "workers": f"worker processes (default ${WORKERS_ENV} or 1)",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    # every subcommand is registered, so help and errors list them all; only
    # the named one gets its flags, whose build is a visible share of a short run
    parser = argparse.ArgumentParser(
        prog="pearsonlab",
        description="Sparse bump potentials on the half-line: kernel ratios, "
        "eigenvalue statistics, and bound probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    readers = field_readers(ExperimentConfig)

    def add_flags(p, keys):
        for entry in keys:
            name, key = entry if isinstance(entry, tuple) else (entry, entry)
            p.add_argument(
                "--" + name.replace("_", "-"), dest=key, type=readers[key],
                choices=(*PROBES, "suite") if key == "probe" else None,
                help=_FLAG_HELP.get(key),
            )

    for kind, (text, keys) in FLAGS.items():
        p = sub.add_parser(kind, help=text)
        if command not in (None, kind):
            continue
        p.add_argument("--config", help="key = value config file")
        add_flags(p, ("out", "workers", "steps_per_bump"))
        p.add_argument(
            "--seedless", action="store_true",
            help="reserved; every computation is already deterministic",
        )
        add_flags(p, keys)

    p = sub.add_parser("reproduce", help="run the built-in desk-scale pipeline")
    if command in (None, "reproduce"):
        p.add_argument("--outdir", default="reproduce_out")
        add_flags(p, ("workers", "l_grid", "steps_per_bump"))
        p.add_argument("--seedless", action="store_true", help="reserved; runs are deterministic")
    return parser


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        workers = int(raw) if raw else 1
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be an integer >= 1 (got {raw!r})")
    return workers


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in (*FLAGS, "reproduce") else None
    args = build_parser(command).parse_args(argv)
    try:
        if args.command == "reproduce":
            return reproduce_headline(
                args.outdir,
                workers=args.workers or _default_workers(),
                l_grid=args.l_grid or (100.0, 1000.0, 10000.0),
                steps=args.steps_per_bump,
            )
        mapping = _parse_kv_file(args.config) if args.config else {}
        cfg = config_from_mapping(args.command, mapping)
        overrides = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "config", "seedless") and value is not None
        }
        if args.workers is None and "workers" not in mapping:
            overrides["workers"] = _default_workers()
        return run(replace(cfg, **overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
