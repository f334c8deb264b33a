"""Spans and work counts recorded around calls into pearsonlab, from outside.

`Tracer.install()` replaces public functions of the package's modules
with wrappers. Each wrapped call becomes a span (name, start, end,
parent) kept in memory and a count; some wrappers also read the call's
arguments or result to count work (bump traversals, kernel routes,
eigenvalue roots). A wrapper is installed under every name the package
binds to the original function, because callers look functions up in
their own module (`pearsonlab.kernel.neumann_solution` as well as
`pearsonlab.propagate.neumann_solution`). A target that no longer exists
is listed in `missing` instead of failing the run.

The wrappers see only the process they are installed in: spans inside
the CLI's pool workers are not recorded.
"""
from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import time
from bisect import bisect_left
from collections import Counter

_PACKAGE = "pearsonlab"


class CountingEvaluate:
    """Bump-profile evaluation that counts its calls.

    Equality and hashing follow the wrapped function, so profiles built
    from it hit the same caches as the original profile, also after
    pickling into a worker process.
    """

    def __init__(self, fn, counter):
        self.fn = fn
        self.counter = counter

    def __call__(self, x):
        self.counter[0] += 1
        return self.fn(x)

    def __eq__(self, other):
        return isinstance(other, CountingEvaluate) and other.fn == self.fn

    def __hash__(self):
        return hash(self.fn)

    def __reduce__(self):
        return CountingEvaluate, (self.fn, [0])


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self.maps: set = set()
        self.missing: list[str] = []
        self.profile_evals = [0]
        self.pool_wall = 0.0
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def reset(self) -> None:
        """Drop what was recorded so far; wrappers stay installed."""
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()
        self.maps.clear()
        self.profile_evals[0] = 0
        self.pool_wall = 0.0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """fn as a span; before() returns a token, after() sees the call."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before() if before else None
            idx = len(tracer.spans)
            tracer.spans.append([name, clock(), 0.0, tracer._stack[-1] if tracer._stack else -1])
            tracer._stack.append(idx)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans[idx][2] = clock()
            tracer.counts[name] += 1
            if after:
                after(args, kwargs, result, tracer.spans[idx], token)
            return result

        return wrapper

    def span(self, name, before=None, after=None):
        """A wrapper factory that records each call as a span named name."""
        return lambda fn: self.wrap(name, fn, before, after)

    def install(self, targets=None) -> None:
        """Replace each (module, attribute, wrapper factory) target in the package."""
        for module_name, attr, make in targets or self.targets():
            owner = sys.modules.get(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = make(original)
            if cls_name:
                setattr(owner, fn_name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != _PACKAGE and not mod_name.startswith(_PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def targets(self):
        """The wrapped public functions of each layer and what they count."""
        t = self
        P = _PACKAGE

        def counting_bump(original):
            # one counting profile, so caches keyed on the profile still hit
            profile = original()
            counting = type(profile)(
                name=profile.name,
                evaluate=CountingEvaluate(profile.evaluate, t.profile_evals),
                sup_norm=profile.sup_norm,
                support=profile.support,
            )
            return lambda: counting

        def bump_traversal(args, kwargs, result, span, token):
            profile, lam, xi = args[:3]
            steps = args[3] if len(args) > 3 else kwargs.get("steps")
            t.maps.add((float(lam), complex(xi), steps))

        def extended(args, kwargs, result, span, token):
            V, x = args[0], args[2]
            t.counts["extended_bumps"] += bisect_left(V.centers, x)
            if t._open["spectrum.eigenvalues_near"]:
                t.counts["polish"] += 1

        def route(args, kwargs, result, span, token):
            t.counts["route." + result.method] += 1

        def latency(args, kwargs, result, span, token):
            t.samples.setdefault(span[0], []).append(span[2] - span[1])

        def roots(args, kwargs, result, span, token):
            t.counts["roots"] += len(result.values)

        def csv_written(args, kwargs, result, span, token):
            path, rows = args[0], args[2]
            t.counts["csv_bytes"] += os.path.getsize(path)
            t.counts["csv_rows"] += len(rows)

        def pool(args, kwargs, result, span, token):
            tasks = args[0]
            workers = args[1] if len(args) > 1 else kwargs["workers"]
            if workers > 1 and len(tasks) > 1:
                t.counts["worker_cpu_us"] += round(1e6 * (_cpu_children() - token))
                t.pool_wall += workers * (span[2] - span[1])

        return [
            (f"{P}.potential", "canonical_bump", counting_bump),
            (f"{P}.potential", "PearsonPotential.truncate", t.span("potential.truncate")),
            (f"{P}.potential", "PotentialSpec.build", t.span("potential.build")),
            (f"{P}.potential", "empirical_hat_N", t.span("potential.empirical_hat_N")),
            (f"{P}.propagate", "neumann_solution", t.span("propagate.neumann_solution")),
            (f"{P}.propagate", "extended_neumann", t.span("propagate.extended_neumann", after=extended)),
            (f"{P}.propagate", "variation_coeffs", t.span("propagate.variation_coeffs")),
            (f"{P}.propagate", "transfer_to", t.span("propagate.transfer_to")),
            (f"{P}.propagate", "bump_transfer", t.span("propagate.bump_transfer", after=bump_traversal)),
            (f"{P}.kernel", "kernel_ratio", t.span("kernel.kernel_ratio", after=latency)),
            (f"{P}.kernel", "cd_formula", t.span("kernel.cd_formula", after=route)),
            (f"{P}.kernel", "cd_diagonal", t.span("kernel.cd_diagonal")),
            (f"{P}.kernel", "cd_quadrature", t.span("kernel.cd_quadrature")),
            (f"{P}.kernel", "kappa", t.span("kernel.kappa")),
            (f"{P}.kernel", "kappa_ratio", t.span("kernel.kappa_ratio")),
            (f"{P}.spectrum", "phase", t.span("spectrum.phase")),
            (f"{P}.spectrum", "eigenvalue_count", t.span("spectrum.eigenvalue_count")),
            (f"{P}.spectrum", "eigenvalues_near", t.span("spectrum.eigenvalues_near", after=roots)),
            (f"{P}.spectrum", "clock_statistics", t.span("spectrum.clock_statistics")),
            (f"{P}.spectrum", "density_of_states", t.span("spectrum.density_of_states")),
            (f"{P}.cli", "main", t.span("cli.main")),
            (f"{P}.cli", "run", t.span("cli.run")),
            (f"{P}.cli", "reproduce_headline", t.span("cli.reproduce_headline")),
            (f"{P}.cli", "_execute", t.span("cli._execute", _cpu_children, pool)),
            (f"{P}.cli", "write_csv", t.span("cli.write_csv", after=csv_written)),
        ]

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the time of child spans."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def metrics(self) -> dict:
        """The per-layer metrics; a value is None when its wrapper is missing."""
        c = self.counts
        self_s = self.self_times()

        def layer(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

        missing = {m.removeprefix(_PACKAGE + ".") for m in self.missing}
        need = {
            "potential.profile_evals": "potential.canonical_bump",
            "potential.truncate.calls": "potential.PearsonPotential.truncate",
            "potential.truncate.self_s": "potential.PearsonPotential.truncate",
            "propagate.neumann.calls": "propagate.neumann_solution",
            "propagate.bump_traversals": "propagate.bump_transfer",
            "propagate.bump_maps_distinct": "propagate.bump_transfer",
            "propagate.bump_reuse": "propagate.bump_transfer",
            "propagate.extended.calls": "propagate.extended_neumann",
            "propagate.extended_bump_traversals": "propagate.extended_neumann",
            "kernel.kernel_ratio.calls": "kernel.kernel_ratio",
            "kernel.kernel_ratio.p50_ms": "kernel.kernel_ratio",
            "kernel.kernel_ratio.tail_ms": "kernel.kernel_ratio",
            "kernel.cd_diagonal.calls": "kernel.cd_diagonal",
            "kernel.route.cd_formula": "kernel.cd_formula",
            "kernel.route.accumulated": "kernel.cd_formula",
            "kernel.route.quadrature": "kernel.cd_formula",
            "kernel.kappa_ratio.calls": "kernel.kappa_ratio",
            "spectrum.phase.calls": "spectrum.phase",
            "spectrum.phase.self_s": "spectrum.phase",
            "spectrum.roots": "spectrum.eigenvalues_near",
            "spectrum.phase_per_root": "spectrum.eigenvalues_near",
            "spectrum.polish_per_root": "spectrum.eigenvalues_near",
            "cli.rows": "cli.write_csv",
            "cli.write_csv.self_s": "cli.write_csv",
            "cli.write_csv.bytes": "cli.write_csv",
            "cli.worker_cpu_s": "cli._execute",
            "cli.worker_util": "cli._execute",
        }
        lat = sorted(self.samples.get("kernel.kernel_ratio", []))
        traversals = c["propagate.bump_transfer"]
        roots = c["roots"]
        values = {
            "potential.profile_evals": self.profile_evals[0],
            "potential.truncate.calls": c["potential.truncate"],
            "potential.truncate.self_s": self_s["potential.truncate"],
            "potential.self_s": layer("potential"),
            "propagate.neumann.calls": c["propagate.neumann_solution"],
            "propagate.bump_traversals": traversals,
            "propagate.bump_maps_distinct": len(self.maps),
            "propagate.bump_reuse": traversals / len(self.maps) if self.maps else 0.0,
            "propagate.extended.calls": c["propagate.extended_neumann"],
            "propagate.extended_bump_traversals": c["extended_bumps"],
            "propagate.self_s": layer("propagate"),
            "kernel.kernel_ratio.calls": c["kernel.kernel_ratio"],
            "kernel.kernel_ratio.p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
            "kernel.kernel_ratio.tail_ms": 1e3 * tail(lat),
            "kernel.cd_diagonal.calls": c["kernel.cd_diagonal"],
            "kernel.route.cd_formula": c["route.cd_formula"],
            "kernel.route.accumulated": c["route.accumulated"],
            "kernel.route.quadrature": c["route.quadrature"],
            "kernel.kappa_ratio.calls": c["kernel.kappa_ratio"],
            "kernel.self_s": layer("kernel"),
            "spectrum.phase.calls": c["spectrum.phase"],
            "spectrum.phase.self_s": self_s["spectrum.phase"],
            "spectrum.roots": roots,
            "spectrum.phase_per_root": c["spectrum.phase"] / roots if roots else 0.0,
            "spectrum.polish_per_root": c["polish"] / roots if roots else 0.0,
            "spectrum.self_s": layer("spectrum"),
            "cli.rows": c["csv_rows"],
            "cli.write_csv.self_s": self_s["cli.write_csv"],
            "cli.write_csv.bytes": c["csv_bytes"],
            "cli.self_s": layer("cli"),
            "cli.worker_cpu_s": c["worker_cpu_us"] / 1e6,
            "cli.worker_util": c["worker_cpu_us"] / 1e6 / self.pool_wall if self.pool_wall else 0.0,
        }
        return {k: (None if need.get(k) in missing else v) for k, v in values.items()}


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(("_reuse", "_per_root", "_util")):
        return "ratio"
    return "count"


def tail(sorted_samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    For n samples that is the value at rank n - 11 (0-based); with ten
    or fewer samples there is no such percentile and 0 is returned.
    """
    n = len(sorted_samples)
    return sorted_samples[n - 11] if n > 10 else 0.0


# work counts that must repeat exactly between two traced runs of one seed
COUNT_METRICS = (
    "potential.profile_evals",
    "potential.truncate.calls",
    "propagate.neumann.calls",
    "propagate.bump_traversals",
    "propagate.bump_maps_distinct",
    "propagate.extended.calls",
    "propagate.extended_bump_traversals",
    "kernel.kernel_ratio.calls",
    "kernel.cd_diagonal.calls",
    "kernel.route.cd_formula",
    "kernel.route.accumulated",
    "kernel.route.quadrature",
    "kernel.kappa_ratio.calls",
    "spectrum.phase.calls",
    "spectrum.roots",
    "cli.rows",
    "cli.write_csv.bytes",
)
