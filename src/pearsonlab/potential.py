"""Sparse bump potentials on the half-line.

A potential is a sum of widely spaced copies of a single smooth bump,
V(x) = sum_n lam_n * W(x - N_n), with the supports [N_n, N_n + 1]
pairwise disjoint so that point evaluation is a binary search.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain
from typing import Callable, Sequence

__all__ = [
    "BumpProfile",
    "PearsonPotential",
    "PotentialSpec",
    "HatNSearchError",
    "canonical_bump",
    "zero_potential",
    "geometric_schedule",
    "empirical_hat_N",
    "parse_potential_config",
    "format_potential_config",
]


class HatNSearchError(RuntimeError):
    """No trial length satisfied the closeness criterion below the cap."""


def _integer(name: str, value, least: float = 1) -> int:
    """value as an int; anything but a whole number of at least `least` raises
    ValueError naming the argument. The rule of every count and index."""
    if not (math.isfinite(value) and value >= least and value == int(value)):
        floor = f" of at least {least}" if least > -math.inf else ""
        raise ValueError(f"{name} must be an integer{floor} (got {value!r})")
    return int(value)


def _positive(name: str, value, zero: bool = False) -> float:
    """value as a float: the rule of every length (with zero, of a shift bound);
    ValueError unless positive (or zero) and finite."""
    value = float(value)
    if not (0.0 < value < math.inf or zero and value == 0.0):
        raise ValueError(f"{name} must be {'zero or ' * zero}positive and finite (got {value!r})")
    return value


def _interval(name: str, pair, point: bool = False) -> tuple[float, float]:
    """pair as floats (lo, hi) with 0 < lo < hi < inf, lo == hi allowed with
    point: the rule of every energy window; ValueError otherwise."""
    ends = tuple(map(float, pair))
    if not (len(ends) == 2 and 0.0 < ends[0] <= ends[1] < math.inf and (point or ends[0] < ends[1])):
        raise ValueError(f"{name} must be two endpoints 0 < lo {'<=' if point else '<'} hi < inf "
                         f"(got {' to '.join(map(repr, ends))})")
    return ends


def _canonical_profile_value(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return math.exp(4.0 - 1.0 / (x * (1.0 - x)))


@dataclass(frozen=True)
class BumpProfile:
    """A smooth, non-negative bump supported on [0, 1].

    evaluate must vanish outside (0, 1); sup_norm is its maximum value.
    """

    name: str
    evaluate: Callable[[float], float]
    sup_norm: float
    support: tuple[float, float] = (0.0, 1.0)


_CANONICAL = BumpProfile(name="canonical", evaluate=_canonical_profile_value, sup_norm=1.0)


def canonical_bump() -> BumpProfile:
    """The bump exp(4 - 1/(x(1-x))) on (0, 1), zero elsewhere.

    Normalized so the maximum value is exactly 1, attained at x = 1/2.
    """
    return _CANONICAL


@dataclass(frozen=True)
class PearsonPotential:
    """Sum of disjoint bumps lam_n * W(x - N_n) on the half-line.

    centers must be strictly increasing with gaps >= 1 (disjoint
    supports) and the amplitude moduli must be non-increasing from
    index monotone_from onward.
    """

    profile: BumpProfile
    amplitudes: tuple[float, ...]
    centers: tuple[float, ...]
    monotone_from: int = 0

    def __post_init__(self) -> None:
        amps = tuple(float(a) for a in self.amplitudes)
        cents = tuple(float(c) for c in self.centers)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "centers", cents)
        if len(amps) != len(cents):
            raise ValueError("amplitudes and centers must have equal length")
        for v in amps + cents:
            if not math.isfinite(v):
                raise ValueError(f"amplitudes and centers must be finite (got {v!r})")
        for c in cents:
            if c < 0.0:
                raise ValueError("bump centers must lie on the half-line")
        for a, b in zip(cents, cents[1:]):
            if b - a < 1.0:
                raise ValueError(f"bump supports overlap: centers {a} and {b} closer than 1")
        start = max(0, _integer("monotone_from", self.monotone_from, -math.inf))
        for n in range(start, len(amps) - 1):
            if abs(amps[n + 1]) > abs(amps[n]):
                raise ValueError(
                    f"|amplitude| must be non-increasing from index {start}: "
                    f"|{amps[n + 1]}| > |{amps[n]}| at index {n + 1}"
                )
        # cache keys hash V: once, from the numeric fields, whose hashes agree across processes
        object.__setattr__(self, "_hash", hash((amps, cents, self.monotone_from)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def bump_count(self) -> int:
        return len(self.centers)

    def evaluate(self, x: float) -> float:
        """Potential value at x >= 0; binary search over bump supports."""
        x = float(x)
        if not 0.0 <= x < math.inf:
            raise ValueError(
                f"the potential lives on the half-line: x must be finite and >= 0 (got {x!r})")
        k = bisect_right(self.centers, x) - 1
        if k >= 0 and x - self.centers[k] <= 1.0:
            return self.amplitudes[k] * self.profile.evaluate(x - self.centers[k])
        return 0.0

    def truncate(self, ell: int) -> "PearsonPotential":
        """Keep only the first ell bumps."""
        ell = _integer("the truncation level", ell, 0)
        if ell > self.bump_count:
            raise ValueError(f"truncation level {ell} outside [0, {self.bump_count}]")
        return PearsonPotential(
            profile=self.profile,
            amplitudes=self.amplitudes[:ell],
            centers=self.centers[:ell],
            monotone_from=self.monotone_from,
        )


def zero_potential() -> PearsonPotential:
    """The free potential (no bumps)."""
    return PearsonPotential(canonical_bump(), (), ())


def geometric_schedule(
    amplitudes: Sequence[float],
    n1: float,
    gamma: float,
    count: int,
) -> PearsonPotential:
    """Canonical bumps with centers N_1 = n1, N_{k+1} = ceil(gamma * N_k).

    The center ratio then satisfies N_k / N_{k+1} <= 1/gamma. A center
    past the largest double raises a ValueError.
    """
    if not 1.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and exceed 1 (got {gamma!r})")
    if not 1.0 <= n1 < math.inf:
        raise ValueError(f"the first center must be finite and at least 1 (got {n1!r})")
    count = _integer("count", count, 0)
    if len(amplitudes) < count:
        raise ValueError(f"need {count} amplitudes, got {len(amplitudes)}")
    centers = [float(n1)][:count]
    while len(centers) < count:
        c = gamma * centers[-1]
        if not math.isfinite(c):
            raise ValueError(f"center {len(centers) + 1} of the schedule is not finite")
        centers.append(float(math.ceil(c)))
    return PearsonPotential(
        canonical_bump(),
        tuple(float(a) for a in amplitudes[:count]),
        tuple(centers),
    )


# empirical_hat_N's trial lengths 8, 16, ..., 16384 (exact doubles), the
# factor past a trial up to which every trial must pass, and the samples of
# each of a and b
_TRIALS = tuple(8.0 * 2.0**k for k in range(12))
_HORIZON = 4.0
_AB_POINTS = 5


def empirical_hat_N(
    V: PearsonPotential,
    ell: int,
    tolerance: float,
    window: tuple[float, float],
    ab_bound: float,
    *,
    xi_points: int = 17,
    steps: int | None = None,
) -> float:
    """Smallest trial length past which the truncated kernel ratio is sinc-close.

    Scans the trial lengths 8, 16, ..., 16384 and returns the smallest
    one x such that, at every trial length in [x, 4x], the normalized
    kernel ratio of the ell-bump truncation (kappa_ratio) stays within
    `tolerance` of the sinc target for all xi in `window` (xi_points
    samples) and all real |a|, |b| <= ab_bound (5 samples each).
    The potential is truncated once. Trials are evaluated in increasing
    order and only as far as the answer needs: each is a pass/fail check
    that stops at the first ratio outside tolerance (a NaN ratio fails),
    going xi by xi over grid evaluations that walk each shifted argument
    once, and the scan stops once the answer is settled.
    """
    from .kernel import _ratio_grid, sine_kernel

    tolerance = _positive("tolerance", tolerance)
    lo, hi = _interval("window", window, point=True)
    ab_bound = _positive("ab_bound", ab_bound, zero=True)
    xi_points = _integer("xi_points", xi_points)

    xi_grid = [lo + (hi - lo) * i / max(xi_points - 1, 1) for i in range(xi_points if lo < hi else 1)]
    ab_grid = [-ab_bound + 2.0 * ab_bound * i / (_AB_POINTS - 1) for i in range(_AB_POINTS)]
    Vt = V.truncate(ell)
    targets = [[sine_kernel(xi, a, b) for a in ab_grid for b in ab_grid] for xi in xi_grid]

    def passes(length: float) -> bool:
        return all(
            abs(val - want) < tolerance
            for xi, target in zip(xi_grid, targets)
            for val, want in zip(chain.from_iterable(
                _ratio_grid(Vt, xi, ab_grid, ab_grid, length, steps, kappa=True)), target)
        )

    start = 0  # the first trial of the current run of passing trials
    for j, t in enumerate(_TRIALS):
        if t > _HORIZON * _TRIALS[start]:
            break
        if not passes(t):
            start = j + 1
    if start < len(_TRIALS):
        return _TRIALS[start]
    raise HatNSearchError(
        f"no trial length up to {_TRIALS[-1]} kept the kernel ratio within "
        f"{tolerance} of the sinc target on the requested grids"
    )


# ---------------------------------------------------------------------------
# plain-text potential specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a PearsonPotential, serializable as text.

    Each field is a key of the `key = value` text format.
    """

    profile: str = "canonical"
    amplitude_rule: str = "list"  # list | power (power: lam_n = c * n^(-p))
    amplitude_values: tuple[float, ...] = ()  # list rule
    amplitude_c: float = 1.0  # power rule
    amplitude_p: float = 0.25  # power rule
    center_rule: str = "list"  # list | geometric
    center_values: tuple[float, ...] = ()  # list rule
    center_n1: float = 10.0  # geometric rule
    center_gamma: float = 10.0  # geometric rule
    count: int = 0  # bump count; under the list rule, len(amplitude_values)

    def build(self) -> PearsonPotential:
        if self.profile != "canonical":
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.amplitude_rule == "list" and self.count != len(self.amplitude_values):
            raise ValueError(
                f"count {self.count} differs from the {len(self.amplitude_values)} amplitude_values")
        count = _integer("count", self.count, 0)
        if self.amplitude_rule == "list":
            amps = self.amplitude_values
        elif self.amplitude_rule == "power":
            amps = tuple(self.amplitude_c * (n + 1) ** (-self.amplitude_p) for n in range(count))
        else:
            raise ValueError(f"unknown amplitude_rule {self.amplitude_rule!r}")
        if self.center_rule == "list":
            if len(self.center_values) != len(amps):
                raise ValueError("amplitude and center lists must have equal length")
            return PearsonPotential(canonical_bump(), amps, self.center_values)
        if self.center_rule == "geometric":
            return geometric_schedule(amps, self.center_n1, self.center_gamma, len(amps))
        raise ValueError(f"unknown center_rule {self.center_rule!r}")


POTENTIAL_KEYS = frozenset(f.name for f in fields(PotentialSpec))


def float_list(text: str) -> tuple[float, ...]:
    """The floats of a comma-separated list; empty entries are skipped."""
    return tuple(float(p) for p in text.split(",") if p.strip())


def field_readers(schema) -> dict[str, Callable[[str], object]]:
    """How the text of each settable field of a dataclass is read.

    A field is settable when it has a plain default. Its text is read as
    the type of that default, a tuple by float_list and an unset (None)
    default as an int.
    """
    return {
        f.name: float_list if isinstance(f.default, tuple)
        else int if f.default is None else type(f.default)
        for f in fields(schema)
        if f.default is not MISSING
    }


def replace_fields(obj, mapping: dict[str, str]):
    """A copy of the dataclass obj with each key's text read into its field.

    A key that is not a settable field, or a value that does not convert,
    raises ValueError naming the key.
    """
    readers = field_readers(obj)
    changes = {}
    for key, text in mapping.items():
        if key not in readers:
            raise ValueError(f"unknown config key {key!r}")
        try:
            changes[key] = readers[key](text)
        except ValueError as exc:
            raise ValueError(f"key {key!r}: {exc}") from exc
    return replace(obj, **changes)


def potential_spec_from_mapping(mapping: dict[str, str]) -> PotentialSpec:
    """Build a PotentialSpec from already-parsed key/value pairs.

    Without a count key, count is the number of amplitude values.
    """
    spec = replace_fields(PotentialSpec(), mapping)
    if "count" not in mapping:
        spec = replace(spec, count=len(spec.amplitude_values))
    spec.build()  # validate eagerly
    return spec


def parse_key_values(text: str, origin: str = "line ") -> dict[str, str]:
    """Parse `key = value` lines into a mapping.

    '#' starts a comment and '-' in a key reads as '_'. A malformed line
    or a repeated key raises ValueError located as origin + line number.
    """
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{origin}{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in mapping:
            raise ValueError(f"{origin}{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def parse_potential_config(text: str) -> PotentialSpec:
    """Parse the documented key-value schema into a PotentialSpec."""
    return potential_spec_from_mapping(parse_key_values(text))


def format_potential_config(spec: PotentialSpec) -> str:
    """Serialize a PotentialSpec as one `key = value` line per field."""

    def text(value) -> str:
        if isinstance(value, tuple):
            return ", ".join(f"{v:.17g}" for v in value)
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    return "".join(f"{f.name} = {text(getattr(spec, f.name))}\n" for f in fields(spec))
