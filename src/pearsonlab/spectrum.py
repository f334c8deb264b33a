"""Neumann eigenvalues of the restricted operators and their statistics.

Eigenvalues of the operator on [0, L] with Neumann conditions at both
ends are the zeros of u'(., L) for the Neumann solution u. They are
located through a sqrt(xi)-scaled phase angle that rotates at exactly
sqrt(xi) on potential-free stretches and crosses pi/2 (mod pi) at each
eigenvalue. One walk returns the angle together with its exact xi-slope
(from the norm integral int_0^L u^2), and each crossing is found by
safeguarded Newton steps on the angle: Prufer-angle shooting as in
Pryce, Numerical Solution of Sturm-Liouville Problems (OUP 1993), and
SLEIGN2 (Bailey, Everitt and Zettl, ACM TOMS 27, 2001).

scipy is imported only inside oracle_eigenvalues, so importing this
module stays cheap.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import rho
from .potential import PearsonPotential
from .propagate import _as_scalar, _piece_maps, _steps_or_default

__all__ = [
    "EigenvalueWindow",
    "ClockReport",
    "DosEstimate",
    "ResolutionWarning",
    "phase",
    "eigenvalue_count",
    "eigenvalues_near",
    "eigenvalues_below",
    "clock_statistics",
    "density_of_states",
    "oracle_eigenvalues",
]


class ResolutionWarning(UserWarning):
    """The finite-difference oracle grid looks too coarse for the request."""


@dataclass(frozen=True)
class EigenvalueWindow:
    """Eigenvalues reenumerated around xi_star: xi_{-1} < xi_star <= xi_0.

    values[i] is the eigenvalue with window index n_min + i. truncated is
    set when the requested window reached below the bottom of the spectrum.
    iterations[i] and residuals[i], when given, are the phase walks spent
    on values[i] and its achieved |u'| / sqrt(xi u^2 + u'^2).
    """

    L: float
    xi_star: float
    n_min: int
    values: tuple[float, ...]
    truncated: bool = False
    iterations: tuple[int, ...] = ()
    residuals: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise ValueError("window eigenvalues must be strictly increasing")
        if self.n_min <= -1 and len(self.values) >= -self.n_min:
            if not self.value(-1) < self.xi_star:
                raise ValueError("tie convention violated: xi_{-1} must be < xi_star")
        if self.n_min <= 0 and len(self.values) > -self.n_min:
            if not self.xi_star <= self.value(0) * (1.0 + 1e-12):
                raise ValueError("tie convention violated: xi_star must be <= xi_0")

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    def value(self, n: int) -> float:
        if not self.n_min <= n <= self.n_max:
            raise IndexError(f"window index {n} outside [{self.n_min}, {self.n_max}]")
        return self.values[n - self.n_min]


@dataclass(frozen=True)
class ClockReport:
    """Rescaled consecutive spacings L * (xi_{n+1} - xi_n) * rho(xi_star)."""

    window: EigenvalueWindow
    statistics: tuple[float, ...]
    max_deviation: float

    def __post_init__(self) -> None:
        for s in self.statistics:
            if not s > 0.0:
                raise ValueError("spacing statistics must be positive")


@dataclass(frozen=True)
class DosEstimate:
    """Histogram of eigenvalues over an energy interval, mass 1/L each.

    free_masses holds the free prediction per bin, the integral of
    (1/2pi) xi^(-1/2), which is (sqrt(hi) - sqrt(lo))/pi.
    """

    L: float
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    masses: tuple[float, ...]
    free_masses: tuple[float, ...]

    @property
    def total_mass(self) -> float:
        return sum(self.counts) / self.L


def phase(V: PearsonPotential, xi: float, L: float, *, steps: int | None = None) -> float:
    """Continuously unwound phase theta(xi, L) with theta(xi, 0) = pi/2.

    Writing u = r sin(theta), u' = r sqrt(xi) cos(theta), the angle obeys
    theta' = sqrt(xi) - (V/sqrt(xi)) sin(theta)^2, so it advances by exactly
    sqrt(xi) * gap over free stretches; across bumps it is read off the
    bump transfer matrix. Strictly increasing in xi; eigenvalues of the
    restricted operator sit at theta = pi/2 (mod pi).
    """
    xi = _as_scalar(xi)
    if isinstance(xi, complex) or not xi > 0.0:
        raise ValueError("the phase is defined for real xi > 0")
    if L < 0.0:
        raise ValueError("the phase is defined for L >= 0")
    return _phase_walk(V, xi, L, _steps_or_default(steps))[0]


def _phase_walk(V: PearsonPotential, xi: float, L: float, steps: int):
    """(theta, dtheta/dxi, cos theta) at L in one fold over _piece_maps(V, xi, 0, L).

    The Neumann pair y = (u, u') and its xi-derivative (v, dv) = (u_xi, u'_xi)
    are mapped by each piece's (T, dT/dxi) as in extended_neumann, and
    scaled by a power of two once |y| leaves (2^-64, 2^64), so they cannot
    overflow and y stays exactly proportional to neumann_solution's pair.
    A free gap advances the angle by sqrt(xi) times its length. Across a
    bump piece the angle of scale sigma = max(1, sqrt(xi)) is read off y
    modulo 2 pi, on the branch nearest the guess
    phi + ((sigma^2 + xi) length - lam int W)/(2 sigma) of the Prufer equation
    phi' = sigma cos^2 + ((xi - lam W)/sigma) sin^2; the stream keeps every
    piece short enough that the true angle lies within pi/2 of it. From
    the final pair,
    dtheta/dxi = [u u'/(2 sqrt(xi)) + sqrt(xi) (u' u_xi - u u'_xi)] / (xi u^2 + u'^2),
    where u' u_xi - u u'_xi is the positive norm integral int_0^L u^2, and
    cos theta = u' / sqrt(xi u^2 + u'^2) to full relative precision.
    """
    s = math.sqrt(xi)
    sigma = max(1.0, s)
    theta = 0.5 * math.pi
    u, du, v, dv = 1.0, 0.0, 0.0, 0.0
    for (a, b, c, d), (e, f, g, h), length, w in _piece_maps(V, xi, 0.0, L, steps):
        v, dv = (a * v + b * dv) + (e * u + f * du), (c * v + d * dv) + (g * u + h * du)
        u, du = a * u + b * du, c * u + d * du
        if w is None:
            theta += s * length
        else:
            guess = _rescale_angle(theta, s, sigma) + ((sigma * sigma + xi) * length - w) / (2.0 * sigma)
            phi = guess + math.remainder(math.atan2(sigma * u, du) - guess, 2.0 * math.pi)
            theta = _rescale_angle(phi, sigma, s)
        r = math.hypot(u, du)
        if not 2.0**-64 < r < 2.0**64:
            scale = math.ldexp(1.0, -math.frexp(r)[1])
            u, du, v, dv = u * scale, du * scale, v * scale, dv * scale
    r2 = xi * u * u + du * du
    slope = (0.5 * u * du / s + s * (du * v - u * dv)) / r2
    return theta, slope, du / math.sqrt(r2)


def _rescale_angle(theta: float, scale: float, new_scale: float) -> float:
    """The angle with tan = new_scale * u / u' in the quadrant of the one
    with tan = scale * u / u'."""
    if scale == new_scale:
        return theta
    raw = math.atan2(new_scale * math.sin(theta), scale * math.cos(theta))
    return theta + math.remainder(raw - theta, 2.0 * math.pi)


def eigenvalue_count(V: PearsonPotential, xi: float, L: float, *, steps: int | None = None) -> int:
    """Number of restricted-operator eigenvalues at or below xi.

    Counted from the bottom of the spectrum via the phase winding; the
    free operator's ground state at 0 is included, so for V = 0 this is
    floor(sqrt(xi) L / pi) + 1.
    """
    theta = phase(V, xi, L, steps=steps)
    return max(0, math.floor((theta - 0.5 * math.pi) / math.pi) + 1)


_FLOOR = 1e-14  # smallest energy probed; the free ground state sits at 0
# relative tolerance of eigenvalue refinement: a root is accepted once |u'(xi, L)|
# drops below ROOT_REL_TOL times the local solution scale sqrt(xi u^2 + u'^2);
# that ratio is |cos theta| for the phase theta, so |theta - target| <= ROOT_REL_TOL
# implies it
ROOT_REL_TOL = 1e-10


def _newton_root(V, L, k, guess, steps):
    """The eigenvalue where theta(., L) crosses pi/2 + k pi, by Newton steps
    on the angle with its exact slope, from guess.

    theta is strictly increasing, so every walk narrows a bracket (lo, hi)
    around the root. Once the bracket is finite, a Newton step that leaves
    it, or that is not at most half the step before the last one, is
    replaced by bisection (the safeguard of rtsafe in Numerical Recipes).
    Within one of the target the offset is taken as asin of the state's
    cosine, which stays accurate however large theta is. A root is accepted
    once |u'| <= ROOT_REL_TOL * sqrt(xi u^2 + u'^2). Returns the root, the
    number of walks, the achieved residual and the slope at the root.
    Raises _BelowBottom when theta exceeds the target at the floor 1e-14
    and RuntimeError when the iterate stalls or 100 walks do not reach the
    tolerance.
    """
    target = 0.5 * math.pi + k * math.pi
    sign = -1.0 if k % 2 else 1.0
    lo, hi = 0.0, math.inf
    step_old = step = math.inf
    x = max(guess, _FLOOR)
    for walks in range(1, 101):
        theta, slope, cos_theta = _phase_walk(V, x, L, steps)
        offset = theta - target
        if abs(offset) < 1.0:
            if abs(cos_theta) <= ROOT_REL_TOL:
                return x, walks, abs(cos_theta), slope
            offset = math.asin(-sign * cos_theta)
        if offset < 0.0:
            lo = x
        elif x == _FLOOR:
            raise _BelowBottom()
        else:
            hi = x
        cand = x - offset / slope
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        elif hi < math.inf and abs(x - cand) > 0.5 * step_old:
            cand = 0.5 * (lo + hi)
        cand = max(cand, _FLOOR)
        step_old, step = step, abs(x - cand)
        if cand == x:
            break
        x = cand
    raise RuntimeError(f"eigenvalue polish did not converge at L = {L} for phase index {k}")


def eigenvalues_near(
    V: PearsonPotential,
    L: float,
    xi_star: float,
    n_min: int,
    n_max: int,
    *,
    steps: int | None = None,
) -> EigenvalueWindow:
    """Eigenvalues with window indices n_min..n_max around xi_star.

    The eigenvalue with phase index k is the crossing of theta(., L)
    through pi/2 + k pi. Each is found by Newton steps on the angle with
    its exact xi-slope, kept inside the bracket that the monotone angle
    gives (bisection when a step leaves it), from a start one local
    spacing pi / (dtheta/dxi) away from its neighbour. A root is accepted
    once |u'(xi, L)| <= ROOT_REL_TOL * sqrt(xi u^2 + u'^2), a ratio equal to
    |cos theta|, so that |theta - target| <= ROOT_REL_TOL implies it; a
    search that does not get there raises RuntimeError. iterations and
    residuals of the window report the walks and the achieved ratio per
    root. Ties follow
    xi_{-1} < xi_star <= xi_0. A window reaching below the bottom of the
    spectrum comes back truncated.
    """
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"L must be positive and finite (got {L!r})")
    if not (math.isfinite(xi_star) and xi_star > 0.0):
        raise ValueError("xi_star must be positive and finite")
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    steps = _steps_or_default(steps)
    theta_star, slope_star, _ = _phase_walk(V, float(xi_star), L, steps)
    t = (theta_star - 0.5 * math.pi) / math.pi
    # ties resolved at phase resolution: exact crossings give integer t
    k0 = math.ceil(t - 1e-9)

    roots: dict[int, tuple] = {}
    truncated = False
    searches = (
        (range(max(0, n_min), n_max + 1), 1.0),  # upwards from xi_0
        (range(min(-1, n_max), n_min - 1, -1), -1.0),  # downwards from xi_{-1}
    )
    for ns, direction in searches:
        guess = None
        for n in ns:
            k = k0 + n
            if k < 0:
                truncated = True
                break
            if guess is None:
                guess = xi_star + (k - t) * math.pi / slope_star
            try:
                roots[n] = _newton_root(V, L, k, guess, steps)
            except _BelowBottom:
                truncated = True
                break
            root, _, _, slope = roots[n]
            guess = root + direction * math.pi / slope
    ns = sorted(roots)
    return EigenvalueWindow(
        L=float(L),
        xi_star=float(xi_star),
        n_min=ns[0],
        values=tuple(roots[n][0] for n in ns),
        truncated=truncated,
        iterations=tuple(roots[n][1] for n in ns),
        residuals=tuple(roots[n][2] for n in ns),
    )


class _BelowBottom(Exception):
    pass


def eigenvalues_below(
    V: PearsonPotential, L: float, cutoff: float, *, steps: int | None = None
) -> list[float]:
    """All restricted-operator eigenvalues in (0, cutoff], from the bottom."""
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    count = eigenvalue_count(V, cutoff, L, steps=steps)
    if count == 0:
        return []
    window = eigenvalues_near(V, L, cutoff, -count, 0, steps=steps)
    return [v for v in window.values if v <= cutoff * (1.0 + 1e-12)]


def clock_statistics(
    V: PearsonPotential, L: float, xi_star: float, depth: int, *, steps: int | None = None
) -> ClockReport:
    """Rescaled spacings L (xi_{n+1} - xi_n) rho(xi_star), n in [-depth, depth-1]."""
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    window = eigenvalues_near(V, L, xi_star, -depth, depth, steps=steps)
    r = rho(xi_star)
    stats = []
    for n in range(window.n_min, window.n_max):
        stats.append(L * (window.value(n + 1) - window.value(n)) * r)
    max_dev = max(abs(s - 1.0) for s in stats)
    return ClockReport(window, tuple(stats), float(max_dev))


def density_of_states(
    V: PearsonPotential,
    L: float,
    interval: tuple[float, float],
    bins: int,
    *,
    steps: int | None = None,
) -> DosEstimate:
    """Eigenvalue histogram over the interval, each eigenvalue weighing 1/L.

    Bin counts come from differences of the phase-based counting function,
    so the total mass is exactly (eigenvalue count)/L.
    """
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"L must be positive and finite (got {L!r})")
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"interval {lo} to {hi} must be a finite subinterval of the positive reals")
    bins = int(bins)
    if bins < 1:
        raise ValueError("need at least one bin")
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    counts_at = [eigenvalue_count(V, e, L, steps=steps) for e in edges]
    counts = [counts_at[i + 1] - counts_at[i] for i in range(bins)]
    masses = [c / L for c in counts]
    free = [(math.sqrt(edges[i + 1]) - math.sqrt(edges[i])) / math.pi for i in range(bins)]
    return DosEstimate(
        L=float(L),
        edges=tuple(edges),
        counts=tuple(counts),
        masses=tuple(masses),
        free_masses=tuple(free),
    )


def oracle_eigenvalues(
    V: PearsonPotential,
    L: float,
    grid_points: int,
    *,
    cutoff: float = 4.0,
    steps: int | None = None,
) -> np.ndarray:
    """Independent eigenvalues below cutoff from a tridiagonal discretization.

    Uses the half-cell (staggered) grid x_i = (i + 1/2) h, i = 0..n-1,
    where the Neumann conditions become reflection of the ghost values;
    this keeps the boundary error at O(h^2). Emits a ResolutionWarning
    when the eigenvalue count disagrees with the phase-based count.
    """
    from scipy.linalg import eigh_tridiagonal

    n = int(grid_points)
    if n < 100:
        raise ValueError("the oracle grid needs at least 100 points")
    h = L / n
    x = (np.arange(n) + 0.5) * h
    v = np.array([V.evaluate(float(t)) for t in x])
    diag = 2.0 / h**2 + v
    diag[0] -= 1.0 / h**2
    diag[-1] -= 1.0 / h**2
    off = np.full(n - 1, -1.0 / h**2)
    vmin = min(0.0, float(v.min())) - 1.0
    vals = eigh_tridiagonal(
        diag, off, select="v", select_range=(vmin, cutoff), eigvals_only=True
    )
    expected = eigenvalue_count(V, cutoff, L, steps=steps)
    if len(vals) != expected:
        warnings.warn(
            f"oracle found {len(vals)} eigenvalues below {cutoff} but the phase "
            f"count is {expected}; the grid with {n} points looks too coarse",
            ResolutionWarning,
            stacklevel=2,
        )
    return np.sort(vals)
