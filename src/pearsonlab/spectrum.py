"""Neumann eigenvalues of the restricted operators and their statistics.

Eigenvalues of the operator on [0, L] with Neumann conditions at both
ends are the zeros of u'(., L) for the Neumann solution u. They are
located through a sqrt(xi)-scaled phase angle that rotates at exactly
sqrt(xi) on potential-free stretches and crosses pi/2 (mod pi) at each
eigenvalue: each crossing is bracketed and found by Brent's method on
the phase, then polished by Newton steps on u'(., L).

scipy is imported only inside oracle_eigenvalues, so importing this
module stays cheap.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .kernel import rho
from .potential import PearsonPotential
from .propagate import (
    _as_scalar,
    _bump_map,
    _gauss_samples,
    _steps_or_default,
    extended_neumann,
    segments,
)

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
    """

    L: float
    xi_star: float
    n_min: int
    values: tuple[float, ...]
    truncated: bool = False

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
    steps = _steps_or_default(steps)
    xi = _as_scalar(xi)
    if isinstance(xi, complex) or not xi > 0.0:
        raise ValueError("the phase is defined for real xi > 0")
    if L < 0.0:
        raise ValueError("the phase is defined for L >= 0")
    s = math.sqrt(xi)
    sigma = max(1.0, s)
    theta = 0.5 * math.pi
    for seg in segments(V, 0.0, L):
        if seg[0] == "free":
            theta += s * (seg[2] - seg[1])
        else:
            _, a, b, k = seg
            c = V.centers[k]
            phi = _rescale_angle(theta, s, sigma)
            phi = _bump_phase(V.profile, V.amplitudes[k], xi, sigma, phi, a - c, b - c, steps)
            theta = _rescale_angle(phi, sigma, s)
    return theta


def _rescale_angle(theta: float, scale: float, new_scale: float) -> float:
    """The angle with tan = new_scale * u / u' in the quadrant of the one
    with tan = scale * u / u'."""
    if scale == new_scale:
        return theta
    raw = math.atan2(new_scale * math.sin(theta), scale * math.cos(theta))
    return theta + math.remainder(raw - theta, 2.0 * math.pi)


def _bump_phase(profile, lam, xi, sigma, phi, la, lb, steps):
    """Advance the angle of scale sigma across [la, lb] of one bump.

    The transfer matrix fixes the angle modulo 2 pi. The branch comes from
    the Prufer equation phi' = sigma cos^2 + ((xi - lam W)/sigma) sin^2,
    whose integral over the piece lies within half_width of guess - phi;
    a piece whose half-width is not below pi/2 is split in two. The scale
    sigma = max(1, sqrt(xi)) keeps the half-width bounded as xi -> 0.
    """
    d = lb - la
    int_w = _gauss_samples(profile, la, lb, steps)[3]
    half_width = (abs(sigma * sigma - xi) * d + abs(lam) * int_w) / (2.0 * sigma)
    if half_width >= 0.5 * math.pi:
        mid = 0.5 * (la + lb)
        phi = _bump_phase(profile, lam, xi, sigma, phi, la, mid, steps)
        return _bump_phase(profile, lam, xi, sigma, phi, mid, lb, steps)
    T, _ = _bump_map(profile, lam, xi, la, lb, steps)
    u, du = T @ (math.sin(phi), sigma * math.cos(phi))
    guess = phi + ((sigma * sigma + xi) * d - lam * int_w) / (2.0 * sigma)
    return guess + math.remainder(math.atan2(sigma * u, du) - guess, 2.0 * math.pi)


def eigenvalue_count(V: PearsonPotential, xi: float, L: float, *, steps: int | None = None) -> int:
    """Number of restricted-operator eigenvalues at or below xi.

    Counted from the bottom of the spectrum via the phase winding; the
    free operator's ground state at 0 is included, so for V = 0 this is
    floor(sqrt(xi) L / pi) + 1.
    """
    theta = phase(V, xi, L, steps=steps)
    return max(0, math.floor((theta - 0.5 * math.pi) / math.pi) + 1)


def _phase_slope(V: PearsonPotential, xi: float, L: float) -> float:
    # free-rotation estimate of d theta / d xi; adequate for bracketing
    return max(L / (2.0 * math.sqrt(xi)), 1e-12)


def _brent(f, lo, hi, flo, fhi, xtol, rtol, maxiter=100):
    """Root of f in [lo, hi] by Brent's method, given flo = f(lo), fhi = f(hi).

    A port of scipy's C brentq with the same iterates; the bracket ends
    are not evaluated again. flo and fhi must not share a strict sign.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError("Brent's method needs a sign change on the bracket")
    xpre, xcur, fpre, fcur = lo, hi, flo, fhi
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _refine_root(V, L, lo, hi, xi, k, steps):
    """Polish the eigenvalue with phase index k inside (lo, hi) to
    |u'| <= tol * scale.

    Newton steps on u'(., L) with the variational xi-derivative, falling
    back to bisection on the sign of (-1)^k u' whenever a step leaves the
    bracket. Raises RuntimeError when 60 steps do not reach the tolerance
    or the iteration stalls.
    """
    sign = 1.0 if k % 2 else -1.0
    for _ in range(60):
        ext = extended_neumann(V, xi, L, steps=steps)
        f = ext.du
        scale = math.sqrt(xi * ext.u * ext.u + f * f)
        if abs(f) <= DEFAULTS.root_rel_tol * scale:
            return xi
        g = sign * f  # g < 0 below the root, > 0 above, near the root
        if g < 0.0:
            lo = max(lo, xi)
        else:
            hi = min(hi, xi)
        step = -f / ext.du_xi if ext.du_xi != 0.0 else None
        cand = xi + step if step is not None else None
        if cand is None or not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        if cand == xi:
            break
        xi = cand
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

    Brackets each eigenvalue by the monotone phase (one crossing of
    pi/2 mod pi per bracket), finds the crossing by Brent's method on the
    phase, then polishes it by Newton steps on u'(., L); a polish that
    does not converge raises RuntimeError. Ties follow
    xi_{-1} < xi_star <= xi_0. A window reaching below the bottom of the
    spectrum comes back truncated.
    """
    if xi_star <= 0.0:
        raise ValueError("xi_star must be positive")
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    steps_v = steps
    floor = 1e-14
    theta_star = phase(V, xi_star, L, steps=steps_v)
    t = (theta_star - 0.5 * math.pi) / math.pi
    # ties resolved at phase resolution: exact crossings give integer t
    k0 = math.ceil(t - 1e-9)

    def local_spacing(x: float) -> float:
        # free-rotation spacing estimate pi / (d theta / d xi) near x
        return math.pi / _phase_slope(V, max(x, floor), L)

    def locate(k: int, guess: float) -> float:
        target = 0.5 * math.pi + k * math.pi

        def g(x: float) -> float:
            return phase(V, x, L, steps=steps_v) - target

        guess = max(guess, floor)
        width = 0.75 * local_spacing(guess)
        lo = max(guess - width, floor)
        hi = max(guess + width, 4.0 * floor)
        glo = g(lo)
        ghi = g(hi)
        grow = 0
        while glo > 0.0 and lo > 10.0 * floor:
            hi, ghi = lo, glo
            lo = max(lo - 2.0**grow * width, floor)
            glo = g(lo)
            grow += 1
            if grow > 80:
                raise RuntimeError("failed to bracket an eigenvalue from above")
        while ghi < 0.0:
            lo, glo = hi, ghi
            hi = hi + 2.0**grow * width
            ghi = g(hi)
            grow += 1
            if grow > 80:
                raise RuntimeError("failed to bracket an eigenvalue from below")
        if glo > 0.0:
            raise _BelowBottom()
        root = _brent(g, lo, hi, glo, ghi, xtol=1e-13 * max(1.0, xi_star), rtol=1e-15)
        return _refine_root(V, L, lo, hi, root, k, steps_v)

    values: dict[int, float] = {}
    truncated = False
    prev = None
    for n in range(max(0, n_min), n_max + 1):
        k = k0 + n
        if prev is not None:
            guess = prev + local_spacing(prev)
        else:
            guess = xi_star + (k - t) * local_spacing(xi_star)
        values[n] = prev = locate(k, guess)
    prev = None
    for n in range(min(-1, n_max), n_min - 1, -1):
        k = k0 + n
        if k < 0:
            truncated = True
            break
        if prev is not None:
            guess = prev - local_spacing(prev)
        else:
            guess = xi_star + (k - t) * local_spacing(xi_star)
        try:
            values[n] = prev = locate(k, guess)
        except _BelowBottom:
            truncated = True
            break
    ns = sorted(values)
    return EigenvalueWindow(
        L=float(L),
        xi_star=float(xi_star),
        n_min=ns[0],
        values=tuple(values[n] for n in ns),
        truncated=truncated,
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
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 < lo < hi):
        raise ValueError("the interval must be inside (0, inf)")
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
