"""Continuum Christoffel-Darboux kernels and their clock-scale limits.

The kernel S_L(xi, zeta) = int_0^L u(xi, r) u(zeta, r) dr is computed by
three mutually checking routes: a running integral carried through the
propagation ("quadrature"), the boundary formula for distinct arguments
("cd_formula"), and the diagonal formula through the xi-derivative pair
("accumulated"). _kernel_entry picks the route of every value the module
returns, from cached walks: arguments closer than t(L) / L, a switch that
grows like L^(1/3), take the diagonal at their midpoint; cd_quadrature,
the reference, runs only when a caller asks for it. The normalized ratios
are evaluated on grids of shifts (_ratio_grid), which look up the walk
of each distinct shifted argument once; each CLI kernel task and each
(xi, x) of empirical_hat_N is one grid, and the one-pair functions are
the 1 x 1 case.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .potential import BumpProfile, PearsonPotential
from .propagate import (
    _EPS,
    _as_scalar,
    _extended_walk,
    _free_maps,
    _plan,
    _steps_or_default,
    principal_sqrt,
    sinc,
    vercosc,
)

__all__ = [
    "KernelEvaluation",
    "Kappa",
    "KappaRatioGap",
    "rho",
    "sine_kernel",
    "cd_quadrature",
    "cd_formula",
    "cd_diagonal",
    "kernel_ratio",
    "kappa",
    "kappa_ratio",
    "kappa_ratio_gap",
]

_METHODS = ("quadrature", "cd_formula", "accumulated")

# the floor of the near-diagonal switch of _kernel_entry, in units of 1/L; a
# threshold in absolute units would reroute whole clock-scale grids (spacing
# 1/L) once L is large
_NEAR_DIAGONAL = 1e-6


@dataclass(frozen=True)
class KernelEvaluation:
    """One kernel value with the route that produced it."""

    xi: complex | float
    zeta: complex | float
    L: float
    value: complex | float
    method: str

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class Kappa:
    """Normalization (u^2 + u'^2/xi)/2 of the truncated Neumann solution."""

    ell: int
    xi: float
    x: float
    value: float

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise ValueError("kappa must be strictly positive")


@dataclass(frozen=True)
class KappaRatioGap:
    """Difference of consecutive normalized kernel ratios, with its
    triangle-inequality split into a kernel term and a kappa term."""

    gap: float
    s_term: float
    kappa_term: float


def rho(xi: float) -> float:
    """Limiting eigenvalue density per unit length of the free operator."""
    if not 0.0 < xi < math.inf:
        raise ValueError("the density of states is evaluated on (0, inf)")
    return 1.0 / (2.0 * math.pi * math.sqrt(xi))


def sine_kernel(xi: float, a, b):
    """sinc of the clock-rescaled separation, sin(z)/z at z = (b-a)/(2 sqrt(xi)).

    Equals 1 at a = b (removable singularity, series evaluation near 0).
    """
    xi = float(xi)
    if not 0.0 < xi < math.inf:
        raise ValueError(f"sine_kernel requires a finite xi > 0 (got {xi!r})")
    for name, shift in (("a", a), ("b", b)):
        if not cmath.isfinite(shift):
            raise ValueError(f"sine_kernel requires a finite {name} (got {shift!r})")
    z = (b - a) / (2.0 * math.sqrt(xi))
    return sinc(z)


# -- route 1: running integral -------------------------------------------------


def _gap_overlap(u1, d1, w1, u2, d2, w2, delta):
    # closed-form int_0^delta u1(r) u2(r) dr on a free gap, from the
    # states at the gap entrance; product-to-sum trig integrals
    m = (w1 - w2) * delta
    p = (w1 + w2) * delta
    icc = 0.5 * delta * (sinc(m) + sinc(p))
    iss = 0.5 * delta * (sinc(m) - sinc(p))
    isc = 0.5 * delta * (vercosc(p) + vercosc(m))
    ics = 0.5 * delta * (vercosc(p) - vercosc(m))
    return (
        u1 * u2 * icc
        + u1 * (d2 / w2) * ics
        + (d1 / w1) * u2 * isc
        + (d1 / w1) * (d2 / w2) * iss
    )


@lru_cache(maxsize=64)
def _rk4_samples(profile: BumpProfile, la: float, lb: float, steps: int):
    """W at the RK4 nodes and midpoints across [la, lb], and the step length."""
    n = max(1, math.ceil(steps * (lb - la) - 1e-9))
    h = (lb - la) / n
    nodes = tuple(profile.evaluate(la + i * h) for i in range(n + 1))
    mids = tuple(profile.evaluate(la + (i + 0.5) * h) for i in range(n))
    return nodes, mids, h


def _rk4_wsystem(rhs, nodes, mids, h, y):
    """Classical RK4 where the right-hand side depends on x only through W."""
    half = 0.5 * h
    sixth = h / 6.0
    for i, wm in enumerate(mids):
        k1 = rhs(nodes[i], y)
        k2 = rhs(wm, y + half * k1)
        k3 = rhs(wm, y + half * k2)
        k4 = rhs(nodes[i + 1], y + h * k3)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def _pair_rhs(lam, xi1, xi2):
    def rhs(w, y):
        q1 = lam * w - xi1
        q2 = lam * w - xi2
        return np.array([y[1], q1 * y[0], y[3], q2 * y[2], y[0] * y[2]])

    return rhs


@np.errstate(over="ignore", invalid="ignore")  # an overflowing walk raises below
def cd_quadrature(
    V: PearsonPotential, xi, zeta, L: float, *, steps: int | None = None
) -> KernelEvaluation:
    """Kernel by a running integral carried through the propagation.

    It walks the pieces of the cached plan that the other routes walk. Free
    gaps contribute closed-form trig product integrals; across each bump
    piece the integral rides along as a fifth component of a classical RK4
    system. This is the reference route: its integrator is independent of
    the Magnus bump maps that the other routes fold.
    """
    steps = _steps_or_default(steps)
    if not L > 0.0:
        raise ValueError("the kernel needs L > 0")
    xi = _as_scalar(xi)
    zeta = _as_scalar(zeta)
    w1 = principal_sqrt(xi)
    w2 = principal_sqrt(zeta)
    is_complex = isinstance(xi, complex) or isinstance(zeta, complex)
    dtype = complex if is_complex else float
    u1, d1 = (1.0 + 0.0j, 0.0 + 0.0j) if is_complex else (1.0, 0.0)
    u2, d2 = u1, d1
    acc = 0.0 + 0.0j if is_complex else 0.0
    for piece in _plan(V, 0.0, float(L), steps):
        if len(piece) == 2:
            a, b = piece
            (p11, p12, p21, p22), _ = _free_maps(xi, w1, a, b)
            (q11, q12, q21, q22), _ = _free_maps(zeta, w2, a, b)
            try:
                acc = acc + _gap_overlap(u1, d1, w1, u2, d2, w2, b - a)
            except OverflowError:
                raise ValueError(f"the overlap at xi = {xi!r} and zeta = {zeta!r} "
                                 f"overflows on the gap from {a!r} to {b!r}") from None
            u1, d1, u2, d2 = p11 * u1 + p12 * d1, p21 * u1 + p22 * d1, q11 * u2 + q12 * d2, q21 * u2 + q22 * d2
        else:
            la, lb, lam, _, _ = piece
            nodes, mids, h = _rk4_samples(V.profile, la, lb, steps)
            y = np.array([u1, d1, u2, d2, acc], dtype=dtype)
            u1, d1, u2, d2, acc = _rk4_wsystem(_pair_rhs(lam, xi, zeta), nodes, mids, h, y)
    value = complex(acc) if is_complex else float(acc)
    if not cmath.isfinite(value):
        raise ValueError(f"the walk at xi = {xi!r} and zeta = {zeta!r} overflows between 0.0 and {float(L)!r}")
    return KernelEvaluation(xi, zeta, float(L), value, "quadrature")


# -- routes 2 and 3: boundary data of the cached walks --------------------------


def _walk(V: PearsonPotential, z, L: float, steps: int, walks: dict):
    """z's cached extended walk to L. walks maps each argument looked up so
    far to its walk; a grid shares it, so each argument is looked up once."""
    if z not in walks:
        walks[z] = _extended_walk(V, z, float(L), steps)
    return walks[z]


def _kernel_entry(V: PearsonPotential, xi, zeta, L: float, steps: int, walks: dict):
    """S_L(xi, zeta) and its route, the one place a route is chosen: arguments
    closer than t / L, real or complex, take the diagonal formula at their
    midpoint m ("accumulated"), all others the boundary formula ("cd_formula").
    Rounding leaves the boundary formula off by about 0.8 eps L / |b - a| at
    clock separation |b - a| = |xi - zeta| L, and the midpoint diagonal off by
    (b - a)^2 / (24 |m|); these meet at t = (19 |m| eps L)^(1/3), floored at
    _NEAR_DIAGONAL. cd_quadrature, the reference, is never called. A value
    that is not finite raises ValueError naming xi, zeta and L."""
    mid = 0.5 * (xi + zeta)
    if abs(xi - zeta) * L < max(_NEAR_DIAGONAL, (19.0 * abs(mid) * _EPS * L) ** (1.0 / 3.0)):
        s = _walk(V, _as_scalar(mid), L, steps, walks)
        value, route = s.du * s.u_xi - s.du_xi * s.u, "accumulated"
    else:
        s1, s2 = _walk(V, xi, L, steps, walks), _walk(V, zeta, L, steps, walks)
        value, route = (s1.u * s2.du - s2.u * s1.du) / (xi - zeta), "cd_formula"
    if not cmath.isfinite(value):
        raise ValueError(f"the kernel at xi = {xi!r} and zeta = {zeta!r} overflows at L = {L!r}")
    return value, route


def cd_formula(
    V: PearsonPotential, xi, zeta, L: float, *, steps: int | None = None
) -> KernelEvaluation:
    """Kernel from boundary data, (u(xi)u'(zeta) - u(zeta)u'(xi))/(xi - zeta).

    Arguments closer than t(L) / L (see _kernel_entry), real or complex, take
    the diagonal route at their midpoint, and the returned method flags the
    switch as "accumulated". cd_quadrature never runs on the caller's behalf.
    """
    if not L > 0.0:
        raise ValueError("the kernel needs L > 0")
    xi = _as_scalar(xi)
    zeta = _as_scalar(zeta)
    value, method = _kernel_entry(V, xi, zeta, L, _steps_or_default(steps), {})
    return KernelEvaluation(xi, zeta, float(L), value, method)


def cd_diagonal(
    V: PearsonPotential, xi: float, L: float, *, steps: int | None = None
) -> KernelEvaluation:
    """Diagonal kernel u'(xi,L) du/dxi(xi,L) - du'/dxi(xi,L) u(xi,L)."""
    if not L > 0.0:
        raise ValueError("the kernel needs L > 0")
    xi = _as_scalar(xi)
    if isinstance(xi, complex):
        raise ValueError("the diagonal route is defined for real xi only")
    value, method = _kernel_entry(V, xi, xi, L, _steps_or_default(steps), {})
    return KernelEvaluation(xi, xi, float(L), value, method)


# -- normalized ratios ---------------------------------------------------------


def _shifted(xi: float, a_grid, b_grid, x: float):
    """The shifted arguments xi + a/x and xi + b/x over both grids, all in
    the right half-plane."""
    alphas = [_as_scalar(xi + a / x) for a in a_grid]
    betas = [_as_scalar(xi + b / x) for b in b_grid]
    if not all(z.real > 0.0 for z in alphas + betas):
        raise ValueError("shifted arguments must stay in the right half-plane")
    return alphas, betas


def _ratio_grid(V: PearsonPotential, xi: float, a_grid, b_grid, x: float, steps, *, kappa=False):
    """S_x(xi + a/x, xi + b/x) / norm for a in a_grid (rows) and b in b_grid.

    norm is S_x(xi, xi), or x * kappa at (xi, x) when kappa is set. The
    entries and the norm share one lookup of each distinct argument's
    cached walk, so S_x(xi, xi), kappa (when 0 is a shift) and an exactly
    diagonal entry read the same walk.
    Entries equal the per-pair cd_formula values over the norm bit for
    bit. The first failure raises.
    """
    xi = float(xi)
    if not x > 0.0:
        raise ValueError("the kernel needs L > 0")
    alphas, betas = _shifted(xi, a_grid, b_grid, x)
    steps, walks = _steps_or_default(steps), {}
    nums = [[_kernel_entry(V, al, be, x, steps, walks)[0] for be in betas] for al in alphas]
    den = (x * _kappa_value(V, xi, x, steps, walks) if kappa
           else _kernel_entry(V, xi, xi, x, steps, walks)[0])
    return [[num / den for num in row] for row in nums]


def kernel_ratio(
    V: PearsonPotential, xi: float, a, b, L: float, *, steps: int | None = None
):
    """S_L(xi + a/L, xi + b/L) / S_L(xi, xi); a, b may be complex.

    The 1 x 1 case of _ratio_grid: the numerator is the cd_formula value,
    the denominator the cached diagonal at (xi, L). The CLI evaluates a
    kernel task as one grid and calls this per pair only to record each
    pair's error when the grid raises.
    """
    return _ratio_grid(V, xi, (a,), (b,), L, steps)[0][0]


def _kappa_value(V: PearsonPotential, xi: float, x: float, steps: int, walks: dict) -> float:
    """(u^2 + u'^2/xi)/2 of the Neumann pair of V at (xi, x), off xi's cached
    walk to x in walks; (a1_tilde, a2_tilde) is (u, u'/sqrt(xi)) rotated by
    sqrt(xi) x, so this is (a1_tilde^2 + a2_tilde^2)/2; an overflow raises ValueError."""
    if not xi > 0.0:
        raise ValueError("kappa requires xi > 0")
    s = _walk(V, xi, x, steps, walks)
    value = 0.5 * (s.u * s.u + s.du * s.du / xi)
    if not math.isfinite(value):
        raise ValueError(f"kappa at xi = {xi!r} overflows at x = {x!r}")
    return value


def kappa(
    V: PearsonPotential, ell: int, xi: float, x: float, *, steps: int | None = None
) -> Kappa:
    """Normalization (u^2 + u'^2/xi)/2 for the ell-bump truncation.

    Equals (a1_tilde^2 + a2_tilde^2)/2. Constant in x beyond the last kept
    bump; always strictly positive.
    """
    xi = float(xi)
    value = _kappa_value(V.truncate(ell), xi, x, _steps_or_default(steps), {})
    return Kappa(int(ell), xi, float(x), value)


def kappa_ratio(
    V: PearsonPotential, ell: int, xi: float, a, b, x: float, *, steps: int | None = None
):
    """S_x of the truncation at (xi + a/x, xi + b/x), divided by x * kappa.

    Converges to sine_kernel(xi, a, b) as x grows. The one-pair case of
    the grid evaluator that empirical_hat_N runs per (xi, x); a and b may
    be complex.
    """
    return _ratio_grid(V.truncate(ell), xi, (a,), (b,), x, steps, kappa=True)[0][0]


def kappa_ratio_gap(
    V: PearsonPotential, ell: int, xi: float, a, b, x: float, *, steps: int | None = None
) -> KappaRatioGap:
    """Gap between the normalized ratios at truncation levels ell and ell+1.

    Defined for N_{ell+1} <= x <= N_{ell+2}, where the full potential agrees
    with the (ell+1)-truncation. Also reports the triangle-inequality split:
    s_term bounds the kernel difference at fixed normalization, kappa_term
    the normalization swap; gap <= s_term + kappa_term.
    """
    if ell + 2 > V.bump_count:
        raise ValueError("kappa_ratio_gap needs at least ell + 2 stored bumps")
    lo = V.centers[ell]  # centers are 0-indexed: N_{ell+1} = centers[ell]
    hi = V.centers[ell + 1]
    if not (lo <= x <= hi):
        raise ValueError(f"x = {x} outside the window [{lo}, {hi}]")
    xi = float(xi)
    (alpha,), (beta,) = _shifted(xi, (a,), (b,), x)

    steps = _steps_or_default(steps)
    (s_lo, k_lo), (s_hi, k_hi) = (
        (_kernel_entry(W, alpha, beta, x, steps, walks)[0], _kappa_value(W, xi, x, steps, walks))
        for W, walks in ((V.truncate(ell), {}), (V.truncate(ell + 1), {}))
    )

    r_lo = s_lo / (x * k_lo)
    r_hi = s_hi / (x * k_hi)
    gap = abs(r_lo - r_hi)
    s_term = abs(s_lo - s_hi) / (x * k_hi)
    kappa_term = abs(r_lo) * abs(k_hi - k_lo) / k_hi
    return KappaRatioGap(float(gap), float(s_term), float(kappa_term))
