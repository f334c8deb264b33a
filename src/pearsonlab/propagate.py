"""Hybrid propagation of half-line Schrodinger solutions.

Solutions of -u'' + V u = xi u are evolved exactly (closed-form transfer
matrices) across potential-free gaps and by a fixed-step fourth-order
Magnus map across bump supports. Each Magnus step is a closed-form 2x2
exponential of a trace-free matrix, so bump maps keep det = 1 to
rounding and come with their xi-derivative in closed form; the steps of
a map are folded together as numpy 4x4 block-triangular products that
carry T and dT/dxi at once. Two folds walk the one stream of per-piece
maps (T, dT/dxi) of _piece_maps: _fold (propagate_to, transfer_to, the
extended walk) and the phase walk of spectrum. It follows one cached plan
per (V, x0, x1, steps) that halves bump pieces too strong for a Prufer
angle to be read off, and holds each map as a 4-tuple of Python scalars:
on 2x2 objects numpy's per-call cost outweighs scalar arithmetic. numpy
stays where it vectorises, in the Magnus steps and the jets below.

A full-bump map T(xi) is entire in xi (Poschel and Trubowitz 1987). Its
Taylor coefficients in xi - xi0 up to degree 15 (the bump's jet) are read
off T at N = 16 points on the circle |xi - xi0| = R = 8 by a fixed
16 x 16 DFT (Lyness and Moler 1967), around centers xi0 on a fixed
lattice of spacing 8 in Re xi and Im xi (real for real xi): the cell of
xi0 = 0 holds every Re xi <= 4 with |Im xi| < 4. Every xi lies within
5.66 < R of its center (a real xi within R/2), aliasing adds only
c_(j+N) R^N to c_j, and a tail check enforces that c_15 R^15 is at
rounding level, so one polynomial evaluation gives T and dT/dxi to
rounding. The coefficients fall off like 1/(2j)! (c_15 R^15 is about
1e-19 for cos sqrt(xi)), and for |lam| up to the full-bump bound 5.57
max |T| on the circle stays in the tens, so the DFT rounds by a few ulps
of it. The circle values fold the Magnus steps as a balanced tree, in
bit-reversed step order and in place. Partial bump pieces are mapped
directly. Jets are cached per lattice cell; a walk builds the power row
of its xi once, and each full bump is one product of that row with the
bump's jet. Walk results have one cache, the extended walk of
_extended_walk, which serves neumann_solution and extended_neumann for
real and complex xi alike, so a sweep that revisits the same (V, xi, x)
propagates it once. Everything here is a pure function of immutable
inputs; with the lattice fixed it is bitwise deterministic for a fixed
step configuration, whatever the call order.
"""
from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .potential import BumpProfile, PearsonPotential, _integer

__all__ = [
    "DeterminantDriftError",
    "SolutionState",
    "TransferMatrix",
    "ExtendedState",
    "principal_sqrt",
    "free_transfer",
    "bump_transfer",
    "transfer_to",
    "segments",
    "propagate_to",
    "neumann_solution",
    "extended_neumann",
]

_EPS = float(np.finfo(float).eps)
_SERIES_CUT = 1e-4  # |z| below which sinc uses its series form
# fixed step count across one unit bump support: Magnus steps in the
# propagation, RK4 steps in kernel.cd_quadrature
STEPS_PER_BUMP = 512
# allowed |det - 1| drift of a transfer matrix per unit of propagated length
# (floor of one unit), checked once when the matrix is constructed
DET_TOL_PER_UNIT = 1e-10


class DeterminantDriftError(RuntimeError):
    """A transfer matrix determinant drifted beyond its tolerance."""


def principal_sqrt(xi: complex | float) -> complex | float:
    """Principal branch square root; requires Re(xi) > 0."""
    re = xi.real if isinstance(xi, complex) else float(xi)
    if not re > 0.0:
        raise ValueError(f"spectral parameter must have positive real part, got {xi!r}")
    if isinstance(xi, complex) and xi.imag != 0.0:
        return cmath.sqrt(xi)
    return math.sqrt(re)


def _as_scalar(xi) -> complex | float:
    """Normalize numpy scalars and real-valued complex to plain float."""
    z = complex(xi)
    if not cmath.isfinite(z):
        raise ValueError(f"spectral parameter must be finite (got {xi!r})")
    return z if z.imag != 0.0 else z.real


def _cos(z):
    return cmath.cos(z) if isinstance(z, complex) else math.cos(z)


def _sin(z):
    return cmath.sin(z) if isinstance(z, complex) else math.sin(z)


def sinc(z):
    """sin(z)/z with a series form near z = 0."""
    if abs(z) < _SERIES_CUT:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return _sin(z) / z


def vercosc(z):
    """(1 - cos z)/z as 2 sin^2(z/2)/z, which does not cancel near z = 0."""
    h = _sin(0.5 * z)
    return 2.0 * h * (h / z) if z else z


# Taylor coefficients of _gcub, sum_{k>=1} (-1)^k 2k z^(2k-2)/(2k+1)!, highest
# first; at |z| < 0.5, where the closed form cancels, 8 terms reach 1e-17
_GCUB_COEFFS = tuple((-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(8, 0, -1))


def _gcub(z, c, sc):
    """(z cos z - sin z)/z^3 (limit -1/3) from c = cos z and sc = sinc z."""
    if abs(z) < 0.5:
        z2, acc = z * z, 0.0
        for coeff in _GCUB_COEFFS:
            acc = acc * z2 + coeff
        return acc
    return (c - sc) / (z * z)


@dataclass(frozen=True)
class SolutionState:
    """The pair (u, u') at position x."""

    u: complex | float
    du: complex | float
    x: float

    def __post_init__(self) -> None:
        for v in (self.u, self.du, self.x):
            if not cmath.isfinite(v):
                raise ValueError(f"a solution state must be finite (got {v!r})")
        if self.u == 0 and self.du == 0:
            raise ValueError("(u, u') must not both vanish")


class ExtendedState(NamedTuple):
    """(u, u') together with the xi-derivative pair (du/dxi, du'/dxi)."""

    u: complex | float
    du: complex | float
    u_xi: complex | float
    du_xi: complex | float
    x: float


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 matrix mapping (u, u') at from_x to (u, u') at to_x.

    The coefficient matrix of the first-order system is trace free, so
    the determinant must stay at 1; construction checks it (_check_det).
    """

    entries: np.ndarray
    from_x: float
    to_x: float

    def __post_init__(self) -> None:
        e = np.asarray(self.entries)
        if e.shape != (2, 2):
            raise ValueError("transfer matrix entries must be 2x2")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        _check_det(e[0, 0] * e[1, 1], e[0, 1] * e[1, 0], self.from_x, self.to_x)

    def det(self) -> complex | float:
        e = self.entries
        return e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]


def _check_det(ad, bc, x0: float, x1: float) -> None:
    """Raise DeterminantDriftError unless |ad - bc - 1| (NaN included) is
    within DET_TOL_PER_UNIT per unit of [x0, x1] (floor one unit)."""
    # plus 4 eps (|ad| + |bc|): ad - bc itself rounds by that much, which
    # outgrows the budget for the large entries of long complex-xi transfers
    tol = DET_TOL_PER_UNIT * max(1.0, abs(x1 - x0)) + 4.0 * _EPS * (abs(ad) + abs(bc))
    drift = abs(ad - bc - 1.0)
    if not drift <= tol:
        raise DeterminantDriftError(f"|det - 1| = {drift:.3e} over [{x0}, {x1}] exceeds {tol:.3e}")


def _free_maps(xi, s, x0: float, x1: float):
    """(T, dT/dxi) in closed form across a potential-free [x0, x1], x0 <= x1 floats,
    at normalised xi, s = sqrt(xi), as row-major 4-tuples; T passes the determinant
    check. Entries grow like exp(|Im s| (x1 - x0)); ValueError names xi and the
    stretch where they or their products overflow."""
    d = x1 - x0
    z = s * d
    try:
        c, sc = _cos(z), sinc(z)
        t12, t21 = d * sc, -xi * d * sc
        ad, bc = c * c, t12 * t21
        if not (cmath.isfinite(ad) and cmath.isfinite(bc)):
            raise OverflowError
    except OverflowError:
        raise ValueError(
            f"the free transfer at xi = {xi!r} overflows across [{x0!r}, {x1!r}]") from None
    _check_det(ad, bc, x0, x1)
    d11 = -0.5 * d * d * sc
    return (c, t12, t21, c), (d11, 0.5 * d * d * d * _gcub(z, c, sc), -0.5 * d * (sc + c), d11)


def free_transfer(xi, x0: float, x1: float) -> TransferMatrix:
    """Closed-form transfer across a potential-free stretch [x0, x1]."""
    x0, x1 = float(x0), float(x1)
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"free transfer endpoints must be finite (got {x0!r} and {x1!r})")
    if x1 < x0:
        raise ValueError("free transfer requires x1 >= x0")
    xi = _as_scalar(xi)
    return TransferMatrix(np.reshape(_free_maps(xi, principal_sqrt(xi), x0, x1)[0], (2, 2)), x0, x1)


# -- bump maps ---------------------------------------------------------------

_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_EXP_SERIES_CUT = 1e-2  # |mu^2| below which the step exponential uses series forms


def _steps_or_default(steps: int | None) -> int:
    n = STEPS_PER_BUMP if steps is None else _integer("steps", steps, -math.inf)
    if n < 16:
        raise ValueError("bump integration requires at least 16 steps")
    return n


def _is_full_bump(la: float, lb: float) -> bool:
    return la <= 1e-12 and lb >= 1.0 - 1e-12


@lru_cache(maxsize=256)
def _gauss_samples(profile: BumpProfile, la: float, lb: float, steps: int):
    """W at both Gauss nodes of each step on [la, lb], the step, and the Gauss integral of W."""
    n = max(1, math.ceil(steps * (lb - la) - 1e-9))
    h = (lb - la) / n
    w1, w2 = (np.array([profile.evaluate(la + (i + g) * h) for i in range(n)]) for g in _GAUSS)
    for w in (w1, w2):
        w.setflags(write=False)
    return w1, w2, h, 0.5 * h * float(w1.sum() + w2.sum())


def _exp_coeffs(m):
    """cosh(r) and sinh(r)/r at r = sqrt(m), entrywise.

    Both are entire in m; small |m| takes their Taylor series. The series
    is evaluated everywhere, the closed form only where |m| >= _EXP_SERIES_CUT.
    The series multiply by 1/k: numpy divides a complex array by k + 0j
    with Smith's rule, exactly the product with 1/k at about six times its
    cost, so complex values equal the quotient form m / k bit for bit
    (real ones can differ from it by one ulp in rare cases).
    """
    ch = 1.0 + m * (1 / 2) * (1.0 + m * (1 / 12) * (1.0 + m * (1 / 30) * (1.0 + m * (1 / 56))))
    sh = 1.0 + m * (1 / 6) * (1.0 + m * (1 / 20) * (1.0 + m * (1 / 42) * (1.0 + m * (1 / 72))))
    big = np.abs(m) >= _EXP_SERIES_CUT
    if big.any():
        r = np.sqrt(m[big].astype(complex))
        chb, shb = np.cosh(r), np.sinh(r) / r
        if not np.iscomplexobj(m):
            chb, shb = chb.real, shb.real
        ch[big], sh[big] = chb, shb
    return ch, sh


def _dsinhc(m, ch, sh):
    """d/dm of sinh(r)/r at r = sqrt(m) from _exp_coeffs(m) = (ch, sh): the
    Taylor series, which avoids the cancellation of the closed form
    (ch - sh)/(2m), below _EXP_SERIES_CUT."""
    dsh = (1.0 + m / 10 * (1.0 + m / 28 * (1.0 + m / 54))) / 6.0
    big = np.abs(m) >= _EXP_SERIES_CUT
    if big.any():
        dsh[big] = (ch[big] - sh[big]) / (2.0 * m[big])
    return dsh


def _magnus_map(profile: BumpProfile, lam: float, xi, la: float, lb: float, steps: int):
    """Transfer matrix T across [la, lb] of one bump and its derivative dT/dxi.

    Each step is the two-point Gauss Magnus step of order four. With
    q = lam*W - xi at the nodes (q1, q2) and qbar their mean, the step
    exponent is Omega = [[c, h], [h*qbar, -c]], c = (sqrt(3)/12) h^2 (q1 - q2),
    and exp(Omega) = cosh(mu) I + (sinh(mu)/mu) Omega with mu^2 = c^2 + h^2 qbar.
    Omega is trace free, so every step has unit determinant up to rounding;
    dOmega/dxi = [[0, 0], [-h, 0]] gives the step derivative in closed form.
    Each step S is stored as the 4x4 block [[S, 0], [dS/dxi, S]]; by the
    product rule the lower-left block of a product of such blocks is the
    derivative of the product, so one matmul per level of a balanced tree
    (earlier steps on the right) folds T and dT/dxi together.
    """
    w1, w2, h, _ = _gauss_samples(profile, la, lb, steps)
    c = (math.sqrt(3.0) / 12.0 * h * h * lam) * (w1 - w2)
    qbar = 0.5 * lam * (w1 + w2) - xi
    m = c * c + h * h * qbar
    ch, sh = _exp_coeffs(m)
    # d(mu^2)/dxi = -h^2 and d cosh(mu) / d(mu^2) = sinh(mu) / (2 mu)
    dch = -0.5 * h * h * sh
    dsh = -h * h * _dsinhc(m, ch, sh)
    M = np.zeros((len(c), 4, 4), dtype=ch.dtype)
    M[:, 0, 0] = M[:, 2, 2] = ch + sh * c
    M[:, 0, 1] = M[:, 2, 3] = sh * h
    M[:, 1, 0] = M[:, 3, 2] = sh * h * qbar
    M[:, 1, 1] = M[:, 3, 3] = ch - sh * c
    M[:, 2, 0] = dch + dsh * c
    M[:, 2, 1] = dsh * h
    M[:, 3, 0] = dsh * h * qbar - sh * h
    M[:, 3, 1] = dch - dsh * c
    while len(M) > 1:
        if len(M) % 2:
            M = np.concatenate((M, np.eye(4)[None]))
        M = M[1::2] @ M[0::2]
    M.setflags(write=False)
    return M[0, :2, :2], M[0, 2:, :2]


# Full-bump jets; the module docstring justifies these constants.
_JET_SPACING = 8.0  # lattice spacing of the centers xi0, along Re xi and Im xi
_JET_RADIUS = 8.0  # R, radius of the circle the coefficients are read from
_JET_POINTS = 16  # N, points on the circle and terms of the polynomial
_JET_TAIL_TOL = 1e-12  # largest accepted |c_(N-1)| R^(N-1) / max |c_0|
_ROOTS = [cmath.exp(2j * math.pi * k / _JET_POINTS) for k in range(_JET_POINTS)]
# _jet_powers rows: factor * delta ** exponent gives delta^j and j delta^(j-1)
_ROW_FACTORS = np.array([[1.0] * _JET_POINTS, range(_JET_POINTS)], dtype=float)
_ROW_EXPONENTS = np.array([range(_JET_POINTS), [0, *range(_JET_POINTS - 1)]], dtype=float)
# c_j = (1/N) sum_k T(xi0 + R w^k) w^(-jk) / R^j
_DFT = np.array([[_ROOTS[-j * k % _JET_POINTS] / (_JET_POINTS * _JET_RADIUS**j)
                   for k in range(_JET_POINTS)] for j in range(_JET_POINTS)])


def _lattice_point(xi):
    """The jet center nearest to xi; real while |Im xi| < 4."""
    re = _JET_SPACING * round(xi.real / _JET_SPACING)
    im = _JET_SPACING * round(xi.imag / _JET_SPACING)
    return complex(re, im) if im else re


@lru_cache(maxsize=16)
def _tree_samples(profile: BumpProfile, steps: int):
    """_gauss_samples of the full bump in bit-reversed step order, padded to a power
    of two with copies of step 0 (identity steps in the fold), and the pads as slices."""
    w1, w2, h, _ = _gauss_samples(profile, 0.0, 1.0, steps)
    n, order, pads = len(w1), [0], []
    while len(order) < n:
        order = [2 * i for i in order] + [2 * i + 1 for i in order]
    index = np.array([i if i < n else 0 for i in order])
    w1, w2 = w1[index], w2[index]
    for w in (w1, w2):
        w.setflags(write=False)
    # the padded steps n, n + 1, ... in aligned blocks: the b = 2^k steps from a
    # multiple of b lie len(order) / b positions apart in bit-reversed order
    while n < len(order):
        pads.append(slice(order[n], None, len(order) // (n & -n)))
        n += n & -n
    return w1, w2, h, tuple(pads)


def _circle_values(profile: BumpProfile, lam: float, steps: int, xi0):
    """Full-bump T at the points xi0 + R w^k, one row (T11, T12, T21, T22) each.

    The Gauss Magnus steps of _magnus_map without the derivative, folded for
    all points at once as the same balanced tree, in bit-reversed order and in
    place: each level folds the second half of S into the first. T has real
    Taylor coefficients, so for real xi0 only the upper half circle is folded.
    """
    half = _JET_POINTS // 2
    z = np.array([xi0 + _JET_RADIUS * w for w in _ROOTS])
    if not isinstance(xi0, complex):
        z = z[: half + 1]
    w1, w2, h, pads = _tree_samples(profile, steps)
    c = ((math.sqrt(3.0) / 12.0 * h * h * lam) * (w1 - w2))[:, None]
    qbar = (0.5 * lam * (w1 + w2))[:, None] - z
    ch, sh = _exp_coeffs(c * c + h * h * qbar)
    # S[:, r, k] holds the entries at point k of the step at position r;
    # written in place, which keeps the peak memory of a jet build down
    S = np.empty((4,) + ch.shape, dtype=complex)
    np.multiply(sh, h, out=S[1])
    np.multiply(S[1], qbar, out=S[2])
    np.multiply(sh, c, out=S[3])
    np.add(ch, S[3], out=S[0])
    np.subtract(ch, S[3], out=S[3])
    for pad in pads:
        S[:, pad] = np.array([1.0, 0.0, 0.0, 1.0])[:, None, None]
    n = len(w1)
    scratch = [t.reshape(2, n // 2, len(z)) for t in (ch, sh, qbar)]  # spent once S is built
    while n := n // 2:  # rows x0 = (a0, b0) and y0 = (c0, d0) <- (a1 x0 + b1 y0, c1 x0 + d1 y0)
        x0, y0, (a1, b1, c1, d1) = S[:2, :n], S[2:, :n], S[:, n : 2 * n]
        u, v, w = (t[:, :n] for t in scratch)
        np.multiply(a1, x0, out=u)
        np.multiply(b1, y0, out=v)
        np.multiply(c1, x0, out=w)
        np.add(u, v, out=x0)
        np.multiply(d1, y0, out=v)
        np.add(w, v, out=y0)
    T = S[:, 0].T
    return T if len(T) == _JET_POINTS else np.concatenate((T, T[half - 1 : 0 : -1].conj()))


def _check_tail(coefs: np.ndarray, lam: float, xi0) -> None:
    """Reject a jet whose last term is not negligible on the circle (NaN included)."""
    tail = np.abs(coefs[-1]).max() * _JET_RADIUS ** (_JET_POINTS - 1)
    if not tail <= _JET_TAIL_TOL * np.abs(coefs[0]).max():
        raise RuntimeError(f"bump map jet did not converge for lam = {lam} around xi0 = {xi0}")


@lru_cache(maxsize=1024)
def _bump_jet(profile: BumpProfile, lam: float, steps: int, xi0) -> np.ndarray:
    """Taylor coefficients in xi - xi0 of the full-bump T, one row per power.

    The DFT is applied as real matrix products on real and imaginary parts
    (complex ones measurably raised the peak memory of a run); for real
    xi0 the coefficients are real.
    """
    T = _circle_values(profile, lam, steps, xi0)
    coefs = _DFT.real @ T.real - _DFT.imag @ T.imag
    if isinstance(xi0, complex):
        coefs = coefs + 1j * (_DFT.real @ T.imag + _DFT.imag @ T.real)
    _check_tail(coefs, lam, xi0)
    coefs.setflags(write=False)
    return coefs


def _jet_powers(delta) -> np.ndarray:
    """The rows delta^j and j delta^(j-1) whose product with a jet at xi0 gives
    (T, dT/dxi) at xi0 + delta, each row-major."""
    return _ROW_FACTORS * delta ** _ROW_EXPONENTS


def bump_transfer(
    profile: BumpProfile, lam: float, xi, steps: int | None = None
) -> TransferMatrix:
    """Transfer matrix across one bump support, by fixed-step Magnus on [0, 1].

    Maps (u, u') at the left edge of the support to (u, u') at the right
    edge for -u'' + lam*W u = xi u; its columns are the Neumann-like and
    Dirichlet-like basis solutions across the bump. It is evaluated from
    the bump's xi-jet, built once per (profile, lam, steps) and lattice
    cell; the evaluation itself is not cached. A lam that is not finite
    raises ValueError before any jet is built.
    """
    xi, lam, steps = _as_scalar(xi), float(lam), _steps_or_default(steps)
    if not math.isfinite(lam):
        raise ValueError(f"bump amplitude must be finite (got lam = {lam!r})")
    xi0 = _lattice_point(xi)
    T = (_jet_powers(xi - xi0) @ _bump_jet(profile, lam, steps, xi0))[0]
    return TransferMatrix(np.reshape(T, (2, 2)), 0.0, 1.0)


# -- segment walking --------------------------------------------------------


def segments(V: PearsonPotential, x0: float, x1: float):
    """Partition (x0, x1] into free gaps and bump-support pieces.

    Yields ("free", a, b) and ("bump", a, b, k) tuples in increasing
    order; bump pieces may cover only part of the support [N_k, N_k+1].
    """
    p = float(x0)
    end = float(x1)
    if not (math.isfinite(p) and math.isfinite(end)):
        raise ValueError(f"segment endpoints must be finite (got {x0!r} and {x1!r})")
    if end < p:
        raise ValueError("segment walk requires x1 >= x0")
    tol = 1e-12 * max(1.0, abs(end))
    out = []
    centers = V.centers
    k = bisect_right(centers, p - 1.0)
    n = len(centers)
    while p < end - tol and k < n:
        c = centers[k]
        if c >= end:
            break
        if p < c - tol:
            out.append(("free", p, c))
            p = c
        b = min(c + 1.0, end)
        if b > p + tol:
            out.append(("bump", max(p, c), b, k))
            p = b
        k += 1
    if p < end - tol:
        out.append(("free", p, end))
    return out


def _bump_pieces(profile: BumpProfile, lam: float, la: float, lb: float, steps: int):
    """[la, lb] of one bump as (la, lb, lam, lam int W, full) pieces, halved
    while lb - la + |lam| int W >= pi; full marks the whole support [0, 1]."""
    w = lam * _gauss_samples(profile, la, lb, steps)[3]
    if lb - la + abs(w) < math.pi:
        return ((la, lb, lam, w, _is_full_bump(la, lb)),)
    mid = 0.5 * (la + lb)
    return _bump_pieces(profile, lam, la, mid, steps) + _bump_pieces(profile, lam, mid, lb, steps)


@lru_cache(maxsize=256)
def _plan(V: PearsonPotential, x0: float, x1: float, steps: int) -> tuple:
    """The pieces of segments(V, x0, x1) as _piece_maps walks them: free gaps
    (a, b), and the bump pieces of _bump_pieces."""
    plan = []
    for seg in segments(V, x0, x1):
        if seg[0] == "free":
            plan.append(seg[1:])
            continue
        _, a, b, k = seg
        c, lam = V.centers[k], V.amplitudes[k]
        la, lb = (0.0, 1.0) if _is_full_bump(a - c, b - c) else (a - c, b - c)
        plan += _bump_pieces(V.profile, lam, la, lb, steps)
    return tuple(plan)


def _piece_maps(V: PearsonPotential, xi, x0: float, x1: float, steps: int):
    """(T, dT/dxi, length, lam int W) for each piece of (x0, x1], in walking order.

    T and dT/dxi are row-major 4-tuples of Python scalars: the walks fold
    them in scalar arithmetic, several times cheaper than 2 x 2 numpy products.
    The pieces are those of _plan(V, x0, x1, steps); lam int W is None on
    free gaps. A bump piece of length d is halved until d + |lam| int W < pi.
    For any xi > 0 and sigma = max(1, sqrt(xi)) the Prufer angle of scale
    sigma then turns across each piece by ((sigma^2 + xi) d - lam int W)/(2 sigma)
    give or take (|sigma^2 - xi| d + |lam| int W)/(2 sigma) < pi/2, so a
    walker can read its branch off the piece's T. A walk forms sqrt(xi) and the
    jet power row of xi once; each full bump is one product of that row with its jet.
    """
    xi = _as_scalar(xi)
    s = powers = None
    for piece in _plan(V, x0, x1, steps):
        if len(piece) == 2:
            s = principal_sqrt(xi) if s is None else s
            yield (*_free_maps(xi, s, *piece), piece[1] - piece[0], None)
            continue
        la, lb, lam, w, full = piece
        if full and powers is None:
            xi0 = _lattice_point(xi)
            powers = _jet_powers(xi - xi0)
        T, D = ((powers @ _bump_jet(V.profile, lam, steps, xi0)).tolist() if full
                else (m.ravel().tolist() for m in _magnus_map(V.profile, lam, xi, la, lb, steps)))
        yield tuple(T), tuple(D), lb - la, w


def _fold(V: PearsonPotential, xi, x0: float, x1: float, steps: int, u, du):
    """(u, u', v, v') at x1 from (u, u') and (v, v') = (0, 0) at x0; each piece
    maps v -> T v + dT/dxi (u, u'). A walk that overflows, real or complex,
    though each piece stays finite, raises ValueError naming xi and the stretch."""
    v, dv = 0.0, 0.0
    for (a, b, c, d), (e, f, g, h), *_ in _piece_maps(V, xi, x0, x1, steps):
        v, dv = (a * v + b * dv) + (e * u + f * du), (c * v + d * dv) + (g * u + h * du)
        u, du = a * u + b * du, c * u + d * du
    if not all(map(cmath.isfinite, (u, du, v, dv))):
        raise ValueError(f"the walk at xi = {xi!r} overflows between {x0!r} and {x1!r}")
    return u, du, v, dv


def propagate_to(
    V: PearsonPotential, xi, target: float, state: SolutionState, *, steps: int | None = None
) -> SolutionState:
    """Evolve (u, u') from state.x to target through gaps and bumps."""
    steps = _steps_or_default(steps)
    if target < state.x:
        raise ValueError("propagation target must not precede the current position")
    xi = _as_scalar(xi)
    u, du = (complex(state.u), complex(state.du)) if isinstance(xi, complex) else (state.u, state.du)
    u, du, _, _ = _fold(V, xi, state.x, target, steps, u, du)
    return SolutionState(u, du, float(target))


def neumann_solution(
    V: PearsonPotential, xi, x: float, *, steps: int | None = None
) -> SolutionState:
    """Solution with u(0) = 1, u'(0) = 0 evaluated at x.

    The pair is read off the cached extended walk, the one walk cache of
    real and complex xi alike, folded by _fold as propagate_to folds it.
    The key is normalised first, so numpy and plain scalars, and
    steps=None and the default count, share one entry.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("the solution lives on the half-line")
    walk = _extended_walk(V, _as_scalar(xi), x, _steps_or_default(steps))
    return SolutionState(walk.u, walk.du, x)


def transfer_to(
    V: PearsonPotential, xi, x: float, *, steps: int | None = None
) -> TransferMatrix:
    """Full transfer matrix of the potential from 0 to x."""
    steps = _steps_or_default(steps)
    xi = _as_scalar(xi)
    t11, t21, _, _ = _fold(V, xi, 0.0, x, steps, 1.0, 0.0)
    t12, t22, _, _ = _fold(V, xi, 0.0, x, steps, 0.0, 1.0)
    dtype = complex if isinstance(xi, complex) else float
    return TransferMatrix(np.array([[t11, t12], [t21, t22]], dtype=dtype), 0.0, float(x))


# -- xi-derivative propagation ------------------------------------------------


def extended_neumann(
    V: PearsonPotential, xi, x: float, *, steps: int | None = None
) -> ExtendedState:
    """Neumann solution with its xi-derivative pair, for real xi.

    The derivative pair v obeys v'' = (V - xi) v - u and starts at (0, 0),
    since the boundary data is xi-independent (see _fold). It is the
    cached walk that neumann_solution reads its pair from.
    """
    xi = _as_scalar(xi)
    if isinstance(xi, complex):
        raise ValueError("extended propagation is defined for real xi only")
    return _extended_walk(V, xi, float(x), _steps_or_default(steps))


@lru_cache(maxsize=4096)
def _extended_walk(V: PearsonPotential, xi, x: float, steps: int) -> ExtendedState:
    """The one cached walk of an argument, real or complex, per (V, xi, x, steps)."""
    return ExtendedState(*_fold(V, xi, 0.0, x, steps, 1.0, 0.0), x)
