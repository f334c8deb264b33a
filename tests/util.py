"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import cmath
import math

import numpy as np
from hypothesis import strategies as st

import pearsonlab as pl


def _flat_value(x: float) -> float:
    return 1.0 if 0.0 < x < 1.0 else 0.0


# W = 1 on (0, 1): every Gauss node of a Magnus step sees W = 1, so each step,
# and so each bump map, is the exact constant-coefficient map up to rounding
FLAT = pl.BumpProfile(name="flat", evaluate=_flat_value, sup_norm=1.0)


def flat_canonical() -> pl.PearsonPotential:
    """The canonical schedule on the flat profile: amplitudes n^(-1/4), centres 10^n."""
    return pl.PearsonPotential(
        FLAT, tuple((n + 1) ** -0.25 for n in range(12)), tuple(10.0 ** (n + 1) for n in range(12)))


def flat_map(lam: float, xi, length: float = 1.0) -> np.ndarray:
    """The exact (u, u') map in double across a stretch of length d where V = lam:
    [[cos kd, sin(kd)/k], [-k sin kd, cos kd]] with k = sqrt(xi - lam), and its
    limit [[1, d], [0, 1]] at k = 0. At lam = 0 and real xi the angle kd is
    fl(fl(sqrt(xi)) d), rounded as the walks round it."""
    k = cmath.sqrt(xi - lam)
    z = k * length
    c, s = cmath.cos(z), cmath.sin(z)
    T = np.array([[c, s / k if k else length], [-k * s, c]])
    return T if isinstance(xi, complex) else T.real


def one_bump(lam: float = 0.5, center: float = 10.0) -> pl.PearsonPotential:
    return pl.PearsonPotential(pl.canonical_bump(), (lam,), (center,))


def two_bump() -> pl.PearsonPotential:
    return pl.PearsonPotential(pl.canonical_bump(), (0.5, 0.25), (10.0, 100.0))


def strong_train() -> pl.PearsonPotential:
    """150 bumps of amplitude 40, 3 apart from 10. At xi = 0.01 the real
    Neumann pair grows past 2^64 by x = 100 and to about 5.8e201 at 300,
    where products of its entries overflow; by x = 470 it is NaN."""
    return pl.PearsonPotential(pl.canonical_bump(), (40.0,) * 150, tuple(10.0 + 3 * i for i in range(150)))


@st.composite
def bump_potentials(draw):
    """One or two canonical bumps, lambda in [-6, 40], inside [0, 200]."""
    count = draw(st.integers(1, 2))
    amps = tuple(draw(st.floats(-6.0, 40.0)) for _ in range(count))
    centers = [draw(st.floats(0.0, 100.0))]
    if count == 2:
        centers.append(centers[0] + draw(st.floats(1.5, 99.0)))
    return pl.PearsonPotential(pl.canonical_bump(), amps, tuple(centers), monotone_from=count)


@st.composite
def cell_edge_pairs(draw):
    """(xi, zeta) on the two sides of a jet cell edge 4 + 8k, k in {0, 1}.

    Each lies at least 5e-4 from the edge, so the pair stays clear of the
    near-diagonal reroute of cd_formula.
    """
    edge = 4.0 + 8.0 * draw(st.integers(0, 1))
    offsets = st.floats(5e-4, 0.249)
    return edge - draw(offsets), edge + draw(offsets)


def monolithic_rk4(V: pl.PearsonPotential, xi: float, x_end: float, n_steps: int,
                   u0: float = 1.0, du0: float = 0.0):
    """Single fine-step RK4 over [0, x_end], sampling V pointwise.

    Deliberately ignorant of the gap/bump structure; serves as an
    independent oracle for the hybrid propagation.
    """
    h = x_end / n_steps
    u, du = u0, du0

    def f(x, y):
        q = V.evaluate(x) - xi
        return np.array([y[1], q * y[0]])

    y = np.array([u, du], dtype=float)
    for i in range(n_steps):
        x0 = i * h
        k1 = f(x0, y)
        k2 = f(x0 + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(x0 + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(x0 + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return y[0], y[1]


def sinc(z: float) -> float:
    return 1.0 if z == 0.0 else math.sin(z) / z


def free_kernel(xi: float, zeta: float, L: float) -> float:
    """Closed-form free kernel int_0^L cos(sqrt(xi) r) cos(sqrt(zeta) r) dr."""
    w1, w2 = math.sqrt(xi), math.sqrt(zeta)
    m, p = (w1 - w2) * L, (w1 + w2) * L
    return 0.5 * L * (sinc(m) + sinc(p))


def free_kernel_ratio(xi: float, a: float, b: float, L: float) -> float:
    return free_kernel(xi + a / L, xi + b / L, L) / free_kernel(xi, xi, L)


def free_kappa_ratio(xi: float, a: float, b: float, x: float) -> float:
    """Free normalized ratio S_x(xi+a/x, xi+b/x) / (x * 1/2)."""
    return free_kernel(xi + a / x, xi + b / x, x) / (0.5 * x)
