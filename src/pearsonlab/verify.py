"""Quantitative bound probes.

The transfer-matrix and perturbation estimates behind the kernel limits
involve constants that are never numeric, so each probe measures the
relevant supremum or scaling law on explicit grids. Linearity claims are
tested as ratio stability across amplitudes rather than as absolute
thresholds. Probes are deterministic given their configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .potential import PearsonPotential, canonical_bump
from .propagate import free_transfer, neumann_solution, transfer_to

__all__ = [
    "BoundProbe",
    "probe_transfer_bound",
    "probe_one_bump",
    "probe_truncation_step",
    "probe_kappa_schedule",
    "transfer_norm_sup",
    "empirical_m_tilde",
    "staircase_m",
]

_VERDICTS = ("pass", "fail", "recorded")

_XI_POINTS = 17  # xi samples in [1/m, m] of the strip probes


@dataclass(frozen=True)
class BoundProbe:
    """One measured bound with its parameters and verdict."""

    lemma_id: str
    parameters: dict
    measured: float
    verdict: str

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


def _norm2(entries: np.ndarray) -> float:
    return float(np.linalg.norm(entries, 2))


def transfer_norm_sup(m: float, x_grid: Sequence[float], t_grid: Sequence[float]) -> float:
    """Sup of the free transfer norm, and so of its inverse, over a strip grid:
    T has unit determinant, so T^-1 is its adjugate, of the same 2-norm.

    Scans xi in [1/m, m] (17-point geometric grid), x in x_grid and
    |t| <= 1 in t_grid, evaluating T(xi + i t/x) from 0 to x.
    """
    if not 1 <= m < math.inf:
        raise ValueError(f"the interval parameter m must be finite and at least 1 (got {m!r})")
    xi_grid = [1.0] if m == 1 else list(np.geomspace(1.0 / m, m, _XI_POINTS))
    worst = 0.0
    for t in t_grid:
        if not abs(t) <= 1.0:
            raise ValueError(f"strip parameter |t| must be at most 1 (got {t!r})")
        for x in x_grid:
            if not 0.0 < x < math.inf:
                raise ValueError(f"strip length x must be positive and finite (got {x!r})")
            for xi in xi_grid:
                arg = xi + 1j * t / x if t != 0.0 else xi
                worst = max(worst, _norm2(free_transfer(arg, 0.0, x).entries))
    return worst


def probe_transfer_bound(m: int, x_grid: Sequence[float], t_grid: Sequence[float]) -> BoundProbe:
    """Empirical strip constant M_m for the free transfer matrix.

    No closed-form reference exists, so the verdict is "recorded".
    """
    measured = transfer_norm_sup(m, x_grid, t_grid)
    return BoundProbe(
        lemma_id="transfer_bound",
        parameters={
            "m": int(m),
            "x_min": float(min(x_grid)),
            "x_max": float(max(x_grid)),
            "x_points": len(x_grid),
            "t_points": len(t_grid),
            "xi_points": _XI_POINTS,
        },
        measured=float(measured),
        verdict="recorded",
    )


@cache
def empirical_m_tilde(m: int) -> float:
    """sqrt(m) times the empirical strip constant M_m, computed once per m.

    M_m is measured on the strip grid x = geomspace(0.5, 200, 13),
    t = -1, -0.5, 0, 0.5, 1.
    """
    x_grid = np.geomspace(0.5, 200.0, 13)
    return math.sqrt(m) * transfer_norm_sup(m, x_grid, (-1.0, -0.5, 0.0, 0.5, 1.0))


# the lengths x at which probe_one_bump compares the free and one-bump maps
_ONE_BUMP_X = (0.25, 0.5, 1.0, 2.0, 5.0)


def _one_bump_difference(lam, xi, x, steps):
    A = free_transfer(xi, 0.0, x).entries
    B = transfer_to(PearsonPotential(canonical_bump(), (lam,), (0.0,)), xi, x, steps=steps).entries
    return _norm2(A - B)


def probe_one_bump(lam: float, xi: float, *, steps: int | None = None) -> BoundProbe:
    """Linearity in lam of the one-bump transfer perturbation.

    Measures sup_x ||A(x) - B(x)|| / |lam| over x in 0.25, 0.5, 1, 2, 5
    (A free, B one canonical bump of amplitude lam) and repeats at lam/10
    and lam/100; the verdict is "pass" when the three constants agree
    within 20 percent.
    """
    if lam == 0.0:
        raise ValueError("the one-bump probe needs a nonzero amplitude")
    constants = [
        max(_one_bump_difference(lam * f, xi, x, steps) for x in _ONE_BUMP_X) / abs(lam * f)
        for f in (1.0, 0.1, 0.01)
    ]
    spread = max(constants) / min(constants)
    return BoundProbe(
        lemma_id="one_bump_linearity",
        parameters={
            "lam": float(lam),
            "xi": float(xi),
            "x_grid": _ONE_BUMP_X,
            "constant_lam": constants[0],
            "constant_lam_over_10": constants[1],
            "constant_lam_over_100": constants[2],
            "spread": float(spread),
        },
        measured=float(constants[0]),
        verdict="pass" if spread <= 1.2 else "fail",
    )


def _state_norm(s) -> float:
    return math.hypot(abs(s.u), abs(s.du))


def _compare_truncations(V, ell, xi, x_grid, steps):
    """Over x_grid, the largest relative (u, u') difference between the ell
    and ell+1 truncations and the smallest ratio of their norms."""
    V_lo = V.truncate(ell)
    V_hi = V.truncate(ell + 1)
    worst = 0.0
    best = math.inf
    for x in x_grid:
        lo = neumann_solution(V_lo, xi, x, steps=steps)
        hi = neumann_solution(V_hi, xi, x, steps=steps)
        diff = math.hypot(hi.u - lo.u, hi.du - lo.du)
        worst = max(worst, diff / _state_norm(lo))
        best = min(best, _state_norm(hi) / _state_norm(lo))
    return worst, best


def probe_truncation_step(
    V: PearsonPotential,
    ell: int,
    xi: float,
    x_grid: Sequence[float],
    *,
    steps: int | None = None,
) -> BoundProbe:
    """Relative eigenfunction change from adding bump ell+1, scaled by its amplitude.

    Measures sup over x_grid of the relative (u, u') difference between the
    ell+1 and ell truncations divided by |lam_{ell+1}|, and checks the ratio
    is stable within 20 percent when the new amplitude shrinks tenfold.
    Also records the smallest norm ratio between the two truncations (the
    one-half comparison used to pass between consecutive levels).
    """
    if ell + 1 > V.bump_count:
        raise ValueError("the truncation probe needs bump ell + 1 to exist")
    lo_edge = V.centers[ell]
    hi_edge = V.centers[ell + 1] if ell + 1 < V.bump_count else math.inf
    for x in x_grid:
        if not (lo_edge <= x <= hi_edge):
            raise ValueError(f"x = {x} outside [{lo_edge}, {hi_edge}]")
    lam = V.amplitudes[ell]
    worst, half_ratio = _compare_truncations(V, ell, xi, x_grid, steps)
    if lam == 0.0:
        measured = 0.0
        spread = 1.0
    else:
        scaled_amps = list(V.amplitudes)
        scaled_amps[ell] = lam / 10.0
        # synthetic comparison potential; the modulus monotonicity of the
        # original schedule no longer applies to it
        V_scaled = PearsonPotential(
            V.profile, tuple(scaled_amps), V.centers, monotone_from=len(scaled_amps)
        )
        c1 = worst / abs(lam)
        c2 = _compare_truncations(V_scaled, ell, xi, x_grid, steps)[0] / abs(scaled_amps[ell])
        measured = c1
        spread = max(c1, c2) / min(c1, c2)
    return BoundProbe(
        lemma_id="truncation_step",
        parameters={
            "ell": int(ell),
            "xi": float(xi),
            "lam_next": float(lam),
            "x_grid": tuple(float(x) for x in x_grid),
            "spread": float(spread),
            "half_comparison_ratio": float(half_ratio),
        },
        measured=float(measured),
        verdict="pass" if spread <= 1.2 else "fail",
    )


def _check_amplitudes(lambda_seq: Sequence[float]) -> None:
    if bad := [lam for lam in lambda_seq if not math.isfinite(lam)]:
        raise ValueError(f"amplitudes must be finite (got {bad[0]!r})")


def staircase_m(lambda_seq: Sequence[float], *, m_max: int = 4) -> list[int]:
    """Nondecreasing interval indices m_n with |lam_n| * m_tilde(m_n)^6 <= 1/m_n.

    Greedy staircase: each m_n is the largest feasible index not below its
    predecessor, where feasibility means |lam_n| <= 1/(m * m_tilde(m)^6)
    with the empirical strip constants. A non-finite amplitude raises ValueError.
    """
    _check_amplitudes(lambda_seq)
    out: list[int] = []
    prev = 1
    for lam in lambda_seq:
        m = prev
        for r in range(m_max, prev - 1, -1):
            if abs(lam) <= 1.0 / (r * empirical_m_tilde(r) ** 6):
                m = r
                break
        out.append(m)
        prev = m
    return out


def probe_kappa_schedule(lambda_seq: Sequence[float], m_seq: Sequence[int]) -> BoundProbe:
    """Decay of |lam_n| * m_tilde(m_n)^6 along the amplitude schedule.

    measured is the largest product over the supplied range (pass callers
    hand in the tail they care about); the verdict is "pass" when the
    product sequence is non-increasing. A non-finite amplitude raises ValueError.
    """
    _check_amplitudes(lambda_seq)
    if len(lambda_seq) != len(m_seq):
        raise ValueError("amplitude and interval sequences must have equal length")
    if len(lambda_seq) == 0:
        raise ValueError("need at least one schedule entry")
    products = [abs(lam) * empirical_m_tilde(int(m)) ** 6 for lam, m in zip(lambda_seq, m_seq)]
    decreasing = all(
        b <= a * (1.0 + 1e-12) for a, b in zip(products, products[1:])
    )
    return BoundProbe(
        lemma_id="kappa_schedule",
        parameters={
            "n_terms": len(products),
            "m_first": int(m_seq[0]),
            "m_last": int(m_seq[-1]),
            "first_product": float(products[0]),
            "last_product": float(products[-1]),
        },
        measured=float(max(products)),
        verdict="pass" if decreasing else "fail",
    )
