"""Shared numerical settings."""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULTS", "Settings"]


@dataclass(frozen=True)
class Settings:
    """Integrator and tolerance knobs used across the package.

    steps_per_bump: fixed step count across one unit bump support; it
        counts Magnus steps in the propagation and RK4 steps in
        kernel.cd_quadrature.
    det_tol_per_unit: allowed |det - 1| drift of a transfer matrix,
        per unit of propagated length (floor of one unit), checked once
        when the matrix is constructed.
    root_rel_tol: relative tolerance for eigenvalue refinement; a root
        is accepted once |u'(xi, L)| drops below root_rel_tol times the
        local solution scale sqrt(xi*u^2 + u'^2). That ratio is
        |cos theta| for the phase theta, so |theta - target| <= root_rel_tol
        implies it.
    """

    steps_per_bump: int = 512
    det_tol_per_unit: float = 1e-10
    root_rel_tol: float = 1e-10


DEFAULTS = Settings()
