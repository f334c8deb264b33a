"""Numerics for sparse bump Schrodinger operators on the half-line.

Builds Pearson-type potentials (widely spaced smooth bumps), evolves
generalized eigenfunctions exactly across gaps and by a fixed-step
fourth-order Magnus map across bumps, computes the continuum
Christoffel-Darboux kernel by three mutually checking routes, enumerates
Neumann eigenvalues of the restricted operators through a monotone
phase, and measures the perturbation bounds behind the sine-kernel and
clock-spacing limits.
"""
from .config import DEFAULTS, Settings
from .potential import (
    BumpProfile,
    HatNSearchError,
    PearsonPotential,
    PotentialSpec,
    canonical_bump,
    empirical_hat_N,
    format_potential_config,
    geometric_schedule,
    parse_potential_config,
    zero_potential,
)
from .propagate import (
    DeterminantDriftError,
    ExtendedState,
    SolutionState,
    TransferMatrix,
    VariationCoeffs,
    bump_transfer,
    extended_neumann,
    free_transfer,
    neumann_solution,
    principal_sqrt,
    propagate_to,
    segments,
    transfer_to,
    variation_coeffs_from_state,
)
from .kernel import (
    Kappa,
    KappaRatioGap,
    KernelEvaluation,
    cd_diagonal,
    cd_formula,
    cd_quadrature,
    kappa,
    kappa_ratio,
    kappa_ratio_gap,
    kernel_ratio,
    rho,
    sine_kernel,
)
from .spectrum import (
    ClockReport,
    DosEstimate,
    EigenvalueWindow,
    ResolutionWarning,
    clock_statistics,
    density_of_states,
    eigenvalue_count,
    eigenvalues_below,
    eigenvalues_near,
    oracle_eigenvalues,
    phase,
)
from .verify import (
    BoundProbe,
    empirical_m_tilde,
    first_half_comparison_ell,
    probe_kappa_schedule,
    probe_one_bump,
    probe_transfer_bound,
    probe_truncation_step,
    staircase_m,
    transfer_norm_sup,
)

__version__ = "0.1.0"
