"""Numerics for sparse bump Schrodinger operators on the half-line.

Builds Pearson-type potentials (widely spaced smooth bumps), evolves
generalized eigenfunctions exactly across gaps and by a fixed-step
fourth-order Magnus map across bumps, computes the continuum
Christoffel-Darboux kernel by three mutually checking routes, enumerates
Neumann eigenvalues of the restricted operators through a monotone
phase, and measures the perturbation bounds behind the sine-kernel and
clock-spacing limits.
"""
from os import environ as _environ

# Matrices here are at most 16 x 16, so OpenBLAS worker threads would only spin
# (about 60 ms of a second core once numpy loads); start none unless asked to.
_environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from .config import *  # noqa: E402,F401,F403
from .potential import *  # noqa: E402,F401,F403
from .propagate import *  # noqa: E402,F401,F403
from .kernel import *  # noqa: E402,F401,F403
from .spectrum import *  # noqa: E402,F401,F403
from .verify import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
