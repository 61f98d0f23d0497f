"""Spin coherence of entangled particle pairs under Lorentz boosts.

The package builds the reduced spin density matrices of a two-particle
entangled state seen from boosted frames (one or both particles boosted,
perpendicular to their motion) and evaluates their l1-norm and
Frobenius-norm coherence, cross-checking exact Gauss-Hermite quadrature
against the narrow-packet closed forms.
"""

from .core import (
    BoostParams,
    DensityMatrix,
    WavePacket,
    boost_from_beta,
)
from .wigner import (
    WignerTrig,
    half_angle_perp,
)
from .integrals import (
    MomentIntegrals,
    PerturbativeFactor,
    QuadratureToleranceError,
    f_factor,
    gauss_hermite_nodes,
    moments_quadrature,
    n_bounds,
)
from .density import (
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)
from .coherence import (
    JacobiConvergenceError,
    Spectrum,
    c_frobenius,
    c_frobenius_perturbative,
    c_l1,
    hermitian_eigenvalues,
    spectrum_dual_boost,
    spectrum_single_boost,
)

__version__ = "0.1.0"

__all__ = [
    "BoostParams",
    "WavePacket",
    "DensityMatrix",
    "boost_from_beta",
    "WignerTrig",
    "half_angle_perp",
    "MomentIntegrals",
    "PerturbativeFactor",
    "QuadratureToleranceError",
    "gauss_hermite_nodes",
    "moments_quadrature",
    "f_factor",
    "n_bounds",
    "rho_single_boost_general",
    "rho_single_boost_perturbative",
    "rho_dual_boost_general",
    "rho_dual_boost_perturbative",
    "Spectrum",
    "JacobiConvergenceError",
    "c_l1",
    "c_frobenius",
    "spectrum_single_boost",
    "spectrum_dual_boost",
    "hermitian_eigenvalues",
    "c_frobenius_perturbative",
]
