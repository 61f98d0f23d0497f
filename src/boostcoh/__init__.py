"""Spin coherence of entangled particle pairs under Lorentz boosts.

The package builds the reduced spin density matrices of a two-particle
entangled state seen from boosted frames (one or both particles boosted)
and evaluates their l1-norm and Frobenius-norm coherence, cross-checking
exact Gauss-Hermite quadrature against the narrow-packet closed forms.
"""

from .core import (
    BoostParams,
    DensityMatrix,
    EntangledPairConfig,
    GeometryConfig,
    WavePacket,
    boost_from_beta,
    gamma_half_integer,
    psi_amplitude,
)
from .wigner import (
    WignerHalfAngle,
    WignerTrig,
    half_angle_general,
    half_angle_perp,
    little_group_matrix,
)
from .integrals import (
    MomentIntegrals,
    PerturbativeFactor,
    QuadratureToleranceError,
    f_factor,
    gauss_hermite_nodes,
    i2_bracket_magnitude,
    moments_perturbative,
    moments_quadrature,
    n_bounds,
)
from .density import (
    SpinAmplitudesDual,
    SpinAmplitudesSingle,
    amplitudes_dual,
    amplitudes_single,
    partial_trace,
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)
from .coherence import (
    CoherenceReport,
    JacobiConvergenceError,
    Spectrum,
    c_frobenius,
    c_frobenius_perturbative,
    c_l1,
    coherence_report,
    hermitian_eigenvalues,
    spectrum_dual_boost,
    spectrum_single_boost,
)

__version__ = "0.1.0"

__all__ = [
    "BoostParams",
    "WavePacket",
    "GeometryConfig",
    "EntangledPairConfig",
    "DensityMatrix",
    "boost_from_beta",
    "psi_amplitude",
    "gamma_half_integer",
    "WignerHalfAngle",
    "WignerTrig",
    "half_angle_general",
    "half_angle_perp",
    "little_group_matrix",
    "MomentIntegrals",
    "PerturbativeFactor",
    "QuadratureToleranceError",
    "gauss_hermite_nodes",
    "moments_quadrature",
    "moments_perturbative",
    "f_factor",
    "i2_bracket_magnitude",
    "n_bounds",
    "SpinAmplitudesSingle",
    "SpinAmplitudesDual",
    "amplitudes_single",
    "amplitudes_dual",
    "rho_single_boost_general",
    "rho_single_boost_perturbative",
    "rho_dual_boost_general",
    "rho_dual_boost_perturbative",
    "partial_trace",
    "Spectrum",
    "CoherenceReport",
    "JacobiConvergenceError",
    "c_l1",
    "c_frobenius",
    "spectrum_single_boost",
    "spectrum_dual_boost",
    "hermitian_eigenvalues",
    "c_frobenius_perturbative",
    "coherence_report",
]
