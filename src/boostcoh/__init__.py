"""Spin coherence of entangled particle pairs under Lorentz boosts.

The package builds the reduced spin density matrices of a two-particle
entangled state seen from boosted frames (one or both particles boosted,
perpendicular to their motion) and evaluates their l1-norm and
Frobenius-norm coherence, cross-checking exact Gauss-Hermite quadrature
against the narrow-packet closed forms.

The names below are imported from their submodule on first use, so
``import boostcoh`` alone loads no numpy; :mod:`boostcoh.cli` relies on this
to choose numpy's BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "BoostParams": "core",
    "DensityMatrix": "core",
    "boost_from_beta": "core",
    "half_angle_perp": "wigner",
    "QuadratureToleranceError": "integrals",
    "gauss_hermite_nodes": "integrals",
    "moments_quadrature": "integrals",
    "f_factor": "integrals",
    "n_bounds": "integrals",
    "rho_single_boost_general": "density",
    "rho_single_boost_perturbative": "density",
    "rho_dual_boost_general": "density",
    "rho_dual_boost_perturbative": "density",
    "c_l1": "coherence",
    "c_frobenius": "coherence",
    "spectrum_single_boost": "coherence",
    "spectrum_dual_boost": "coherence",
    "hermitian_eigenvalues": "coherence",
    "c_frobenius_perturbative": "coherence",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import a public name from its submodule and keep it in the package namespace.

    Any other name raises AttributeError, which lets ``from boostcoh import
    cli`` fall back to importing the submodule.
    """
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
