"""steklovlab: forward Steklov spectra of radial Schrodinger operators,
resonance-injecting amplitude perturbations, local Gel'fand-Levitan potential
reconstruction, and empirical Holder-stability experiments against exactly
solvable oracles.

Importing the package loads none of its modules: each exported name imports
its own module on first use (PEP 562), so a command loads only what it runs.
"""

import importlib

_EXPORTS = {
    "errors": ("NumericalError", "SteklovError", "ValidationError"),
    "radial_model": ("BallPotential", "Bargmann1", "Bargmann2", "RadialPotential",
                     "SpectralParams", "ZeroForm", "ball_to_halfline", "extend_potential",
                     "halfline_to_ball", "make_spectral_params", "weighted_norm_equivalence"),
    "perturbation": ("Amplitude", "GeometricTail", "build_perturbed_amplitude",
                     "estimate_radius", "ks_check_normalization", "ks_check_positivity",
                     "ks_check_quasi_szego"),
    "weyl_titchmarsh": ("steklov_spectrum", "wt_from_amplitude", "wt_from_ode"),
    "muntz": ("MuntzSeries", "MuntzSystem", "holder_exponent", "muntz_coeff_squares",
              "muntz_coeffs", "still_bound", "system_for_params"),
    "gelfand_levitan": ("GLWorkspace", "p_from_amplitude", "p_prime_from_amplitude",
                        "solve_gl"),
    "stability_harness": ("HolderFit", "SweepRecord", "emit_records", "fit_holder",
                          "run_sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
