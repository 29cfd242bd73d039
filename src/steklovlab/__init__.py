"""steklovlab: forward Steklov spectra of radial Schrodinger operators,
resonance-injecting amplitude perturbations, local Gel'fand-Levitan potential
reconstruction, and empirical Holder-stability experiments against exactly
solvable oracles."""

from .errors import NumericalError, SteklovError, ValidationError
from .radial_model import (BallPotential, Bargmann1, Bargmann2, RadialPotential,
                           SpectralParams, ZeroForm, ball_to_halfline,
                           extend_potential, halfline_to_ball, make_spectral_params,
                           weighted_norm_equivalence)
from .perturbation import (Amplitude, GeometricTail, build_perturbed_amplitude,
                           estimate_radius, holder_exponent,
                           ks_check_normalization, ks_check_positivity,
                           ks_check_quasi_szego, spectral_measure_diff)
from .weyl_titchmarsh import OdeOptions, steklov_spectrum, wt_from_amplitude, wt_from_ode
from .muntz import (MuntzSeries, MuntzSystem, muntz_coeff_squares, muntz_coeffs,
                    still_bound, system_for_params)
from .gelfand_levitan import GLWorkspace, p_from_amplitude, p_prime_from_amplitude, solve_gl
from .stability_harness import HolderFit, SweepRecord, emit_records, fit_holder, run_sweep

__version__ = "0.1.0"
