import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovlab import (Amplitude, Bargmann1, GeometricTail, ValidationError,
                        ZeroForm, build_perturbed_amplitude, estimate_radius,
                        holder_exponent, ks_check_normalization,
                        ks_check_positivity, ks_check_quasi_szego,
                        make_spectral_params)
from steklovlab.perturbation import _E_GRID, _maximal_function, _ratio_minus_one


def params(d=3, delta=1.0, K=8):
    return make_spectral_params(d, delta, K)


# --- construction and validation ---------------------------------------------


def test_build_single_resonance_instance():
    # c0 = 2(gamma^2 - beta^2) = -1.5 with mu0 = 2 gamma = 1 (d=3, delta=1/2)
    amp = build_perturbed_amplitude(ZeroForm(), [-1.5], params(delta=0.5))
    assert math.isinf(estimate_radius([-1.5], params(delta=0.5)))
    assert np.allclose(amp.term_mu, [1.0])
    assert np.allclose(amp.term_coeffs, [-1.5])


def test_build_rejects_positive_coefficient():
    with pytest.raises(ValidationError):
        build_perturbed_amplitude(ZeroForm(), [-0.5, 0.1], params())


def test_build_geometric_tail():
    tail = GeometricTail(a=0.01, rho=0.5)
    amp = build_perturbed_amplitude(ZeroForm(), [], params(delta=0.0), tail)
    assert estimate_radius([], params(delta=0.0), tail) == 2.0
    assert amp.term_coeffs[0] == pytest.approx(-0.01)          # -a rho^{lam_0}, lam_0 = 0
    assert amp.term_coeffs[1] == pytest.approx(-0.01 * 0.25)   # lam_1 = 2


def test_generator_cutoff_is_relative():
    # the tail is cut relative to its own size, so a scaled tail keeps every term
    p = params(delta=0.5)
    sizes = [build_perturbed_amplitude(ZeroForm(), [], p, GeometricTail(a=a, rho=1.0 / 9.0))
             .term_coeffs.size for a in (1.0, 1e-8, 1e-16)]
    assert sizes == [10, 10, 10]

    calls = []

    class Counted(GeometricTail):
        def coeff(self, lam_k):
            calls.append(lam_k)
            return super().coeff(lam_k)

    # a zero tail is at the cutoff from its first term on: one look, no terms
    zero = build_perturbed_amplitude(ZeroForm(), [], p, Counted(a=0.0, rho=0.5))
    assert zero.term_coeffs.size == 0 and len(calls) == 1


def test_build_rejects_radius_at_most_one():
    c = [-(1.0) for _ in range(6)]  # flat list: estimated R = 1
    with pytest.raises(ValidationError):
        build_perturbed_amplitude(ZeroForm(), c, params())


def test_estimate_radius_cases():
    p = params(delta=0.0, K=12)
    geometric = [-(1.0 / 3.0) ** lam for lam in p.lam_at(np.arange(8))]
    assert estimate_radius(geometric, p) == pytest.approx(3.0, rel=1e-12)
    assert math.isinf(estimate_radius([-1.0], p))
    assert math.isinf(estimate_radius(np.zeros(5), p))
    factorial = [-1.0 / math.factorial(k) for k in range(12)]
    assert math.isinf(estimate_radius(factorial, p))
    assert estimate_radius([], p, GeometricTail(a=1.0, rho=0.2)) == 5.0


def test_holder_exponent_values():
    p = params(delta=0.0)  # M0 = 2, 9 M0 / 2 = 9
    assert holder_exponent(9.0, p) == pytest.approx(0.5)
    assert holder_exponent(3.0, p) == pytest.approx(0.25)
    assert holder_exponent(100.0, p) == 0.5
    assert holder_exponent(math.inf, p) == 0.5
    with pytest.raises(ValidationError):
        holder_exponent(1.0, p)


# --- spectral measure --------------------------------------------------------


def test_measure_diff_density_value():
    amp = build_perturbed_amplitude(ZeroForm(), [-1.0], params())  # mu0 = 2
    assert amp.density_diff(1.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert amp.point_masses == ()
    assert amp.resonances == (-1.0,)


def test_measure_diff_bound_state():
    amp = build_perturbed_amplitude(ZeroForm(), [-1.0], params(d=5, delta=-2.0))
    assert len(amp.point_masses) == 1
    E, w = amp.point_masses[0]
    assert E == pytest.approx(-1.0)   # -mu0^2/4 with mu0 = -2
    assert w == pytest.approx(1.0)    # -c0 |mu0| / 2


def test_measure_diff_empty():
    amp = build_perturbed_amplitude(ZeroForm(), [], params())
    assert amp.resonances == () and amp.point_masses == ()
    assert np.all(amp.density_diff(_E_GRID) == 0.0)


@settings(max_examples=25)
@given(d=st.integers(3, 7), delta_off=st.floats(0.0, 3.0),
       mags=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=5))
def test_sign_structure_invariant(d, delta_off, mags):
    delta = (3 - d) + delta_off
    p = make_spectral_params(d, delta, 8)
    cs = [-m * 50.0**-k for k, m in enumerate(mags)]
    amp = build_perturbed_amplitude(ZeroForm(), cs, p)
    assert np.all(amp.density_diff(_E_GRID) >= 0.0)
    assert all(w >= 0 for _, w in amp.point_masses)
    assert len(amp.point_masses) == np.count_nonzero(amp.term_mu < 0)
    if delta >= (3 - d) / 2:
        assert amp.point_masses == ()
    lieb_thirring = sum(abs(E) ** 1.5 for E, _ in amp.point_masses)
    assert math.isfinite(lieb_thirring)


@settings(max_examples=25)
@given(alpha=st.floats(0.01, 4.0), mags=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4))
def test_split_form_equals_signed_sum(alpha, mags):
    p = make_spectral_params(5, -2.0, 8)
    cs = [-m * 50.0**-k for k, m in enumerate(mags)]
    amp = build_perturbed_amplitude(ZeroForm(), cs, p)
    direct = sum(c * math.exp(-m * alpha) for c, m in zip(amp.term_coeffs, amp.term_mu))
    assert amp.series_diff(alpha) == pytest.approx(direct, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("base, coeffs, d, delta, gen", [
    (Bargmann1(beta=1.0, gamma=0.5), [], 3, 0.5, GeometricTail(a=1.0, rho=0.8)),
    (ZeroForm(), [-1.0, -0.3], 5, -2.0, None),  # mu_0 = -2: a bound-state term
])
def test_measure_transforms_match_term_loops(base, coeffs, d, delta, gen):
    amp = build_perturbed_amplitude(base, coeffs, params(d=d, delta=delta), gen)
    E = np.logspace(-3.0, 6.0, 97)
    ratio = base.density_ratio_minus_one(E)
    for c, m in zip(amp.term_coeffs, amp.term_mu):
        ratio = ratio - 2.0 * c / (4.0 * E + m**2)
    assert np.allclose(_ratio_minus_one(amp, E), ratio, rtol=1e-13, atol=0.0)
    assert np.allclose(amp.density_diff(E),
                       np.sqrt(E) / math.pi * (ratio - base.density_ratio_minus_one(E)),
                       rtol=1e-13, atol=0.0)

    ks, Ls = np.array([0.9, 1.0, 3.0, 40.0]), 2.0 ** np.arange(-6, 1)
    loop = np.zeros_like(ks)
    for i, k in enumerate(ks):
        for L in Ls[Ls < k]:
            mass = float(base.nu_mass(k, L))
            for c, m in zip(amp.term_coeffs, amp.term_mu):
                mass -= 0.25 * c * math.log((4 * (k + L) ** 2 + m**2) / (4 * (k - L) ** 2 + m**2))
            loop[i] = max(loop[i], mass / (2.0 * L))
    assert np.allclose(_maximal_function(amp, ks, Ls), loop, rtol=1e-13, atol=0.0)


# --- diagnostics -------------------------------------------------------------


def test_positivity_zero_base_admissible():
    amp = build_perturbed_amplitude(ZeroForm(), [-1.0, -0.25], params())
    rep = ks_check_positivity(amp)
    assert rep.passed and rep.min_density >= 0.0


def test_positivity_bargmann_base():
    amp = build_perturbed_amplitude(Bargmann1(beta=1.0, gamma=0.5), [-0.1],
                                    params(delta=0.5))
    rep = ks_check_positivity(amp)
    assert rep.passed and rep.min_density >= 0.0


def test_positivity_detects_injected_violation():
    # bypass the admissibility validation: c0 = +1 at mu0 = 1 flips the density
    # negative for E below (2 c0 - mu0^2)/4
    amp = Amplitude(base=ZeroForm(), term_coeffs=np.array([1.0]),
                    term_mu=params(delta=0.5).mu_at([0]))
    rep = ks_check_positivity(amp)
    assert not rep.passed
    assert rep.min_density < 0.0
    assert rep.argmin_E < 0.25


def test_quasi_szego_zero_case():
    amp = build_perturbed_amplitude(ZeroForm(), [], params())
    rep = ks_check_quasi_szego(amp)
    assert (rep.exponent, rep.residual) == (0.0, 0.0)


def test_quasi_szego_decay_exponents():
    amp = build_perturbed_amplitude(ZeroForm(), [-1.0], params())  # mu0 = 2
    rep = ks_check_quasi_szego(amp)
    assert rep.exponent == pytest.approx(-2.0, abs=0.1)
    base = build_perturbed_amplitude(Bargmann1(beta=1.0, gamma=0.5), [-0.1],
                                     params(delta=0.5))
    rep2 = ks_check_quasi_szego(base)
    assert rep2.exponent == pytest.approx(-2.0, abs=0.1)


def test_normalization_zero_case():
    amp = build_perturbed_amplitude(ZeroForm(), [], params())
    rep = ks_check_normalization(amp)
    assert (rep.exponent, rep.partial_integrals) == (0.0, (0.0,))


def test_normalization_drift_and_convergence():
    amp = build_perturbed_amplitude(ZeroForm(), [-1.0], params())  # mu0 = 2
    rep = ks_check_normalization(amp)
    assert rep.exponent == pytest.approx(-1.0, abs=0.15)
    inc = np.diff(rep.partial_integrals)
    assert np.all(inc > 0) and np.all(np.diff(inc) < 0)  # Cauchy-style convergence
