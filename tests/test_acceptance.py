"""Acceptance suite: one test per criterion, each printing a pass line with the
measured figure of merit (run with -s to see them on success)."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from steklovlab import (Bargmann1, Bargmann2, GeometricTail, OdeOptions,
                        ZeroForm, build_perturbed_amplitude, corollary_gap,
                        dn_gap, extend_potential, fit_holder, geometric_family,
                        halfline_to_ball, jost_closed_form,
                        ks_check_normalization, ks_check_positivity,
                        ks_check_quasi_szego, make_spectral_params,
                        perturbation_tail_bound, recover_potential, run_sweep,
                        sample_potential, solve_gl, spectral_measure_diff,
                        steklov_spectrum, system_for_params,
                        weighted_norm_equivalence, wt_from_amplitude,
                        wt_from_ode)
from steklovlab.muntz import muntz_coeff_squares
from steklovlab.quadrature import l2_norm
from steklovlab.radial_model import RadialPotential

from oracles import rational_gram_schmidt

B1 = Bargmann1(beta=1.0, gamma=0.5)
B2 = Bargmann2(c1=1.0, kappa1=0.5)


def _report(n, name, detail):
    print(f"criterion {n} ({name}): PASS [{detail}]")


def test_criterion_1_flat_ball_spectrum():
    t0 = time.perf_counter()
    pot = sample_potential(ZeroForm(), x_max=12.0, n=256)
    opts = OdeOptions(x_max=12.0, tolerance=1e-10)
    worst = 0.0
    for d in (3, 4, 5):
        params = make_spectral_params(d, 0.0, 16)
        spec = steklov_spectrum(wt_from_ode(pot, params.kappa, opts), params, 16)
        worst = max(worst, float(np.max(np.abs(spec.sigma - np.arange(17)))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 1.0
    _report(1, "flat-ball spectrum", f"max |sigma_k - k| = {worst:.2e}, {elapsed:.2f}s")


def _reconstruct(form, M=256, T=2.0, delta=0.5):
    params = make_spectral_params(3, delta, 8)
    amp = build_perturbed_amplitude(form, [], params)
    ws = solve_gl(amp, T, M)
    return recover_potential(ws), ws


def test_criterion_2_bargmann_oracle_1():
    t0 = time.perf_counter()
    q, _ = _reconstruct(B1)
    h = q.grid[1] - q.grid[0]
    exact = B1.potential(q.grid)
    rel = l2_norm(q.values - exact, h) / l2_norm(exact, h)
    q0_err = abs(q.values[0] - (-1.5))
    elapsed = time.perf_counter() - t0
    assert rel <= 1e-3
    assert q0_err <= 1e-4
    assert elapsed < 10.0
    _report(2, "single-resonance well", f"relL2 = {rel:.2e}, |Q(0)+1.5| = {q0_err:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_3_bargmann_oracle_2():
    t0 = time.perf_counter()
    q, _ = _reconstruct(B2)
    h = q.grid[1] - q.grid[0]
    exact = B2.potential(q.grid)
    rel = l2_norm(q.values - exact, h) / l2_norm(exact, h)
    q0_err = abs(q.values[0] - 0.0)  # this well vanishes at the boundary
    elapsed = time.perf_counter() - t0
    assert rel <= 1e-3
    assert q0_err <= 1e-4
    assert elapsed < 10.0
    _report(3, "one-bound-state well", f"relL2 = {rel:.2e}, |Q(0)| = {q0_err:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_4_route_agreement():
    worst = 0.0
    for form in (B1, B2):
        params = make_spectral_params(3, 0.5, 8)
        amp = build_perturbed_amplitude(form, [], params)
        q = recover_potential(solve_gl(amp, 2.0, 256))
        sampled = RadialPotential(grid=q.grid, values=q.values, closed_form=None)
        ext = extend_potential(sampled, form, 14.0)
        for kappa in (1.0, 1.5, 2.5, 5.0):
            ode = wt_from_ode(ext, kappa, OdeOptions(x_max=14.0)).value
            lap = wt_from_amplitude(amp, kappa).value
            worst = max(worst, abs(ode - lap))
    assert worst <= 1e-6
    _report(4, "route agreement", f"max |ODE - Laplace| = {worst:.2e}")


def test_criterion_5_muntz_exactness():
    t0 = time.perf_counter()
    lam = [Fraction(2 * k) for k in range(7)]  # d=3, delta=0
    assert muntz_coeff_squares(lam) == tuple(
        tuple(row) for row in rational_gram_schmidt(lam))
    params = make_spectral_params(3, 0.0, 10)
    system = system_for_params(params, 10, precision=256)
    resid = system.gram_residual()
    elapsed = time.perf_counter() - t0
    assert resid <= 1e-8
    assert elapsed < 5.0
    _report(5, "orthonormalization exactness",
            f"rational match m<=6 exact, gram residual = {resid:.1e}, {elapsed:.1f}s")


def test_criterion_6_holder_stability():
    t0 = time.perf_counter()
    params = make_spectral_params(3, 0.5, 64)
    records, dropped = run_sweep(ZeroForm(), geometric_family(1.0 / 9.0),
                                 [1e-1, 1e-2, 1e-3, 1e-4], 2.0, params, K=64, M=256)
    assert dropped == []
    fit = fit_holder(records, theta=0.5)
    elapsed = time.perf_counter() - t0
    assert fit.verdict == "PASS"
    assert fit.slope >= 0.95
    # explicit restatement of the inequality with the anchored constant
    anchor = max(records, key=lambda r: r.eps)
    c_t = anchor.q_gap / anchor.eps**0.5
    for rec in records:
        assert rec.q_gap <= c_t * rec.eps**0.5 * (1 + 1e-6)
    assert elapsed < 120.0
    _report(6, "Holder stability sweep",
            f"slope = {fit.slope:.4f}, C_T = {c_t:.4f}, {elapsed:.1f}s")


def test_criterion_7_resonance_quantification():
    # mu_0 = 2 gamma = 1 (d=3, delta=1/2): the injected resonance sits exactly
    # at the Jost root -gamma of the closed-form well
    params = make_spectral_params(3, 0.5, 8)
    amp = build_perturbed_amplitude(ZeroForm(), [2 * (0.5**2 - 1.0**2)], params)
    res = spectral_measure_diff(amp).resonances[0]
    assert abs(res - (-0.5)) <= 1e-12
    assert jost_closed_form(B1, res) == 0.0

    params5 = make_spectral_params(5, -2.0, 8)
    amp5 = build_perturbed_amplitude(ZeroForm(), [-1.0], params5)
    masses = spectral_measure_diff(amp5).point_masses
    assert len(masses) == 1
    assert abs(masses[0][0] - (-1.0)) <= 1e-12
    assert abs(masses[0][1] - 1.0) <= 1e-12  # -c0 * |mu_0| / 2 = 1
    _report(7, "resonance quantification",
            f"resonance = {res}, mass = {masses[0]}")


def test_criterion_8_killip_simon_diagnostics():
    params = make_spectral_params(3, 1.0, 8)  # mu_0 = 2
    amp = build_perturbed_amplitude(ZeroForm(), [-1.0], params)
    pos = ks_check_positivity(amp)  # 10^3-point log grid by default
    assert pos.passed and pos.min_density >= 0.0
    qs = ks_check_quasi_szego(amp)  # decay fitted on 1e2 <= E <= 1e6
    assert abs(qs.exponent - (-2.0)) <= 0.1
    norm = ks_check_normalization(amp)
    assert abs(norm.exponent - (-1.0)) <= 0.15
    _report(8, "spectral-measure diagnostics",
            f"min density = {pos.min_density:.2e}, quasi-Szego exponent = "
            f"{qs.exponent:.3f}, maximal-function exponent = {norm.exponent:.3f}")


def test_criterion_9_ball_halfline_identity():
    params = make_spectral_params(3, 0.5, 64)
    T, M = 2.0, 256
    base = build_perturbed_amplitude(ZeroForm(), [], params)
    pert = build_perturbed_amplitude(ZeroForm(), [], params,
                                     generator=GeometricTail(a=0.1, rho=1.0 / 9.0))
    q_base = recover_potential(solve_gl(base, T, M))
    q_pert = recover_potential(solve_gl(pert, T, M))

    ball_base = halfline_to_ball(q_base)
    ball_pert = halfline_to_ball(q_pert)
    half_norm, ball_norm = weighted_norm_equivalence(ball_base, ball_pert, T, n=512)
    rel = abs(half_norm - ball_norm) / half_norm
    assert rel <= 1e-6

    sig0 = steklov_spectrum(wt_from_amplitude(base, params.kappa), params, 64)
    sig1 = steklov_spectrum(wt_from_amplitude(pert, params.kappa), params, 64)
    gap = dn_gap(sig0, sig1, perturbation_tail_bound(pert, params, 64))
    # zero base: sigma~_k - sigma_k = sum_j c_j / (2 kappa_k + mu_j) with
    # c_j = -a rho^(2j + 1/2), mu_j = 2j + 1 and 2 kappa_k = 2k + 1, largest at
    # k = 0, where the series sums to a sqrt(rho) (-log(1 - rho^2)) / (2 rho^2)
    a, rho = 0.1, 1.0 / 9.0
    exact = a * math.sqrt(rho) * -math.log1p(-rho**2) / (2.0 * rho**2)
    assert corollary_gap(sig0, sig1) == pytest.approx(exact, rel=1e-12, abs=0)
    assert gap.eps == pytest.approx(exact, rel=1e-12, abs=0)
    _report(9, "ball/half-line identity",
            f"|half - ball|/half = {rel:.2e}, DN gap = {gap.eps:.6e}")
