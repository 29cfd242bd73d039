import math

import numpy as np
import pytest

from steklovlab import (Bargmann1, Bargmann2, GeometricTail, NumericalError,
                        SweepRecord, ValidationError, ZeroForm,
                        build_perturbed_amplitude, emit_records, estimate_radius,
                        fit_holder, holder_exponent, make_spectral_params, run_sweep,
                        steklov_spectrum, system_for_params, wt_from_amplitude)
from steklovlab.stability_harness import _amplitude_gap_sq

from oracles import series_gap_sq_closed_form

PARAMS = make_spectral_params(3, 0.5, 64)
SCALES = [1e-1, 1e-2, 1e-3, 1e-4]


@pytest.fixture(scope="module")
def single_term_records():
    # one coefficient c0 = -s at mu0 = 1; a cheap, fully predictable sweep
    records, dropped = run_sweep(ZeroForm(), [-1.0], None, SCALES, 2.0, PARAMS, M=64)
    assert dropped == []
    return records


def test_single_term_eps_is_half_scale(single_term_records):
    # the gap maximizes at k = 0: eps = s / (2 kappa_0 + mu_0) = s / 2
    for rec, s in zip(single_term_records, SCALES):
        assert rec.eps == pytest.approx(s / 2.0, rel=1e-12)


@pytest.mark.parametrize("base,d,delta", [
    (ZeroForm(), 3, 0.5),
    (Bargmann1(beta=1.0, gamma=0.5), 3, 0.5),
    (Bargmann2(c1=1.0, kappa1=0.5), 5, 0.0),      # kappa_0 = 1.5 > kappa1
    (Bargmann1(beta=1.0, gamma=0.5), 4, -1.0),    # mu_0 = -1: a bound-state term
], ids=["zero", "bargmann1", "bargmann2", "bound-state"])
def test_sweep_eps_is_the_laplace_routes_sup_gap(base, d, delta):
    # the closed form against max_k |sigma~_k - sigma_k| of two Laplace-route
    # spectra, at scales where the subtraction still keeps its digits
    params = make_spectral_params(d, delta, 16)
    coeffs = np.array([-1.0, -0.5, -0.25])
    records, dropped = run_sweep(base, coeffs, None, [1.0, 1e-1, 1e-2, 1e-3],
                                 2.0, params, M=32)
    assert dropped == []
    sigma = steklov_spectrum(
        params, wt_from_amplitude(build_perturbed_amplitude(base, [], params), params.kappa)[0])
    for rec in records:
        amp = build_perturbed_amplitude(base, rec.s * coeffs, params)
        assert (amp.term_mu[0] < 0) == (delta == -1.0)
        sigma_t = steklov_spectrum(params, wt_from_amplitude(amp, params.kappa)[0])
        gap = float(np.max(np.abs(sigma_t - sigma)))
        assert rec.eps == pytest.approx(gap, rel=1e-12, abs=0)


def test_sweep_eps_keeps_the_whole_generator_tail():
    # the generator's cutoff is relative to its own size, so at s = 1e-12 the
    # family is still the s = 1 family scaled, not cut after 3 terms
    rho = 1.0 / 9.0
    records, dropped = run_sweep(ZeroForm(), [], GeometricTail(a=1.0, rho=rho),
                                 [1e-9, 1e-10, 1e-11, 1e-12], 2.0, PARAMS, M=32)
    assert dropped == []
    j = np.arange(400)
    c = -1e-12 * rho ** PARAMS.lam_at(j)
    series = math.fsum(np.abs(c / (2.0 * PARAMS.kappa[0] + PARAMS.mu_at(j))))
    assert records[-1].eps == pytest.approx(series, rel=1e-14, abs=0)


def test_list_family_takes_one_radius_and_one_theta():
    # the estimated radius of s c drifts in its last bit with s (at s = 1e-3
    # here), so a sweep reads the unscaled family's radius at every scale
    coeffs = [-0.7, -0.3]
    params = make_spectral_params(3, 0.5, 8)
    records, dropped = run_sweep(ZeroForm(), coeffs, None, SCALES, 2.0, params, M=64)
    assert dropped == []
    assert {r.theta for r in records} == {holder_exponent(estimate_radius(coeffs, params), params)}


@pytest.mark.parametrize("d,delta", [(3, 0.5), (3, 0.0), (4, -1.0), (5, 1.0)])
@pytest.mark.parametrize("coeffs", [[-1.0], [-1.0, -0.5], [-0.7, 0.0, -0.3, -0.1]],
                         ids=["one", "two", "gapped"])
def test_steklov_gap_is_the_muntz_image_of_the_amplitude_gap(d, delta, coeffs):
    # the paper's two tools agree: on the ladder 2 kappa_k + mu_j = lam_k +
    # lam_j + 1, so the Steklov gaps are g = H c with H the monomial Gram
    # matrix, and C H C^T = I gives ||C g||^2 = c^T H c = a_gap for every
    # K at which the ladder holds all the terms
    from mpmath import mp, mpf
    for K in range(len(coeffs) - 1 or 1, 13):
        params = make_spectral_params(d, delta, K)
        amp = build_perturbed_amplitude(ZeroForm(), coeffs, params)
        g = amp.steklov_gap(params.kappa)
        system = system_for_params(params, K)
        with mp.workprec(system.precision):
            norm_sq = float(mp.fsum(mp.fdot(row, [mpf(x) for x in g[: len(row)]]) ** 2
                                    for row in system.C))
        a_gap = _amplitude_gap_sq(amp, params)
        assert abs(norm_sq - a_gap) <= 1e-14 * a_gap, (K, norm_sq, a_gap)


def test_single_term_monotone_vanishing(single_term_records):
    eps = [r.eps for r in single_term_records]
    qg = [r.q_gap for r in single_term_records]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert all(b < a for a, b in zip(qg, qg[1:]))


def test_single_term_q_gap_linear_in_scale(single_term_records):
    ratios = [r.q_gap / r.s for r in single_term_records]
    assert ratios[-1] == pytest.approx(ratios[-2], rel=5e-3)  # linear limit


def test_amplitude_gap_matches_closed_form(single_term_records, geometric_records):
    for rec in single_term_records:
        expected = series_gap_sq_closed_form([-rec.s], [0.5])  # lam_0 = 1/2
        assert rec.a_gap == pytest.approx(expected, rel=1e-9)
    # geometric tail c_k = -s rho^{lam_k}, lam_k = 2k + 1/2, far past the cutoff
    lams = [2.0 * k + 0.5 for k in range(40)]
    for rec in geometric_records:
        expected = series_gap_sq_closed_form([-rec.s * 9.0**-lam for lam in lams], lams)
        assert rec.a_gap == pytest.approx(expected, rel=1e-9)


def test_amplitude_side_bound_with_fitted_B(single_term_records):
    # fit B at the largest record, then the two-term bound holds below it
    recs = single_term_records
    r0 = recs[0]
    B2 = r0.a_gap / r0.eps  # second term vanishes for R = inf
    for rec in recs[1:]:
        assert rec.a_gap <= B2 * rec.eps * (1 + 1e-9)


@pytest.fixture(scope="module")
def geometric_records():
    records, dropped = run_sweep(ZeroForm(), [], GeometricTail(a=1.0, rho=1.0 / 9.0), SCALES,
                                 2.0, PARAMS, M=64)
    assert dropped == []
    return records


def test_geometric_amplitude_bound_with_fitted_B(geometric_records):
    # fit B^2 at the largest scale so the two-term bound is tight there, then
    # the inequality a_gap <= B^2 eps + R^{1-d-delta} eps^{log R/log(9 M0/2)}
    # holds at every smaller scale
    recs = geometric_records
    R = 9.0
    power = np.log(R) / np.log(4.5 * PARAMS.m0)
    pref = R ** (1.0 - PARAMS.d - PARAMS.delta)
    r0 = recs[0]
    B2 = max(0.0, (r0.a_gap - pref * r0.eps**power) / r0.eps)
    for rec in recs[1:]:
        assert rec.a_gap <= (B2 * rec.eps + pref * rec.eps**power) * (1 + 1e-9)


def test_geometric_p_gap_chain(geometric_records):
    # sup |p - p~| <= C_T f(eps) with f = sqrt(two-term bound), constants
    # fitted at the largest scale
    from steklovlab import build_perturbed_amplitude, GeometricTail
    from steklovlab.gelfand_levitan import p_from_amplitude

    recs = geometric_records
    t = np.linspace(0.0, 4.0, 257)
    p_gaps = []
    for rec in recs:
        amp = build_perturbed_amplitude(ZeroForm(), [], PARAMS,
                                        GeometricTail(a=rec.s, rho=1.0 / 9.0))
        p_gaps.append(float(np.max(np.abs(p_from_amplitude(amp, t)))))
    c_t = p_gaps[0] / np.sqrt(recs[0].bound)
    for gap, rec in zip(p_gaps[1:], recs[1:]):
        assert gap <= c_t * np.sqrt(rec.bound) * (1 + 1e-9)


def test_zero_family_records_are_zero():
    recs, dropped = run_sweep(ZeroForm(), [0.0], None, SCALES, 2.0, PARAMS, M=32)
    assert dropped == []
    for rec in recs:
        assert (rec.eps, rec.q_gap, rec.a_gap, rec.bound) == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        fit_holder(recs)  # no positive gaps to fit


def test_sweep_validations():
    with pytest.raises(ValidationError):
        run_sweep(ZeroForm(), [-1.0], None, [1e-1, 1e-2], 2.0, PARAMS, 32)  # < 3 decades
    with pytest.raises(ValidationError):
        run_sweep(ZeroForm(), [-1.0], None, [1e-4, 1e-1, 1e-2, 1e-3], 2.0, PARAMS, 32)
    with pytest.raises(ValidationError):
        run_sweep(ZeroForm(), [-1.0], None, [-1e-1, 1e-2, 1e-3, 1e-4], 2.0, PARAMS, 32)


def test_sweep_fails_when_family_inadmissible():
    # positive coefficients at every scale
    with pytest.raises(NumericalError, match="fewer than 3 valid records; failures: s=0.1: "):
        run_sweep(ZeroForm(), [1.0], None, SCALES, 2.0, PARAMS, 32)


def _synthetic(eps_list, q_fn, theta=0.5):
    return [SweepRecord(s=e, eps=e, q_gap=q_fn(e), a_gap=0.0, bound=0.0, theta=theta)
            for e in eps_list]


def test_fit_holder_exact_power_law():
    recs = _synthetic([1e-1, 1e-2, 1e-3, 1e-4], lambda e: 2.0 * e)
    for theta in (0.25, 0.5, 1.0):
        fit = fit_holder(recs, theta=theta)
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert fit.verdict == "PASS"
    assert fit_holder(recs, theta=1.0).C_T == pytest.approx(2.0)


def test_fit_holder_detects_violation():
    recs = _synthetic([1e-1, 1e-2, 1e-3, 1e-4], lambda e: e**0.1)
    fit = fit_holder(recs, theta=0.5)
    assert fit.verdict == "FAIL"


def test_fit_holder_requires_spread_and_count():
    with pytest.raises(ValidationError):
        fit_holder(_synthetic([1e-1, 1e-2], lambda e: e))
    with pytest.raises(ValidationError):
        fit_holder(_synthetic([1e-2, 1e-2, 1e-2], lambda e: e))


# --- emission ----------------------------------------------------------------


def test_emit_empty_is_header_only():
    fit = fit_holder(_synthetic([1e-1, 1e-2, 1e-3], lambda e: e))
    lines = emit_records([], fit)
    assert lines[0] == "s,eps,q_gap,a_gap,bound,theta,C_T_running,verdict"
    assert all(ln.startswith("# ") for ln in lines[1:])  # the fit's summary, no rows


def test_emit_rows_and_round_trip():
    recs = _synthetic([1e-1, 1e-2, 1e-3], lambda e: 2.0 * e)
    fit = fit_holder(recs, theta=0.5)
    lines = emit_records(recs, fit=fit)
    assert lines[0].startswith("s,eps,")
    data = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("s,")]
    assert len(data) == 3
    for ln, rec in zip(data, recs):
        cells = ln.split(",")
        assert float(cells[0]) == rec.s        # 17 significant digits round-trip
        assert float(cells[1]) == rec.eps
        assert float(cells[2]) == rec.q_gap
        assert cells[7] == "PASS"
    assert any(ln.startswith("# verdict = PASS") for ln in lines)
