
import numpy as np
import pytest

from steklovlab import (NumericalError, SteklovSpectrum, SweepRecord,
                        ValidationError, ZeroForm, build_perturbed_amplitude,
                        corollary_gap, dn_gap, emit_records, fit_holder,
                        geometric_family, make_spectral_params, run_sweep,
                        scaled_coeff_family, steklov_spectrum,
                        wt_from_amplitude)

from oracles import series_gap_sq_closed_form

PARAMS = make_spectral_params(3, 0.5, 64)
SCALES = [1e-1, 1e-2, 1e-3, 1e-4]


@pytest.fixture(scope="module")
def single_term_records():
    # one coefficient c0 = -s at mu0 = 1; a cheap, fully predictable sweep
    records, dropped = run_sweep(ZeroForm(), scaled_coeff_family([-1.0]), SCALES, 2.0,
                                 PARAMS, K=64, M=64)
    assert dropped == []
    return records


def test_single_term_eps_is_half_scale(single_term_records):
    # the gap maximizes at k = 0: eps = s / (2 kappa_0 + mu_0) = s / 2
    for rec, s in zip(single_term_records, SCALES):
        assert rec.eps == pytest.approx(s / 2.0, rel=1e-12)


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
    records, dropped = run_sweep(ZeroForm(), geometric_family(1.0 / 9.0), SCALES, 2.0,
                                 PARAMS, K=64, M=64)
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
    recs, dropped = run_sweep(ZeroForm(), scaled_coeff_family([0.0]), SCALES, 2.0,
                              PARAMS, K=16, M=32)
    assert dropped == []
    for rec in recs:
        assert (rec.eps, rec.q_gap, rec.a_gap, rec.bound) == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        fit_holder(recs)  # no positive gaps to fit


def test_sweep_validations():
    fam = scaled_coeff_family([-1.0])
    with pytest.raises(ValidationError):
        run_sweep(ZeroForm(), fam, [1e-1, 1e-2], 2.0, PARAMS, 16, 32)  # < 3 decades
    with pytest.raises(ValidationError):
        run_sweep(ZeroForm(), fam, [1e-4, 1e-1, 1e-2, 1e-3], 2.0, PARAMS, 16, 32)
    with pytest.raises(ValidationError):
        run_sweep(ZeroForm(), fam, [-1e-1, 1e-2, 1e-3, 1e-4], 2.0, PARAMS, 16, 32)


def test_sweep_fails_when_family_inadmissible():
    bad = scaled_coeff_family([1.0])  # positive coefficients at every scale
    with pytest.raises(NumericalError, match="fewer than 3 valid records; failures: s=0.1: "):
        run_sweep(ZeroForm(), bad, SCALES, 2.0, PARAMS, 16, 32)


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


def test_corollary_gap_values():
    sig = SteklovSpectrum(d=3, sigma=np.arange(8.0))
    assert corollary_gap(sig, sig) == 0.0
    shifted = np.arange(8.0)
    shifted[3] += 1e-2
    assert corollary_gap(sig, SteklovSpectrum(d=3, sigma=shifted)) == pytest.approx(1e-2)
    with pytest.raises(ValidationError):
        corollary_gap(sig, SteklovSpectrum(d=4, sigma=shifted))


def test_corollary_gap_equals_dn_eps():
    params = make_spectral_params(3, 1.0, 16)
    base = build_perturbed_amplitude(ZeroForm(), [], params)
    pert = build_perturbed_amplitude(ZeroForm(), [-0.2], params)
    s0 = steklov_spectrum(wt_from_amplitude(base, params.kappa), params, 16)
    s1 = steklov_spectrum(wt_from_amplitude(pert, params.kappa), params, 16)
    gap = dn_gap(s0, s1, 0.0)
    # one term c = -0.2 at mu_0 = 2: the gap is largest at k = 0, 2 kappa_0 = 1
    assert corollary_gap(s0, s1) == pytest.approx(0.2 / 3.0, rel=1e-12, abs=0)
    assert gap.eps == pytest.approx(0.2 / 3.0, rel=1e-12, abs=0)


# --- emission ----------------------------------------------------------------


def test_emit_empty_is_header_only():
    assert emit_records([]) == ["s,eps,q_gap,a_gap,bound,theta,C_T_running,verdict"]


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


def test_emit_without_fit_marks_na():
    recs = _synthetic([1e-1, 1e-2, 1e-3], lambda e: e)
    body = emit_records(recs)
    assert all(ln.split(",")[-1] == "NA" for ln in body[1:])
