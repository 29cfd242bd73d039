import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovlab import (Bargmann1, Bargmann2, NumericalError, OdeOptions,
                        ValidationError, ZeroForm, build_perturbed_amplitude,
                        dn_gap, jost_closed_form, make_spectral_params,
                        perturbation_tail_bound, sample_potential,
                        steklov_spectrum, wt_from_amplitude, wt_from_ode)
from steklovlab.radial_model import SteklovSpectrum
from steklovlab.weyl_titchmarsh import _CHUNK, _MAX_HALVINGS, _STEP, _m_fixed_step

from oracles import laplace_of_series, m_fixed_step_loop

B1 = Bargmann1(beta=1.0, gamma=0.5)
B2 = Bargmann2(c1=1.0, kappa1=0.5)


def _amp(base, coeffs, d=3, delta=1.0, K=8, gen=None):
    return build_perturbed_amplitude(base, coeffs, make_spectral_params(d, delta, K), gen)


# --- ODE route ---------------------------------------------------------------


def test_ode_free_potential_exact():
    pot = sample_potential(ZeroForm(), x_max=12.0, n=128)
    ev = wt_from_ode(pot, 1.5, OdeOptions(x_max=12.0))
    assert ev.value == pytest.approx(-1.5, abs=1e-12)
    assert ev.est_error <= 1e-12


def test_ode_bargmann1_closed_value():
    # Laplace algebra gives M(-1) = -1 - (gamma^2 - beta^2)/(1 + gamma) = -1/2
    pot = sample_potential(B1, x_max=14.0, n=128)
    ev = wt_from_ode(pot, 1.0, OdeOptions(x_max=14.0))
    assert ev.value == pytest.approx(-0.5, abs=1e-8)


def test_ode_vs_amplitude_bargmann2():
    pot = sample_potential(B2, x_max=14.0, n=128)
    ode = wt_from_ode(pot, 2.0, OdeOptions(x_max=14.0)).value
    lap = wt_from_amplitude(_amp(B2, []), 2.0).value
    assert abs(ode - lap) <= 1e-6
    assert lap == pytest.approx(-2.0 + 1.0 / 3.75, rel=1e-10)


def test_ode_fixed_step_fourth_order():
    # exact M(-kappa^2) = -kappa - laplace(kappa); each pair of grids sits where
    # the error (1e-6 to 1e-7) is far above rounding, past the pre-asymptotic
    # range that widens with kappa
    pot = sample_potential(B1, x_max=12.0, n=256)
    for kappa, n in ((1.0, 96), (2.5, 192), (20.5, 768), (64.5, 1536)):
        exact = -kappa - B1.laplace(kappa)
        e1 = abs(_m_fixed_step(pot, kappa, 12.0, n) - exact)
        e2 = abs(_m_fixed_step(pot, kappa, 12.0, 2 * n) - exact)
        assert e2 > 1e-8
        assert 10.0 < e1 / e2 < 24.0  # nominal order 4


def test_ode_failure_at_eigenvalue():
    # -kappa1^2 is the bound state of this well: u(0) collapses
    pot = sample_potential(B2, x_max=14.0, n=128)
    start = time.perf_counter()
    with pytest.raises(NumericalError):
        wt_from_ode(pot, 0.5, OdeOptions(x_max=14.0))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("x_max", [12.0, 46.0])
@pytest.mark.parametrize("kappa", [0.5, 1.5, 20.5, 64.5])
def test_m_fixed_step_matches_scalar_loop(kappa, x_max):
    # within one chunk, exactly one, one step into the next, several with a tail
    pot = sample_potential(B1, x_max=46.0, n=256)
    for n in (3000, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5):
        assert _m_fixed_step(pot, kappa, x_max, n) == pytest.approx(
            m_fixed_step_loop(pot, kappa, x_max, n), rel=1e-13)


def _halving_differences(m_of_n, n: int, tolerance: float, max_halvings: int) -> list:
    """|m(2n) - m(n)|, ... along the halving sequence, up to the first one
    within tolerance."""
    prev, diffs = m_of_n(n), []
    for _ in range(max_halvings):
        n *= 2
        m = m_of_n(n)
        diffs.append(abs(m - prev))
        if diffs[-1] <= tolerance:
            break
        prev = m
    return diffs


def test_forward_shoot_halvings_match_scalar_loop():
    # the forward-shoot configuration: every kappa converges after the same
    # number of halvings as the scalar loop, contracting >= 10x per halving,
    # far from the fail-fast threshold of 2x
    params = make_spectral_params(3, 0.5, 64)
    opts = OdeOptions()
    pot = sample_potential(B1, x_max=opts.x_max_for(params.kappa[0]), n=256)
    for kappa in map(float, params.kappa):
        x_max = opts.x_max_for(kappa)
        n0 = max(32, math.ceil(x_max / _STEP))
        diffs = _halving_differences(lambda n: _m_fixed_step(pot, kappa, x_max, n),
                                     n0, opts.tolerance, _MAX_HALVINGS)
        ref = _halving_differences(lambda n: m_fixed_step_loop(pot, kappa, x_max, n),
                                   n0, opts.tolerance, _MAX_HALVINGS)
        assert len(diffs) == len(ref) and ref[-1] <= opts.tolerance
        assert all(a >= 10.0 * b for a, b in zip(diffs, diffs[1:]))
        assert wt_from_ode(pot, kappa, opts).est_error == diffs[-1]


class _CountingPotential:
    """A closed-form potential that records how many points each evaluation takes."""

    def __init__(self, pot):
        self.pot, self.closed_form, self.x_max, self.sizes = pot, pot.closed_form, pot.x_max, []

    def __call__(self, x):
        self.sizes.append(x.size)
        return self.pot(x)


def test_batched_kappas_match_one_kappa_calls():
    # the forward-shoot configuration spans three truncation points
    params = make_spectral_params(3, 0.5, 64)
    opts = OdeOptions()
    pot = sample_potential(B1, x_max=opts.x_max_for(params.kappa[0]), n=256)
    x_maxes = [opts.x_max_for(float(k)) for k in params.kappa]
    assert sorted(set(x_maxes)) == [12.0, 23.0 / 1.5, 46.0]

    levels = {}  # x_max -> halving levels of its slowest kappa
    singles = []
    for kappa, x_max in zip(map(float, params.kappa), x_maxes):
        counting = _CountingPotential(pot)
        singles.append(wt_from_ode(counting, kappa, opts))
        levels[x_max] = max(levels.get(x_max, 0), len(counting.sizes))
    counting = _CountingPotential(pot)
    batched = wt_from_ode(counting, params.kappa, opts)
    assert [(e.kappa, e.value, e.est_error) for e in batched] == \
        [(e.kappa, e.value, e.est_error) for e in singles]
    # Q is sampled once per truncation point and level, on the level's whole grid
    assert len(counting.sizes) == sum(levels.values())
    n0 = {x: max(32, math.ceil(x / _STEP)) for x in levels}
    assert sum(counting.sizes) == sum(2 * n0[x] * (2 ** L - 1) + L for x, L in levels.items())


def test_batched_kappas_raise_for_lowest_failing_index():
    # bound state at kappa = 0.5; kappas in their own truncation groups (default
    # x_max), in one group (x_max = 14), and two failing kappas in two groups
    pot = sample_potential(B2, x_max=14.0, n=128)
    for kappas, x_max, error, k in (([1.5, 0.5, 2.5], None, NumericalError, 1),
                                    ([1.5, 0.5, 2.5], 14.0, NumericalError, 1),
                                    ([0.5, 0.5 + 1e-9], None, NumericalError, 0),
                                    ([1.5, -1.0, 0.5], None, ValidationError, 1),
                                    ([0.5, -1.0], None, NumericalError, 0)):
        start = time.perf_counter()
        with pytest.raises(error, match=rf"^evaluator failed at k={k}: .*{kappas[k]}"):
            wt_from_ode(pot, np.array(kappas), OdeOptions(x_max=x_max))
        assert time.perf_counter() - start < 1.0
    assert [e.kappa for e in wt_from_ode(pot, np.array([2.5, 1.5]))] == [2.5, 1.5]


def test_ode_rejects_bad_kappa_and_domain():
    pot = sample_potential(ZeroForm(), x_max=12.0, n=64)
    for kappa in (-1.0, 0.0, math.nan, math.inf, 1e200):  # 1e200**2 overflows
        with pytest.raises(ValidationError):
            wt_from_ode(pot, kappa)
    sampled_only = type(pot)(grid=pot.grid, values=pot.values, closed_form=None)
    with pytest.raises(ValidationError):
        wt_from_ode(sampled_only, 1.0, OdeOptions(x_max=40.0))


def test_sampled_table_must_reach_the_picked_truncation_point():
    # x_max = None picks max(12, 23/kappa); a table without a closed form that
    # ends before that point is refused, not clipped to its last node
    pot = sample_potential(ZeroForm(), x_max=12.0, n=64)
    sampled_only = type(pot)(grid=pot.grid, values=pot.values, closed_form=None)
    with pytest.raises(ValidationError, match=r"sampled only up to 12\.0, need x_max=23\.0$"):
        wt_from_ode(sampled_only, 1.0)
    with pytest.raises(ValidationError, match=r"^evaluator failed at k=0: .*need x_max=23\.0$"):
        wt_from_ode(sampled_only, np.array([1.0, 2.0]))
    # at kappa = 2 the picked point is 12, which the table reaches; M = -kappa for Q = 0
    assert wt_from_ode(sampled_only, 2.0).value == pytest.approx(-2.0, abs=1e-9)


# --- amplitude route ---------------------------------------------------------


def test_amplitude_route_trivial():
    ev = wt_from_amplitude(_amp(ZeroForm(), []), 2.0)
    assert ev.value == pytest.approx(-2.0, abs=1e-14)


def test_amplitude_route_single_term():
    # c0 = -1 at mu0 = 2 (d=3, delta=1): M = -1 - (-1)/(2 + 2) = -3/4
    ev = wt_from_amplitude(_amp(ZeroForm(), [-1.0]), 1.0)
    assert ev.value == pytest.approx(-0.75, rel=1e-14)


def test_amplitude_route_matches_bargmann1_series_form():
    # zero base plus c0 = 2(gamma^2 - beta^2) at mu0 = 2 gamma reproduces the well
    amp = _amp(ZeroForm(), [-1.5], delta=0.5)
    assert wt_from_amplitude(amp, 1.0).value == pytest.approx(-0.5, rel=1e-13)
    base = _amp(B1, [], delta=0.5)
    assert wt_from_amplitude(base, 1.0).value == pytest.approx(-0.5, rel=1e-10)


def test_amplitude_route_bound_state_term():
    # d=5, delta=-2: mu0 = -2; at kappa=1.5 the split form sums to +1
    amp = _amp(ZeroForm(), [-1.0], d=5, delta=-2.0)
    ev = wt_from_amplitude(amp, 1.5)
    assert ev.value == pytest.approx(-0.5, rel=1e-13)


def test_amplitude_route_pole_and_threshold_rejections():
    amp = _amp(ZeroForm(), [-1.0], d=5, delta=-2.0)
    with pytest.raises(ValidationError):
        wt_from_amplitude(amp, 1.0)  # 2 kappa = |mu0| exactly
    with pytest.raises(ValidationError):
        wt_from_amplitude(_amp(B2, []), 0.4)  # below the base threshold kappa1
    for kappa in (-1.0, 0.0, math.nan, math.inf, 1e200):  # 1e200**2 overflows
        with pytest.raises(ValidationError, match="positive with a finite square"):
            wt_from_amplitude(_amp(ZeroForm(), []), kappa)
        with pytest.raises(ValidationError, match="positive with a finite square"):
            wt_from_amplitude(_amp(B1, []), kappa)
    # arrays raise for the lowest failing index, validation or numerical
    huge = _amp(Bargmann2(c1=1e300, kappa1=1e-10), [])  # c1/kappa1 overflows
    for a, kappas, error, k in ((_amp(B1, []), [1.5, math.nan, 0.0], ValidationError, 1),
                                (_amp(B2, []), [1.5, 2.5, 0.4], ValidationError, 2),
                                (amp, [1.5, 1.0, 2.5], ValidationError, 1),
                                (huge, [1.5, 2.5], NumericalError, 0),
                                (huge, [1.5, -1.0], NumericalError, 0),
                                (huge, [-1.0, 1.5], ValidationError, 0)):
        with pytest.raises(error, match=rf"^evaluator failed at k={k}: .*{kappas[k]}"):
            wt_from_amplitude(a, np.array(kappas))
    with pytest.raises(NumericalError, match="not finite"):
        wt_from_amplitude(huge, 1.5)


# the Bargmann wells of the Laplace-rule tests, with the kappas k + 1/2 of
# K = 64 and, for Bargmann2, kappa1 + 1e-3 and kappa1 + 1e-2 by the threshold
_LAPLACE_WELLS = [Bargmann1(beta=1.0, gamma=0.5), Bargmann1(beta=1.25, gamma=0.3),
                  Bargmann1(beta=0.8, gamma=0.0), Bargmann2(c1=1.0, kappa1=0.49),
                  Bargmann2(c1=1.0, kappa1=0.5), Bargmann2(c1=1.5, kappa1=0.4)]


@pytest.mark.parametrize("form", _LAPLACE_WELLS,
                         ids=lambda f: "-".join([f.kind, *map(str, vars(f).values())]))
def test_laplace_rule_matches_closed_forms(form):
    near = [form.kappa_min + 1e-3, form.kappa_min + 1e-2] if form.kappa_min else []
    kappas = np.array(near + [k + 0.5 for k in range(65) if k + 0.5 > form.kappa_min])
    amp = _amp(form, [], delta=0.5, K=64)
    batched = wt_from_amplitude(amp, kappas)
    singles = [wt_from_amplitude(amp, float(k)) for k in kappas]
    assert [(e.kappa, e.value, e.est_error) for e in batched] == \
        [(e.kappa, e.value, e.est_error) for e in singles]
    worst = 0.0
    for ev in batched:
        exact = -ev.kappa - form.laplace(ev.kappa)
        assert abs(ev.value - exact) <= ev.est_error
        # the estimate is at rounding level, except by the threshold, where the
        # half rule resolves the knee of expm1(-4 kappa1 alpha) less well
        assert ev.est_error <= (1e-9 if ev.kappa in near else 1e-14) * abs(exact)
        worst = max(worst, abs(ev.value - exact) / abs(exact))
    assert worst <= 1e-13


def test_ode_laplace_agreement_improves_with_refinement():
    # the ODE error shrinks with the tolerance; the Laplace value sits at rounding
    for form in (B1, B2):
        amp = _amp(form, [], delta=0.5)
        for kappa in (1.5, 5.0):
            lap = wt_from_amplitude(amp, kappa)
            pot = sample_potential(form, x_max=OdeOptions().x_max_for(kappa), n=256)
            odes = [wt_from_ode(pot, kappa, OdeOptions(tolerance=tol))
                    for tol in (1e-6, 1e-8, 1e-10)]
            gaps = [abs(ode.value - lap.value) for ode in odes]
            assert all(g <= ode.est_error + lap.est_error for g, ode in zip(gaps, odes))
            for (a, b), (ode_a, ode_b) in zip(zip(gaps, gaps[1:]), zip(odes, odes[1:])):
                assert b < a or ode_b.value == ode_a.value  # equal when no halving was added
            assert gaps[-1] < 1e-2 * gaps[0]


@settings(max_examples=20, deadline=None)
@given(mags=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4),
       kappa=st.floats(1.6, 6.0))
def test_series_laplace_matches_quadrature(mags, kappa):
    cs = [-m * 100.0**-k for k, m in enumerate(mags)]  # decaying: R safely > 1
    amp = _amp(ZeroForm(), cs, d=5, delta=-2.0, K=8)
    closed = float(np.sum(amp.laplace_terms(kappa)))
    numeric = laplace_of_series(amp.term_coeffs, amp.term_mu, kappa)
    assert closed == pytest.approx(numeric, rel=1e-7, abs=1e-10)


def test_asymptotic_drift_vanishes():
    amp = _amp(B1, [], delta=0.5)
    drifts = [abs(wt_from_amplitude(amp, k).value + k) for k in (4.0, 8.0, 16.0, 32.0)]
    assert all(b < a for a, b in zip(drifts, drifts[1:]))


# --- spectra and gaps --------------------------------------------------------


def test_flat_spectrum_is_the_index_sequence():
    pot = sample_potential(ZeroForm(), x_max=12.0, n=64)
    for d, K in ((3, 3), (5, 2)):
        params = make_spectral_params(d, 0.0, K)
        spec = steklov_spectrum(wt_from_ode(pot, params.kappa, OdeOptions(x_max=12.0)),
                                params, K)
        assert np.allclose(spec.sigma, np.arange(K + 1), atol=1e-8)


def test_bargmann1_first_eigenvalue():
    params = make_spectral_params(3, 0.5, 2)
    amp = _amp(B1, [], delta=0.5, K=2)
    spec = steklov_spectrum(wt_from_amplitude(amp, params.kappa), params, 2)
    # kappa_1 = 1.5: sigma_1 = -1/2 + 3/2 - 0.75/2 = 0.625
    assert spec.sigma[1] == pytest.approx(0.625, rel=1e-10)


def test_dn_gap_identical_and_shifted():
    params = make_spectral_params(3, 1.0, 64)
    amp = _amp(ZeroForm(), [-1e-3], K=64)
    base = steklov_spectrum(wt_from_amplitude(_amp(ZeroForm(), [], K=64), params.kappa),
                            params, 64)
    pert = steklov_spectrum(wt_from_amplitude(amp, params.kappa), params, 64)

    same = dn_gap(base, base, 0.0)
    assert same.eps == 0.0 and same.certified

    tail = perturbation_tail_bound(amp, params, 64)
    gap = dn_gap(base, pert, tail)
    # max at k = 0: |c| / (2 kappa_0 + mu_0) = 1e-3 / 3
    assert gap.eps == pytest.approx(1e-3 / 3.0, rel=1e-12)
    assert gap.certified  # tail below the gap itself: the max cannot migrate
    assert tail == pytest.approx(1e-3 / (2 * 65.5 + 2.0), rel=1e-12)

    # a bound-state term (mu_0 = -2) against the split majorant: sinh part
    # 2|c||mu|/(4 kappa^2 - mu^2) plus the decaying part |c|/(2 kappa + |mu|)
    bs_params = make_spectral_params(5, -2.0, 8)
    bs = _amp(ZeroForm(), [-1.0, -0.01], d=5, delta=-2.0, K=8)
    kap = bs_params.kappa[0] + 9
    split = sum((2 * abs(c) * abs(m) / (4 * kap**2 - m**2) if m < 0 else 0.0)
                + abs(c) / (2 * kap + abs(m))
                for c, m in zip(bs.term_coeffs, bs.term_mu))
    assert bs.term_mu[0] == -2.0
    assert perturbation_tail_bound(bs, bs_params, 8) == pytest.approx(split, rel=1e-14)


def test_spectrum_needs_evaluations_at_the_table_kappas():
    params = make_spectral_params(3, 1.0, 4)
    amp = _amp(ZeroForm(), [-1.0], K=4)
    assert steklov_spectrum(wt_from_amplitude(amp, params.kappa[:3]), params, 2).K == 2
    for kappas, K in ((params.kappa[:3], 3), (params.kappa[:3], None),  # too few
                      (params.kappa[1:4], 2), (params.kappa + 1.0, 4),    # other kappas
                      (params.kappa, 5)):                                 # K past the table
        with pytest.raises(ValidationError):
            steklov_spectrum(wt_from_amplitude(amp, kappas), params, K)


def test_dn_gap_mismatch_rejections():
    s3 = SteklovSpectrum(d=3, sigma=np.zeros(4))
    with pytest.raises(ValidationError):
        dn_gap(s3, SteklovSpectrum(d=4, sigma=np.zeros(4)), 0.0)
    with pytest.raises(ValidationError):
        dn_gap(s3, SteklovSpectrum(d=3, sigma=np.zeros(5)), 0.0)


def test_monotone_gap_decay_in_k():
    params = make_spectral_params(3, 1.0, 32)
    amp = _amp(ZeroForm(), [-1.0], K=32)
    base = steklov_spectrum(wt_from_amplitude(_amp(ZeroForm(), [], K=32), params.kappa),
                            params, 32)
    pert = steklov_spectrum(wt_from_amplitude(amp, params.kappa), params, 32)
    diffs = np.abs(base.sigma - pert.sigma)
    assert np.all(np.diff(diffs) < 0)


# --- Jost closed forms -------------------------------------------------------


def test_jost_values_and_roots():
    assert jost_closed_form(B1, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert jost_closed_form(B1, -0.5) == 0.0  # the real resonance at -gamma
    assert jost_closed_form(B2, 0.5) == 0.0   # the bound state at kappa1
    with pytest.raises(ValidationError):
        jost_closed_form(B1, -1.0)  # pole at -beta
