import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovlab import (BallPotential, Bargmann1, RadialPotential, ValidationError,
                        ZeroForm, ball_to_halfline, extend_potential, halfline_to_ball,
                        make_spectral_params, weighted_norm_equivalence, wt_from_ode)
from steklovlab.quadrature import cubic_interp, simpson

from oracles import bargmann2_mp


def _sequences(p):
    """(lam, mu, number of negative mu) over k = 0..K."""
    k = np.arange(p.K + 1)
    mu = p.mu_at(k)
    return p.lam_at(k), mu, int(np.count_nonzero(mu < 0))


def test_spectral_params_d3_delta0():
    p = make_spectral_params(3, 0.0, 2)
    lam, mu, n_neg = _sequences(p)
    assert np.allclose(p.kappa, [0.5, 1.5, 2.5])
    assert np.allclose(lam, [0.0, 2.0, 4.0])
    assert np.allclose(mu, [0.0, 2.0, 4.0])
    assert n_neg == 0
    assert p.m0 == 2.0


def test_spectral_params_d5_negative_delta():
    # hand evaluation: lam_k = 2k + 5 - 3 - 2 = 2k, mu_k = 2k - 2
    p = make_spectral_params(5, -2.0, 2)
    lam, mu, n_neg = _sequences(p)
    assert np.allclose(lam, [0.0, 2.0, 4.0])
    assert np.allclose(mu, [-2.0, 0.0, 2.0])
    assert n_neg == 1
    assert p.m0 == 2.0


def test_spectral_params_rejections():
    with pytest.raises(ValidationError):
        make_spectral_params(3, -0.5, 1)  # delta below 3 - d
    with pytest.raises(ValidationError):
        make_spectral_params(3, float("nan"), 1)
    with pytest.raises(ValidationError):
        make_spectral_params(2, 0.0, 1)
    with pytest.raises(ValidationError):
        make_spectral_params(3, 0.0, 0)


@given(d=st.integers(3, 8), delta_off=st.floats(0.0, 5.0), K=st.integers(1, 24))
def test_spectral_params_invariants(d, delta_off, K):
    delta = (3 - d) + delta_off
    p = make_spectral_params(d, delta, K)
    lam, mu, n_neg = _sequences(p)
    assert np.allclose(np.diff(lam), 2.0)
    assert np.allclose(np.diff(p.kappa), 1.0)
    assert p.kappa[0] >= 0.5
    assert np.all(lam >= -1e-12)
    assert np.all(np.diff(mu) > 0)
    assert np.all(mu[n_neg:] >= 0)
    assert np.all(mu[:n_neg] < 0)
    assert p.m0 >= 2.0


def _ball(values_fn, n=128, r0=math.exp(-2.0)):
    r = np.linspace(r0, 1.0, n + 1)
    return BallPotential(grid=r, values=values_fn(r))


def test_ball_to_halfline_zero():
    Q = ball_to_halfline(_ball(lambda r: 0.0 * r))
    assert np.all(Q.values == 0.0)


def test_ball_to_halfline_inverse_square():
    Q = ball_to_halfline(_ball(lambda r: r**-2.0))
    assert np.allclose(Q.values, 1.0, rtol=1e-13)


def test_ball_to_halfline_constant_norm():
    # q = 1 maps to Q = e^{-2x}; closed-form ||Q||^2 on (0,T) is (1-e^{-4T})/4
    T = 2.0
    Q = ball_to_halfline(_ball(lambda r: np.ones_like(r), r0=math.exp(-T)))
    assert np.allclose(Q.values, np.exp(-2.0 * Q.grid), rtol=1e-13)
    xs = np.linspace(0.0, T, 513)
    quadrature = simpson(np.exp(-4.0 * xs), T / 512)
    assert quadrature == pytest.approx((1.0 - math.exp(-4.0 * T)) / 4.0, rel=1e-8)


@settings(max_examples=40)
@given(vals=st.lists(st.floats(-5, 5), min_size=8, max_size=40))
def test_round_trip_identity(vals):
    r = np.linspace(0.2, 1.0, len(vals))
    q = BallPotential(grid=r, values=np.asarray(vals))
    back = halfline_to_ball(ball_to_halfline(q))
    assert np.allclose(back.grid, q.grid, rtol=1e-14, atol=1e-15)
    assert np.allclose(back.values, q.values, rtol=1e-12, atol=1e-14)


def test_norm_equivalence_identical():
    q = _ball(lambda r: np.sin(3 * r))
    assert weighted_norm_equivalence(q, q, 2.0) == (0.0, 0.0)


def test_norm_equivalence_inverse_square():
    # q - q~ = r^{-2} on T = 1: both norms equal 1 exactly in the continuum
    T = 1.0
    q = _ball(lambda r: r**-2.0, n=256, r0=math.exp(-T))
    qt = _ball(lambda r: 0.0 * r, n=256, r0=math.exp(-T))
    half, ball = weighted_norm_equivalence(q, qt, T)
    assert half == pytest.approx(1.0, abs=1e-8)
    assert ball == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.1, 2.0), b=st.floats(0.5, 6.0))
def test_norm_equivalence_smooth_perturbation(a, b):
    T = 2.0
    n = 128
    q = _ball(lambda r: np.cos(2 * r), n=n, r0=math.exp(-T))
    qt = _ball(lambda r: np.cos(2 * r) + a * np.sin(b * r), n=n, r0=math.exp(-T))
    half, ball = weighted_norm_equivalence(q, qt, T, n=n)
    h = (1.0 - math.exp(-T)) / n
    assert abs(half - ball) <= 10.0 * h**2 * max(half, ball)


def test_isometry_under_refinement():
    T = 2.0
    q = _ball(lambda r: np.sin(3 * r) / r, n=512, r0=math.exp(-T))
    qt = _ball(lambda r: 0.0 * r, n=512, r0=math.exp(-T))
    gaps = []
    for n in (64, 128):
        half, ball = weighted_norm_equivalence(q, qt, T, n=n)
        gaps.append(abs(half - ball))
    assert gaps[1] < gaps[0] / 3.5  # at least second-order shrinkage


def test_extend_potential_stitches_closed_form():
    form = Bargmann1(beta=1.0, gamma=0.5)
    grid = np.linspace(0.0, 2.0, 65)
    inner = RadialPotential(grid=grid, values=form.potential(grid))
    ext = extend_potential(inner, form, 6.0)
    assert ext.x_max >= 6.0 - 1e-9
    xs = np.linspace(2.5, 5.5, 7)
    assert np.allclose(ext(xs), form.potential(xs), atol=1e-9)
    with pytest.raises(ValidationError):
        extend_potential(inner, form, 1.5)


def test_extension_past_the_point_cap_is_refused_before_allocating():
    # a 5-node table on [0, 1] has step 0.25: x_max = 1e12 asked numpy for
    # 29.1 TiB and x_max = 1e300 for more points than an array can hold
    half = RadialPotential(grid=np.linspace(0.0, 1.0, 5), values=np.zeros(5))
    form = Bargmann1(beta=1.0, gamma=0.5)
    for x_max, count in ((1e12, "4e+12"), (1e300, "4e+300")):
        rule = f"extension to x_max={x_max} needs {count} points of step 0.25, more than 16777216"
        tracemalloc.start()
        with pytest.raises(ValidationError, match=f"^{re.escape(rule)}$") as exc:
            extend_potential(half, form, x_max)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert exc.value.module == "radial_model" and peak < 2 ** 20
    assert extend_potential(half, form, 2.0).grid.size == 9


@pytest.mark.parametrize("M", [64, 256, 512])
def test_extension_reaches_every_truncation_point(M):
    # a Bargmann1 table on [0, 2] carried on to 23/kappa ends at the first
    # step at or past it, so shooting reaches it also where the nearest step
    # lies short of it (M = 512, kappa = 1.5). est_error is RK4's error on the
    # interpolated table; the table's cubic interpolation adds its own O(h^4),
    # measured at 0.125 h^4 here
    form = Bargmann1(beta=1.0, gamma=0.5)
    grid = np.linspace(0.0, 2.0, M + 1)
    h = 2.0 / M
    table = RadialPotential(grid=grid, values=form.potential(grid))
    for kappa in (0.5, 1.0, 1.5, 2.5, 3.7):
        ext = extend_potential(table, form, 23.0 / kappa)
        assert ext.grid[-2] < 23.0 / kappa <= ext.x_max
        (m,), (err,) = wt_from_ode(ext, kappa)
        assert abs(m - (-kappa - form.laplace(kappa))) <= err + h**4, (M, kappa)


def test_zero_form_and_grid_validation():
    z = ZeroForm()
    assert np.all(z.potential(np.linspace(0, 5, 11)) == 0.0)
    with pytest.raises(ValidationError):
        BallPotential(grid=np.array([0.5, 0.4, 0.8, 1.0]), values=np.zeros(4))
    with pytest.raises(ValidationError):
        BallPotential(grid=np.array([0.4, 0.5, 0.6, 0.7]), values=np.array([1.0, 1.0, 1.0, np.nan]))
    # the half-line table shares the checks, without the ball's range (0, 1]
    for cls, grid, rule in ((BallPotential, [0.0, 0.5, 0.6, 0.7], r"inside \(0, 1\]$"),
                            (BallPotential, [0.5, 0.7, 1.0, 1.5], r"inside \(0, 1\]$"),
                            (RadialPotential, [1.0, 0.5, 2.0, 3.0], "grid must be strictly increasing$")):
        with pytest.raises(ValidationError, match=rule):
            cls(grid=np.array(grid), values=np.zeros(4))
    with pytest.raises(ValidationError, match="equal size"):
        RadialPotential(grid=np.zeros(5), values=np.zeros(4))
    with pytest.raises(ValidationError, match="finite"):
        RadialPotential(grid=np.array([0.0, 0.5, 1.0, 1.5]), values=np.array([0.0, 0.0, 0.0, np.inf]))
    assert RadialPotential(grid=np.array([0.0, 0.5, 1.0, 1.5]), values=np.zeros(4)).x_max == 1.5


def test_quadrature_failures_are_tagged():
    # an odd Simpson interval count, a horizon whose ball grid would start
    # below the table's r = 0.2 and a point past the end of a half-line table,
    # each through a public path, and a table of fewer than 4 nodes; a
    # horizon or extension endpoint that is not finite is refused by the
    # radial model before any grid is built
    q = BallPotential(grid=np.linspace(0.2, 1.0, 9), values=np.zeros(9))
    half = RadialPotential(grid=np.linspace(0.0, 1.0, 5), values=np.zeros(5))
    form = Bargmann1(beta=1.0, gamma=0.5)
    for call, rule, module in (
            (lambda: weighted_norm_equivalence(q, q, 1.0, n=3),
             "even interval count >= 2, got 3$", "quadrature"),
            (lambda: weighted_norm_equivalence(q, q, 3.0), "outside the sampled grid$",
             "quadrature"),
            (lambda: half(2.0), "outside the sampled grid$", "quadrature"),
            (lambda: cubic_interp(np.arange(3.0), np.zeros(3), 1.0), "at least 4 nodes$",
             "quadrature"),
            (lambda: weighted_norm_equivalence(q, q, math.nan),
             "norm horizon T must be positive and finite, got nan$", "radial_model"),
            (lambda: weighted_norm_equivalence(q, q, math.inf),
             "norm horizon T must be positive and finite, got inf$", "radial_model"),
            (lambda: extend_potential(half, form, math.inf),
             "extension endpoint must be finite, got inf$", "radial_model"),
            (lambda: extend_potential(half, form, math.nan),
             "extension endpoint must be finite, got nan$", "radial_model")):
        with pytest.raises(ValidationError, match=rule) as exc:
            call()
        assert exc.value.module == module


def test_sampled_table_needs_four_finite_increasing_nodes():
    # cubic interpolation needs 4 nodes: a 3-node table used to pass here and
    # then fail in shooting with an untagged ValueError
    with pytest.raises(ValidationError, match="equal size >= 4"):
        RadialPotential(grid=np.array([0.0, 10.0, 20.0]), values=np.zeros(3))
    # np.diff(g) <= 0 is False for NaN, so a NaN node passed the old check
    for grid, rule in (([0.0, np.nan, 20.0, 30.0], "grid must be finite$"),
                       ([0.0, 10.0, 20.0, np.inf], "grid must be finite$")):
        with pytest.raises(ValidationError, match=rule):
            RadialPotential(grid=np.array(grid), values=np.zeros(4))
    with pytest.raises(ValidationError, match="grid must be finite$"):
        BallPotential(grid=np.array([np.nan, 0.5, 0.7, 1.0]), values=np.zeros(4))


def test_bargmann_wells_refuse_unrepresentable_squares(capsys):
    # a Bargmann2 kappa1**2 that underflows to 0 made p_accum 0/0, and the
    # solve then failed as a non-finite GL matrix; a beta**2 or kappa1**2 past
    # the float range raised OverflowError out of reconstruct, forward and
    # perturb (exit 1 with a traceback). Both are inputs the closed forms
    # cannot take.
    from steklovlab import Bargmann2
    from steklovlab.cli import main
    for kappa1 in (1.7e-288, 5e-324, 1.4e154, 1e300, float("inf"), 0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError, match="bargmann2 needs"):
            Bargmann2(c1=1.0, kappa1=kappa1)
    for beta in (1.4e154, 1e300, float("inf")):
        with pytest.raises(ValidationError, match="bargmann1 needs"):
            Bargmann1(beta=beta, gamma=0.5)
    Bargmann2(c1=1.0, kappa1=1e-150), Bargmann2(c1=1.0, kappa1=1e150)
    Bargmann1(beta=1e150, gamma=0.0)
    for argv in (["reconstruct", "--base", "bargmann2", "--c1", "1", "--kappa1=1.7e-288",
                  "--M", "32"],
                 ["reconstruct", "--base", "bargmann2", "--c1", "1", "--kappa1=1e200",
                  "--M", "32"],
                 ["forward", "--base", "bargmann1", "--beta=1e200", "--gamma", "0.5",
                  "--K", "2"],
                 ["perturb", "--base", "bargmann1", "--beta=1e200", "--gamma", "0.5",
                  "--K", "2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"[radial_model] {argv[2]} needs")


@pytest.mark.parametrize("kappa1", [1e-9, 1e-5, 1e-3, 0.49, 1.0])
def test_bargmann2_closed_forms_match_mpmath(kappa1):
    # the old p = c1 (cosh(kappa1 t) - 1)/(2 kappa1^2) had an absolute error
    # near eps c1/kappa1^2 (all of p at kappa1 = 1e-9), and the old F the same
    # cancellation in sinh(2 kappa1 x)/(4 kappa1) - x/2
    from steklovlab import Bargmann2
    form = Bargmann2(c1=1.5, kappa1=kappa1)
    x = np.linspace(0.0, 16.0, 161)
    t = np.linspace(-0.25, 16.0, 66)
    ref = np.array([bargmann2_mp(1.5, kappa1, xi, ti) for xi, ti in zip(x, np.resize(t, x.size))])
    q_ref, p_ref = ref[:, 0], ref[: t.size, 1]
    assert np.all(np.abs(form.potential(x) - q_ref) <= 1e-14 * np.abs(q_ref).max())
    assert np.all(np.abs(form.p_accum(t) - p_ref) <= 4 * np.finfo(float).eps * np.abs(p_ref))


def test_bargmann2_potential_finite_where_its_growth_overflows():
    # F ~ e^{2 kappa1 x} overflows past x ~ 724 at kappa1 = 0.49, while Q
    # decays like x e^{-2 kappa1 x}
    from steklovlab import Bargmann2
    x = np.array([0.0, 100.0, 724.0, 800.0, 1e4])
    q = Bargmann2(c1=1.0, kappa1=0.49).potential(x)
    assert q[0] == 0.0 and np.all(np.abs(q[1:]) <= 1e-14)
