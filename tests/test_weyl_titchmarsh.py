import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovlab import (Bargmann1, Bargmann2, NumericalError, RadialPotential,
                        ValidationError, ZeroForm, build_perturbed_amplitude,
                        extend_potential, make_spectral_params,
                        steklov_spectrum, wt_from_amplitude, wt_from_ode)
from steklovlab import weyl_titchmarsh
from steklovlab.weyl_titchmarsh import (_CHUNK, _MAX_STEPS, _ROUNDING, _STEP, _TOLERANCE,
                                        _shoot)

from oracles import (laplace_of_amplitude, laplace_of_series, m_fixed_step, m_fixed_step_loop,
                     shoot_every_level)

B1 = Bargmann1(beta=1.0, gamma=0.5)
B2 = Bargmann2(c1=1.0, kappa1=0.5)


def _amp(base, coeffs, d=3, delta=1.0, K=8, gen=None):
    return build_perturbed_amplitude(base, coeffs, make_spectral_params(d, delta, K), gen)


def _sigma(amp, params):
    """The Laplace route's spectrum at the kappas of params."""
    return steklov_spectrum(params, wt_from_amplitude(amp, params.kappa)[0])


# --- ODE route ---------------------------------------------------------------


def test_ode_free_potential_exact():
    (value,), (est,) = wt_from_ode(ZeroForm(), 1.5)
    assert value == pytest.approx(-1.5, abs=1e-12)
    assert est <= 1e-12


def test_ode_bargmann1_closed_value():
    # Laplace algebra gives M(-1) = -1 - (gamma^2 - beta^2)/(1 + gamma) = -1/2
    (value,), _ = wt_from_ode(B1, 1.0)
    assert value == pytest.approx(-0.5, abs=1e-8)


def test_ode_vs_amplitude_bargmann2():
    (ode,), _ = wt_from_ode(B2, 2.0)
    (lap,), _ = wt_from_amplitude(_amp(B2, []), 2.0)
    assert abs(ode - lap) <= 1e-6
    assert lap == pytest.approx(-2.0 + 1.0 / 3.75, rel=1e-10)


def test_ode_fixed_step_fourth_order():
    # exact M(-kappa^2) = -kappa - laplace(kappa); each pair of grids sits where
    # the error (1e-6 to 1e-7) is far above rounding, past the pre-asymptotic
    # range that widens with kappa
    for kappa, n in ((1.0, 96), (2.5, 192), (20.5, 768), (64.5, 1536)):
        exact = -kappa - B1.laplace(kappa)
        e1 = abs(m_fixed_step(B1.potential, kappa, 12.0, n) - exact)
        e2 = abs(m_fixed_step(B1.potential, kappa, 12.0, 2 * n) - exact)
        assert e2 > 1e-8
        assert 10.0 < e1 / e2 < 24.0  # nominal order 4


def test_ode_extrapolate_sixth_order_and_covered():
    # r_j = m_j + (m_j - m_{j-1})/15 cancels RK4's h^4 term; the next term is
    # h^6, so each halving shrinks the error of r_j about 64x until rounding.
    # On [0, 12] the 200-step error is still far above rounding; on the
    # default [0, 23/kappa] it is not
    for form in (B1, B2):
        for kappa in (5.5, 20.5):
            exact = -kappa - form.laplace(kappa)
            ms = [m_fixed_step(form.potential, kappa, 12.0, 200 * 2**j)
                  for j in range(7)]
            errs = [abs(b + (b - a) / 15.0 - exact) for a, b in zip(ms, ms[1:])]
            assert errs[0] > 1e-9
            for e1, e2 in zip(errs, errs[1:]):
                if e1 > 1e-12:
                    assert 40.0 <= e1 / e2 <= 90.0
    # est_error covers the true error at every kappa of the forward-shoot configuration
    kappas = make_spectral_params(3, 0.5, 64).kappa
    values, est = wt_from_ode(B1, kappas)
    assert np.all(est >= np.abs(values - (-kappas - B1.laplace(kappas))))


def _form_id(form) -> str:
    return "-".join([form.kind, *map(str, vars(form).values())])


def _exact_m(form, kappas: np.ndarray) -> np.ndarray:
    return np.array([-k - form.laplace(k) for k in kappas.tolist()])


_EST_FORMS = [Bargmann1(beta=1.0, gamma=0.5), Bargmann1(beta=1.25, gamma=0.75),
              Bargmann2(c1=1.0, kappa1=0.5), Bargmann2(c1=1.5, kappa1=1.0)]


@pytest.mark.parametrize("tolerance", [1e-11, 1e-12, 1e-14])
@pytest.mark.parametrize("form", _EST_FORMS, ids=_form_id)
def test_ode_est_error_covers_rounding(form, tolerance):
    # below tolerance 1e-12, |e_j - r_j| alone reads less than the rounding
    # error of the value; est_error adds 16 eps |value| for it
    kappas = make_spectral_params(5, 1.0, 64).kappa
    values, est = wt_from_ode(form, kappas, tolerance=tolerance)
    assert np.all(est >= np.abs(values - _exact_m(form, kappas)))


@pytest.mark.parametrize("form", _EST_FORMS, ids=_form_id)
def test_default_truncation_agrees_with_a_longer_one(form):
    # the growing mode that the truncation at 23/kappa lets in shrinks by
    # e^{-2 kappa x_max} = e^{-46} on the way to x = 0, so shooting over
    # [0, 12] as well (longer for every kappa here but 1.5), with the same
    # Neville rule on passes of 512 to 8192 steps, changes M by no more than
    # the two error estimates cover
    kappas = make_spectral_params(5, 1.0, 64).kappa
    short, short_est = wt_from_ode(form, kappas)
    ends = np.full(kappas.size, 12.0)
    ms = [_shoot(form.potential, ends, kappas, 512 * 2 ** j)[0] for j in range(5)]
    rs = [b + (b - a) / 15.0 for a, b in zip(ms, ms[1:])]
    es = np.array([b + (b - a) / 63.0 for a, b in zip(rs, rs[1:])])
    ests = np.abs(es - rs[1:])
    assert np.all((ests <= _TOLERANCE).any(axis=0))
    level = np.argmax(ests <= _TOLERANCE, axis=0), np.arange(kappas.size)  # the first accepted
    long, long_est = es[level], ests[level] + _ROUNDING * np.abs(es[level])
    assert np.all(np.abs(short - long) <= short_est + long_est)


@pytest.mark.parametrize("form", [ZeroForm(), B1, B2], ids=_form_id)
def test_ode_converges_at_the_rounding_floor(form):
    # tolerance 1e-14 is about eps |M| at the top of the ladder. Accepting on
    # successive extrapolates r_j left it to rounding noise whether a kappa
    # converged (14, 28 and 42 of these 65 failed); |e_j - r_j| is
    # |r_j - r_{j-1}|/63 and meets it before the noise does
    kappas = make_spectral_params(5, 1.0, 64).kappa
    values, est = wt_from_ode(form, kappas, tolerance=1e-14)
    assert np.all(est <= 1e-14 + _ROUNDING * np.abs(values))
    assert np.all(np.abs(values - _exact_m(form, kappas)) <= 1e-13)


def test_ode_failure_at_eigenvalue():
    # -kappa1^2 is the bound state of this well: u(0) collapses
    start = time.perf_counter()
    with pytest.raises(NumericalError):
        wt_from_ode(B2, 0.5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("form,cause", [
    (B2, "(spectral parameter too close to an eigenvalue)"),  # grows 16x per halving
    (Bargmann1(beta=1000.0, gamma=1.0),  # no bound state; shrinks 1.94x
     "(the step does not resolve the potential, or the tolerance is below the rounding floor)"),
])
def test_ode_failure_worded_by_direction(form, cause):
    with pytest.raises(NumericalError, match="stopped converging at kappa=0.5") as exc:
        wt_from_ode(form, 0.5)
    assert str(exc.value).endswith(cause)


@pytest.mark.parametrize("x_max", [12.0, 46.0])
@pytest.mark.parametrize("kappa", [0.5, 1.5, 20.5, 64.5])
def test_m_fixed_step_matches_scalar_loop(kappa, x_max):
    # within one chunk, exactly one, one step into the next, several with a tail
    for n in (3000, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5):
        assert m_fixed_step(B1.potential, kappa, x_max, n) == pytest.approx(
            m_fixed_step_loop(B1.potential, kappa, x_max, n), rel=1e-13)


def _neville_halvings(m_of_n, n: int, tolerance: float, max_steps: int):
    """(ms, rs, es): the values m(n), m(2n), ... along the halving sequence,
    their Richardson extrapolates r_j = m_j + (m_j - m_{j-1})/15 and the next
    Neville column e_j = r_j + (r_j - r_{j-1})/63, up to the first level
    where |e_j - r_j| is within tolerance or the last pass of at most
    max_steps steps."""
    ms, rs, es = [m_of_n(n)], [], []
    while 2 * n <= max_steps:
        n *= 2
        ms.append(m_of_n(n))
        rs.append(ms[-1] + (ms[-1] - ms[-2]) / 15.0)
        if len(rs) > 1:
            es.append(rs[-1] + (rs[-1] - rs[-2]) / 63.0)
            if abs(es[-1] - rs[-1]) <= tolerance:
                break
    return ms, rs, es


def test_forward_shoot_halvings_match_scalar_loop():
    # the forward-shoot configuration: every kappa is accepted at the same
    # level as the Neville rule applied to the scalar loop, its raw
    # differences contract >= 10x per halving, far from the fail-fast
    # threshold of 2x, and est_error is |e_j - r_j| plus the rounding term
    params = make_spectral_params(3, 0.5, 64)
    for kappa in map(float, params.kappa):
        x_max = 23.0 / kappa
        n0 = _first_steps(x_max)
        ms, rs, es = _neville_halvings(
            lambda n: m_fixed_step(B1.potential, kappa, x_max, n), n0, _TOLERANCE, _MAX_STEPS)
        ref_ms, ref_rs, ref_es = _neville_halvings(
            lambda n: m_fixed_step_loop(B1.potential, kappa, x_max, n), n0, _TOLERANCE,
            _MAX_STEPS)
        assert len(ms) == len(ref_ms) and abs(ref_es[-1] - ref_rs[-1]) <= _TOLERANCE
        diffs = np.abs(np.diff(ms))
        assert all(a >= 10.0 * b for a, b in zip(diffs, diffs[1:]))
        (value,), (est,) = wt_from_ode(B1, kappa)
        assert (value, est) == (es[-1], abs(es[-1] - rs[-1]) + _ROUNDING * abs(es[-1]))
        # each value agrees with the loop's to 1e-13 relative, and
        # e_j - r_j = (r_j - r_{j-1})/63 weighs three values by 34/945 in all
        ref_est = abs(ref_es[-1] - ref_rs[-1]) + _ROUNDING * abs(ref_es[-1])
        assert abs(est - ref_est) <= 5e-15 * abs(value)


def _first_steps(x_max: float) -> int:
    """A kappa's first step count: the least 32 * 2^j steps of at most _STEP."""
    return 32 * 2 ** max(0, math.ceil(math.log2(x_max / (32 * _STEP))))


class _CountingPotential:
    """A table reaching x_max that evaluates a closed form exactly and records
    the shape and the row ends of each evaluation's points."""

    def __init__(self, form, x_max):
        self.form, self.x_max, self.shapes, self.ends = form, x_max, [], []

    def __call__(self, x):
        self.shapes.append(x.shape)
        self.ends.append(x[:, -1].tolist())
        return self.form.potential(x)


def test_batched_kappas_match_one_kappa_calls(monkeypatch):
    # on the forward-shoot configuration every kappa has its own truncation
    # point 23/kappa, and the first step counts put the kappas in six groups
    params = make_spectral_params(3, 0.5, 64)
    kappas = params.kappa.tolist()
    n0 = [_first_steps(23.0 / k) for k in kappas]
    assert sorted(set(n0)) == [32, 64, 128, 256, 512, 2048]

    levels, singles = [], []  # per kappa
    for kappa in kappas:
        counting = _CountingPotential(B1, 46.0)
        singles.append(wt_from_ode(counting, kappa))
        levels.append(len(counting.shapes))
    passes = _watch_passes(monkeypatch)
    counting = _CountingPotential(B1, 46.0)
    batched = wt_from_ode(counting, params.kappa)
    assert np.array_equal(batched, np.concatenate(singles, axis=1))  # bitwise
    # one pass per step count, over all groups: it samples Q in batches of at
    # most _CHUNK steps, one grid per kappa that takes a level of that count
    counts = [n * 2 ** level for n, L in zip(n0, levels) for level in range(L)]
    assert passes == sorted(set(counts)) and len(passes) == 9
    calls = sum(math.ceil(counts.count(n) / (_CHUNK // min(n, _CHUNK))) for n in passes)
    assert len(counting.shapes) == calls == 11
    assert all(rows == 1 or rows * (points // 2) <= _CHUNK for rows, points in counting.shapes)
    assert (sum(math.prod(shape) for shape in counting.shapes)
            == sum(2 * n * (2 ** L - 1) + L for n, L in zip(n0, levels)))


def test_forward_shoot_step_count():
    # the forward-shoot configuration takes 61504 RK4 steps over all kappas and
    # levels; with the truncation point at max(12, 23/kappa) it took 607021
    counting = _CountingPotential(B1, 46.0)
    wt_from_ode(counting, make_spectral_params(3, 0.5, 64).kappa)
    assert sum(rows * (points - 1) // 2 for rows, points in counting.shapes) == 61504


def test_every_sampled_grid_ends_at_its_batch_truncation_points():
    # a batch samples its own kappas' grids once, each ending at 23/kappa, in
    # the order of the kappas in the call, ascending or not
    ladder = make_spectral_params(3, 0.5, 64).kappa
    for kappas in (ladder, ladder[::-1], np.roll(ladder, 20)):
        recording = _CountingPotential(B1, 46.0)
        wt_from_ode(recording, kappas)
        order = {23.0 / k: i for i, k in enumerate(kappas.tolist())}
        assert len(order) == kappas.size
        for ends in recording.ends:
            rows = [order[end] for end in ends]  # a KeyError names a stray end
            assert rows == sorted(rows) and len(set(rows)) == len(rows)
        assert {end for ends in recording.ends for end in ends} == set(order)


def test_batched_kappas_raise_for_lowest_failing_index():
    # bound state at kappa = 0.5; kappas in two step-count groups (1.5 and
    # 2.5 start at 512 steps, 0.5 at 2048), in one group (0.6, 0.5 and 0.7
    # all start at 2048), and two failing kappas
    assert {_first_steps(23.0 / kap) for kap in (0.6, 0.5, 0.7)} == {2048}
    for kappas, error, k in (([1.5, 0.5, 2.5], NumericalError, 1),
                             ([0.6, 0.5, 0.7], NumericalError, 1),
                             ([0.5, 0.5 + 1e-9], NumericalError, 0),
                             ([1.5, -1.0, 0.5], ValidationError, 1),
                             ([0.5, -1.0], NumericalError, 0)):
        start = time.perf_counter()
        with pytest.raises(error, match=rf"^evaluator failed at k={k}: .*{kappas[k]}"):
            wt_from_ode(B2, np.array(kappas))
        assert time.perf_counter() - start < 1.0
    values, _ = wt_from_ode(B2, np.array([2.5, 1.5]))  # in the order given
    assert values.tolist() == [wt_from_ode(B2, k)[0][0] for k in (2.5, 1.5)]


class _NanBeyond12:
    """A table reaching x = 46 whose Q is 0 up to x = 12 and NaN beyond."""

    x_max = 46.0

    def __call__(self, x):
        return np.where(x > 12.0, np.nan, 0.0)


def test_non_finite_samples_fail_the_kappas_whose_grids_hold_them():
    # kappa = 2.5 shoots over [0, 9.2] and kappa = 1.5 over [0, 15.3], in one
    # batch: only the second grid holds a NaN
    (value,), _ = wt_from_ode(_NanBeyond12(), 2.5)
    assert value == pytest.approx(-2.5, abs=1e-9)
    for kappas, k in (([2.5, 1.5], 1), ([1.5, 2.5], 0)):
        with pytest.raises(NumericalError, match=rf"^evaluator failed at k={k}: potential "
                           "evaluation produced non-finite values$"):
            wt_from_ode(_NanBeyond12(), np.array(kappas))


def _sampled_b2() -> RadialPotential:
    """Bargmann2 (1, 0.5) sampled on [0, 4] and carried on past 23/1.5 by its
    closed form: shooting interpolates the stitched table."""
    grid = np.linspace(0.0, 4.0, 257)
    table = RadialPotential(grid=grid, values=B2.potential(grid))
    return extend_potential(table, B2, 16.0)


def _watch_passes(monkeypatch) -> list[int]:
    """The step counts of wt_from_ode's passes, in the order it makes them."""
    passes, shoot = [], weyl_titchmarsh._shoot
    monkeypatch.setattr(weyl_titchmarsh, "_shoot",
                        lambda Q, x_max, kap, n: passes.append(n) or shoot(Q, x_max, kap, n))
    return passes


@pytest.mark.parametrize("form", [ZeroForm(), B2, _sampled_b2()],
                         ids=["zero", "bargmann2", "sampled"])
def test_merged_passes_match_one_kappa_calls_bitwise(form, monkeypatch):
    # the d = 5 ladder falls into five first step counts; one pass per step
    # count over all of them returns each kappa's one-kappa bits
    kappas = make_spectral_params(5, 1.0, 64).kappa
    singles = np.concatenate([wt_from_ode(form, k) for k in kappas.tolist()], axis=1)
    passes = _watch_passes(monkeypatch)
    batched = np.stack(wt_from_ode(form, kappas))
    assert batched.tobytes() == singles.tobytes()
    assert passes == sorted(set(passes))  # ascending, one per step count


class _NanOnPass:
    """Bargmann1 on [0, 46], but NaN on the grid ending at each given
    truncation point in the pass of the given step count."""

    x_max = 46.0

    def __init__(self, fails: dict[float, int]):
        self.fails = fails

    def __call__(self, x):
        q = B1.potential(x)
        for end, n in self.fails.items():
            q[(x[:, -1] == end) & (x.shape[1] == 2 * n + 1)] = np.nan
        return q


def test_lower_index_failing_in_a_later_pass_is_the_one_named():
    # on the d = 5 ladder, kappa = 4.5 (k = 3) starts at 256 steps, kappa =
    # 13.5 (k = 12) at 64 and kappa = 31.5 (k = 30) at 32. k = 3 failing in
    # its pass of 1024 comes after k = 30 failing in its first pass; k = 3
    # failing in its first pass comes before k = 12 failing in its pass of
    # 512. The lowest index is named either way, with the message it gets alone
    kappas = make_spectral_params(5, 1.0, 64).kappa
    low, mid, high = (23.0 / kappas[k] for k in (3, 12, 30))
    assert [_first_steps(end) for end in (low, mid, high)] == [256, 64, 32]
    for fails, k in (({low: 1024}, 3), ({low: 1024, high: 32}, 3), ({high: 32}, 30),
                     ({low: 256, mid: 512}, 3), ({mid: 512, high: 32}, 12)):
        with pytest.raises(NumericalError, match=rf"^evaluator failed at k={k}: potential "
                           "evaluation produced non-finite values$"):
            wt_from_ode(_NanOnPass(fails), kappas)


def test_tolerance_below_the_rounding_floor_is_refused():
    # below eps |M|/2 the acceptance test |e_j - r_j| <= tolerance is met only
    # once e_j - r_j rounds to 0, while the passes still differ: refused
    # (test_cli times the refusal)
    kappas = make_spectral_params(5, 1.0, 64).kappa
    with pytest.raises(NumericalError, match=r"^evaluator failed at k=0: tolerance 1e-300 is "
                       r"below the rounding floor of M at kappa=1\.5: eps \|M\|/2 = 1\.25e-16, "
                       r"while the passes still differ by 2\.45e-11$"):
        wt_from_ode(B1, kappas, tolerance=1e-300)
    # where the passes agree within the rounding term, nothing is left to
    # resolve: Q = 0 shoots -kappa exactly, and M ~ -kappa at kappa = 1e6
    values, _ = wt_from_ode(ZeroForm(), kappas, tolerance=1e-300)
    assert np.abs(values + kappas).max() <= 4.0 * _ROUNDING * kappas.max()
    (value,), _ = wt_from_ode(B1, 1e6)  # eps |M|/2 = 1.1e-10 is above the default tolerance
    assert _ROUNDING / 32.0 * 1e6 > _TOLERANCE
    assert value == pytest.approx(_exact_m(B1, np.array([1e6]))[0], rel=1e-15)


@pytest.mark.parametrize("route,arg", [(wt_from_ode, B1),
                                       (wt_from_amplitude, _amp(B1, [], delta=0.5))],
                         ids=["ode", "amplitude"])
def test_routes_return_value_and_error_arrays(route, arg):
    # a scalar kappa counts as one entry: either route returns two float
    # arrays with one entry per kappa, and names the failing index either way
    for kappa, size in ((1.5, 1), (np.array([1.5, 2.5, 3.5]), 3)):
        out = route(arg, kappa)
        assert isinstance(out, tuple) and len(out) == 2
        assert all(a.dtype == np.float64 and a.shape == (size,) for a in out)
    for kappa in (-1.0, np.array([-1.0])):
        with pytest.raises(ValidationError,
                           match=r"^evaluator failed at k=0: kappa must be positive"):
            route(arg, kappa)


def _zero_table(x_max: float, n: int) -> RadialPotential:
    """Q = 0 sampled on n + 1 uniform nodes of [0, x_max]."""
    return RadialPotential(grid=np.linspace(0.0, x_max, n + 1), values=np.zeros(n + 1))


def test_ode_rejects_bad_kappa_and_domain():
    for kappa in (-1.0, 0.0, math.nan, math.inf, 1e200):  # 1e200**2 overflows
        with pytest.raises(ValidationError):
            wt_from_ode(ZeroForm(), kappa)
    with pytest.raises(ValidationError):
        wt_from_ode(_zero_table(12.0, 64), 1.0)  # truncates at 23
    # shooting needs a tolerance inside (0, inf): one at or below 0 is never
    # met, so the halvings would run on until they blamed an eigenvalue
    for tolerance in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match=r"^tolerance must be positive and finite, "
                           rf"got {tolerance}$"):
            wt_from_ode(ZeroForm(), 1.0, tolerance=tolerance)


def test_truncation_point_that_is_not_finite_fails_tagged():
    # 23/kappa overflows for kappa = 1e-320, although kappa passes the kappa
    # check: no pass within the step budget reaches it, so the lowest such
    # index fails tagged, before any shooting
    for kappas, k in (([1e-320], 0), ([1.5, 1e-320, 5e-324], 1), ([1.5, 2.5, 1e-320], 2)):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=rf"^evaluator failed at k={k}: truncation "
                           r"point x_max=inf at kappa=1e-320 is out of reach: a first pass "
                           rf"and two halvings need more than {_MAX_STEPS} steps per pass$"):
            wt_from_ode(ZeroForm(), np.array(kappas))
        assert time.perf_counter() - start < 1.0


def test_give_up_at_the_step_budget(monkeypatch):
    # with a budget of 256 steps per pass, kappa = 20.5 and 40.5 converge
    # within it (first passes of 64 and 32 steps); kappa = 12.5 needs a
    # fourth level of 512 steps, so the lowest index gives up with the budget
    monkeypatch.setattr(weyl_titchmarsh, "_MAX_STEPS", 256)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match=r"^evaluator failed at k=2: step halving did not "
                       r"reach tolerance 1e-11 at kappa=12\.5 within 256 steps per pass$"):
        wt_from_ode(B1, np.array([20.5, 40.5, 12.5, 11.5]))
    assert time.perf_counter() - start < 1.0
    values, _ = wt_from_ode(B1, np.array([20.5, 40.5]))
    assert np.abs(values - _exact_m(B1, np.array([20.5, 40.5]))).max() <= 1e-11


def test_large_kappa_is_not_a_dirichlet_point():
    # M is about -kappa, so |u(0)| <= 1e-12 |u'(0)| holds for every kappa
    # past 1e12; the test on u(0) scales with max(1, kappa)
    for form in (ZeroForm(), B1):
        for kappa in (1.01e12, 1e13, 1e100):
            (value,), _ = wt_from_ode(form, kappa)
            assert value == pytest.approx(-kappa, rel=1e-14)


def test_dirichlet_point_of_a_constant_well():
    # Q = -W on [0, 3] at kappa = 23/3, which truncates there: bisect W until
    # u(0) vanishes in the first pass; there the route still fails, with the
    # Dirichlet message. The exact point has tan(3 k) = -k/kappa, k^2 = W - kappa^2
    kappa = np.array([23.0 / 3.0])
    x_max = 23.0 / kappa
    n = _first_steps(float(x_max[0]))

    def table(depth):
        return RadialPotential(grid=np.linspace(0.0, 3.0, 5), values=np.full(5, -depth))

    def reciprocal(depth):  # u(0)/u'(0), which crosses 0 where M has its pole
        m, _, error = _shoot(table(depth), x_max, kappa, n)
        return 0.0 if error is not None else 1.0 / m[0]

    lo, hi = 59.7, 59.9
    assert reciprocal(lo) * reciprocal(hi) < 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (f := reciprocal(mid)) == 0.0 or mid in (lo, hi):
            break
        lo, hi = (mid, hi) if f * reciprocal(lo) > 0 else (lo, mid)
    assert mid == pytest.approx(59.78539, abs=1e-5)
    with pytest.raises(NumericalError, match=r"^evaluator failed at k=0: u\(0\) vanishes at "
                       r"kappa=7\.666666666666667: -kappa\^2 sits at a Dirichlet point of the "
                       r"truncated problem$"):
        wt_from_ode(table(mid), kappa)


def test_overflowing_steps_are_not_an_eigenvalue():
    # |Q + kappa^2| h^2 past the float range overflows the step propagators
    # themselves (kappa = 11.5 truncates at 2), or the product of two of them
    # (a pass over [0, 1] at kappa = 1e60); Q = 0 has no eigenvalue
    huge = RadialPotential(grid=np.linspace(0.0, 2.0, 5), values=np.full(5, 1e300))

    def cause(kappa):
        return (f"backward integration overflowed at kappa={kappa}: the RK4 steps leave "
                "the float range (|Q + kappa^2| h^2 too large)")

    with pytest.raises(NumericalError,
                       match=f"^evaluator failed at k=0: {re.escape(cause(11.5))}$"):
        wt_from_ode(huge, 11.5)
    _, k, error = _shoot(ZeroForm().potential, np.array([1.0]), np.array([1e60]), 32)
    assert (k, str(error)) == (0, cause(1e60))


_LADDERS = ((3, 0.5), (5, 1.0), (3, 0.0))  # (d, delta); Bargmann2's bound state is on the last
_KAPPAS = (1e3, 1e6, 1.01e12, 1e100)  # default truncation
_END_1 = ((1e6, 3), (1e12, 3), (1e20, 3), (1e60, 1))  # (kappa, passes of 32, 64, ..) on [0, 1]
_CORNER = ((2.0 ** -18, 2 ** 13), (2.0 ** -3, 2 ** 16))  # (x_max, n) at kappa = 2^20


def test_shooting_passes_keep_the_bits_of_renormalizing_every_level(monkeypatch):
    # renormalizing by powers of two is exact, so the moderate schedule, the
    # arange grid and the propagators written in place must return the
    # reference pass's (m, k, error) bit for bit, failures included: every
    # pass of the d = 3 and 5 ladders on Bargmann1 and the zero base, the
    # Bargmann2 bound state, the narrow well, the default truncation up to
    # kappa = 1e100, passes over [0, 1] up to kappa = 1e60, where they
    # overflow, and long passes at the corner of the moderate regime
    # (|g| = 2^40, h^2 |g| <= 4)
    chunks, pairs = [], []  # pairs: one (kappa, step count) entry per kappa a pass compares
    chain = weyl_titchmarsh._chain_product

    def watched_chain(P, moderate):
        chunks.append(moderate)
        return chain(P, moderate)

    def both(Q, x_max, kappas, n):
        m, k, error = _shoot(Q, x_max, kappas, n)
        ref_m, ref_k, ref_error = shoot_every_level(Q, x_max, kappas, n)
        assert (k, str(error)) == (ref_k, str(ref_error))
        assert m[:k].tobytes() == ref_m[:k].tobytes()
        pairs.extend((kappa, n) for kappa in kappas.tolist())
        return m, k, error

    monkeypatch.setattr(weyl_titchmarsh, "_chain_product", watched_chain)
    monkeypatch.setattr(weyl_titchmarsh, "_shoot", both)
    d3, d5, d3_flat = (make_spectral_params(d, delta, 64).kappa for d, delta in _LADDERS)
    runs = [(form, kappas) for form in (B1, ZeroForm()) for kappas in (d3, d5)]
    runs += [(form, kappa) for form in (B1, ZeroForm()) for kappa in _KAPPAS]
    runs += [(B2, d3_flat),
             (Bargmann1(beta=1000.0, gamma=1.0), make_spectral_params(3, 0.5, 2).kappa)]
    failures = 0
    for form, kappas in runs:
        try:
            wt_from_ode(form, kappas)
        except NumericalError:
            failures += 1
    overflows = []
    for form in (B1, ZeroForm()):
        for kappa, count in _END_1:
            for n in (32 * 2 ** j for j in range(count)):
                _, k, error = both(form.potential, np.array([1.0]), np.array([kappa]), n)
                overflows.append(k == 0 and "backward integration overflowed" in str(error))
        for x_max, n in _CORNER:
            both(form.potential, np.array([x_max]), np.array([2.0 ** 20]), n)
    # the two wells fail, and both forms' passes overflow at kappa = 1e60 only
    assert failures == 2 and overflows == 2 * ([False] * 9 + [True])
    assert len(pairs) >= 1000 and any(chunks) and not all(chunks)


def test_half_step_grid_is_linspace_bitwise():
    # the pass samples Q on a contiguous grid with np.linspace's bits, over
    # the battery's truncation points and every chunk-sized step count
    ends = {1.0, *(x_max for x_max, _ in _CORNER), *(23.0 / k for k in _KAPPAS)}
    for d, delta in _LADDERS:
        ends.update((23.0 / make_spectral_params(d, delta, 64).kappa).tolist())
    ends = np.array(sorted(ends))
    for n in (32 * 2 ** j for j in range(9)):
        grids = []
        _shoot(lambda x: grids.append(x) or np.zeros_like(x), ends, np.ones(ends.size), n)
        assert np.concatenate([x[:, -1] for x in grids]).tolist() == ends.tolist()
        for x in grids:
            assert x.flags.c_contiguous
            assert x.tobytes() == np.linspace(0.0, x[:, -1], 2 * n + 1, axis=-1).tobytes()


def test_sampled_table_must_reach_the_picked_truncation_point():
    # every kappa truncates at 23/kappa; a sampled table that ends before that
    # point is refused, not clipped to its last node
    sampled_only = _zero_table(12.0, 64)
    for kappa in (1.0, np.array([1.0, 2.0])):
        with pytest.raises(ValidationError, match=r"^evaluator failed at k=0: potential "
                           r"sampled only up to 12\.0, need x_max=23\.0$"):
            wt_from_ode(sampled_only, kappa)
    # at kappa = 2 the picked point is 11.5, which the table reaches; M = -kappa for Q = 0
    (value,), _ = wt_from_ode(sampled_only, 2.0)
    assert value == pytest.approx(-2.0, abs=1e-9)


# --- amplitude route ---------------------------------------------------------


def test_amplitude_route_trivial():
    (value,), _ = wt_from_amplitude(_amp(ZeroForm(), []), 2.0)
    assert value == pytest.approx(-2.0, abs=1e-14)


def test_amplitude_route_single_term():
    # c0 = -1 at mu0 = 2 (d=3, delta=1): M = -1 - (-1)/(2 + 2) = -3/4
    (value,), _ = wt_from_amplitude(_amp(ZeroForm(), [-1.0]), 1.0)
    assert value == pytest.approx(-0.75, rel=1e-14)


def test_amplitude_route_matches_bargmann1_series_form():
    # zero base plus c0 = 2(gamma^2 - beta^2) at mu0 = 2 gamma reproduces the well
    amp = _amp(ZeroForm(), [-1.5], delta=0.5)
    assert wt_from_amplitude(amp, 1.0)[0] == pytest.approx([-0.5], rel=1e-13)
    base = _amp(B1, [], delta=0.5)
    assert wt_from_amplitude(base, 1.0)[0] == pytest.approx([-0.5], rel=1e-10)


def test_amplitude_route_bound_state_term():
    # d=5, delta=-2: mu0 = -2; at kappa=1.5 the split form sums to +1
    amp = _amp(ZeroForm(), [-1.0], d=5, delta=-2.0)
    (value,), _ = wt_from_amplitude(amp, 1.5)
    assert value == pytest.approx(-0.5, rel=1e-13)


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
    huge = _amp(Bargmann2(c1=1e308, kappa1=1.4999999), [])  # c1/(kappa - kappa1) overflows at 1.5
    for a, kappas, error, k in ((_amp(B1, []), [1.5, math.nan, 0.0], ValidationError, 1),
                                (_amp(B2, []), [1.5, 2.5, 0.4], ValidationError, 2),
                                (amp, [1.5, 1.0, 2.5], ValidationError, 1),
                                (huge, [1.5, 2.5], NumericalError, 0),
                                (huge, [1.5, -1.0], NumericalError, 0),
                                (huge, [-1.0, 1.5], ValidationError, 0)):
        with pytest.raises(error, match=rf"^evaluator failed at k={k}: .*{kappas[k]}"):
            wt_from_amplitude(a, np.array(kappas))
    with pytest.raises(NumericalError,
                       match=r"^evaluator failed at k=0: the Laplace route is not finite"):
        wt_from_amplitude(huge, 1.5)
    # c1/kappa1 overflows, but M does not: the closed form gives it exactly
    (value,), _ = wt_from_amplitude(_amp(Bargmann2(c1=1e300, kappa1=1e-10), []), 0.5)
    assert value == 4e300


# the Bargmann wells of the Laplace-route tests, with the kappas k + 1/2 of
# K = 64 and, for Bargmann2, kappa1 + 1e-3 and kappa1 + 1e-2 by the threshold
_LAPLACE_WELLS = [Bargmann1(beta=1.0, gamma=0.5), Bargmann1(beta=1.25, gamma=0.3),
                  Bargmann1(beta=0.8, gamma=0.0), Bargmann2(c1=1.0, kappa1=0.49),
                  Bargmann2(c1=1.0, kappa1=0.5), Bargmann2(c1=1.5, kappa1=0.4)]


def _laplace_kappas(form) -> np.ndarray:
    near = [form.kappa_min + 1e-3, form.kappa_min + 1e-2] if form.kappa_min else []
    return np.array(near + [k + 0.5 for k in range(65) if k + 0.5 > form.kappa_min])


@pytest.mark.parametrize("form", _LAPLACE_WELLS, ids=_form_id)
def test_laplace_rule_matches_closed_forms(form):
    kappas = _laplace_kappas(form)
    amp = _amp(form, [], delta=0.5, K=64)
    values, est = wt_from_amplitude(amp, kappas)
    singles = [wt_from_amplitude(amp, float(k)) for k in kappas]
    assert np.array_equal((values, est), np.concatenate(singles, axis=1))  # bitwise
    exact = [-kappa - form.laplace(kappa) for kappa in kappas.tolist()]
    assert np.array_equal(values, exact)  # bitwise, threshold kappas included
    assert np.all(est <= 1e-15 * np.abs(values))


@pytest.mark.parametrize("form", _LAPLACE_WELLS, ids=_form_id)
def test_closed_form_laplace_matches_quadrature(form):
    # the closed forms against their amplitudes integrated on [0, inf)
    for kappa in _laplace_kappas(form).tolist():
        exact = form.laplace(kappa)
        assert abs(laplace_of_amplitude(form, kappa) - exact) <= 1e-13 * abs(exact), kappa


def test_ode_laplace_agreement_improves_with_refinement():
    # the ODE error never grows as the tolerance shrinks, and each estimate
    # covers the gap; the Laplace value sits at rounding. The rule needs three
    # levels at least, so the extrapolate is close already at tolerance 1e-6
    for form in (B1, B2):
        amp = _amp(form, [], delta=0.5)
        for kappa in (1.5, 5.0):
            (lap,), (lap_err,) = wt_from_amplitude(amp, kappa)
            odes = [[r[0] for r in wt_from_ode(form, kappa, tolerance=tol)]
                    for tol in (1e-6, 1e-8, 1e-10)]
            gaps = [abs(ode - lap) for ode, _ in odes]
            assert all(g <= err + lap_err for g, (_, err) in zip(gaps, odes))
            for (a, b), ((ode_a, _), (ode_b, _)) in zip(zip(gaps, gaps[1:]), zip(odes, odes[1:])):
                assert b < a or ode_b == ode_a  # equal when no halving was added
            assert gaps[-1] <= 1e-11


@settings(max_examples=20, deadline=None)
@given(mags=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4),
       kappa=st.floats(1.6, 6.0))
def test_series_laplace_matches_quadrature(mags, kappa):
    cs = [-m * 100.0**-k for k, m in enumerate(mags)]  # decaying: R safely > 1
    amp = _amp(ZeroForm(), cs, d=5, delta=-2.0, K=8)
    closed = float(amp.steklov_gap(kappa))
    numeric = laplace_of_series(amp.term_coeffs, amp.term_mu, kappa)
    assert closed == pytest.approx(numeric, rel=1e-7, abs=1e-10)


def test_asymptotic_drift_vanishes():
    amp = _amp(B1, [], delta=0.5)
    drifts = [abs(wt_from_amplitude(amp, k)[0][0] + k) for k in (4.0, 8.0, 16.0, 32.0)]
    assert all(b < a for a, b in zip(drifts, drifts[1:]))


# --- spectra and gaps --------------------------------------------------------


def test_flat_spectrum_is_the_index_sequence():
    for d, K in ((3, 3), (5, 2)):
        params = make_spectral_params(d, 0.0, K)
        values, _ = wt_from_ode(ZeroForm(), params.kappa)
        assert np.allclose(steklov_spectrum(params, values), np.arange(K + 1), atol=1e-8)


def test_bargmann1_first_eigenvalue():
    params = make_spectral_params(3, 0.5, 2)
    amp = _amp(B1, [], delta=0.5, K=2)
    # kappa_1 = 1.5: sigma_1 = -1/2 + 3/2 - 0.75/2 = 0.625
    assert _sigma(amp, params)[1] == pytest.approx(0.625, rel=1e-10)


def test_dn_gap_identical_and_shifted():
    params = make_spectral_params(3, 1.0, 64)
    amp = _amp(ZeroForm(), [-1e-3], K=64)
    base = _sigma(_amp(ZeroForm(), [], K=64), params)
    pert = _sigma(amp, params)

    again = _sigma(_amp(ZeroForm(), [], K=64), params)
    assert np.max(np.abs(again - base)) == 0.0  # the same amplitude: no gap
    # max at k = 0: |c| / (2 kappa_0 + mu_0) = 1e-3 / 3
    assert np.max(np.abs(pert - base)) == pytest.approx(1e-3 / 3.0, rel=1e-12)


def test_monotone_gap_decay_in_k():
    params = make_spectral_params(3, 1.0, 32)
    amp = _amp(ZeroForm(), [-1.0], K=32)
    diffs = np.abs(_sigma(_amp(ZeroForm(), [], K=32), params) - _sigma(amp, params))
    assert np.all(np.diff(diffs) < 0)


# --- Jost closed forms -------------------------------------------------------


def test_jost_values_and_roots():
    assert B1.jost0(0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert B1.jost0(-0.5) == 0.0  # the real resonance at -gamma
    assert B2.jost0(0.5) == 0.0   # the bound state at kappa1
    with pytest.raises(ValidationError):
        B1.jost0(-1.0)  # pole at -beta
