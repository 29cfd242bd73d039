import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from steklovlab import (MuntzSeries, NumericalError, ValidationError, g_function,
                        make_spectral_params, moment, muntz_coeff_squares,
                        muntz_coeffs, n_of_eps, project, still_bound,
                        system_for_params)

from oracles import gram_residual_loop, rational_gram_schmidt

SQ5 = math.sqrt(5.0)


def _ladder(n: int):
    """The system on t^0, t^2, ..., t^{2n}: the ladder of d = 3, delta = 0."""
    return system_for_params(make_spectral_params(3, 0.0, n), n)


def test_two_exponent_coefficients():
    rows = muntz_coeffs([0.0, 2.0])
    assert float(rows[0][0]) == pytest.approx(1.0, rel=1e-15)          # L_0 = 1
    assert float(rows[1][0]) == pytest.approx(-SQ5 / 2.0, rel=1e-13)   # -1.118034
    assert float(rows[1][1]) == pytest.approx(3.0 * SQ5 / 2.0, rel=1e-13)  # 3.354102


def test_two_exponent_orthonormality():
    # int_0^1 L_1^2 = C10^2 + 2 C10 C11 / 3 + C11^2 / 5 = 1
    h = MuntzSeries(coeffs=(-SQ5 / 2.0, 3.0 * SQ5 / 2.0), exponents=(0.0, 2.0))
    assert h.norm_sq() == pytest.approx(1.0, rel=1e-13)


def test_series_values_closed_form():
    h = MuntzSeries((2.0, -1.0, 0.5), (0.0, 1.5, 4.0))
    ts = [0.0, 0.3, 1.0]
    want = [2.0 - t**1.5 + 0.5 * t**4 for t in ts]  # e = 0 gives 1 at t = 0
    assert h(np.array(ts)) == pytest.approx(want, rel=1e-15, abs=0)
    assert h(0.0) == 2.0
    assert h(0.3) == pytest.approx(want[1], rel=1e-15, abs=0)


def test_rejects_repeated_or_decreasing_exponents():
    with pytest.raises(ValidationError):
        muntz_coeffs([0.0, 2.0, 2.0])
    with pytest.raises(ValidationError):
        muntz_coeffs([2.0, 0.0])


def test_closed_form_matches_rational_gram_schmidt_exactly():
    lam = [Fraction(2 * k) for k in range(7)]  # d=3, delta=0
    ours = muntz_coeff_squares(lam)
    oracle = rational_gram_schmidt(lam)
    for m in range(7):
        for j in range(m + 1):
            assert ours[m][j] == oracle[m][j]  # exact Fraction equality


def test_mpf_table_matches_exact_squares():
    lam = [Fraction(2 * k) for k in range(7)]
    rows = muntz_coeffs([float(e) for e in lam], precision=256)
    exact = muntz_coeff_squares(lam)
    for m in range(7):
        for j in range(m + 1):
            sign, c2 = exact[m][j]
            want = sign * math.sqrt(float(c2))
            assert abs(float(rows[m][j]) - want) <= 1e-12 * max(1.0, abs(want))
    # the benchmark's ladders at n = 30, in working precision: the ratio
    # recurrence must keep at least 60 of the 77 working digits
    for d, delta in ((3, Fraction(0)), (3, Fraction(1, 2)), (3, Fraction(1)), (5, Fraction(-2))):
        lam = [2 * k + d - 3 + delta for k in range(31)]
        rows = muntz_coeffs([float(e) for e in lam], precision=256)
        with mp.workprec(256):
            for row, exact_row in zip(rows, muntz_coeff_squares(lam)):
                for c, (sign, c2) in zip(row, exact_row):
                    want = sign * mp.sqrt(mpf(c2.numerator) / c2.denominator)
                    assert abs(c - want) <= 1e-60 * abs(want)


@pytest.mark.parametrize("d,delta", [(3, 0.0), (3, 0.5), (5, -2.0)])
def test_gram_identity_within_1e8(d, delta):
    params = make_spectral_params(d, delta, 10)
    system = system_for_params(params, 10, precision=256)
    assert system.gram_residual() <= 1e-8


@pytest.mark.parametrize("m,j", [(10, 0), (6, 3), (0, 0), (10, 10)])
def test_gram_residual_sees_every_pair(m, j):
    # one table entry off by 1e-25 relative: the residual must find it
    # wherever it sits, and agree with the term-by-term sum
    system = system_for_params(make_spectral_params(3, 0.0, 10), 10, precision=256)
    C = [list(row) for row in system.C]
    with mp.workprec(256):
        C[m][j] *= 1 + mpf(10) ** -25
    bad = dataclasses.replace(system, C=tuple(tuple(row) for row in C))
    want = gram_residual_loop(bad)
    assert want >= 1e-26
    assert bad.gram_residual() == pytest.approx(want, rel=1e-20, abs=0)


def test_moment_examples():
    assert moment(MuntzSeries((1.0,), (2.0,)), 0.0) == pytest.approx(1.0 / 3.0)
    h = MuntzSeries((-1.0, -1.0), (0.0, 2.0))
    assert moment(h, 2.0) == pytest.approx(-8.0 / 15.0)
    empty = MuntzSeries((), ())
    assert moment(empty, 5.0) == 0.0
    assert empty.norm_sq() == 0.0
    assert np.array_equal(empty(np.array([0.0, 0.5, 1.0])), np.zeros(3))


def test_project_basis_vector():
    system = _ladder(1)
    c10, c11 = (float(c) for c in system.C[1])
    h = MuntzSeries((c10, c11), (0.0, 2.0))
    res = project(h, system, 1)
    assert res.coefficients == pytest.approx([0.0, 1.0], abs=1e-12)
    assert res.norm == pytest.approx(1.0, rel=1e-12)


def test_project_monomial_against_rational_oracle():
    # ||pi_1 t^4||^2 over span(t^0, t^2): rational value 129/1225
    system = _ladder(1)
    res = project(MuntzSeries((1.0,), (4.0,)), system, 1)
    assert res.norm**2 == pytest.approx(129.0 / 1225.0, rel=1e-12)
    assert res.norm**2 == pytest.approx(float(Fraction(1, 25) + Fraction(80, 1225)))


def test_project_zero():
    system = _ladder(2)
    res = project(MuntzSeries((), ()), system, 2)
    assert np.all(res.coefficients == 0.0) and res.norm == 0.0


@settings(max_examples=20, deadline=None)
@given(cs=st.lists(st.floats(-2, 2), min_size=1, max_size=4))
def test_bessel_and_monotonicity(cs):
    params = make_spectral_params(3, 0.5, 8)
    system = system_for_params(params, 8)
    h = MuntzSeries(tuple(cs), tuple(0.5 + 1.5 * k for k in range(len(cs))))
    norms = [project(h, system, n).norm for n in range(0, 9, 2)]
    full = math.sqrt(max(h.norm_sq(), 0.0))
    assert all(n <= full * (1 + 1e-10) + 1e-12 for n in norms)
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


@settings(max_examples=20, deadline=None)
@given(cs=st.lists(st.floats(-1, 1), min_size=2, max_size=5))
def test_projection_bound_chain(cs):
    params = make_spectral_params(3, 0.0, 6)
    system = system_for_params(params, 6)
    h = MuntzSeries(tuple(cs), tuple(1.0 + 2.0 * k for k in range(len(cs))))
    n = 6
    eps = max(abs(moment(h, lam)) for lam in system.exponents)
    res = project(h, system, n)
    bound = eps**2 * sum(system.condition_proxy(k) ** 2 for k in range(n + 1))
    assert res.norm**2 <= bound * (1 + 1e-9)


def test_projection_inside_span_is_identity():
    system = _ladder(2)
    h = MuntzSeries((0.3, -0.7, 0.2), (0.0, 2.0, 4.0))
    res = project(h, system, 2)
    assert res.norm**2 == pytest.approx(h.norm_sq(), rel=1e-12)


def test_g_function_value_and_monotonicity():
    assert g_function(0.0, 2.0) == pytest.approx(13.5 / math.sqrt(80.0), rel=1e-15)
    assert g_function(0.0, 2.0) == pytest.approx(1.509345884812358, rel=1e-13)
    assert g_function(1.0, 2.0) > g_function(0.0, 2.0)
    with pytest.raises(ValidationError):
        g_function(-1.0, 2.0)


def test_n_of_eps_growth_rate():
    # floor(g^{-1}(1/sqrt(eps))) grows like log(1/sqrt(eps))/log(9 M0/2):
    # increments over six decades match the predicted rate within 5%
    ns, Ls = [], []
    for e in (1e-6, 1e-8, 1e-10, 1e-12):
        ns.append(n_of_eps(e, 2.0))
        Ls.append(math.log(1.0 / math.sqrt(e)) / math.log(9.0))
    assert ns == [2, 3, 4, 5]
    ratio = (ns[-1] - ns[0]) / (Ls[-1] - Ls[0])
    assert abs(ratio - 1.0) <= 0.05


def test_n_of_eps_clamps_with_warning():
    with pytest.warns(UserWarning):
        assert n_of_eps(1.0, 2.0) == 0


def test_still_bound_values():
    params = make_spectral_params(3, 0.0, 4)
    assert still_bound(0.0, 9.0, params) == 0.0
    # d=3, delta=0, R=9: exponent log 9/log 9 = 1, prefactor 9^{-2}
    assert still_bound(1e-4, 9.0, params) == pytest.approx(
        1.0123456790123457e-4, rel=1e-14)
    assert still_bound(1e-4, math.inf, params) == pytest.approx(1e-4)  # R^{-2} eps^inf = 0
    with pytest.raises(ValidationError):
        still_bound(1e-4, 0.9, params)


def test_certified_range_refusal_at_low_precision():
    params = make_spectral_params(3, 0.0, 16)
    system = system_for_params(params, 16, precision=64)
    h = MuntzSeries((1.0,), (2.0,))
    with pytest.raises(NumericalError):
        project(h, system, 15)  # condition proxy ~ 2e11 > 10^{19-8}
    assert project(h, system, 10).norm > 0  # still certified at n = 10
