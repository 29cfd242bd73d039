import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from steklovlab import (MuntzSeries, NumericalError, ValidationError,
                        make_spectral_params, muntz_coeff_squares, muntz_coeffs,
                        still_bound, system_for_params)
from steklovlab.muntz import MuntzSystem

from oracles import (gram_residual_fdot, gram_residual_loop, muntz_rows_mpf_left,
                     rational_gram_schmidt)

SQ5 = math.sqrt(5.0)


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
    empty = MuntzSeries((), ())
    assert empty.norm_sq() == 0.0
    assert np.array_equal(empty(np.array([0.0, 0.5, 1.0])), np.zeros(3))


def test_rejects_repeated_or_decreasing_exponents():
    with pytest.raises(ValidationError):
        muntz_coeffs([0.0, 2.0, 2.0])
    with pytest.raises(ValidationError):
        muntz_coeffs([2.0, 0.0])
    with pytest.raises(ValidationError, match="lam_0 >= 0"):
        muntz_coeffs(iter([-1.0, 2.0]))
    with pytest.raises(ValidationError, match="need at least one exponent"):
        muntz_coeffs(iter([]))
    # the order is checked level by level, as the rows are built: a ladder
    # that breaks it past the certified range is refused at that range
    ladder = [2.0 * k + 0.5 for k in range(100)] + [0.0]
    with pytest.raises(NumericalError, match=r"level n=91 exceeds the certified range"):
        muntz_coeffs(iter(ladder), precision=256)
    with pytest.raises(ValidationError, match="strictly increasing"):
        muntz_coeffs(iter(ladder[85:]), precision=256)


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


@pytest.mark.parametrize("d,delta,precision,sizes", [
    (3, 0.0, 53, (0, 1, 2, 5, 9)),            # 9 is the last certified level at 53 bits
    (5, -1.0, 64, (0, 1, 2, 5, 14)),
    (3, 0.5, 256, (0, 1, 2, 5, 17, 30, 90)),  # the bench's size; 90 is its last level
    (4, 0.5, 256, (5, 17, 30)),               # rows whose spreads add past 2 prec
    (4, 0.37, 256, (17, 60)),
    (5, 1.0, 512, (2, 17, 60)),
    (4, 0.37, 40, (0, 1, 2, 4)),              # each exponent rounds to 40 bits as mp.mpf does
])
def test_table_and_residual_equal_the_reference_bitwise(d, delta, precision, sizes):
    # the rows against the recurrence with an mpf on the left, the residual
    # against mp.fdot over full rows: every bit, not a tolerance
    params = make_spectral_params(d, delta, sizes[-1])
    system = system_for_params(params, sizes[-1], precision)
    rows = muntz_rows_mpf_left(system.exponents, precision)
    assert [[c._mpf_ for c in row] for row in system.C] == [[c._mpf_ for c in row] for row in rows]
    for n in sizes:
        assert system.gram_residual(n) == gram_residual_fdot(system, n)


def test_residual_follows_mpf_sum_past_its_spread():
    # mpf_sum drops a term more than 2 prec bits below the running sum. In
    # (C H)_10 = 2^-300 * 1 + 3 / 1.7 at 53 bits the dropped term would break
    # a rounding tie, and 2 (C H)_10 is the largest residual entry
    with mp.workprec(53):
        C = ((mpf(2),), (mpf(2) ** -300, mpf(3)))
        h = 1 / (mpf(0.7) + 1)
        ch10 = mp.fdot(C[1], [1, h])
    with mp.workprec(1000):
        exact = C[1][0] + C[1][1] * h  # no rounding at 1000 bits
    with mp.workprec(53):
        assert +exact != ch10  # rounded once with the term kept, the last bit moves
    system = MuntzSystem(exponents=(0.0, 0.7), C=C, precision=53)
    assert system.gram_residual() == gram_residual_fdot(system) == float(2 * ch10)


def test_table_and_residual_never_render_an_array(monkeypatch):
    # an mpf on the left of an mpf array makes mpmath try npconvert on the
    # array, which builds its repr before the TypeError that hands the
    # operation to numpy
    calls = []
    npconvert = mp.npconvert

    def counted(x):
        calls.append(type(x))
        return npconvert(x)

    monkeypatch.setattr(mp, "npconvert", counted)
    system = system_for_params(make_spectral_params(3, 0.5, 30), 30, 256)
    system.gram_residual()
    assert calls == []
    muntz_rows_mpf_left(system.exponents[:3], 256)  # the counter sees the old order
    assert calls


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
    # 64 bits carry 19 digits: the condition proxy sum_p |C_mp| first passes
    # 10^{19-8} at level 15, and the table is refused there, as it is built
    params = make_spectral_params(3, 0.0, 16)
    with pytest.raises(NumericalError, match=r"level n=15 exceeds the certified range"):
        system_for_params(params, 16, precision=64)
    assert system_for_params(params, 10, precision=64).n == 10  # still certified


def test_refusal_converts_only_the_levels_it_builds():
    # the 10^5-exponent ladder of d = 3, delta = 1/2 is refused at level 91
    # at 256 bits: the exponents are read, converted and rooted one level at
    # a time, so the refusal reads 92 exponents, not 10^5 + 1
    read = []

    def counted(ladder):
        for x in ladder:
            read.append(x)
            yield x

    ladder = make_spectral_params(3, 0.5, 1).lam_at(np.arange(10**5 + 1)).tolist()
    with pytest.raises(NumericalError, match=r"level n=91 exceeds the certified range"):
        muntz_coeffs(counted(ladder), precision=256)
    assert len(read) <= 92


def test_ladder_does_not_depend_on_the_parameter_table():
    # lam_k = 2k + d - 3 + delta for any k: a table longer than K is the same
    short, long = (system_for_params(make_spectral_params(3, 0.5, K), 12, 256) for K in (1, 12))
    assert short == long


def test_refusing_a_long_ladder_never_lists_it():
    # the table reads its ladder level by level: the 10^6-exponent ladder is
    # refused at level 91 without listing its 10^6 floats (about 53 MiB)
    params = make_spectral_params(3, 0.5, 1)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=r"level n=91 exceeds the certified range"):
            system_for_params(params, 10**6, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
