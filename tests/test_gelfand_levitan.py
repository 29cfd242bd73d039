import math

import numpy as np
import pytest
from scipy.integrate import quad

from steklovlab import (Bargmann1, Bargmann2, NumericalError, ValidationError,
                        ZeroForm, build_perturbed_amplitude, gl_residual, GeometricTail,
                        make_spectral_params, p_from_amplitude,
                        p_prime_from_amplitude, recover_potential, solve_gl)
from steklovlab import gelfand_levitan as gl
from steklovlab.cli import main
from steklovlab.gelfand_levitan import _kernels, _lattices, _system, _unit_piece_weights
from steklovlab.quadrature import l2_norm

from oracles import gl_residual_loop, nystrom_matrix

B1 = Bargmann1(beta=1.0, gamma=0.5)
B2 = Bargmann2(c1=1.0, kappa1=0.5)


def amp_of(base, coeffs=(), d=3, delta=0.5, gen=None):
    return build_perturbed_amplitude(base, list(coeffs),
                                     make_spectral_params(d, delta, 8), gen)


def rel_l2_err(q, exact_fn):
    h = q.grid[1] - q.grid[0]
    qe = exact_fn(q.grid)
    return l2_norm(q.values - qe, h) / l2_norm(qe, h)


# --- p and p' -----------------------------------------------------------------


def test_p_zero_amplitude():
    amp = amp_of(ZeroForm())
    t = np.linspace(0.0, 4.0, 33)
    assert np.all(p_from_amplitude(amp, t) == 0.0)


def test_p_single_resonance_closed_form():
    # base well with beta=1, gamma=1/2: p(t) = 0.75 (1 - e^{-t/2})
    amp = amp_of(B1)
    t = np.linspace(0.0, 4.0, 41)
    assert np.allclose(p_from_amplitude(amp, t), 0.75 * (1.0 - np.exp(-t / 2.0)),
                       rtol=1e-14)
    # identical series route: zero base, c0 = -1.5 at mu0 = 1
    series = amp_of(ZeroForm(), [-1.5])
    assert np.allclose(p_from_amplitude(series, t), 0.75 * (1.0 - np.exp(-t / 2.0)),
                       rtol=1e-14)


def test_p_zero_rate_term_is_linear():
    amp = amp_of(ZeroForm(), [-1.0], delta=0.0)  # mu0 = 0
    t = np.linspace(0.0, 4.0, 17)
    assert np.allclose(p_from_amplitude(amp, t), t / 4.0, rtol=1e-14)


def test_p_prime_is_quarter_amplitude():
    amp = amp_of(B2, [-0.2])
    t = np.linspace(0.0, 3.0, 13)
    assert np.allclose(p_prime_from_amplitude(amp, t), -0.25 * amp(t / 2.0), rtol=1e-14)


def test_p_matches_quadrature_of_definition():
    amp = amp_of(B2, [-0.3, -0.01])
    for t in (0.5, 1.3, 2.7):
        ref, _ = quad(lambda a: float(amp(a)), 0.0, t / 2.0, epsabs=1e-13)
        assert p_from_amplitude(amp, t) == pytest.approx(-0.5 * ref, rel=1e-10)


# --- solver -------------------------------------------------------------------


def test_zero_amplitude_fixed_point():
    ws = solve_gl(amp_of(ZeroForm()), 2.0, 32)
    assert all(np.all(v == 0.0) for v in ws.V)
    q = recover_potential(ws)
    assert np.all(q.values == 0.0)
    assert gl_residual(ws) == 0.0


def test_kernel_symmetry_exact():
    # the x = 0 kernel p(2T-t-s) - p(|t-s|) as the assembler gathers it
    T, n = 2.0, 64
    pt, ph, _, _ = _lattices(amp_of(B1), T, 0.0, T / n, n)
    pS, pL = _kernels(pt, ph, n)
    kernel = pS - np.where(np.tri(n + 1, dtype=bool), pL, pL.T)
    assert np.array_equal(kernel, kernel.T)
    assert np.array_equal(pL[1:, 1:], pL[:-1, :-1])  # p(t_i - t_j) is exactly Toeplitz


def test_residual_small_bargmann():
    ws = solve_gl(amp_of(B1), 2.0, 128)
    assert gl_residual(ws) <= 1e-10


def test_residual_scale_independent():
    # residual is a linear-solver property, not a perturbation-size property
    res = []
    for s in (1e-1, 1e-3):
        ws = solve_gl(amp_of(ZeroForm(), gen=GeometricTail(a=s, rho=1.0 / 9.0)), 2.0, 64)
        res.append(gl_residual(ws))
    assert all(r <= 1e-12 for r in res)


def test_fourth_order_refinement():
    errs = []
    for M in (32, 64, 128):
        q = recover_potential(solve_gl(amp_of(B1), 2.0, M))
        errs.append(rel_l2_err(q, B1.potential))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o >= 3.5 for o in orders)


@pytest.mark.parametrize("form", [Bargmann1(beta=1.0, gamma=0.5),
                                  Bargmann1(beta=2.0, gamma=1.0),
                                  Bargmann2(c1=1.0, kappa1=0.5),
                                  Bargmann2(c1=0.5, kappa1=1.0)])
def test_oracle_reconstruction(form):
    errs = []
    for M in (128, 256):
        q = recover_potential(solve_gl(amp_of(form), 2.0, M))
        errs.append(rel_l2_err(q, form.potential))
    assert errs[-1] <= 1e-3
    assert errs[1] < errs[0]  # decreasing under refinement


def test_series_and_base_routes_reconstruct_identically():
    q_base = recover_potential(solve_gl(amp_of(B1), 2.0, 64))
    q_series = recover_potential(solve_gl(amp_of(ZeroForm(), [-1.5]), 2.0, 64))
    assert np.allclose(q_base.values, q_series.values, atol=1e-12)


def test_workers_do_not_change_output():
    ws1 = solve_gl(amp_of(B1), 2.0, 64, workers=1)
    q1 = recover_potential(ws1)
    for workers in (2, 3, 4):
        ws = solve_gl(amp_of(B1), 2.0, 64, workers=workers)
        assert all(np.array_equal(a, b) for a, b in zip(ws.V, ws1.V))
        assert all(np.array_equal(a, b) for a, b in zip(ws.Vx, ws1.Vx))
        assert gl_residual(ws) == gl_residual(ws1)
        assert np.array_equal(recover_potential(ws).values, q1.values)


@pytest.mark.parametrize("amp,M,workers", [
    (amp_of(B1), 128, 1),
    (amp_of(B2), 64, 1),
    (amp_of(ZeroForm(), gen=GeometricTail(a=0.1, rho=1.0 / 9.0)), 64, 1),
    (amp_of(B1), 64, 2),
])
def test_residual_equals_reassembly_oracle(amp, M, workers):
    # the solve-time residual is the one a fresh assembly of every system gives
    ws = solve_gl(amp, 2.0, M, workers=workers)
    assert gl_residual(ws) == gl_residual_loop(ws)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 64, 511])
def test_buffer_assembly_matches_allocating_expression(n, monkeypatch):
    if n % 2:
        # _subgrid never gives odd n (Simpson needs an even count), but odd n
        # exercises the odd diagonal stride and the reversal of the buffer
        # layout; row weights defined for any n stand in for Simpson there
        monkeypatch.setattr(gl, "simpson_weights",
                            lambda m, h: h * np.linspace(0.5, 1.5, m + 1))
    amp, T, x = amp_of(B2, [-0.2]), 2.0, 0.25
    h = (T - x) / n
    W = _unit_piece_weights(n + 3)
    buf, scratch = np.full((n + 3) ** 2, np.nan), np.full((n + 3) ** 2, np.nan)
    mat, _, _ = _system(amp, T, x, h, n, W, buf, scratch)
    pt, ph, _, _ = _lattices(amp, T, x, h, n)
    pS, pL = _kernels(pt, ph, n)
    ref = nystrom_matrix(pS, pL, gl.simpson_weights(n, h), h * W[: n + 1, : n + 1])
    assert np.array_equal(mat, ref)
    assert np.shares_memory(mat, buf[: (n + 1) ** 2])
    assert np.all(np.isnan(buf[(n + 1) ** 2:]))  # nothing past the prefix is written


def test_nonfinite_lattice_fails_tagged(monkeypatch, capsys, tmp_path):
    p = gl.p_from_amplitude

    def poisoned(A, t):
        out = np.array(p(A, t), dtype=float)
        out.flat[out.size // 2] = np.nan
        return out

    monkeypatch.setattr(gl, "p_from_amplitude", poisoned)
    with pytest.raises(NumericalError, match="non-finite Nystrom matrix"):
        solve_gl(amp_of(B1), 2.0, 32)
    code = main(["reconstruct", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5",
                 "--M", "32", "--output", str(tmp_path / "q.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("[gelfand_levitan] ")


def test_residual_propagates_nan(monkeypatch):
    # a NaN right-hand side leaves the matrix finite, so the solve goes through
    # and only the residual can report it
    dp = gl.p_prime_from_amplitude

    def poisoned(A, t):
        out = np.array(dp(A, t), dtype=float)
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(gl, "p_prime_from_amplitude", poisoned)
    assert math.isnan(gl_residual(solve_gl(amp_of(B1), 2.0, 32)))


def test_p_gap_bounded_by_amplitude_gap():
    # sup_t |p - p~| <= (1/2) int_0^T |A - A~|: numerical check on a family
    T = 2.0
    base = amp_of(ZeroForm())
    for s in (0.1, 0.01):
        pert = amp_of(ZeroForm(), gen=GeometricTail(a=s, rho=1.0 / 9.0))
        t = np.linspace(0.0, 2.0 * T, 257)
        lhs = np.max(np.abs(p_from_amplitude(pert, t) - p_from_amplitude(base, t)))
        rhs, _ = quad(lambda a: abs(float(pert.series_diff(a))), 0.0, T, limit=200)
        assert lhs <= 0.5 * rhs * (1 + 1e-9)


def test_solver_validation():
    amp = amp_of(ZeroForm())
    with pytest.raises(ValidationError):
        solve_gl(amp, -1.0, 64)
    with pytest.raises(ValidationError):
        solve_gl(amp, 2.0, 65)  # odd
    with pytest.raises(ValidationError):
        solve_gl(amp, 2.0, 16)  # too coarse
