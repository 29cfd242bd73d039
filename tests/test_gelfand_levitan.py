import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exprel

from steklovlab import (Bargmann1, Bargmann2, NumericalError, ValidationError,
                        ZeroForm, build_perturbed_amplitude, GeometricTail,
                        make_spectral_params, p_from_amplitude,
                        p_prime_from_amplitude, recover_potential, solve_gl)
from steklovlab import gelfand_levitan as gl
from steklovlab.cli import main
from steklovlab.gelfand_levitan import (_assemble, _exprel, _kernels, _sample,
                                        _unit_piece_weights)
from steklovlab.quadrature import l2_norm

from oracles import (gl_dense_solution, gl_node_system, gl_residual_loop, nystrom_matrix,
                     recover_potential_loop, unit_piece_weights_loop)

B1 = Bargmann1(beta=1.0, gamma=0.5)
B2 = Bargmann2(c1=1.0, kappa1=0.5)
TAIL = GeometricTail(a=0.1, rho=1.0 / 9.0)


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


def test_exprel_matches_scipy():
    # expm1(z)/z against scipy's exprel: a few ulps from the two expm1s and the
    # division; exactly 1 where |z| < eps, as in scipy's definition
    rng = np.random.default_rng(7)
    z = np.concatenate([rng.uniform(-60.0, 60.0, 20000), rng.normal(0.0, 1e-6, 5000),
                        rng.normal(0.0, 1e-15, 5000), [0.0, -0.0, 2.3e-16, 1e-300]])
    ref = exprel(z)
    assert np.all(np.abs(_exprel(z) - ref) <= 4.0 * np.finfo(float).eps * ref)
    tiny = np.abs(z) < np.finfo(float).eps
    assert np.all(_exprel(z)[tiny] == 1.0) and tiny.sum() > 500
    assert np.isnan(_exprel(np.array([np.nan]))).all()


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
    assert ws.residual == 0.0


def test_kernel_symmetry_exact():
    # the x = 0 kernel p(2T-t-s) - p(|t-s|) as the assembler gathers it
    T, n = 2.0, 64
    (pt, ph, _, _), _ = _sample(amp_of(B1), T, n, np.linspace(0.0, T, n + 1))
    pS, pL = _kernels(pt, ph, n)
    kernel = pS - np.where(np.tri(n + 1, dtype=bool), pL, pL.T)
    assert np.array_equal(kernel, kernel.T)
    assert np.array_equal(pL[1:, 1:], pL[:-1, :-1])  # p(t_i - t_j) is exactly Toeplitz


def test_residual_small_bargmann():
    ws = solve_gl(amp_of(B1), 2.0, 128)
    assert ws.residual <= 1e-10


def test_residual_scale_independent():
    # residual is a linear-solver property, not a perturbation-size property
    res = []
    for s in (1e-1, 1e-3):
        ws = solve_gl(amp_of(ZeroForm(), gen=GeometricTail(a=s, rho=1.0 / 9.0)), 2.0, 64)
        res.append(ws.residual)
    assert all(r <= 1e-12 for r in res)


def test_fourth_order_refinement():
    # on the common grid, against the closed forms of both wells
    for form in (B1, B2):
        errs = []
        for M in (32, 64, 128):
            q = recover_potential(solve_gl(amp_of(form), 2.0, M))
            errs.append(rel_l2_err(q, form.potential))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 3.5 for o in orders), (form, orders)


def test_fourth_order_self_convergence_geometric_tail():
    # no closed form: successive differences over M = 32, 64, 128 on the
    # coarser grid of each pair must shrink like h^4
    amp = amp_of(ZeroForm(), gen=TAIL)
    qs = [recover_potential(solve_gl(amp, 2.0, M)) for M in (32, 64, 128)]
    gaps = [l2_norm(fine.values[::2] - coarse.values, coarse.grid[1])
            for coarse, fine in zip(qs, qs[1:])]
    assert math.log2(gaps[0] / gaps[1]) >= 3.5


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


@pytest.mark.parametrize("amp,M", [
    (amp_of(B1), 128),
    (amp_of(B2), 64),
    (amp_of(ZeroForm(), gen=TAIL), 64),
    (amp_of(B1), 64),
])
def test_residual_equals_reassembly_oracle(amp, M):
    # the solve-time residual, A0[i:, i:] V plus the corner columns, is the one
    # a fresh assembly of every node's system gives, up to the rounding by
    # which two evaluation orders of one residual entry can differ
    ws = solve_gl(amp, 2.0, M)
    residual, bound = gl_residual_loop(ws)
    assert abs(ws.residual - residual) <= bound
    assert ws.residual <= 1e-12


def test_closed_form_weights_match_row_loop():
    for n in [*range(3, 41), 512]:
        assert np.array_equal(_unit_piece_weights(n), unit_piece_weights_loop(n)), n


@pytest.mark.parametrize("n", [4, 5, 6, 7, 64, 511])
def test_buffer_assembly_matches_allocating_expression(n):
    # the x = 0 matrix, assembled reversed and in place in the weight table,
    # is the allocating expression bitwise; odd n use the 3/8-patched row
    amp, T = amp_of(B2, [-0.2]), 2.0
    h = T / n
    (pt, ph, _, _), _ = _sample(amp, T, n, np.linspace(0.0, T, n + 1))
    W = _unit_piece_weights(n)
    ref_W = W.copy()
    B, P, hw4 = _assemble((pt, ph), h, W)
    pS, pL = _kernels(pt, ph, n)
    ref = nystrom_matrix(pS, pL, h * ref_W[n], h * ref_W)
    assert np.array_equal(B[::-1, ::-1], ref)
    assert np.shares_memory(P, W)
    assert np.array_equal(P, (h * ref_W) * pL)
    assert np.array_equal(hw4, h * ref_W[:, :4])


@pytest.mark.parametrize("amp", [amp_of(B1), amp_of(B2), amp_of(ZeroForm(), gen=TAIL)],
                         ids=["bargmann1", "bargmann2", "tail"])
@pytest.mark.parametrize("M", [64, 128])
def test_node_matrices_nest_in_x0_block(amp, M):
    # every nested node's matrix is the trailing block of the x = 0 matrix
    # outside its first four columns, bitwise
    ws = solve_gl(amp, 2.0, M)
    W = _unit_piece_weights(M)
    B, _, _ = _assemble(ws.lattices[0], 2.0 / M, W.copy())
    A0 = B[::-1, ::-1]
    assert np.array_equal(gl_node_system(ws, 0, W)[0], A0)
    for i in range(1, M - 3):
        mat = gl_node_system(ws, i, W)[0]
        assert np.array_equal(mat[:, 4:], A0[i:, i + 4:]), i
        assert not np.array_equal(mat[:, :4], A0[i:, i: i + 4]), i


@pytest.mark.parametrize("amp", [amp_of(B1), amp_of(B2), amp_of(ZeroForm(), gen=TAIL)],
                         ids=["bargmann1", "bargmann2", "tail"])
@pytest.mark.parametrize("M", [64, 128])
def test_nested_solution_matches_dense_lu(amp, M):
    ws = solve_gl(amp, 2.0, M)
    W = _unit_piece_weights(M)
    for i in range(M):
        V, Vx = gl_dense_solution(ws, i, W)
        assert np.max(np.abs(ws.V[i] - V)) <= 1e-13 * np.max(np.abs(V)), i
        assert np.max(np.abs(ws.Vx[i] - Vx)) <= 1e-13 * np.max(np.abs(Vx)), i
    assert np.all(ws.V[M] == 0.0) and np.all(ws.Vx[M] == 0.0)


@pytest.mark.parametrize("k", [1, 15, 16, 17, 33, 100])
def test_unpivoted_lu_matches_lapack_on_dominant_panels(k):
    # on a tall panel whose columns are diagonally dominant, partial pivoting
    # swaps no rows (P = I), so the pivoted LU is the unpivoted one. k spans a
    # lone leaf, leaves of either side of _LEAF and the recursion
    from scipy.linalg import lu
    gl._load_lapack()
    rng = np.random.default_rng(k)
    a = rng.uniform(-1.0, 1.0, (k + 4, k))
    a[np.arange(k), np.arange(k)] = np.abs(a).sum(axis=0) + 1.0
    f = np.array(a, order="F")
    gl._lu_nopivot(f)
    L, U = np.tril(f, -1) + np.eye(k + 4, k), np.triu(f[:k])
    assert np.max(np.abs(L @ U - a)) <= 1e-14 * np.linalg.norm(a, 1)
    P, ref_L, ref_U = lu(a)
    assert np.array_equal(P, np.eye(k + 4))
    assert np.max(np.abs(L - ref_L)) <= 1e-14
    assert np.max(np.abs(U - ref_U)) <= 1e-14 * np.max(np.abs(ref_U))


def test_stacked_schur_inverse_matches_per_block_lapack():
    # _inv4 inverts a stack of 4 x 4 Schur blocks in one call. Two orders of
    # rounding differ by up to about eps times the block's condition number,
    # so every block agrees with its own getrf/getri inverse to 1e-15
    # relative, scaled by cond_1 of the block. An exactly singular block gets
    # a NaN inverse and nothing raises
    from scipy.linalg import inv, lu_factor
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 4, 4))
    a[1] *= np.exp(rng.uniform(-5.0, 5.0, (1, 4)))      # unevenly scaled columns
    a[2] = np.eye(4)[::-1] + 1e-3 * a[2]                # pivots at every step
    a[3, 0, 0] = 0.0                                    # cannot start without a swap
    a[4, :, 2] = 0.0                                    # exactly singular: a zero pivot
    x = gl._inv4(a)
    assert np.all(np.isnan(x[4]))
    steps = np.zeros(4, dtype=int)
    for k in np.flatnonzero(np.arange(len(a)) != 4):
        ref = inv(a[k])
        tol = 1e-15 * np.linalg.cond(a[k], 1)
        assert np.max(np.abs(x[k] - ref)) <= tol * np.max(np.abs(ref)), k
        piv = lu_factor(a[k])[1]
        steps += piv != np.arange(4)
        assert k != 2 or np.all(piv[:3] == [3, 2, 2])
        assert k != 3 or piv[0] != 0
    assert np.all(steps[:3] > 50)


@pytest.mark.parametrize("amp", [amp_of(B1), amp_of(B2), amp_of(ZeroForm(), gen=TAIL)],
                         ids=["bargmann1", "bargmann2", "tail"])
@pytest.mark.parametrize("M", [64, 128])
def test_group_recovery_matches_node_loop(amp, M):
    # Q taken per node group at solve time is the node-by-node recovery loop,
    # up to the order of its sums
    ws = solve_gl(amp, 2.0, M)
    q, ref = recover_potential(ws).values, recover_potential_loop(ws)
    assert np.max(np.abs(q - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("amp", [amp_of(B1), amp_of(B2), amp_of(ZeroForm(), gen=TAIL)],
                         ids=["bargmann1", "bargmann2", "tail"])
@pytest.mark.parametrize("M", [64, 128])
def test_group_size_leaves_solution_unchanged(monkeypatch, amp, M):
    # node groups of _BATCH = 4 and of the default size pad, multiply and
    # substitute differently, and agree to rounding
    ws = solve_gl(amp, 2.0, M)
    monkeypatch.setattr(gl, "_BATCH", 4)
    small = solve_gl(amp, 2.0, M)
    for i in range(M):
        for u, v in ((ws.V[i], small.V[i]), (ws.Vx[i], small.Vx[i])):
            assert np.max(np.abs(u - v)) <= 1e-14 * np.max(np.abs(u)), i


def _record_gates(monkeypatch):
    """Spy on both conditioning gates: ([(M, ms, certificates)] per nested
    node group, [(factors, anorm)] per gecon call)."""
    certs, calls = [], []
    get, certify = gl.get_lapack_funcs, gl._Nested._certificates

    def recording(names, arrays):
        funcs = list(get(names, arrays))
        if "gecon" in names:
            gecon = funcs[names.index("gecon")]
            funcs[names.index("gecon")] = lambda a, anorm: (
                calls.append((np.array(a), anorm)) or gecon(a, anorm))
        return funcs

    def certificates(self, ms, sinv, Z):
        cert = certify(self, ms, sinv, Z)
        certs.append((self.M, ms.copy(), cert.copy()))
        return cert

    monkeypatch.setattr(gl, "get_lapack_funcs", recording)
    monkeypatch.setattr(gl._Nested, "_certificates", certificates)
    return certs, calls


def _gated_once(ws, certs, calls):
    """Every node passed exactly one gate decision: the three floor nodes by
    gecon, each nested node by its certificate, and by gecon exactly where its
    certificate could not pass. Returns {node: certificate} and the nested
    gecon calls as (node, factors, anorm)."""
    M = ws.M
    cert = {M + 1 - int(m): float(c) for _, ms, cs in certs for m, c in zip(ms, cs)}
    assert sum(len(ms) for _, ms, _ in certs) == M - 3 and sorted(cert) == list(range(M - 3))
    assert all(size == M for size, _, _ in certs)
    floor, nested = calls[:3], calls[3:]
    assert [len(a) for a, _ in floor] == [5, 5, 5]
    nested = [(M + 1 - len(a), a, anorm) for a, anorm in nested]
    assert sorted(i for i, _, _ in nested) == sorted(i for i, c in cert.items()
                                                     if not c >= gl._GATE)
    return cert, nested


@pytest.mark.parametrize("negate", [False, True], ids=["p", "minus_p"])
@pytest.mark.parametrize("form,T", [(B1, 2.0), (B2, 2.0), (None, 2.0),
                                    (Bargmann2(c1=1.5, kappa1=1.0), 6.0)],
                         ids=["bargmann1", "bargmann2", "tail", "bargmann2_T6"])
@pytest.mark.parametrize("M", [32, 64])
def test_certificate_bounds_exact_inverse_norm(monkeypatch, form, T, negate, M):
    # 1/bound <= 1/||C^{-1}||_1 at every nested node, with the inverse norm of
    # the node's own matrix taken exactly; on the admissible wells at T = 2
    # the bound is at most 16 times the exact norm
    p = gl.p_from_amplitude
    if negate:
        monkeypatch.setattr(gl, "p_from_amplitude", lambda A, t: -p(A, t))
    certs, calls = _record_gates(monkeypatch)
    amp = amp_of(ZeroForm(), gen=TAIL) if form is None else amp_of(form)
    ws = solve_gl(amp, T, M)
    cert, _ = _gated_once(ws, certs, calls)
    W = _unit_piece_weights(M)
    for i, c in cert.items():
        exact = 1.0 / np.abs(np.linalg.inv(gl_node_system(ws, i, W)[0])).sum(axis=0).max()
        assert c <= exact, i
        if T == 2.0 and not negate:
            assert exact <= 16.0 * c, i


def test_conditioning_gate_sees_every_node_factored(monkeypatch):
    # at a long horizon the unpivoted factors grow and the bound cannot pass
    # some nodes; gecon runs on those, on an LU factorization of that node's
    # own matrix (rows of the last four, the Schur block, may be permuted; on
    # the floor nodes any rows) and with that matrix's 1-norm. With p negated,
    # some of their Schur blocks pivot.
    p = gl.p_from_amplitude
    monkeypatch.setattr(gl, "p_from_amplitude", lambda A, t: -p(A, t))
    certs, calls = _record_gates(monkeypatch)
    M = 64
    ws = solve_gl(amp_of(Bargmann2(c1=1.5, kappa1=1.0)), 6.0, M)
    _, nested = _gated_once(ws, certs, calls)
    assert len(nested) > 0
    nodes = [(M - 3 + k, a, anorm) for k, (a, anorm) in enumerate(calls[:3])] + nested
    permuted = 0
    for i, a, anorm in nodes:
        mat = gl_node_system(ws, i)[0]
        fixed = 0 if i >= M - 3 else len(a) - 4
        if i < M - 3:
            mat = mat[::-1, ::-1]  # the nested path factors the reversed matrix
        assert anorm == pytest.approx(np.abs(mat).sum(axis=0).max(), rel=1e-13, abs=0)
        L, U = np.tril(a, -1) + np.eye(len(a)), np.triu(a)
        LU = L @ U
        # LU's backward error is of order eps |L| |U|, which exceeds eps |mat|
        # where the unpivoted factors grow
        tol = 1e-13 * (np.abs(L) @ np.abs(U)).max()
        assert np.max(np.abs(LU[:fixed] - mat[:fixed]), initial=0.0) <= tol, i
        gaps = np.abs(LU[fixed:, None, :] - mat[None, fixed:, :]).max(axis=2)
        rows = gaps.argmin(axis=1)
        assert sorted(rows) == list(range(len(rows))) and gaps.min(axis=1).max() <= tol, i
        permuted += i < M - 3 and list(rows) != list(range(4))
    assert permuted > 0


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


def test_residual_propagates_nan(monkeypatch, capsys, tmp_path):
    # a NaN right-hand side leaves the matrix finite, so only the residual
    # sees it: the solve raises there, and reconstruct exits 3
    dp = gl.p_prime_from_amplitude

    def poisoned(A, t):
        out = np.array(dp(A, t), dtype=float)
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(gl, "p_prime_from_amplitude", poisoned)
    with pytest.raises(NumericalError, match="non-finite residual at x="):
        solve_gl(amp_of(B1), 2.0, 32)
    code = main(["reconstruct", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5",
                 "--M", "32", "--output", str(tmp_path / "q.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("[gelfand_levitan] non-finite residual")


def test_near_singular_node_fails_tagged(monkeypatch, capsys, tmp_path):
    # scale p so that the x = 0 matrix I + s K0 is singular: K0 is linear in
    # p, so s = -1/lambda for a real eigenvalue lambda of K0. The gecon gate
    # of the nested path must refuse that node.
    amp, M = amp_of(B1), 32
    K0 = gl_node_system(solve_gl(amp, 2.0, M), 0)[0] - np.eye(M + 1)
    lam = np.linalg.eigvals(K0)
    lam = lam[np.abs(lam.imag) < 1e-12].real
    s = -1.0 / lam[np.argmax(np.abs(lam))]
    p = gl.p_from_amplitude
    monkeypatch.setattr(gl, "p_from_amplitude", lambda A, t: s * p(A, t))
    with pytest.raises(NumericalError, match="nearly singular at x=0 "):
        solve_gl(amp, 2.0, M)
    code = main(["reconstruct", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5",
                 "--M", "32", "--output", str(tmp_path / "q.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("[gelfand_levitan] Nystrom system nearly singular")


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
