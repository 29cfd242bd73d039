"""Independent oracles used by the tests.

These deliberately avoid the package's own code paths: the rational
Gram-Schmidt works directly on the monomial Gram matrix in exact Fraction
arithmetic, the Laplace/series helpers integrate definitions numerically, the
shooting reference steps RK4 one scalar step at a time, the Gram residual
references sum every coefficient pair one term at a time or take mp.fdot over
full rows, the Muntz rows keep the recurrence's first operand order, and the
GL references assemble every node's Nystrom matrix afresh in one allocating
expression and solve it by a dense pivoted LU, never through the nested
factorization, and the recovery loop takes Q node by node from the captured
solutions rather than per node group at solve time. Those solutions come from
solve_gl_nodes, which watches solve_gl itself: it wraps the node group and the
dense floor solve, copies each node's V and Vx as they return, and samples the
lattices again for the references to slice.
m_fixed_step alone runs the package's own shooting pass, at a fixed step
count, so that tests can read its convergence order and compare it with the
scalar loop. shoot_every_level keeps that pass as it was before the moderate
schedule, renormalizing every level of the product tree, as the bitwise
reference for _shoot.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf
from scipy.integrate import quad


def rational_gram_schmidt(exponents) -> list[list[tuple[int, Fraction]]]:
    """Orthonormalize t^{e_0}, ..., t^{e_n} on [0,1] over the rationals.

    Inner products of monomials are <t^a, t^b> = 1/(a+b+1). Returns, for each
    level m, the list [(sign_j, coeff_j^2)] of the normalized combination with
    positive leading coefficient (norms are irrational, squares are not).
    """
    lam = [Fraction(e) for e in exponents]
    n = len(lam)
    gram = [[Fraction(1, 1) / (lam[i] + lam[j] + 1) for j in range(n)] for i in range(n)]

    def inner(u, v):
        return sum(u[i] * v[j] * gram[i][j] for i in range(n) for j in range(n)
                   if u[i] and v[j])

    us: list[list[Fraction]] = []
    rows = []
    for m in range(n):
        u = [Fraction(0)] * n
        u[m] = Fraction(1)
        for prev in us:
            coef = inner(u, prev) / inner(prev, prev)
            u = [ui - coef * pi for ui, pi in zip(u, prev)]
        us.append(u)
        nrm2 = inner(u, u)
        rows.append([(1 if u[j] > 0 else (-1 if u[j] < 0 else 0), u[j] ** 2 / nrm2)
                     for j in range(m + 1)])
    return rows


def laplace_of_series(coeffs, mus, kappa: float) -> float:
    """Numerical int_0^inf (sum_k c_k e^{-mu_k a}) e^{-2 kappa a} da."""
    def f(a):
        return sum(c * np.exp(-m * a) for c, m in zip(coeffs, mus)) * np.exp(-2 * kappa * a)

    val, _ = quad(f, 0.0, 60.0 / kappa, limit=400, epsabs=1e-14, epsrel=1e-12)
    return float(val)


def laplace_of_amplitude(form, kappa: float) -> float:
    """Numerical int_0^inf A(a) e^{-2 kappa a} da for a closed form's amplitude
    A, by quad on [0, inf). Bargmann2's integrand is written damped,
    (c1/kappa1) expm1(-4 kappa1 a) e^{-2 (kappa - kappa1) a}, because its
    sinh(2 kappa1 a) overflows where the product is still finite."""
    if form.kind == "bargmann2":
        c1, k1 = form.c1, form.kappa1

        def f(a):
            return c1 / k1 * math.expm1(-4.0 * k1 * a) * math.exp(-2.0 * (kappa - k1) * a)
    else:
        def f(a):
            return float(form.amplitude(a)) * math.exp(-2.0 * kappa * a)

    val, _ = quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return float(val)


def series_gap_sq_closed_form(coeffs, lams) -> float:
    """||sum c_k t^{lam_k}||^2 on L^2(0,1) from monomial inner products."""
    total = 0.0
    for ci, li in zip(coeffs, lams):
        for cj, lj in zip(coeffs, lams):
            total += ci * cj / (li + lj + 1.0)
    return float(total)


def rk4_backward_loop(g_half, h: float, kappa: float) -> tuple[float, float]:
    """Integrate u'' = g(x) u from x_max down to 0 with the scaled Jost seed,
    one classical RK4 step at a time.

    g_half holds g = Q + kappa^2 on the half-step grid (2n+1 values, ascending).
    Returns (u(0), u'(0)) up to an irrelevant common rescaling.
    """
    n = (len(g_half) - 1) // 2
    u, v = 1.0, -kappa
    hs = -h
    top = 2 * n
    for j in range(n):
        g0 = g_half[top - 2 * j]
        gm = g_half[top - 2 * j - 1]
        g1 = g_half[top - 2 * j - 2]
        k1u, k1v = v, g0 * u
        k2u = v + 0.5 * hs * k1v
        k2v = gm * (u + 0.5 * hs * k1u)
        k3u = v + 0.5 * hs * k2v
        k3v = gm * (u + 0.5 * hs * k2u)
        k4u = v + hs * k3v
        k4v = g1 * (u + hs * k3u)
        u = u + hs / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + hs / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if abs(u) > 1e150:  # linear problem: rescale to dodge overflow
            v /= abs(u)
            u = math.copysign(1.0, u)
    return u, v


def m_fixed_step_loop(Q, kappa: float, x_max: float, n: int) -> float:
    """u'(0)/u(0) from one backward pass of exactly n scalar RK4 steps."""
    xs = np.linspace(0.0, x_max, 2 * n + 1)
    u0, v0 = rk4_backward_loop((Q(xs) + kappa**2).tolist(), x_max / n, kappa)
    return v0 / u0


def m_fixed_step(Q, kappa: float, x_max: float, n: int) -> float:
    """M value from one backward pass of the package's batched shooting with
    exactly n steps (no step halving), for the order and halving tests."""
    from steklovlab.weyl_titchmarsh import _shoot
    m, _, error = _shoot(Q, np.array([x_max]), np.array([kappa]), n)
    if error is not None:
        raise error
    return float(m[0])


def _pow2_normalize_every(a: np.ndarray) -> np.ndarray:
    return np.ldexp(a, -np.frexp(np.abs(a).max(axis=(0, 1)))[1])


def _mul2_ref(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    return L[:, :1] * R[0] + L[:, 1:] * R[1]


@np.errstate(all="ignore")
def shoot_every_level(Q, x_max: np.ndarray, kappas: np.ndarray, n: int):
    """_shoot's (m, k, error) as the shooting pass computed them before the
    moderate schedule: the grid by np.linspace, the propagators by np.array
    and every level of the product tree renormalized. Renormalizing by powers
    of two is exact, so _shoot must return the same bits and the same error."""
    from steklovlab.errors import NumericalError
    from steklovlab.weyl_titchmarsh import _CHUNK, _MOD
    width = _CHUNK // min(n, _CHUNK)
    m = np.empty(kappas.size)
    tops = q_half = None
    for lo in range(0, kappas.size, width):
        batch = slice(lo, lo + width)
        kap = kappas[batch]
        ends, rows = np.unique(x_max[batch], return_inverse=True)
        if not np.array_equal(ends, tops):
            tops, q_half = ends, Q(np.linspace(0.0, ends, 2 * n + 1, axis=-1))
        g = q_half[rows, ::-1] + kap[:, None] ** 2
        g0, gm, g1 = g[:, :-1:2], g[:, 1::2], g[:, 2::2]
        s = -(x_max[batch] / n)[:, None]
        s2 = s * s
        y = np.stack([np.ones_like(kap), -kap])[:, None]
        for first in range(0, n, _CHUNK):
            a0, am, a1 = (v[:, first:first + _CHUNK] for v in (g0, gm, g1))
            P = np.array([
                [1.0 + s2 / 6.0 * (a0 + 2.0 * am) + s2 * s2 / 24.0 * am * a0,
                 s + s2 * s / 6.0 * am],
                [s / 6.0 * (a0 + 4.0 * am + a1) + s2 * s / 12.0 * am * (a0 + a1),
                 1.0 + s2 / 6.0 * (2.0 * am + a1) + s2 * s2 / 24.0 * a1 * am]])
            while P.shape[-1] > 1:
                k = P.shape[-1]
                prod = _mul2_ref(P[..., 1::2], P[..., :k - 1:2])
                if k % 2:
                    prod[..., -1:] = _mul2_ref(P[..., -1:], prod[..., -1:])
                P = _pow2_normalize_every(prod)
            y = _pow2_normalize_every(_mul2_ref(P[..., 0], y))
        u0, v0 = y[:, 0]
        m[batch] = v0 / u0
        sampled = np.isfinite(q_half).all(axis=1)[rows]
        overflow = ~(np.isfinite(u0) & np.isfinite(v0))
        vanishes = np.abs(u0) * np.maximum(1.0, kap) <= 1e-12 * np.abs(v0)
        bad = ~sampled | overflow | vanishes
        if bad.any():
            j = int(np.argmax(bad))
            kappa = float(kap[j])
            if not sampled[j]:
                cause = "potential evaluation produced non-finite values"
            elif overflow[j]:
                cause = (f"backward integration overflowed at kappa={kappa}: the RK4 steps "
                         "leave the float range (|Q + kappa^2| h^2 too large)")
            else:
                cause = (f"u(0) vanishes at kappa={kappa}: -kappa^2 sits at a Dirichlet "
                         "point of the truncated problem")
            return m, lo + j, NumericalError(cause, _MOD)
    return m, kappas.size, None


def gram_residual_loop(system, n: int | None = None) -> float:
    """max |<L_m, L_q> - delta_mq| over m, q <= n with <L_m, L_q> summed term
    by term over the coefficient pairs, in the system's working precision."""
    n = system.n if n is None else n
    with mp.workprec(system.precision):
        lam = [mpf(e) for e in system.exponents]
        worst = mpf(0)
        for m in range(n + 1):
            for q in range(m + 1):
                acc = mpf(0)
                for j, cj in enumerate(system.C[m][: m + 1]):
                    for i, ci in enumerate(system.C[q][: q + 1]):
                        acc += cj * ci / (lam[j] + lam[i] + 1)
                target = 1 if m == q else 0
                worst = max(worst, abs(acc - target))
        return float(worst)


def muntz_rows_mpf_left(exponents, precision: int):
    """The Muntz table rows by the ratio recurrence with an mpf on the left of
    each mpf-array operation; mpmath then renders each such array before numpy
    applies the reflected operation."""
    with mp.workprec(precision):
        lam = np.array([mpf(x) for x in exponents], dtype=object)
        root = [mp.sqrt(2 * x + 1) for x in lam]
        rows = [np.array([root[0]], dtype=object)]
        for m in range(1, len(lam)):
            below = lam[:m]
            ratio = root[m] / root[m - 1] * (below + lam[m - 1] + 1) / (below - lam[m])
            diag = root[m] * np.prod((lam[m] + below + 1) / (lam[m] - below))
            rows.append(np.append(rows[-1] * ratio, diag))
        return tuple(tuple(row) for row in rows)


def gram_residual_fdot(system, n: int | None = None) -> float:
    """max |C H C^T - I| over m, q <= n with every entry of C H and of
    (C H) C^T taken by mp.fdot over full rows of H and of C H, in the
    system's working precision."""
    n = system.n if n is None else n
    with mp.workprec(system.precision):
        lam = np.array([mpf(x) for x in system.exponents[: n + 1]], dtype=object)
        H = (1 / (np.add.outer(lam, lam) + 1)).tolist()
        CH = [[mp.fdot(row, col) for col in H] for row in system.C[: n + 1]]
        return float(max(abs(mp.fdot(CH[m], system.C[q]) - (m == q))
                         for m in range(n + 1) for q in range(m + 1)))


def unit_piece_weights_loop(n: int) -> np.ndarray:
    """The unit kink-split table row by row: the cubic end rule in row 1,
    composite Simpson in even rows, and in odd rows a 3/8 patch on the first
    three intervals plus Simpson from t_3."""
    from steklovlab.quadrature import simpson_weights
    W = np.zeros((n + 1, n + 1))
    W[1, :4] = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
    for i in range(2, n + 1):
        if i % 2 == 0:
            W[i, : i + 1] = simpson_weights(i, 1.0)
            continue
        W[i, :4] = np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 / 8.0
        if i > 3:
            W[i, 3: i + 1] += simpson_weights(i - 3, 1.0)
    return W


def nystrom_matrix(pS, pL, S, WL) -> np.ndarray:
    """I + pS S - WL pL - WL[::-1, ::-1] pL^T, allocating every temporary;
    S holds the row quadrature weights and WL the scaled kink-split table."""
    return np.eye(len(S)) + pS * S[None, :] - WL * pL - WL[::-1, ::-1] * pL.T


def solve_gl_nodes(A, T: float, M: int):
    """solve_gl(A, T, M) watched node by node, for the GL references: the
    workspace's fields, T, M, lattices = _sample's four lattices on the
    solve's grid, V[i] and Vx[i] of every node i (M + 1 - i entries, 5 on the
    floor nodes, 1 at x = T), and solved, the nodes in the order the solve
    returned them. The rows are copied from the node groups' sol and the
    dense floor solves as they return; a node that nothing solved (x = T, or
    every node at the zero-kernel exit) reads zeros."""
    import pytest
    from types import SimpleNamespace
    from steklovlab import gelfand_levitan as gl
    V, Vx, solved = [None] * (M + 1), [None] * (M + 1), []
    group, dense = gl._Nested.group, gl._dense_node

    def keep(i, v, vx):
        assert V[i] is None, f"node {i} returned twice"
        V[i], Vx[i] = np.array(v), np.array(vx)
        solved.append(i)

    def watched_group(self, ms):
        residual, q, sol = group(self, ms)
        for g, m in enumerate(ms.tolist()):
            keep(self.M + 1 - m, *sol[:, g, :m][:, ::-1])   # reversed rows, forward
        return residual, q, sol

    def watched_dense(lattice, x):
        out = dense(lattice, x)
        keep(round(x * M / T), out[0], out[1])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gl._Nested, "group", watched_group)
        patch.setattr(gl, "_dense_node", watched_dense)
        ws = gl.solve_gl(A, T, M)
    sizes = [M + 1 - i for i in range(M - 3)] + [5, 5, 5, 1]
    V, Vx = (tuple(np.zeros(k) if r is None else r for r, k in zip(rows, sizes))
             for rows in (V, Vx))
    return SimpleNamespace(**vars(ws), T=T, M=M, V=V, Vx=Vx, solved=tuple(solved),
                           lattices=gl._sample(A, T, M, ws.potential.grid))


def _node(lattices, M: int, i: int):
    """(h, n, pt, ph, dpt, dph) of node i < M: its spacing, its interval count
    and its lattices, pt[n + k] = p(h k) for k = -n..n, ph[k] = p(2T - 2x - h k)
    for k = 0..2n, and p' at the k = 0..n points of each: slices of the x = 0
    lattice, or of a floor node's own."""
    main, *floor = lattices
    n = M - i
    if n < 4:
        h, n, pt, ph, dpt, dph = floor[i - (M - 3)]
        return h, n, pt, ph, dpt, dph[: n + 1]
    h, _, pt, ph, dpt, dph = main
    return (h, n, pt[M - n: M + n + 1], ph[2 * i: 2 * i + 2 * n + 1],
            dpt[: n + 1], dph[2 * i: 2 * i + n + 1])


def gl_node_system(ws, i: int, W=None):
    """(mat, d, g2) of node i < M, assembled alone in one allocating
    expression from the lattices of solve_gl_nodes, with the kernels gathered
    by index: mat V = d and mat V_x = g2 - d V[0]. W is the unit kink-split
    table of size at least n + 1 (built when not given)."""
    from steklovlab.gelfand_levitan import _unit_piece_weights
    h, n, pt, ph, dpt, dph = _node(ws.lattices, ws.M, i)
    W = _unit_piece_weights(max(n, 4)) if W is None else W
    a = np.arange(n + 1)
    pS, pL = ph[a[:, None] + a[None, :]], pt[n + a[:, None] - a[None, :]]
    mat = nystrom_matrix(pS, pL, h * W[n, : n + 1], h * W[: n + 1, : n + 1])
    return mat, pt[n:] - ph[: n + 1], dph - dpt


def gl_dense_solution(ws, i: int, W=None):
    """(V, Vx) of node i by a dense pivoted LU of its allocating system. Vx
    solves mat Vx = g2 - d V[0] with V[0] taken from ws (solve_gl_nodes), so
    that both sides solve one system: where Vx nearly cancels, one ulp of V[0]
    moves Vx by V times that ulp, far more than its own relative rounding."""
    from scipy.linalg import lu_factor, lu_solve
    mat, d, g2 = gl_node_system(ws, i, W)
    factors = lu_factor(mat)
    return lu_solve(factors, d), lu_solve(factors, g2 - d * ws.V[i][0])


def gl_residual_loop(ws) -> tuple[float, float]:
    """(residual, bound): the max over x nodes of the residuals of mat V = d
    and mat Vx = g2 - d V[0] (V and Vx of solve_gl_nodes' ws), with each
    node's system assembled again, and the max over nodes and rows of
    2 gamma_{n+3} (|mat| |v| + |rhs|), which bounds how far two evaluation
    orders of one residual entry can differ (gamma_k = k u / (1 - k u), u the
    unit roundoff)."""
    from steklovlab.gelfand_levitan import _unit_piece_weights
    W = _unit_piece_weights(ws.M)
    u = np.finfo(float).eps / 2
    worst = bound = 0.0
    for i in range(ws.M):
        mat, d, g2 = gl_node_system(ws, i, W)
        V, Vx = ws.V[i], ws.Vx[i]
        k = len(d) + 2
        gamma = k * u / (1 - k * u)
        for v, rhs in ((V, d), (Vx, g2 - d * V[0])):
            worst = max(worst, float(np.max(np.abs(mat @ v - rhs))))
            bound = max(bound, 2 * gamma * float(np.max(np.abs(mat) @ np.abs(v) + np.abs(rhs))))
    return worst, bound


def recover_potential_loop(ws) -> np.ndarray:
    """Q at T - x on the grid, node by node from the V and Vx of
    solve_gl_nodes' ws: d/dx V(x,x) = p(2T - 2x) V[0] + 2 p'(2T - 2x)
    - S (g1 V_x) + S (g2 V) with S the node's row of the kink-split table,
    and Q(0) = -4 p'(0) at x = T."""
    from steklovlab.gelfand_levitan import _unit_piece_weights
    qvals = np.empty(ws.M + 1)
    qvals[0] = -4.0 * ws.lattices[0][4][0]
    W = _unit_piece_weights(ws.M)
    for i in range(ws.M):
        h, n, pt, ph, dpt, dph = _node(ws.lattices, ws.M, i)
        V, Vx = ws.V[i], ws.Vx[i]
        S = h * W[n, : n + 1]
        g1 = ph[: n + 1] - pt[n:]
        g2 = dph - dpt
        dd = ph[0] * V[0] + 2.0 * dph[0] - S @ (g1 * Vx) + S @ (g2 * V)
        qvals[ws.M - i] = -2.0 * dd
    return qvals


def bargmann2_mp(c1: float, kappa1: float, x: float, t: float, dps: int = 60):
    """(Q(x), p(t)) of the Bargmann2 well from its defining formulas,
    F = 1 + (c1/kappa1^2) int_0^x sinh^2(kappa1 y) dy, Q = -2 (log F)'' and
    p = c1 (cosh(kappa1 t) - 1)/(2 kappa1^2), unscaled, at dps digits."""
    with mp.workdps(dps):
        c1, k, x, t = mpf(c1), mpf(kappa1), mpf(x), mpf(t)
        F = 1 + c1 / k**2 * (mp.sinh(2 * k * x) / (4 * k) - x / 2)
        Fp = c1 / k**2 * mp.sinh(k * x) ** 2
        Fpp = c1 / k * mp.sinh(2 * k * x)
        return float(-2 * (Fpp * F - Fp**2) / F**2), float(c1 * (mp.cosh(k * t) - 1) / (2 * k**2))
