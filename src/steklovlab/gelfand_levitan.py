"""Local Gel'fand-Levitan reconstruction on (0, T).

For each grid point x the second-kind integral equation

    V(x,t) + int_x^T K(t,s) V(x,s) ds = -K(x,t),
    K(t,s) = p(2T-t-s) - p(|t-s|),       p(t) = -(1/2) int_0^{t/2} A,

is discretized by a Nystrom scheme and solved; the recovered potential is
Q(T-x) = -2 d/dx V(x,x), evaluated through the explicit identity

    d/dx V(x,x) = p(2T-2x) V(x,x) + 2 p'(2T-2x)
                  - int_x^T [p(2T-x-s) - p(s-x)]  dV/dx(x,s) ds
                  + int_x^T [p'(2T-x-s) - p'(s-x)] V(x,s)  ds,

obtained by differentiating the integral equation (never by finite
differences of V). The kernel's s-derivative jumps across s = t whenever
p'(0) != 0, which silently degrades plain composite Simpson to second order;
the row quadrature below therefore splits each collocation row at its kink
and patches the pieces with 3/8 and one-interval cubic end rules, restoring
clean fourth-order convergence (verified against the closed-form wells).

Common grid. Node x_i = i h (h = T/M) with n = M - i >= 4 intervals uses the
points t_j = j h, j = i..M, of the x = 0 node. Its integration weights are
S = h W[n], row n of the kink-split table: composite Simpson for even n and
the 3/8-patched rule for odd n. Every kernel entry is then p on one of two
lattices, p(h k) (Toeplitz, p(t_j - t_k)) and p(2T - h k) (Hankel,
p(2T - t_j - t_k)), so p and p' are sampled on them once per solve and every
node's kernels, right-hand sides and recovery read slices. The last three
nodes (n < 4) keep a floor of four intervals of their own width and a dense
pivoted solve.

Nested solve. On the common grid node i's matrix equals the trailing block
A0[i:, i:] of the x = 0 matrix except in its first four columns, which carry
the node's left-end quadrature corrections. Reversing the indices turns every
trailing block into a leading block of B = A0[::-1, ::-1], so one LU
factorization of B without pivoting serves all nodes: a node adds only its
four columns, a triangular solve for them (its U12) and a 4 x 4 Schur
complement S, inverted by LAPACK. The factorization recurses on column halves;
a leaf of at most _LEAF columns eliminates its square top column by column and
takes the rows below in one dtrsm. Pivoting would break the nesting. Nothing
proves the factors stable unpivoted: the symmetric part of A0 need not be
positive definite (its smallest eigenvalue is about -1.1e3 for Bargmann2 with
c1 = 1.5, kappa1 = 1 at T = 6, M = 128, and -53 with kappa1 = 0.4 at T = 8,
M = 256, though both solves are accurate). The nesting is trusted because
every node passes the conditioning gate and the residual check. The gate
reads an upper bound on ||C^{-1}||_1 off the factors, O(m) per node, and runs
gecon on a node's packed factors only where that bound cannot pass it. Nodes
go in groups, and a group takes every step for all its nodes at once: its
forward and back substitutions are one zero-padded triangular solve each, its
Schur step is one batched product L21 Z, one stacked inverse of the S blocks
and two batched products by S^{-1}, its residuals, A0[i:, i:] V plus the four
correction columns, are one matrix product, and its nodes' values of Q one
product with their weight rows.

Only this module needs LAPACK, and only inside solve_gl: scipy.linalg loads on
the first solve, not on import, so a command that solves no GL system never
loads it. Its four routines, three of scipy.linalg's and BLAS dtrsm, are
module attributes all the same (a module __getattr__ resolves them before the
first solve), and a name bound before that, such as a tracer's wrapper of
lu_factor, keeps its binding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError, ValidationError
from .perturbation import Amplitude
from .radial_model import RadialPotential, _exprel

_MOD = "gelfand_levitan"
_LEAF = 16    # widest panel the unpivoted LU factors as a leaf, without recursing
_BATCH = 16   # a node group holds at most _BATCH (M + 1) rows over all its nodes
_GATE = 1e-8  # least 1/||C^{-1}||_1 (or gecon's rcond * anorm) a node may have
_LAPACK = ("get_lapack_funcs", "lu_factor", "lu_solve", "dtrsm")


def _load_lapack() -> None:
    """Bind scipy.linalg's routines, and BLAS dtrsm from scipy.linalg.blas, as
    module globals. scipy loads on the first solve, not on import; a name
    already bound (a tracer's or a test's patch) keeps its binding, so the
    solve calls the patch."""
    import scipy.linalg
    for name in _LAPACK:
        home = scipy.linalg.blas if name == "dtrsm" else scipy.linalg
        globals().setdefault(name, getattr(home, name))


def __getattr__(name: str):
    """The scipy routines are module attributes before the first solve too."""
    if name in _LAPACK:
        _load_lapack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# p and its derivative, in closed form for any admissible amplitude.
# ---------------------------------------------------------------------------


def _finite(values: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """values, or the tagged error at the first t where they are not finite:
    a well whose p or p' overflows on the lattice has no GL solve in floats."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise NumericalError(f"{what} is not finite at t={t[bad][0]:.6g}", _MOD)
    return values


def p_from_amplitude(A: Amplitude, t) -> np.ndarray:
    """p(t) = -(1/2) int_0^{t/2} A(alpha) d alpha, term by term in closed form.

    Each series term c e^{-mu alpha} contributes -(c t/4) exprel(-mu t/2),
    with exprel(z) = (e^z - 1)/z: that is -c (1 - e^{-mu t/2})/(2 mu), and it
    tends to -c t/4 at mu = 0. The formula is analytic in t, so slightly
    negative arguments (needed by the end-rule stencils) are fine.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        series = _exprel(-0.5 * np.multiply.outer(t, A.term_mu)) @ A.term_coeffs
        return _finite(A.base.p_accum(t) - 0.25 * t * series, t, "p")


def p_prime_from_amplitude(A: Amplitude, t) -> np.ndarray:
    """p'(t) = -A(t/2)/4, the companion evaluation used by the recovery formula."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(-0.25 * A(t / 2.0), t, "p'")


# ---------------------------------------------------------------------------
# Kink-split row quadrature and lattice sampling.
# ---------------------------------------------------------------------------


def _unit_piece_weights(n: int) -> np.ndarray:
    """W[i, :] integrates a smooth integrand over [t_0, t_i] on unit-spaced
    nodes t_0..t_n (n >= 3); scale by h for spacing h.

    Row i >= 2 is composite Simpson for even i, and a 3/8 patch on the first
    three intervals plus Simpson from t_3 for odd i, so Simpson's interior
    weight is 4/3 where i + j is odd and 2/3 where it is even; for a single
    interval the cubic end rule (9, 19, -5, 1)/24, whose stencil spills at
    most two nodes past the kink; callers evaluate the kernel branch
    analytically there. Row i never depends on n, so the weights of any
    subsystem of size m <= n are W[:m+1, :m+1].
    """
    third = 1.0 / 3.0
    W = np.tril(sliding_window_view(np.resize([2.0 * third, 4.0 * third], 2 * n + 1), n + 1))
    W[2::2, 0] = third
    np.fill_diagonal(W, third)
    W[3::2, :4] = np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 / 8.0
    W[5::2, 3] += third
    W[0, 0] = 0.0
    W[1, :4] = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
    return W


def _sample(A: Amplitude, T: float, M: int, xs: np.ndarray):
    """p and p' on every lattice a solve reads, in one evaluation of each.

    Returns (main, floor). main = (pt, ph, dpt, dph) on the common grid,
    h = T/M: pt[M + k] = p(h k) for k = -M..M, ph[k] = p(2T - h k) for
    k = 0..2M, dpt[k] = p'(h k) for k = 0..M and dph[k] = p'(2T - h k) for
    k = 0..2M. floor holds, for the nodes i = M-3..M-1, the tuple
    (h_i, 4, pt, ph, dpt, dph) of their own four-interval subgrid,
    h_i = (T - x_i)/4, in the layout _node returns.
    """
    h = T / M
    k = np.arange(2 * M + 1)
    kf = np.arange(9)
    p_args = [h * (k - M), 2.0 * T - h * k]
    dp_args = [h * k[: M + 1], 2.0 * T - h * k]
    widths = [(T - x) / 4.0 for x in xs[M - 3: M]]
    for x, hf in zip(xs[M - 3: M], widths):
        p_args += [hf * (kf - 4), 2.0 * T - 2.0 * x - hf * kf]
        dp_args += [hf * kf[:5], 2.0 * T - 2.0 * x - hf * kf[:5]]
    p = np.split(p_from_amplitude(A, np.concatenate(p_args)),
                 np.cumsum([a.size for a in p_args[:-1]]))
    dp = np.split(p_prime_from_amplitude(A, np.concatenate(dp_args)),
                  np.cumsum([a.size for a in dp_args[:-1]]))
    main = (p[0], p[1], dp[0], dp[1])
    floor = tuple((hf, 4, p[2 + 2 * f], p[3 + 2 * f], dp[2 + 2 * f], dp[3 + 2 * f])
                  for f, hf in enumerate(widths))
    return main, floor


def _node(lattices, T: float, M: int, i: int):
    """(h, n, pt, ph, dpt, dph) of node i < M: its spacing, its interval count
    and its lattices, pt[n + k] = p(h k) for k = -n..n, ph[k] = p(2T - 2x - h k)
    for k = 0..2n, and p' at the k = 0..n points of each (views into the
    common lattices, except on the floor nodes)."""
    main, floor = lattices
    n = M - i
    if n < 4:
        return floor[i - (M - 3)]
    pt, ph, dpt, dph = main
    return (T / M, n, pt[M - n: M + n + 1], ph[2 * i: 2 * i + 2 * n + 1],
            dpt[: n + 1], dph[2 * i: 2 * i + n + 1])


def _kernels(pt: np.ndarray, ph: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pS, pL) with pS[i, j] = p(2T - t_i - t_j) and pL[i, j] = p(t_i - t_j),
    as read-only strided views of the lattices; p(t_j - t_i) is pL.T."""
    return sliding_window_view(ph, n + 1), sliding_window_view(pt[::-1], n + 1)[::-1]


def _assemble(main, h: float, W: np.ndarray):
    """(B, P, hw4) for the x = 0 node of the common grid, n = M intervals,
    or for a floor node on its own lattices (main's pt and ph) and W of size 5.

    The x = 0 matrix is A0 = I + pS S0 - P - P[::-1, ::-1] with S0 = h W[M]
    and P = (h W) pL, the kink-split term; pL is Toeplitz, so the transposed
    term (h W)[::-1, ::-1] pL^T is P reversed. B = A0[::-1, ::-1] is written
    in Fortran order, in that order of operations. W (the unit table) is
    scaled and multiplied in place and becomes P; hw4 = (h W)[:, :4] keeps
    the weights the node corrections read.
    """
    pt, ph = main[0], main[1]
    M = W.shape[0] - 1
    W *= h
    hw4 = W[:, :4].copy()
    pS, pL = _kernels(pt, ph, M)
    B = np.empty((M + 1, M + 1), order="F")
    np.multiply(pS[::-1, ::-1], W[M, ::-1], out=B)
    B[np.arange(M + 1), np.arange(M + 1)] += 1.0
    P = np.multiply(W, pL, out=W)
    B -= P[::-1, ::-1]
    B -= P
    return B, P, hw4


def _windows(a: np.ndarray, starts, length: int) -> np.ndarray:
    """a[s : s + length] for every s in starts, stacked along a new last axis."""
    return sliding_window_view(a, length)[starts]


def _lu_nopivot(a: np.ndarray) -> None:
    """Factor the tall panel a = L U in place without pivoting: L unit lower
    trapezoidal below the diagonal, U upper triangular on and above it.
    Recursion on column halves keeps the work in matrix products. A leaf
    eliminates its square top column by column and takes the rows below it in
    one solve against the top's U (dtrsm, right side)."""
    k = a.shape[1]
    if k <= _LEAF:
        for j in range(k - 1):
            a[j + 1: k, j] /= a[j, j]
            a[j + 1: k, j + 1:] -= np.multiply.outer(a[j + 1: k, j], a[j, j + 1:])
        a[k:] = dtrsm(1.0, a[:k], a[k:], side=1)
        return
    h = k // 2
    _lu_nopivot(a[:, :h])
    a[:h, h:] = dtrsm(1.0, a[:h, :h], a[:h, h:], lower=1, diag=1)
    a[h:, h:] -= a[h:, :h] @ a[:h, h:]
    _lu_nopivot(a[h:, h:])


def _inv4(S: np.ndarray) -> np.ndarray:
    """The inverses of a stack S (G, 4, 4) by LAPACK, one stacked call; a block
    that LAPACK reports singular gets a NaN inverse, so its certificate fails
    and gecon refuses it."""
    try:
        return np.linalg.inv(S)
    except np.linalg.LinAlgError:   # block by block, to find the singular ones
        return np.stack([_inv4(s) for s in S]) if S.ndim == 3 else np.full_like(S, np.nan)


# ---------------------------------------------------------------------------
# Gates shared by the nested and the dense node solves.
# ---------------------------------------------------------------------------


def _check_finite(values, what: str, x) -> None:
    """The tagged error at the first node (of x) whose value is not finite."""
    bad = ~np.isfinite(np.atleast_1d(values))
    if bad.any():
        raise NumericalError(f"non-finite {what} at x={np.atleast_1d(x)[bad][0]:.6g}", _MOD)


def _check_conditioning(rcond: float, anorm: float, x: float) -> None:
    if not rcond * anorm >= _GATE:  # proxy for the smallest singular value; NaN fails
        raise NumericalError(
            f"Nystrom system nearly singular at x={x:.6g} "
            f"(inverse-norm proxy {rcond * anorm:.3e})", _MOD)


def _dense_node(h, n, pt, ph, dpt, dph, x: float, gecon):
    """(V, Vx, residual) of a floor node by a dense pivoted solve of its own
    matrix, assembled as the x = 0 matrix is, on the node's lattices."""
    B = _assemble((pt, ph), h, _unit_piece_weights(n))[0]
    mat = np.ascontiguousarray(B[::-1, ::-1])
    d, g2 = pt[n:] - ph[: n + 1], dph - dpt
    anorm = np.abs(mat).sum(axis=0).max()
    _check_finite(anorm, "Nystrom matrix", x)
    lu, piv = lu_factor(mat, check_finite=False)
    _check_conditioning(gecon(lu, anorm)[0], anorm, x)
    V = lu_solve((lu, piv), d, check_finite=False)
    rhs = g2 - d * V[0]
    Vx = lu_solve((lu, piv), rhs, check_finite=False)
    residual = float(max(np.max(np.abs(mat @ V - d)), np.max(np.abs(mat @ Vx - rhs))))
    _check_finite(residual, "residual", x)
    return V, Vx, residual


# ---------------------------------------------------------------------------
# The nested solve.
# ---------------------------------------------------------------------------


class _Nested:
    """The reversed x = 0 system of one solve, factored once without pivoting,
    and the node updates on it. Node i is addressed by its reversed size
    m = M + 1 - i; its matrix C agrees with B[:m, :m] in the columns before
    m' = m - 4 and carries its own corner columns N in the last four. Arrays
    over a group of nodes are node-major: [node, column, reversed row]."""

    def __init__(self, main, h: float, W: np.ndarray, xs: np.ndarray):
        pt, ph, dpt, dph = main
        M = W.shape[0] - 1
        self.M, self.xs = M, xs
        # recovery weights on reversed rows q < m' (h W[n, n - q] is one row for any n)
        self.wq = h * W[M, ::-1]
        self.B, P, self.hw4 = _assemble(main, h, W)
        # reversed lattices: node rows q = 0, 1, ... are windows into these
        self.ptr, self.phr, self.dphr = pt[::-1], ph[::-1], dph[::-1]
        self.dptr = np.concatenate([dpt[::-1], np.zeros(M)])
        # of P the corner columns read the first four columns, as
        # lead[j, M - n + q] = P[n - q, 3 - j], and the band
        # band[q + 1, e] = P[q, q + 2 - e]; P's memory then holds the
        # triangular inverses below and is freed with them, before any group
        self.lead = np.zeros((4, 2 * M + 2))
        self.lead[:, : M + 1] = P[::-1, 3::-1].T
        q = np.arange(M + 1)[:, None]
        cols = q + 2 - np.arange(6)
        self.band = np.zeros((M + 2, 6))
        self.band[1:] = np.where((cols >= 0) & (cols <= M), P[q, np.clip(cols, 0, M)], 0.0)
        # every node's columns before its corner are a block of B
        _check_finite(np.abs(self.B).sum(axis=0).max(), "Nystrom matrix", xs[0])
        self.LU = np.array(self.B[:, : M - 3], order="F")
        _lu_nopivot(self.LU)
        self.trtrs, trtri, self.gecon, self.laswp = get_lapack_funcs(
            ("trtrs", "trtri", "gecon", "laswp"), (self.LU,))
        # a[m' - 1] = ||L[:m', :m']^{-1}||_1 and u[m' - 1] = ||U[:m', :m']^{-1}||_1
        # for every m': a leading block of a triangular inverse is the inverse of
        # the leading block. L^{-1} (strictly lower) and U^{-1} (upper) go in
        # place into P's memory. Down each column of |.| summed cumulatively,
        # the diagonal holds U^{-1}'s column sum, and less that sum, the rows
        # below hold L^{-1}'s partial column sums, the rows above values <= 0.
        k = M - 3
        inv = P.reshape(-1)[: k * k].reshape((k, k), order="F")
        inv[...] = self.LU[:k]
        trtri(inv, lower=1, unitdiag=1, overwrite_c=1)
        singular = trtri(inv, overwrite_c=1)[1] > 0   # then inv still holds U
        np.cumsum(np.abs(inv, out=inv), axis=0, out=inv)
        col = inv.diagonal().copy()
        inv -= col
        self.a = 1.0 + inv.max(axis=1)
        self.u = np.full(k, np.inf) if singular else np.maximum.accumulate(col)

    def _corners(self, ms: np.ndarray, mh: int) -> np.ndarray:
        """N[g, j, q] = entry (q, m_g - 4 + j) of node g's reversed matrix for
        q < mh, written into N (G, 4, mh) in the order of operations of
        _assemble: ((I + Hankel term) - left-end kink term) - reversed kink
        term, which lives on rows m_g - 6 .. m_g - 1 only."""
        rows, j = np.arange(ms.size)[:, None], np.arange(4)
        c = ms[:, None] - 4 + j
        N = _windows(self.phr, c, mh) * self.hw4[ms - 1][:, ::-1, None]
        N[rows, j, c] += 1.0
        N -= sliding_window_view(self.lead, mh, axis=1)[j, (self.M + 1 - ms)[:, None]]
        r = np.arange(6)
        near = ms[:, None, None] - 6 + r
        N[rows[:, :, None], j[:, None], near] -= np.where(
            r >= j[:, None], self.band[near + 1, np.maximum(r - j[:, None], 0)], 0.0)
        return N

    def _forward(self, cols: np.ndarray, K: int) -> np.ndarray:
        """L[:K, :K]^{-1} applied to the node-major columns cols (G, k, >= K)
        in one triangular solve; column c of node g lands in column k g + c."""
        G, k = cols.shape[:2]
        F = np.empty((K, k * G), order="F")
        F.reshape((K, k, G), order="F")[...] = cols[:, :, :K].transpose(2, 1, 0)
        return self.trtrs(self.LU[:, :K], F, lower=1, unitdiag=1, overwrite_b=1)[0]

    def _certificates(self, ms: np.ndarray, sinv: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """1/bound per node, with bound >= ||C^{-1}||_1, so at most the
        rcond * anorm that gecon would estimate. Node m is factored as
        C = [L11 0; L21 I] [U11 U12; 0 S] with S its 4 x 4 Schur block, which
        gives (a >= 1, as L11 has a unit diagonal)

            ||C^{-1}||_1 <= a (1 + lam21) max(u, s (1 + u ||U12||_1))

        with a, u the inverse norms of L11, U11 (from __init__),
        s = ||S^{-1}||_1 (sinv) and lam21 = ||L21||_1. U12 is Z's first four
        columns of each node, zero past its m' rows. A NaN or infinite bound
        gives a certificate that does not pass.
        """
        G, K = ms.size, Z.shape[0]
        mp = ms - 4
        u12 = np.abs(Z.reshape((K, G, 5))[:, :, :4]).sum(axis=0).max(axis=1)
        rows = np.abs(self.LU[ms[0] - 4: ms[-1], :K])    # row g + t is row m' + t of node g
        lam21 = rows[:G] + rows[1: G + 1]
        lam21 += rows[2: G + 2]
        lam21 += rows[3:]
        np.copyto(lam21, 0.0, where=np.arange(K) >= mp[:, None])
        lam21 = lam21.max(axis=1)
        s = np.abs(sinv).sum(axis=1).max(axis=1)
        a, u = self.a[mp - 1], self.u[mp - 1]
        return 1.0 / (a * (1.0 + lam21) * np.maximum(u, s * (1.0 + u * u12)))

    def group(self, ms: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the nodes of reversed sizes ms (consecutive, ascending) into
        out, their V and Vx node by node from the largest; returns their
        residuals and their values of Q.

        Forward substitution takes every node's corner columns and right-hand
        side at once, zero-padded to the largest node; the rows of Z from a
        node's m' on are not its own and are zeroed, so the Schur step's
        products run over all K rows for every node at once. The back
        substitution sees zeros below each node's m' rows, so those rows hold
        the node's own solution. V[0] is the last reversed entry, known after
        the Schur step, so the V_x right-hand side g2 - d V[0] is formed and
        forward-substituted then. Q(T - x) = -2 d/dx V(x,x) is taken from the
        rows held here: the identity's integrals are the node's weight row
        times d V_x + g2 V (d = -g1), as in recover_potential.
        """
        M, B, LU = self.M, self.B, self.LU
        G, mh = ms.size, int(ms[-1])
        K, mp, x = mh - 4, ms - 4, self.xs[M + 1 - ms]
        below = np.arange(mh) >= ms[:, None]          # rows a node does not own
        beyond = np.arange(K)[:, None] >= mp          # [row, node]: rows past its m'
        last4 = np.arange(G)[:, None], mp[:, None] + np.arange(4)   # its rows m'..m-1
        N = self._corners(ms, mh)
        rhs = np.empty((G, 2, mh))                    # d, then g2 - d V[0]
        rhs[:, 0] = _windows(self.ptr, M + 1 - ms, mh) - _windows(self.phr, ms - 1, mh)
        g2 = _windows(self.dphr, ms - 1, mh) - _windows(self.dptr, M + 1 - ms, mh)
        np.copyto(N, 0.0, where=below[:, None, :])
        np.copyto(rhs[:, 0], 0.0, where=below)
        corner = np.abs(N).sum(axis=2).max(axis=1)    # 1-norm of the corner columns
        _check_finite(corner, "Nystrom matrix", x)

        Z = self._forward(np.concatenate([N, rhs[:, :1]], axis=1), K)
        Zg = Z.reshape((K, G, 5))                     # [row, node, column]
        np.copyto(Zg, 0.0, where=beyond[:, :, None])
        L21 = sliding_window_view(LU[ms[0] - 4: mh, :K], 4, axis=0).transpose(0, 2, 1)
        T4 = L21 @ Zg.transpose(1, 0, 2)
        Sinv = _inv4(N[last4[0], :, last4[1]] - T4[:, :, :4])   # S^{-1} of every node
        Y2 = np.empty((G, 2, 4))                      # the last four reversed rows
        Y2[:, 0] = np.einsum("gij,gj->gi", Sinv, rhs[last4[0], 0, last4[1]] - T4[:, :, 4])
        for g in np.flatnonzero(~(self._certificates(ms, Sinv, Z) >= _GATE)):
            # the bound cannot pass this node: estimate on its packed factors,
            # with the Schur block factored by getrf and L21's rows permuted
            m = int(ms[g])
            lu4, piv = lu_factor(N[g, :, m - 4: m].T - T4[g, :, :4], check_finite=False)
            packed = np.empty((m, m), order="F")
            packed[: m - 4, : m - 4] = LU[: m - 4, : m - 4]
            packed[: m - 4, m - 4:] = Z[: m - 4, 5 * g: 5 * g + 4]
            packed[m - 4:, : m - 4] = self.laswp(LU[m - 4: m, : m - 4], piv)
            packed[m - 4:, m - 4:] = lu4
            anorm = max(np.abs(B[:m, : m - 4]).sum(axis=0).max(), corner[g])
            _check_conditioning(self.gecon(packed, anorm)[0], anorm, x[g])
        rhs[:, 1] = np.where(below, 0.0, g2 - rhs[:, 0] * Y2[:, 0, 3:])
        Zx = self._forward(rhs[:, 1:], K)
        np.copyto(Zx, 0.0, where=beyond)
        Y2[:, 1] = np.einsum("gij,gj->gi", Sinv,
                             rhs[last4[0], 1, last4[1]] - (L21 @ Zx.T[..., None])[..., 0])
        Xb = np.empty((K, 2 * G), order="F")
        Xg = Xb.reshape((K, 2, G), order="F")         # column c of node g is Xb[:, 2 g + c]
        Xg[:, 0], Xg[:, 1] = Zg[:, :, 4], Zx
        Xg -= (Zg[:, :, :4].transpose(1, 0, 2) @ Y2.transpose(0, 2, 1)).transpose(1, 2, 0)
        X = self.trtrs(LU[:, :K], Xb, lower=0, overwrite_b=1)[0]

        res = (X.T @ B[:mh, :K].T).reshape(G, 2, mh)
        res += Y2 @ N
        res -= rhs
        np.abs(res, out=res)
        np.copyto(res, 0.0, where=below[:, None, :])
        residual = res.max(axis=(1, 2))
        _check_finite(residual, "residual", x)
        # out reversed holds each node's reversed rows q < m, smallest node first;
        # the rows are gathered in res's memory
        sol = res.transpose(1, 0, 2)
        sol[:, :, :K] = X.reshape((K, 2, G), order="F").transpose(1, 2, 0)
        sol[:, last4[0], last4[1]] = Y2.transpose(1, 0, 2)
        out[:, ::-1] = sol[:, ~below]
        # d V_x + g2 V in d's memory, zero on the rows a node does not own
        e = np.multiply(rhs[:, 0], sol[1], out=rhs[:, 0])
        e += np.multiply(g2, sol[0], out=g2)
        e4 = e[last4]
        e[last4] = 0.0
        integrals = e @ self.wq[:mh] + (e4 * self.hw4[ms - 1, ::-1]).sum(axis=1)
        q = -2.0 * (self.phr[2 * ms - 2] * Y2[:, 0, 3] + 2.0 * self.dphr[2 * ms - 2] + integrals)
        return residual, q


@dataclass
class GLWorkspace:
    """Discretization state for one amplitude on [0, T].

    grid holds the x nodes; V[i]/Vx[i] are the solution and its x-derivative
    on the i-th node's subgrid, which _node(lattices, T, M, i) describes
    together with p and p' there. lattices holds p and p' on every lattice
    the solve sampled (_sample), so recovery evaluates nothing again.
    q[M - i] is Q(T - x_i) of every nested node i < M - 3, taken by its node
    group at solve time; q[0..3], x = T and the three floor nodes, are zero
    until recover_potential fills them in its copy. residual is the max over
    nodes of the sup-norm residual of the discrete equations, taken at solve
    time (for the nested nodes as A0[i:, i:] V plus the four corner columns);
    it certifies the linear solves, not the reconstruction's accuracy.
    """

    T: float
    M: int
    grid: np.ndarray
    lattices: tuple
    V: tuple
    Vx: tuple
    q: np.ndarray
    residual: float


def solve_gl(A: Amplitude, T: float, M: int) -> GLWorkspace:
    """Assemble and solve the discrete systems at every x node.

    The nested nodes go in groups of consecutive sizes with at most
    _BATCH (M + 1) reversed rows over a group's nodes, which bounds its
    batched arrays; they run from x = 0 outward on the factored x = 0 system,
    and each group's Schur step is one batched numpy step over its nodes.
    Each group also takes its nodes' values of Q (GLWorkspace.q).
    Every node passes the finite-matrix, conditioning and finite-residual
    gates, or the solve raises the tagged NumericalError.
    """
    if T <= 0:
        raise ValidationError(f"horizon T must be positive, got {T}", _MOD)
    if M < 32 or M % 2 != 0:
        raise ValidationError(f"M must be even and >= 32, got {M}", _MOD)
    _load_lapack()
    from scipy.linalg import LinAlgWarning
    xs = np.linspace(0.0, T, M + 1)
    lattices = _sample(A, T, M, xs)
    sizes = np.r_[M + 1 - np.arange(M - 3), 5, 5, 5, 1]
    edges = np.r_[0, np.cumsum(sizes)]
    residual, q = 0.0, np.zeros(M + 1)
    # a well too large for floats overflows inside the factors or meets an
    # exact zero pivot; the gates report that as the tagged error, so numpy's
    # and lu_factor's warnings say nothing more
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        # the weight table becomes the kink term P, freed after the factorization
        nested = _Nested(lattices[0], T / M, _unit_piece_weights(M), xs)
        # V[i] and Vx[i] are views into two flat arrays, allocated after the
        # factorization so that they do not add to its memory peak
        store = np.zeros((2, edges[-1]))
        V, Vx = (tuple(row[a:b] for a, b in zip(edges[:-1], edges[1:])) for row in store)
        for i in range(M - 3, M):
            V[i][:], Vx[i][:], res = _dense_node(*_node(lattices, T, M, i), xs[i], nested.gecon)
            residual = max(residual, res)
        hi = M + 1
        while hi >= 5:
            lo = max(5, hi - max(1, _BATCH * (M + 1) // hi) + 1)
            ms = np.arange(lo, hi + 1)
            res, q[ms - 1] = nested.group(ms, store[:, edges[M + 1 - hi]: edges[M + 2 - lo]])
            residual = max(residual, res.max())
            hi = lo - 1
    return GLWorkspace(T=T, M=M, grid=xs, lattices=lattices, V=V, Vx=Vx, q=q,
                       residual=float(residual))


def recover_potential(ws: GLWorkspace) -> RadialPotential:
    """Q on (0, T) through the diagonal-derivative identity.

    The nested nodes' values were taken at solve time (ws.q). This fills in
    the three floor nodes, on their own four-interval subgrids, and x = T:
    there every integral is empty and V(T,T) = 0, so the identity reduces to
    d/dx V(x,x) = 2 p'(0); the recovered value Q(0) = A(0) is the exact
    limit, no extrapolation involved.
    """
    qvals = ws.q.copy()
    qvals[0] = -4.0 * ws.lattices[0][2][0]  # x = T: dpt[0] = p'(0)
    W = _unit_piece_weights(4)[4]
    for i in range(ws.M - 3, ws.M):
        h, _, pt, ph, dpt, dph = _node(ws.lattices, ws.T, ws.M, i)
        V, Vx = ws.V[i], ws.Vx[i]
        # d = p(t - x) - p(2T - x - t) = -g1 and g2 = p'(2T - x - t) - p'(t - x)
        integrals = (h * W) @ ((pt[4:] - ph[:5]) * Vx + (dph - dpt) * V)
        qvals[ws.M - i] = -2.0 * (ph[0] * V[0] + 2.0 * dph[0] + integrals)  # at T - x
    return RadialPotential(grid=ws.grid.copy(), values=qvals)
