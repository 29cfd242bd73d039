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
nodes (n < 4) keep a floor of four intervals of their own width, on lattices
of the same layout for their own span T - x_i, and a dense pivoted solve.

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
gecon on a node's packed factors only where that bound cannot pass it. The
bound reads the inverse norms of every leading block of L and U, taken once
per solve from rows of L^{-1} and columns of U^{-1} solved for in panels of
_PANEL. Nodes go in groups, and a group takes every step for all its nodes at
once: its forward and back substitutions are one zero-padded triangular solve
each, its Schur step is one batched product L21 Z, one stacked inverse of the
S blocks and two batched products by S^{-1}, its residuals, A0[i:, i:] V plus
the four correction columns, are one matrix product, and its nodes' values of
Q one product with their weight rows. The floor nodes take theirs after their
dense solves, and x = T the exact limit Q(0) = A(0), so solve_gl returns the
finished potential. The sliding windows a group reads, of the reversed
lattices, of the corner columns' kink terms and of the rows of L21, are built
once per solve, and every group slices them.

Memory. A table is the (M + 1)^2 floats of B. The kink term P, the weight
table scaled in place, is freed once the corner columns have taken their
terms from it, before the finiteness gate and the LU. From then on a solve
holds B and, from the LU on, its factors, plus the temporaries of one phase
at a time: |B| for the gate, the LU's Schur products, the certificate's
panels, or one group's arrays. A group's V and Vx are written into the
memory of its residual array, and solve_gl drops them with the group, so
nothing stores a node solution. A group's arrays are O(_BATCH M) floats, so
they weigh most at small M: the traced peak of a Bargmann1 solve at T = 2 is
4.99 tables at M = 128, 3.47 at M = 256, 2.70 at M = 512, 2.53 at M = 1024
and 2.51 at M = 2048, where the LU's Schur products set it. The returned
workspace holds O(M) floats, the potential and its grid.

A group holds at most _BATCH (M + 1) rows over its nodes. Measured with those
windows (one BLAS thread, interleaved solves), a budget of 32 beat 16 by 3 %
per M = 256 solve and by 5 % per M = 512 solve, 64 and 128 were slower, and 32
raised the traced peak of an M = 512 solve from 7.6 to 8.9 MiB. But other
groups round differently: 32 moved Q of the T = 6, M = 64 run by 3e-12 (the
spread of that solve over every group size) and a sweep's q_gap and slope at
1e-15, so 16 stays and every printed figure keeps its bytes.

Zero kernel. The zero base without series terms (materializing the series
drops zero coefficients) has p = p' = 0, so every node's system is I V = 0.
solve_gl then samples, assembles and factors nothing: right after the
argument checks it returns residual 0 and the potential the full solve
writes, Q(0) = -4 p'(0) = +0 and -0 at every other node. Like every solve it
keeps no V or Vx. Any other amplitude takes the full solve, also one whose
samples all underflow to 0 (a coefficient of -5e-324 with T = 1): that solve
writes the same potential and residual, and its V and Vx are 0 up to the
sign of some zeros.

Only this module needs LAPACK. Its six routines, LAPACK dgetrf, dgetrs,
dtrtrs, dgecon and dlaswp and BLAS dtrsm, are bound on import from the
two extension modules scipy.linalg._flapack and scipy.linalg._fblas, loaded
from their files: the scipy.linalg package, whose import costs several times
the solve, never loads. Where those files are not found they come from
scipy.linalg.lapack and scipy.linalg.blas. lu_factor and lu_solve are thin
wrappers of dgetrf and dgetrs with scipy.linalg's call forms; the solve reads
every one of these names from the module, so a name rebound after import,
such as a tracer's wrapper of lu_factor, is the one called.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
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
_PANEL = 64   # rows of L^{-1}, or columns of U^{-1}, per triangular solve of _inverse_norms


def _extension(name: str):
    """The extension module scipy.linalg.<name>: the one in sys.modules, or
    else loaded from its file without importing the scipy.linalg package; None
    where its file is not found. Loading it registers it in sys.modules, so a
    later import of scipy.linalg binds the same routines."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec("scipy")   # locates the package, imports nothing
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(full, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(full, path, loader=loader))
                loader.exec_module(module)
                return module
    return None


_flapack, _fblas = _extension("_flapack"), _extension("_fblas")
if _flapack is None or _fblas is None:
    from scipy.linalg import blas as _fblas, lapack as _flapack
dgetrf, dgetrs, dtrtrs = _flapack.dgetrf, _flapack.dgetrs, _flapack.dtrtrs
dgecon, dlaswp = _flapack.dgecon, _flapack.dlaswp
dtrsm = _fblas.dtrsm


def _getrf(a):
    """(lu, piv) of a by dgetrf, as scipy.linalg.lu_factor returns them; a is
    not checked. An exactly singular a is not reported here: gecon's estimate
    then fails the gate."""
    lu, piv, _ = dgetrf(a)
    return lu, piv


def _getrs(lu_and_piv, b):
    """The solution of a x = b from _getrf's factors by dgetrs, as
    scipy.linalg.lu_solve returns it."""
    return dgetrs(*lu_and_piv, b)[0]


# private functions behind public names, so that a tracer that wraps every
# public function of the module wraps these once, under lu_factor and lu_solve
lu_factor, lu_solve = _getrf, _getrs


# ---------------------------------------------------------------------------
# p and its derivative, in closed form for any admissible amplitude.
# ---------------------------------------------------------------------------


def _finite(values, at, what: str):
    """values where all are finite; else the tagged error "<what>=<a>", with a
    the entry of at (one per value) of the first value that is not. A well
    whose p or p' overflows on the lattice has no GL solve in floats."""
    bad = ~np.isfinite(np.atleast_1d(values))
    if bad.any():
        raise NumericalError(f"{what}={np.atleast_1d(at)[bad][0]:.6g}", _MOD)
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
        return _finite(A.base.p_accum(t) - 0.25 * t * series, t, "p is not finite at t")


def p_prime_from_amplitude(A: Amplitude, t) -> np.ndarray:
    """p'(t) = -A(t/2)/4, the companion evaluation used by the recovery formula."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(-0.25 * A(t / 2.0), t, "p' is not finite at t")


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

    Returns four lattices (h, n, pt, ph, dpt, dph) of one layout, for n
    intervals of width h = L/n from x, L = T - x: pt[n + k] = p(h k) for
    k = -n..n, ph[k] = p(2L - h k) and dph[k] = p'(2L - h k) for k = 0..2n,
    dpt[k] = p'(h k) for k = 0..n. The x = 0 node's (n = M) comes first in
    each evaluation, then the floor nodes' i = M-3..M-1 (n = 4). A point's
    bits can depend on its place: with 8 or more series terms the last rows
    of a matrix-vector product round with the call's row count.
    """
    spans = [(T, M)] + [(T - x, 4) for x in xs[M - 3: M]]
    p_args, dp_args = [], []
    for L, n in spans:
        h, k = L / n, np.arange(2 * n + 1)
        p_args += [h * (k - n), 2.0 * L - h * k]
        dp_args += [h * k[: n + 1], 2.0 * L - h * k]
    p = np.split(p_from_amplitude(A, np.concatenate(p_args)),
                 np.cumsum([a.size for a in p_args[:-1]]))
    dp = np.split(p_prime_from_amplitude(A, np.concatenate(dp_args)),
                  np.cumsum([a.size for a in dp_args[:-1]]))
    return [(L / n, n, p[2 * f], p[2 * f + 1], dp[2 * f], dp[2 * f + 1])
            for f, (L, n) in enumerate(spans)]


def _kernels(pt: np.ndarray, ph: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pS, pL) with pS[i, j] = p(2T - t_i - t_j) and pL[i, j] = p(t_i - t_j),
    as read-only strided views of the lattices; p(t_j - t_i) is pL.T."""
    return sliding_window_view(ph, n + 1), sliding_window_view(pt[::-1], n + 1)[::-1]


def _assemble(lattice, W: np.ndarray):
    """(B, P, hw4) for the node of a lattice of _sample, the x = 0 node or a
    floor node, with W the unit table of its size n + 1.

    The node's matrix is A0 = I + pS S0 - P - P[::-1, ::-1] with S0 = h W[n]
    and P = (h W) pL, the kink-split term; pL is Toeplitz, so the transposed
    term (h W)[::-1, ::-1] pL^T is P reversed. B = A0[::-1, ::-1] is written
    in Fortran order, in that order of operations. W (the unit table) is
    scaled and multiplied in place and becomes P; hw4 = (h W)[:, :4] keeps
    the weights the node corrections read.
    """
    h, n, pt, ph = lattice[:4]
    W *= h
    hw4 = W[:, :4].copy()
    pS, pL = _kernels(pt, ph, n)
    B = np.empty((n + 1, n + 1), order="F")
    np.multiply(pS[::-1, ::-1], W[n, ::-1], out=B)
    B[np.arange(n + 1), np.arange(n + 1)] += 1.0
    P = np.multiply(W, pL, out=W)
    B -= P[::-1, ::-1]
    B -= P
    return B, P, hw4


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


def _inverse_norms(LU: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, u) with a[m - 1] = ||L[:m, :m]^{-1}||_1 and u[m - 1] =
    ||U[:m, :m]^{-1}||_1 for m = 1..k, from the unpivoted factors of a panel
    LU with k columns (L unit lower, U upper, as _lu_nopivot leaves them).

    A leading block of a triangular inverse is the inverse of the leading
    block, so the rows of L^{-1} and the columns of U^{-1} are solved for in
    panels of _PANEL, each against the column prefix of LU it needs
    (L^T Y = E and U X = E, E the panel's columns of I), with the 2k^3/3 flops
    of two triangular inversions. a takes the running column sums of |L^{-1}|
    below its unit diagonal, u the running maximum of U^{-1}'s column sums. An
    exactly zero pivot of U fails the solve of its panel and of every later
    one, which leaves u infinite from its panel on.
    """
    k = LU.shape[1]
    a, col, sums = np.empty(k), np.full(k, np.inf), np.zeros(k)
    for i0 in range(0, k, _PANEL):
        i1 = min(i0 + _PANEL, k)
        E = np.zeros((i1, i1 - i0), order="F")
        diag = np.arange(i0, i1), np.arange(i1 - i0)
        E[diag] = 1.0
        # column c of Y is row i0 + c of L^{-1}, zero past its diagonal
        Y = np.abs(dtrtrs(LU[:, :i1], E, lower=1, trans=1, unitdiag=1)[0])
        Y[diag] = 0.0
        Y[:, 0] += sums[:i1]
        np.cumsum(Y, axis=1, out=Y)
        a[i0:i1] = 1.0 + Y.max(axis=0)
        sums[:i1] = Y[:, -1]
        X, info = dtrtrs(LU[:, :i1], E, lower=0, overwrite_b=1)
        if not info:   # else U[:i1, :i1] has an exact zero pivot, and col stays inf
            col[i0:i1] = np.abs(X).sum(axis=0)
    return a, np.maximum.accumulate(col)


# ---------------------------------------------------------------------------
# Gates shared by the nested and the dense node solves.
# ---------------------------------------------------------------------------


def _check_conditioning(rcond: float, anorm: float, x: float) -> None:
    if not rcond * anorm >= _GATE:  # proxy for the smallest singular value; NaN fails
        raise NumericalError(
            f"Nystrom system nearly singular at x={x:.6g} "
            f"(inverse-norm proxy {rcond * anorm:.3e})", _MOD)


def _dense_node(lattice, x: float):
    """(V, Vx, residual, q) of a floor node by a dense pivoted solve of its own
    matrix, assembled as the x = 0 matrix is, on the node's lattice; q is
    Q(T - x) by the diagonal-derivative identity on the node's weight row."""
    h, n, pt, ph, dpt, dph = lattice
    W = _unit_piece_weights(n)
    S = h * W[n]
    B = _assemble(lattice, W)[0]
    mat = np.ascontiguousarray(B[::-1, ::-1])
    d, g2 = pt[n:] - ph[: n + 1], dph[: n + 1] - dpt
    anorm = _finite(np.abs(mat).sum(axis=0).max(), x, "non-finite Nystrom matrix at x")
    lu, piv = lu_factor(mat)
    _check_conditioning(dgecon(lu, anorm)[0], anorm, x)
    V = lu_solve((lu, piv), d)
    rhs = g2 - d * V[0]
    Vx = lu_solve((lu, piv), rhs)
    residual = _finite(float(max(np.max(np.abs(mat @ V - d)), np.max(np.abs(mat @ Vx - rhs)))),
                       x, "non-finite residual at x")
    # d = p(t - x) - p(2T - x - t) = -g1 and g2 = p'(2T - x - t) - p'(t - x)
    q = -2.0 * (ph[0] * V[0] + 2.0 * dph[0] + S @ (d * Vx + g2 * V))
    return V, Vx, residual, q


# ---------------------------------------------------------------------------
# The nested solve.
# ---------------------------------------------------------------------------


class _Nested:
    """The reversed x = 0 system of one solve, factored once without pivoting,
    and the node updates on it. Node i is addressed by its reversed size
    m = M + 1 - i; its matrix C agrees with B[:m, :m] in the columns before
    m' = m - 4 and carries its own corner columns N in the last four. Arrays
    over a group of nodes are node-major: [node, column, reversed row]."""

    def __init__(self, lattice, xs: np.ndarray):
        h, M, pt, ph, dpt, dph = lattice
        self.M, self.xs = M, xs
        # the weight table is built here, so that no caller's reference keeps it
        # alive: _assemble turns it into the kink term P, dropped before the LU
        W = _unit_piece_weights(M)
        # recovery weights on reversed rows q < m' (h W[n, n - q] is one row for any n)
        self.wq = h * W[M, ::-1]
        self.B, P, self.hw4 = _assemble(lattice, W)
        # reversed lattices: node rows q = 0, 1, ... are windows into these
        self.phr, self.dphr = ph[::-1], dph[::-1]
        dptr = np.concatenate([dpt[::-1], np.zeros(M)])
        # of P the corner columns read the first four columns, as
        # lead[j, M - n + q] = P[n - q, 3 - j], and the band
        # band[q + 1, e] = P[q, q + 2 - e]; then P (W's memory) is freed
        lead = np.zeros((4, 2 * M + 2))
        lead[:, : M + 1] = P[::-1, 3::-1].T
        q = np.arange(M + 1)[:, None]
        cols = q + 2 - np.arange(6)
        self.band = np.zeros((M + 2, 6))
        self.band[1:] = np.where((cols >= 0) & (cols <= M), P[q, np.clip(cols, 0, M)], 0.0)
        del W, P
        # every node's columns before its corner are a block of B
        _finite(np.abs(self.B).sum(axis=0).max(), xs[0], "non-finite Nystrom matrix at x")
        self.LU = np.array(self.B[:, : M - 3], order="F")
        _lu_nopivot(self.LU)
        # the windows every group slices, built once per solve: a group's rows
        # q < mh are the first mh entries of windows of M + 1 into the reversed
        # lattices and into lead's rows, and the L21 of its nodes m = r + 4,
        # r + 5, ... are LU's windows of four rows from r on
        self.ptw, self.phw, self.dptw, self.dphw = (
            sliding_window_view(a, M + 1) for a in (pt[::-1], self.phr, dptr, self.dphr))
        self.leadw = sliding_window_view(lead, M + 1, axis=1)
        self.L21w = sliding_window_view(self.LU, 4, axis=0)
        # the inverse norms of every node's L11 and U11, at index m' - 1
        self.a, self.u = _inverse_norms(self.LU)

    def _corners(self, ms: np.ndarray, mh: int) -> np.ndarray:
        """N[g, j, q] = entry (q, m_g - 4 + j) of node g's reversed matrix for
        q < mh, written into N (G, 4, mh) in the order of operations of
        _assemble: ((I + Hankel term) - left-end kink term) - reversed kink
        term, which lives on rows m_g - 6 .. m_g - 1 only."""
        rows, j = np.arange(ms.size)[:, None], np.arange(4)
        c = ms[:, None] - 4 + j
        N = self.phw[c, :mh] * self.hw4[ms - 1][:, ::-1, None]
        N[rows, j, c] += 1.0
        N -= self.leadw[j, (self.M + 1 - ms)[:, None], :mh]
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
        return dtrtrs(self.LU[:, :K], F, lower=1, unitdiag=1, overwrite_b=1)[0]

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

    def group(self, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve the nodes of reversed sizes ms (consecutive, ascending);
        returns their residuals, their values of Q and sol (2, G, mh), whose
        sol[0, g, :m] and sol[1, g, :m] are node g's V and Vx on its reversed
        rows. sol lives in the group's residual array, so a caller that keeps
        it keeps that array alive.

        Forward substitution takes every node's corner columns and right-hand
        side at once, zero-padded to the largest node; the rows of Z from a
        node's m' on are not its own and are zeroed, so the Schur step's
        products run over all K rows for every node at once. The back
        substitution sees zeros below each node's m' rows, so those rows hold
        the node's own solution. V[0] is the last reversed entry, known after
        the Schur step, so the V_x right-hand side g2 - d V[0] is formed and
        forward-substituted then. Q(T - x) = -2 d/dx V(x,x) is taken from the
        rows held here: the identity's integrals are the node's weight row
        times d V_x + g2 V (d = -g1), as _dense_node takes a floor node's.
        """
        M, B, LU = self.M, self.B, self.LU
        G, mh = ms.size, int(ms[-1])
        K, mp, x = mh - 4, ms - 4, self.xs[M + 1 - ms]
        below = np.arange(mh) >= ms[:, None]          # rows a node does not own
        beyond = np.arange(K)[:, None] >= mp          # [row, node]: rows past its m'
        last4 = np.arange(G)[:, None], mp[:, None] + np.arange(4)   # its rows m'..m-1
        N = self._corners(ms, mh)
        rhs = np.empty((G, 2, mh))                    # d, then g2 - d V[0]
        rhs[:, 0] = self.ptw[M + 1 - ms, :mh] - self.phw[ms - 1, :mh]
        g2 = self.dphw[ms - 1, :mh] - self.dptw[M + 1 - ms, :mh]
        np.copyto(N, 0.0, where=below[:, None, :])
        np.copyto(rhs[:, 0], 0.0, where=below)
        corner = _finite(np.abs(N).sum(axis=2).max(axis=1),   # 1-norm of the corner columns
                         x, "non-finite Nystrom matrix at x")

        Z = self._forward(np.concatenate([N, rhs[:, :1]], axis=1), K)
        Zg = Z.reshape((K, G, 5))                     # [row, node, column]
        np.copyto(Zg, 0.0, where=beyond[:, :, None])
        L21 = self.L21w[ms[0] - 4: mh - 3, :K].transpose(0, 2, 1)
        T4 = L21 @ Zg.transpose(1, 0, 2)
        Sinv = _inv4(N[last4[0], :, last4[1]] - T4[:, :, :4])   # S^{-1} of every node
        Y2 = np.empty((G, 2, 4))                      # the last four reversed rows
        Y2[:, 0] = np.einsum("gij,gj->gi", Sinv, rhs[last4[0], 0, last4[1]] - T4[:, :, 4])
        for g in np.flatnonzero(~(self._certificates(ms, Sinv, Z) >= _GATE)):
            # the bound cannot pass this node: estimate on its packed factors,
            # with the Schur block factored by getrf and L21's rows permuted
            m = int(ms[g])
            lu4, piv = lu_factor(N[g, :, m - 4: m].T - T4[g, :, :4])
            packed = np.empty((m, m), order="F")
            packed[: m - 4, : m - 4] = LU[: m - 4, : m - 4]
            packed[: m - 4, m - 4:] = Z[: m - 4, 5 * g: 5 * g + 4]
            packed[m - 4:, : m - 4] = dlaswp(LU[m - 4: m, : m - 4], piv)
            packed[m - 4:, m - 4:] = lu4
            anorm = max(np.abs(B[:m, : m - 4]).sum(axis=0).max(), corner[g])
            _check_conditioning(dgecon(packed, anorm)[0], anorm, x[g])
        rhs[:, 1] = np.where(below, 0.0, g2 - rhs[:, 0] * Y2[:, 0, 3:])
        Zx = self._forward(rhs[:, 1:], K)
        np.copyto(Zx, 0.0, where=beyond)
        Y2[:, 1] = np.einsum("gij,gj->gi", Sinv,
                             rhs[last4[0], 1, last4[1]] - (L21 @ Zx.T[..., None])[..., 0])
        Xb = np.empty((K, 2 * G), order="F")
        Xg = Xb.reshape((K, 2, G), order="F")         # column c of node g is Xb[:, 2 g + c]
        Xg[:, 0], Xg[:, 1] = Zg[:, :, 4], Zx
        Xg -= (Zg[:, :, :4].transpose(1, 0, 2) @ Y2.transpose(0, 2, 1)).transpose(1, 2, 0)
        X = dtrtrs(LU[:, :K], Xb, lower=0, overwrite_b=1)[0]

        res = (X.T @ B[:mh, :K].T).reshape(G, 2, mh)
        res += Y2 @ N
        res -= rhs
        np.abs(res, out=res)
        np.copyto(res, 0.0, where=below[:, None, :])
        residual = _finite(res.max(axis=(1, 2)), x, "non-finite residual at x")
        # each node's reversed rows q < m, in res's memory
        sol = res.transpose(1, 0, 2)
        sol[:, :, :K] = X.reshape((K, 2, G), order="F").transpose(1, 2, 0)
        sol[:, last4[0], last4[1]] = Y2.transpose(1, 0, 2)
        # d V_x + g2 V in d's memory, zero on the rows a node does not own
        e = np.multiply(rhs[:, 0], sol[1], out=rhs[:, 0])
        e += np.multiply(g2, sol[0], out=g2)
        e4 = e[last4]
        e[last4] = 0.0
        integrals = e @ self.wq[:mh] + (e4 * self.hw4[ms - 1, ::-1]).sum(axis=1)
        q = -2.0 * (self.phr[2 * ms - 2] * Y2[:, 0, 3] + 2.0 * self.dphr[2 * ms - 2] + integrals)
        return residual, q, sol


def _zero_kernel(A: Amplitude) -> bool:
    """Whether A is identically 0: the zero base without series terms
    (materializing the series already dropped its zero coefficients)."""
    return A.base.kind == "zero" and not A.term_coeffs.size


@dataclass
class GLWorkspace:
    """One solve's recovered potential, whose grid carries T and M, and residual.

    potential is Q on the x nodes, Q(T - x_i) at index M - i: the nested nodes'
    values taken by their node groups, the floor nodes' by their dense solves,
    and Q(0) = -4 p'(0) = A(0), the exact limit at x = T, where every integral
    is empty and V(T,T) = 0. residual is the max over nodes of the sup-norm
    residual of the discrete equations, taken at solve time (for the nested
    nodes as A0[i:, i:] V plus the four corner columns); it certifies the
    linear solves, not the reconstruction's accuracy. Neither the sampled
    lattices nor the node solutions V and Vx are kept: a node group holds its
    own solutions only while it runs.
    """

    potential: RadialPotential
    residual: float


def solve_gl(A: Amplitude, T: float, M: int) -> GLWorkspace:
    """Assemble and solve the discrete systems at every x node, and recover Q.

    A horizon T that is not positive and finite, and an M that is not an even
    integer >= 32, are refused with ValidationError before anything is
    sampled. The nested nodes go in groups of consecutive sizes with at most
    _BATCH (M + 1) reversed rows over a group's nodes, which bounds its
    batched arrays; they run from x = 0 outward on the factored x = 0 system,
    and each group's Schur step is one batched numpy step over its nodes.
    Each group takes its nodes' values of Q, and each floor node its own, so
    the workspace comes back with the finished potential; the node solutions
    are dropped group by group. Every node passes the finite-matrix,
    conditioning and finite-residual gates, or the solve raises the tagged
    NumericalError. The zero base without series terms returns the same
    workspace after the argument checks alone, with nothing sampled,
    assembled or factored (the module's zero-kernel exit). From M = 512 on a
    solve peaks at under 2.8 tables of (M + 1)^2 floats (the module's Memory
    paragraph), and its workspace holds O(M) floats.
    """
    if not 0 < T < np.inf:   # NaN fails
        raise ValidationError(f"horizon T must be positive and finite, got {T}", _MOD)
    if not isinstance(M, (int, np.integer)) or M < 32 or M % 2 != 0:
        raise ValidationError(f"M must be an even integer >= 32, got {M!r}", _MOD)
    xs = np.linspace(0.0, T, M + 1)
    q = np.empty(M + 1)
    if _zero_kernel(A):
        # every system is I V = 0, so the residual is 0, Q(0) = -4 p'(0) = +0,
        # and every other node's Q is -2 times a sum of zeros, -0 as the full
        # solve writes it
        q[0], q[1:] = 0.0, -0.0
        return GLWorkspace(potential=RadialPotential(grid=xs, values=q), residual=0.0)
    main, *floor = _sample(A, T, M, xs)
    residual = 0.0
    q[0] = -4.0 * main[4][0]   # x = T: dpt[0] = p'(0)
    # a well too large for floats overflows inside the factors or meets an
    # exact zero pivot; the gates report that as the tagged error, so numpy's
    # warnings say nothing more
    with np.errstate(all="ignore"):
        nested = _Nested(main, xs)
        for i, lattice in zip(range(M - 3, M), floor):
            _, _, res, q[M - i] = _dense_node(lattice, xs[i])
            residual = max(residual, res)
        hi = M + 1
        while hi >= 5:
            lo = max(5, hi - _BATCH * (M + 1) // hi + 1)
            ms = np.arange(lo, hi + 1)
            # the group's solutions go in this statement, before the next
            # group allocates
            res, q[ms - 1] = nested.group(ms)[:2]
            residual = max(residual, res.max())
            hi = lo - 1
    return GLWorkspace(potential=RadialPotential(grid=xs, values=q), residual=float(residual))
