"""Local Gel'fand-Levitan reconstruction on (0, T).

For each grid point x the second-kind integral equation

    V(x,t) + int_x^T K(t,s) V(x,s) ds = -K(x,t),
    K(t,s) = p(2T-t-s) - p(|t-s|),       p(t) = -(1/2) int_0^{t/2} A,

is discretized by a Nystrom scheme and dense-solved; the recovered potential
is Q(T-x) = -2 d/dx V(x,x), evaluated through the explicit identity

    d/dx V(x,x) = p(2T-2x) V(x,x) + 2 p'(2T-2x)
                  - int_x^T [p(2T-x-s) - p(s-x)]  dV/dx(x,s) ds
                  + int_x^T [p'(2T-x-s) - p'(s-x)] V(x,s)  ds,

obtained by differentiating the integral equation (never by finite
differences of V). The kernel's s-derivative jumps across s = t whenever
p'(0) != 0, which silently degrades plain composite Simpson to second order;
the row quadrature below therefore splits each collocation row at its kink
and patches the pieces with 3/8 and one-interval cubic end rules, restoring
clean fourth-order convergence (verified against the closed-form wells).

On the uniform subgrid t_i = x + h i of one node, every kernel entry is p
at a lattice point: p(t_i - t_j) = p(h (i - j)) (Toeplitz) and
p(2T - t_i - t_j) = p(2T - 2x - h (i + j)) (Hankel). p and p' are therefore
evaluated on these two 1-D lattices only (O(n) closed-form evaluations per
node) and the n x n kernels are strided views of them, with no copy. One
function, _system, assembles each node's Nystrom matrix once, into buffers
that a chunk of nodes reuses; the same matrix serves the LU solve and the
residual check, which is taken before the matrix is dropped. The kink-split
weights scale with h and their row i does not depend on n, so one unit table
per solve serves every subsystem.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
from scipy.special import exprel

from .errors import NumericalError, ValidationError
from .perturbation import Amplitude
from .radial_model import RadialPotential
from .quadrature import simpson_weights

_MOD = "gelfand_levitan"


# ---------------------------------------------------------------------------
# p and its derivative, in closed form for any admissible amplitude.
# ---------------------------------------------------------------------------


def p_from_amplitude(A: Amplitude, t) -> np.ndarray:
    """p(t) = -(1/2) int_0^{t/2} A(alpha) d alpha, term by term in closed form.

    Each series term c e^{-mu alpha} contributes -(c t/4) exprel(-mu t/2),
    which is -c (1 - e^{-mu t/2})/(2 mu) and tends to -c t/4 at mu = 0. The
    formula is analytic in t, so slightly negative arguments (needed by the
    end-rule stencils) are fine.
    """
    t = np.asarray(t, dtype=float)
    series = exprel(-0.5 * np.multiply.outer(t, A.term_mu)) @ A.term_coeffs
    return A.base.p_accum(t) - 0.25 * t * series


def p_prime_from_amplitude(A: Amplitude, t) -> np.ndarray:
    """p'(t) = -A(t/2)/4, the companion evaluation used by the recovery formula."""
    return -0.25 * A(np.asarray(t, dtype=float) / 2.0)


# ---------------------------------------------------------------------------
# Kink-split row quadrature and lattice-sampled assembly.
# ---------------------------------------------------------------------------


def _unit_piece_weights(n: int) -> np.ndarray:
    """W[i, :] integrates a smooth integrand over [t_0, t_i] on unit-spaced
    nodes t_0..t_n; scale by h for spacing h.

    Composite Simpson where the interval count allows it, a 3/8 patch for odd
    counts, and for a single interval the cubic end rule (9, 19, -5, 1)/24,
    whose stencil spills at most two nodes past the kink; callers evaluate the
    kernel branch analytically there. Row i never depends on n, so the
    weights of any subsystem of size m <= n are W[:m+1, :m+1].
    """
    W = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        if i == 1:
            W[1, :4] = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
        elif i == 2:
            W[2, :3] = np.array([1.0, 4.0, 1.0]) / 3.0
        elif i == 3:
            W[3, :4] = np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 / 8.0
        elif i % 2 == 0:
            W[i, : i + 1] = simpson_weights(i, 1.0)
        else:
            W[i, :4] += np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 / 8.0
            W[i, 3 : i + 1] += simpson_weights(i - 3, 1.0)
    return W


def _lattices(A: Amplitude, T: float, x: float, h: float, n: int):
    """p and p' on the two argument lattices of the subgrid t_i = x + h i.

    Returns (pt, ph, dpt, dph): pt[n + k] = p(h k) for k = -n..n (the
    Toeplitz lattice, carrying p(t_i - t_j)), ph[k] = p(2T - 2x - h k) for
    k = 0..2n (the Hankel lattice, carrying p(2T - t_i - t_j)), and p' at the
    k = 0..n points of each lattice, the only ones the recovery reads.
    """
    k = np.arange(2 * n + 1)
    args = np.concatenate([h * (k - n), 2.0 * T - 2.0 * x - h * k])
    p, dp = p_from_amplitude(A, args), p_prime_from_amplitude(A, args[n: 3 * n + 2])
    return p[: 2 * n + 1], p[2 * n + 1:], dp[: n + 1], dp[n + 1:]


def _kernels(pt: np.ndarray, ph: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pS, pL) with pS[i, j] = p(2T - t_i - t_j) and pL[i, j] = p(t_i - t_j),
    as read-only strided views of the lattices; p(t_j - t_i) is pL.T."""
    return sliding_window_view(ph, n + 1), sliding_window_view(pt[::-1], n + 1)[::-1]


def _system(A: Amplitude, T: float, x: float, h: float, n: int, W: np.ndarray,
            buf: np.ndarray, scratch: np.ndarray):
    """The discrete equations at one x node: (mat, d, g2) with mat V = d and
    mat V_x = g2 - d V[0], where d = p(t - x) - p(2T - x - t) and
    g2 = p'(2T - x - t) - p'(t - x) on the subgrid. W is a unit weight table
    of size at least n + 1.

    mat = I + pS S - (h W) pL - (h W)[::-1, ::-1] pL^T is written, in that
    order of operations, into the first (n + 1)^2 entries of the flat buffer
    buf; the product (h W) pL goes to scratch, of the same size. pL is
    Toeplitz, so pL^T = pL[::-1, ::-1] and the last term is that product
    reversed: no n x n array is allocated.
    """
    pt, ph, dpt, dph = _lattices(A, T, x, h, n)
    pS, pL = _kernels(pt, ph, n)
    size = (n + 1) ** 2
    mat = buf[:size].reshape(n + 1, n + 1)
    np.multiply(pS, simpson_weights(n, h), out=mat)
    buf[: size : n + 2] += 1.0
    wl = scratch[:size].reshape(n + 1, n + 1)
    np.multiply(W[: n + 1, : n + 1], h, out=wl)
    wl *= pL
    mat -= wl
    mat -= wl[::-1, ::-1]
    return mat, pt[n:] - ph[: n + 1], dph - dpt


@dataclass
class GLWorkspace:
    """Discretization state for one amplitude on [0, T].

    grid holds the x nodes; V[i]/Vx[i] are the solution and its x-derivative
    on the i-th node's sub-grid (subgrids[i] = (x, h, n)). residual is the
    max over nodes of the sup-norm residual of the discrete equations, taken
    at solve time against each node's matrix (NaN if any node's is). Kernels
    are not stored: every consumer resamples p and p' on the node's two 1-D
    lattices (_lattices), which costs O(n) evaluations. q_rec is filled by
    recover_potential.
    """

    amplitude: Amplitude
    T: float
    M: int
    grid: np.ndarray
    subgrids: tuple
    V: tuple
    Vx: tuple
    residual: float
    q_rec: RadialPotential | None = field(default=None)


def _subgrid(T: float, M: int, x: float) -> tuple[float, int]:
    n = max(4, 2 * int(round(M * (T - x) / (2.0 * T))))
    return (T - x) / n, n


def _solve_at(A: Amplitude, T: float, x: float, h: float, n: int, W: np.ndarray,
              buf: np.ndarray, scratch: np.ndarray):
    """(V, Vx, residual) at one x node. mat is assembled once into buf and
    stays intact for the residual; scratch holds |mat|, then its LU factors."""
    mat, d, g2 = _system(A, T, x, h, n, W, buf, scratch)
    size = (n + 1) ** 2
    absmat = np.abs(mat, out=scratch[:size].reshape(n + 1, n + 1))
    anorm = absmat.sum(axis=0).max()  # the 1-norm, as np.linalg.norm(mat, 1) takes it
    if not np.isfinite(anorm):
        raise NumericalError(f"non-finite Nystrom matrix at x={x:.6g}", _MOD)
    # getrf factors a Fortran-ordered array in place; a C-ordered one it copies
    lu = scratch[:size].reshape((n + 1, n + 1), order="F")
    lu[...] = mat
    lu, piv = lu_factor(lu, overwrite_a=True, check_finite=False)
    gecon = get_lapack_funcs(("gecon",), (lu,))[0]
    rcond = gecon(lu, anorm)[0]
    if rcond * anorm < 1e-8:  # proxy for the smallest singular value
        raise NumericalError(
            f"Nystrom system nearly singular at x={x:.6g} "
            f"(inverse-norm proxy {rcond * anorm:.3e})", _MOD)
    # a non-finite right-hand side is not refused: it shows as a NaN residual
    V = lu_solve((lu, piv), d, check_finite=False)
    rhs = g2 - d * V[0]
    Vx = lu_solve((lu, piv), rhs, check_finite=False)
    residual = np.maximum(np.max(np.abs(mat @ V - d)), np.max(np.abs(mat @ Vx - rhs)))
    return V, Vx, float(residual)


def solve_gl(A: Amplitude, T: float, M: int, workers: int = 1) -> GLWorkspace:
    """Assemble and solve the discrete systems at every x node.

    The per-x solves are independent. The nodes are dealt into min(workers,
    M + 1) strided chunks (the subgrids shrink with x, so the chunks carry
    equal work); each chunk owns the two buffers its systems are assembled
    and factored in, and workers > 1 runs the chunks in a thread pool (the
    dense solves release the GIL). Results are put back in node order, so the
    output is identical for any worker count.
    """
    if T <= 0:
        raise ValidationError(f"horizon T must be positive, got {T}", _MOD)
    if M < 32 or M % 2 != 0:
        raise ValidationError(f"M must be even and >= 32, got {M}", _MOD)
    xs = np.linspace(0.0, T, M + 1)
    subgrids = []
    for x in xs:
        if x == T:
            subgrids.append((float(x), 0.0, 0))
        else:
            h, n = _subgrid(T, M, float(x))
            subgrids.append((float(x), h, n))
    n_max = max(n for _, _, n in subgrids)
    W = _unit_piece_weights(n_max)
    chunks = min(workers, M + 1)

    def work(start: int) -> list:
        buf, scratch = np.empty((n_max + 1) ** 2), np.empty((n_max + 1) ** 2)
        out = []
        for x, h, n in subgrids[start::chunks]:
            if n == 0:  # degenerate interval: the system is empty and V = 0
                out.append((np.zeros(1), np.zeros(1), 0.0))
            else:
                out.append(_solve_at(A, T, x, h, n, W, buf, scratch))
        return out

    if chunks > 1:
        with ThreadPoolExecutor(max_workers=chunks) as pool:
            done = list(pool.map(work, range(chunks)))
    else:
        done = [work(0)]
    results = [done[i % chunks][i // chunks] for i in range(M + 1)]

    return GLWorkspace(amplitude=A, T=T, M=M, grid=xs, subgrids=tuple(subgrids),
                       V=tuple(r[0] for r in results),
                       Vx=tuple(r[1] for r in results),
                       residual=float(np.max([r[2] for r in results])))


def recover_potential(ws: GLWorkspace) -> RadialPotential:
    """Q on (0, T) through the diagonal-derivative identity.

    At x = T every integral is empty and V(T,T) = 0, so the identity reduces
    to d/dx V(x,x) = 2 p'(0) there; the recovered value Q(0) = A(0) is the
    exact limit, no extrapolation involved.
    """
    A, T = ws.amplitude, ws.T
    qvals = np.empty(ws.M + 1)
    for i, (x, h, n) in enumerate(ws.subgrids):
        V, Vx = ws.V[i], ws.Vx[i]
        if n == 0:
            dd = 2.0 * float(p_prime_from_amplitude(A, 0.0))
        else:
            pt, ph, dpt, dph = _lattices(A, T, x, h, n)
            S = simpson_weights(n, h)
            g1 = ph[: n + 1] - pt[n:]    # p(2T - x - t) - p(t - x)
            g2 = dph - dpt               # p'(2T - x - t) - p'(t - x)
            dd = ph[0] * V[0] + 2.0 * dph[0] - S @ (g1 * Vx) + S @ (g2 * V)
        qvals[ws.M - i] = -2.0 * dd  # value sits at T - x
    q = RadialPotential(grid=ws.grid.copy(), values=qvals, closed_form=None)
    ws.q_rec = q
    return q


def gl_residual(ws: GLWorkspace) -> float:
    """Max over x nodes of the sup-norm residual of the discrete equations.

    solve_gl substitutes each node's solution into the very matrix it was
    factored from, before that matrix is dropped; this certifies the linear
    solves independently of reconstruction accuracy. A NaN at any node
    propagates.
    """
    return ws.residual
