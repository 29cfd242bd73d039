"""Independent oracles used by the tests.

These deliberately avoid the package's own code paths: the rational
Gram-Schmidt works directly on the monomial Gram matrix in exact Fraction
arithmetic, the Laplace/series helpers integrate definitions numerically, and
the shooting reference steps RK4 one scalar step at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
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
