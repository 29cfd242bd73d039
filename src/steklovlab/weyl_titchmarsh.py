"""Weyl-Titchmarsh values M(-kappa^2) by two independent routes, Steklov
spectra, and certified sup-norm gaps between spectra.

Route one integrates -u'' + Q u = -kappa^2 u backward from a truncation point
with the decaying (Jost) seed and returns u'(0)/u(0); backward integration
damps the growing mode, so the value is uniformly stable. The classical RK4
step is linear in (u, u'), so each step is a 2x2 propagator matrix; a pass
builds them as arrays a chunk at a time, multiplies each chunk's propagators
pairwise in a log-depth tree with power-of-two renormalization, and applies
the chunk products to (u, u') in turn. Step halving refines the pass until successive
values agree, and gives up as soon as the differences stop contracting, which
is what happens near an eigenvalue.

Route two uses the representation
M(-kappa^2) = -kappa - int_0^inf A(alpha) e^{-2 kappa alpha} d alpha for the
amplitude A, with the perturbation series transformed in closed form:
sum_k c_k / (2 kappa + mu_k) over the signed rates mu_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NumericalError, ValidationError
from .perturbation import Amplitude
from .radial_model import (Bargmann1, Bargmann2, PotentialForm, RadialPotential,
                           SpectralParams, SteklovSpectrum, ZeroForm)

_MOD = "weyl_titchmarsh"
_CHUNK = 8192         # RK4 steps per propagator product
_MIN_CONTRACTION = 2  # step halving must shrink the difference at least this much


@dataclass(frozen=True)
class WTEvaluation:
    kappa: float
    value: float
    route: str  # "ode" | "laplace" | "closed_form"
    est_error: float


@dataclass(frozen=True)
class OdeOptions:
    """Controls for the backward shooting route.

    x_max = None picks max(12, 23/kappa), clipped to the potential's sampled
    domain; 23/kappa keeps the growing-mode contamination e^{-2 kappa x_max}
    near 1e-20 for potentials with slow decay (for rapidly decaying closed
    forms, x_max = 12 already suffices at any kappa of interest).
    """

    x_max: float | None = None
    step: float = 1.0 / 32.0
    tolerance: float = 1e-10
    max_halvings: int = 14

    def x_max_for(self, kappa: float) -> float:
        """The truncation point at kappa before any clipping to a sampled domain."""
        return float(self.x_max) if self.x_max is not None else max(12.0, 23.0 / kappa)

    def resolve_x_max(self, kappa: float, potential: RadialPotential) -> float:
        want = self.x_max_for(kappa)
        if self.x_max is None and potential.closed_form is None:
            return min(want, potential.x_max)
        return want


def _step_propagators(g0: np.ndarray, gm: np.ndarray, g1: np.ndarray,
                      s: float) -> np.ndarray:
    """The classical RK4 steps of size s for u'' = g u as 2x2 matrices acting
    on (u, u'), shape (2, 2, m): the scheme is linear, and the entries are its
    stages expanded in closed form. g0, gm, g1 hold g at each step's start,
    midpoint and end."""
    s2 = s * s
    return np.array([
        [1.0 + s2 / 6.0 * (g0 + 2.0 * gm) + s2 * s2 / 24.0 * gm * g0,
         s + s2 * s / 6.0 * gm],
        [s / 6.0 * (g0 + 4.0 * gm + g1) + s2 * s / 12.0 * gm * (g0 + g1),
         1.0 + s2 / 6.0 * (2.0 * gm + g1) + s2 * s2 / 24.0 * g1 * gm]])


def _pow2_normalize(a: np.ndarray, axis=None) -> np.ndarray:
    """a divided by a power of two that brings its largest |entry| into
    [1/2, 1); exact, so only the (irrelevant) overall scale changes."""
    return np.ldexp(a, -np.frexp(np.abs(a).max(axis=axis))[1])


def _mul2(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """L @ R for 2x2 matrices L and 2xk matrices R, stacked along any trailing
    axes, written elementwise (no BLAS call per 2x2 product)."""
    return L[:, :1] * R[0] + L[:, 1:] * R[1]


def _chain_product(P: np.ndarray) -> np.ndarray:
    """P[..., m-1] @ ... @ P[..., 0] up to a positive factor, multiplied
    pairwise in a log-depth tree; every partial product is renormalized by a
    power of two, so growth like e^{kappa x_max} cannot overflow."""
    while P.shape[-1] > 1:
        m = P.shape[-1]
        prod = _mul2(P[..., 1::2], P[..., :m - 1:2])
        if m % 2:
            prod[..., -1:] = _mul2(P[..., -1:], prod[..., -1:])
        P = _pow2_normalize(prod, axis=(0, 1))
    return P[..., 0]


def _shoot_backward(g_half: np.ndarray, h: float, kappa: float) -> tuple[float, float]:
    """Integrate u'' = g(x) u from x_max down to 0 with the scaled Jost seed.

    g_half holds g = Q + kappa^2 on the half-step grid (2n+1 values, ascending).
    The n RK4 steps are applied as products of their propagators, _CHUNK steps
    at a time, so the temporaries stay O(_CHUNK). Returns (u(0), u'(0)) up to
    an irrelevant common positive factor.
    """
    g = g_half[::-1]
    g0, gm, g1 = g[:-1:2], g[1::2], g[2::2]  # start, midpoint, end of each step
    y = np.array([[1.0], [-kappa]])
    for lo in range(0, gm.size, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        P = _step_propagators(g0[chunk], gm[chunk], g1[chunk], -h)
        y = _pow2_normalize(_mul2(_chain_product(P), y))
    return float(y[0, 0]), float(y[1, 0])


def _m_fixed_step(Q: RadialPotential, kappa: float, x_max: float, n: int) -> float:
    """M value from one backward pass with exactly n steps (no adaptivity)."""
    xs = np.linspace(0.0, x_max, 2 * n + 1)
    g = Q(xs) + kappa**2
    if not np.all(np.isfinite(g)):
        raise NumericalError("potential evaluation produced non-finite values", _MOD)
    u0, v0 = _shoot_backward(g, x_max / n, kappa)
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise NumericalError(
            f"backward integration overflowed at kappa={kappa} "
            "(spectral parameter too close to an eigenvalue)", _MOD)
    if abs(u0) <= 1e-12 * abs(v0):  # scale-free; <= also catches u0 = v0 = 0
        raise NumericalError(
            f"u(0) vanishes at kappa={kappa}: -kappa^2 sits at a Dirichlet "
            "point of the truncated problem", _MOD)
    return v0 / u0


def wt_from_ode(Q: RadialPotential, kappa: float,
                opts: OdeOptions | None = None) -> WTEvaluation:
    """M(-kappa^2) = u'(0)/u(0) by backward integration; error from step halving.

    Raises NumericalError when a halving shrinks the difference between
    successive values by less than _MIN_CONTRACTION, or after max_halvings.
    """
    if kappa <= 0:
        raise ValidationError(f"kappa must be positive, got {kappa}", _MOD)
    opts = opts or OdeOptions()
    x_max = opts.resolve_x_max(kappa, Q)
    if Q.closed_form is None and x_max > Q.x_max + 1e-12:
        raise ValidationError(
            f"potential sampled only up to {Q.x_max}, need x_max={x_max}", _MOD)

    n = max(32, int(math.ceil(x_max / opts.step)))
    prev = prev_diff = None
    for _ in range(opts.max_halvings + 1):
        m = _m_fixed_step(Q, kappa, x_max, n)
        if prev is not None:
            diff = abs(m - prev)
            if diff <= opts.tolerance:
                return WTEvaluation(kappa=kappa, value=m, route="ode", est_error=diff)
            # RK4 contracts the difference about 16x per halving; near an
            # eigenvalue it grows instead, and no tolerance will be met
            if prev_diff is not None and diff * _MIN_CONTRACTION > prev_diff:
                raise NumericalError(
                    f"step halving stopped converging at kappa={kappa}: the "
                    f"difference went from {prev_diff:.3g} to {diff:.3g} "
                    "(spectral parameter too close to an eigenvalue, or the "
                    "tolerance below the rounding floor)", _MOD)
            prev_diff = diff
        prev = m
        n *= 2
    raise NumericalError(
        f"step halving did not reach tolerance {opts.tolerance} at kappa={kappa}",
        _MOD)


def wt_from_amplitude(A: Amplitude, kappa: float) -> WTEvaluation:
    """M(-kappa^2) from the amplitude representation.

    The base amplitude is integrated by adaptive quadrature, truncated where
    its envelope times e^{-2 kappa alpha} drops below 1e-14; the perturbation
    series is summed in closed form.
    """
    if kappa <= 0:
        raise ValidationError(f"kappa must be positive, got {kappa}", _MOD)
    if not np.isfinite(np.sum(np.abs(A.term_coeffs))):
        raise ValidationError("perturbation coefficients are not summable", _MOD)
    base = A.base
    if kappa <= base.kappa_min:
        raise ValidationError(
            f"representation for this base needs kappa > {base.kappa_min}, "
            f"got {kappa}", _MOD)
    # bound-state terms put a pole at 2 kappa = |mu_k|; the other terms decay
    pole = (A.term_mu < 0) & (2.0 * kappa + A.term_mu < 1e-8)
    if pole.any():
        raise ValidationError(
            f"kappa={kappa} is at or within 1e-8 of the pole "
            f"2 kappa = |mu| = {abs(A.term_mu[pole][0])}", _MOD)
    series = float(np.sum(A.laplace_terms(kappa)))

    base_int, base_err = 0.0, 0.0
    if not isinstance(base, ZeroForm):
        decay = 2.0 * (kappa - base.kappa_min)
        scale = max(abs(float(base.amplitude(0.0))), abs(float(base.amplitude(1.0))), 1e-30)
        alpha_max = math.log(scale / 1e-14) / decay + 1.0
        base_int, base_err = quad(
            lambda a: float(base.amplitude(a)) * math.exp(-2.0 * kappa * a),
            0.0, alpha_max, limit=200, epsabs=1e-13, epsrel=1e-12)
    value = -kappa - base_int - series
    return WTEvaluation(kappa=kappa, value=value, route="laplace",
                        est_error=base_err + 1e-15 * abs(value))


def steklov_spectrum(evaluator, params: SpectralParams,
                     K: int | None = None) -> SteklovSpectrum:
    """sigma_k = -(d-2)/2 - M(-kappa_k^2) for k = 0..K.

    evaluator maps kappa to a WTEvaluation (or a bare float). The additive
    constant -(d-2)/2 is the one that makes sigma_k = k exact for Q = 0.
    """
    K = params.K if K is None else K
    if K > params.K:
        raise ValidationError(f"K={K} exceeds the parameter table (K={params.K})", _MOD)
    shift = -(params.d - 2) / 2.0
    sig = np.empty(K + 1)
    for k in range(K + 1):
        try:
            ev = evaluator(float(params.kappa[k]))
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"evaluator failed at k={k}: {exc}", _MOD) from exc
        sig[k] = shift - (ev.value if isinstance(ev, WTEvaluation) else float(ev))
    return SteklovSpectrum(d=params.d, sigma=sig)


def perturbation_tail_bound(A: Amplitude, params: SpectralParams, K: int) -> float:
    """Analytic bound on sup_{k > K} |sigma_k - sigma~_k| for the perturbation
    carried by A: the term-wise majorant is decreasing in kappa, so its value
    at kappa_{K+1} dominates the whole tail. It is the series' Laplace sum
    with |c_k| in place of c_k."""
    kap = float(params.kappa[0]) + (K + 1)  # kappa_{K+1}, unit spacing
    return float(np.sum(np.abs(A.laplace_terms(kap))))


@dataclass(frozen=True)
class DnGap:
    """Sup-norm gap between two Steklov spectra with a truncation certificate.

    eps is exact (not just a lower bound) whenever tail_bound <= eps, since the
    gap is a maximum: indices beyond K cannot then raise it. strict_small_tail
    additionally records the 1%-of-eps margin.
    """

    eps: float
    tail_bound: float
    certified: bool
    strict_small_tail: bool


def dn_gap(sigma: SteklovSpectrum, sigma_tilde: SteklovSpectrum,
           tail_bound: float) -> DnGap:
    if sigma.d != sigma_tilde.d:
        raise ValidationError(
            f"dimension mismatch: {sigma.d} vs {sigma_tilde.d}", _MOD)
    if sigma.K != sigma_tilde.K:
        raise ValidationError(
            f"truncation mismatch: K={sigma.K} vs K={sigma_tilde.K}", _MOD)
    eps = float(np.max(np.abs(sigma.sigma - sigma_tilde.sigma)))
    certified = tail_bound <= eps or (eps == 0.0 and tail_bound == 0.0)
    return DnGap(eps=eps, tail_bound=float(tail_bound), certified=certified,
                 strict_small_tail=bool(tail_bound < 0.01 * eps))


def jost_closed_form(form: PotentialForm, kappa: float) -> float:
    """Boundary value of the Jost solution for the closed-form families.

    Roots on kappa > 0 are bound states, roots on kappa < 0 are real
    resonances; the induced spectral density on E > 0 is
    sqrt(E) / (pi |psi(0, sqrt(E))|^2).
    """
    if not isinstance(form, (ZeroForm, Bargmann1, Bargmann2)):
        raise ValidationError("no closed-form Jost value for this potential", _MOD)
    return float(form.jost0(kappa))
