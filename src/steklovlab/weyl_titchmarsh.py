"""Weyl-Titchmarsh values M(-kappa^2) by two independent routes, Steklov
spectra, and certified sup-norm gaps between spectra.

Route one integrates -u'' + Q u = -kappa^2 u backward from a truncation point
with the decaying (Jost) seed and returns u'(0)/u(0); backward integration
damps the growing mode, so the value is uniformly stable. The classical RK4
step is linear in (u, u'), so each step is a 2x2 propagator matrix; a pass
builds them as arrays a chunk at a time, multiplies each chunk's propagators
pairwise in a log-depth tree with power-of-two renormalization, and applies
the chunk products to (u, u') in turn. Step halving refines the pass until
successive values agree, and gives up as soon as the differences stop
contracting, which is what happens near an eigenvalue. The kappas of one call
are grouped by truncation point: a group samples Q once per halving level, on
that level's whole grid, and pushes its unconverged kappas through one
batched (2, 2, kappas, steps) propagator product per level, in batches of
_CHUNK steps' worth of elements.

Route two uses the representation
M(-kappa^2) = -kappa - int_0^inf A(alpha) e^{-2 kappa alpha} d alpha for the
amplitude A, with the perturbation series transformed in closed form:
sum_k c_k / (2 kappa + mu_k) over the signed rates mu_k. The base part is one
fixed rule for every kappa. With the base's growth factored out,
g(alpha) = A(alpha) e^{-2 kappa_min alpha}, and s = 2 (kappa - kappa_min) alpha,
the integral is int_0^inf g(alpha(s)) e^{-s} ds / (2 (kappa - kappa_min)). The
exp-sinh double-exponential rule of Takahasi and Mori (1974) takes it on the
nodes s = exp(t - e^{-t}), t = j/16 in [-4, 3.625]; the error estimate is the
difference from the rule on the even-indexed nodes (step 1/8), so it costs no
evaluations. All kappas of a call form one (kappas, nodes) evaluation of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .perturbation import Amplitude
from .radial_model import (Bargmann1, Bargmann2, PotentialForm, RadialPotential,
                           SpectralParams, SteklovSpectrum, ZeroForm)

_MOD = "weyl_titchmarsh"
_CHUNK = 8192         # RK4 steps per propagator product
_MIN_CONTRACTION = 2  # step halving must shrink the difference at least this much
_STEP = 1.0 / 32.0    # largest step of the first shooting pass
_MAX_HALVINGS = 14

# exp-sinh rule for int_0^inf f(s) e^{-s} ds: nodes s(t) = exp(t - e^{-t}) at
# t = j h, j = -64..58; the weights carry h, ds/dt and e^{-s}
_DE_H = 1.0 / 16.0
_DE_T = np.arange(-64, 59) * _DE_H
_DE_S = np.exp(_DE_T - np.exp(-_DE_T))
_DE_W = _DE_H * _DE_S * (1.0 + np.exp(-_DE_T)) * np.exp(-_DE_S)


@dataclass(frozen=True)
class WTEvaluation:
    kappa: float
    value: float
    est_error: float


@dataclass(frozen=True)
class OdeOptions:
    """Controls for the backward shooting route.

    x_max = None picks max(12, 23/kappa); 23/kappa keeps the growing-mode
    contamination e^{-2 kappa x_max} near 1e-20 for potentials with slow decay
    (for rapidly decaying closed forms, x_max = 12 already suffices at any
    kappa of interest). A sampled table without a closed form must reach the
    truncation point, whether picked or given, or the route raises
    ValidationError.
    """

    x_max: float | None = None
    tolerance: float = 1e-10

    def x_max_for(self, kappa: float) -> float:
        """The truncation point at kappa."""
        return float(self.x_max) if self.x_max is not None else max(12.0, 23.0 / kappa)


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


@np.errstate(over="ignore", invalid="ignore")  # _m_values fails a non-finite end
def _shoot_backward(q_half: np.ndarray, kappas: np.ndarray, h: float) -> np.ndarray:
    """Integrate u'' = (Q + kappa^2) u from x_max down to 0 with the scaled
    Jost seed, for every kappa of an array at once.

    q_half holds Q on the half-step grid (2n+1 values, ascending). The n RK4
    steps of a kappa are applied as products of their propagators, _CHUNK
    steps at a time, and a batch holds as many kappas as fill _CHUNK steps, so
    the temporaries stay O(_CHUNK). Returns (u(0), u'(0)) per kappa, shape
    (2, kappas), each pair up to an irrelevant positive factor.
    """
    n = (q_half.size - 1) // 2
    width = max(1, _CHUNK // min(n, _CHUNK))
    out = np.empty((2, kappas.size))
    for lo in range(0, kappas.size, width):
        kap = kappas[lo:lo + width]
        g = q_half[::-1] + kap[:, None] ** 2
        g0, gm, g1 = g[:, :-1:2], g[:, 1::2], g[:, 2::2]  # start, midpoint, end of each step
        y = np.stack([np.ones_like(kap), -kap])[:, None]
        for first in range(0, n, _CHUNK):
            steps = slice(first, first + _CHUNK)
            P = _step_propagators(g0[:, steps], gm[:, steps], g1[:, steps], -h)
            y = _pow2_normalize(_mul2(_chain_product(P), y), axis=(0, 1))
        out[:, lo:lo + width] = y[:, 0]
    return out


@np.errstate(all="ignore")  # a value out of the float range fails the check
def _sample(Q: RadialPotential, x_max: float, n: int) -> np.ndarray:
    """Q on the half-step grid of n steps, linspace(0, x_max, 2n+1)."""
    q = Q(np.linspace(0.0, x_max, 2 * n + 1))
    if not np.all(np.isfinite(q)):
        raise NumericalError("potential evaluation produced non-finite values", _MOD)
    return q


def _m_values(q_half: np.ndarray, kappas: np.ndarray,
              h: float) -> list[float | NumericalError]:
    """M per kappa from one backward pass over the samples q_half, or the
    NumericalError that stops that kappa."""
    out = []
    for kappa, u0, v0 in zip(kappas.tolist(), *_shoot_backward(q_half, kappas, h).tolist()):
        if not (math.isfinite(u0) and math.isfinite(v0)):
            out.append(NumericalError(
                f"backward integration overflowed at kappa={kappa} "
                "(spectral parameter too close to an eigenvalue)", _MOD))
        elif abs(u0) <= 1e-12 * abs(v0):  # scale-free; <= also catches u0 = v0 = 0
            out.append(NumericalError(
                f"u(0) vanishes at kappa={kappa}: -kappa^2 sits at a Dirichlet "
                "point of the truncated problem", _MOD))
        else:
            out.append(v0 / u0)
    return out


def _m_fixed_step(Q: RadialPotential, kappa: float, x_max: float, n: int) -> float:
    """M value from one backward pass with exactly n steps (no adaptivity)."""
    m, = _m_values(_sample(Q, x_max, n), np.array([kappa], dtype=float), x_max / n)
    if isinstance(m, NumericalError):
        raise m
    return m


def _failed_at(k: int, exc: ValidationError | NumericalError):
    return type(exc)(f"evaluator failed at k={k}: {exc}", _MOD)


def _bad_kappa(kappa: float) -> ValidationError | None:
    if kappa > 0 and math.isfinite(kappa * kappa):
        return None
    return ValidationError(f"kappa must be positive with a finite square, got {kappa}", _MOD)


def _evaluations(kappa, evals: list[WTEvaluation], stop: int,
                 error: ValidationError | NumericalError | None):
    """The result of a route called with kappa: one WTEvaluation for a scalar,
    the list for an array; error is that of the lowest failing index stop."""
    if np.ndim(kappa) == 0:
        if error is not None:
            raise error
        return evals[0]
    if error is not None:
        raise _failed_at(stop, error) from error
    return evals


def wt_from_ode(Q: RadialPotential, kappa, opts: OdeOptions | None = None):
    """M(-kappa^2) = u'(0)/u(0) by backward integration; error from step halving.

    kappa is one value (returns a WTEvaluation) or a 1-d array (returns a list
    of them). The kappas are grouped by truncation point. A group samples Q
    once per halving level, on that level's whole half-step grid, and shoots
    all of its unconverged kappas in one batched pass; converged kappas drop
    out.

    Raises NumericalError when a halving shrinks the difference between
    successive values by less than _MIN_CONTRACTION, or after _MAX_HALVINGS.
    For an array, the error is that of the lowest failing index k, raised as
    "evaluator failed at k=..."; the kappas above k stop as soon as k fails.
    """
    opts = opts or OdeOptions()
    kappas = np.atleast_1d(np.asarray(kappa, dtype=float))
    evals: list[WTEvaluation | None] = [None] * kappas.size
    stop, error = kappas.size, None  # the lowest failing index and its error
    groups: dict[float, list[int]] = {}  # by x_max, in order of the lowest index
    for i, kap in enumerate(kappas.tolist()):
        if (error := _bad_kappa(kap)) is not None:
            stop = i
            break
        x_max = opts.x_max_for(kap)
        if Q.closed_form is None and x_max > Q.x_max + 1e-12:
            stop, error = i, ValidationError(
                f"potential sampled only up to {Q.x_max}, need x_max={x_max}", _MOD)
            break
        groups.setdefault(x_max, []).append(i)

    for x_max, active in groups.items():
        n = max(32, int(math.ceil(x_max / _STEP)))
        prev: dict[int, float] = {}
        prev_diff: dict[int, float] = {}
        for _ in range(_MAX_HALVINGS + 1):
            active = [i for i in active if i < stop]
            if not active:
                break
            try:
                q = _sample(Q, x_max, n)
            except NumericalError as exc:
                stop, error = active[0], exc
                break
            unconverged = []
            for i, m in zip(active, _m_values(q, kappas[active], x_max / n)):
                kap = float(kappas[i])
                if isinstance(m, NumericalError):
                    stop, error = i, m
                    break
                if i in prev:
                    diff = abs(m - prev[i])
                    if diff <= opts.tolerance:
                        evals[i] = WTEvaluation(kappa=kap, value=m, est_error=diff)
                        continue
                    # RK4 contracts the difference about 16x per halving; near
                    # an eigenvalue it grows instead, and no tolerance will be met
                    if i in prev_diff and diff * _MIN_CONTRACTION > prev_diff[i]:
                        stop, error = i, NumericalError(
                            f"step halving stopped converging at kappa={kap}: the "
                            f"difference went from {prev_diff[i]:.3g} to {diff:.3g} "
                            "(spectral parameter too close to an eigenvalue, or the "
                            "tolerance below the rounding floor)", _MOD)
                        break
                    prev_diff[i] = diff
                prev[i] = m
                unconverged.append(i)
            active = unconverged
            n *= 2
        active = [i for i in active if i < stop]
        if active:
            stop, error = active[0], NumericalError(
                f"step halving did not reach tolerance {opts.tolerance} at "
                f"kappa={float(kappas[active[0]])}", _MOD)
    return _evaluations(kappa, evals, stop, error)


def wt_from_amplitude(A: Amplitude, kappa):
    """M(-kappa^2) from the amplitude representation, base part by the exp-sinh
    rule; est_error is its difference from the half rule plus 1e-15 |value|.

    kappa is one value (returns a WTEvaluation) or a 1-d array (returns a list
    of them). Raises ValidationError for a kappa that is not positive with a
    finite square, at or below kappa_min, or within 1e-8 of a bound-state
    pole, and for non-summable coefficients; NumericalError for a non-finite
    value. For an array, the error is that of the lowest failing index k,
    raised as "evaluator failed at k=...".
    """
    kappas = np.atleast_1d(np.asarray(kappa, dtype=float))
    base = A.base
    summable = np.isfinite(np.sum(np.abs(A.term_coeffs)))
    bound_mu = A.term_mu[A.term_mu < 0]  # bound-state terms put a pole at 2 kappa = |mu|
    stop, error = kappas.size, None  # the lowest failing index and its error
    for i, kap in enumerate(kappas.tolist()):
        if (error := _bad_kappa(kap)) is None:
            if not summable:
                error = ValidationError("perturbation coefficients are not summable", _MOD)
            elif kap <= base.kappa_min:
                error = ValidationError(
                    f"representation for this base needs kappa > {base.kappa_min}, "
                    f"got {kap}", _MOD)
            elif (pole := bound_mu[2.0 * kap + bound_mu < 1e-8]).size:
                error = ValidationError(
                    f"kappa={kap} is at or within 1e-8 of the pole "
                    f"2 kappa = |mu| = {abs(pole[0])}", _MOD)
        if error is not None:
            stop = i
            break

    ks = kappas[:stop]
    decay = 2.0 * (ks - base.kappa_min)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        f = base.damped_amplitude(_DE_S / decay[:, None]) * _DE_W
        base_int = f.sum(axis=1) / decay
        base_err = np.abs(base_int - (2.0 * f[:, ::2]).sum(axis=1) / decay)
        values = -ks - base_int - A.laplace_terms(ks[:, None]).sum(axis=1)
    evals = []
    for kap, value, err in zip(ks.tolist(), values.tolist(), base_err.tolist()):
        if not (math.isfinite(value) and math.isfinite(err)):
            stop, error = len(evals), NumericalError(
                f"the Laplace route is not finite at kappa={kap}", _MOD)
            break
        evals.append(WTEvaluation(kappa=kap, value=value,
                                  est_error=err + 1e-15 * abs(value)))
    return _evaluations(kappa, evals, stop, error)


def steklov_spectrum(evals: list[WTEvaluation], params: SpectralParams,
                     K: int | None = None) -> SteklovSpectrum:
    """sigma_k = -(d-2)/2 - M(-kappa_k^2) for k = 0..K.

    evals holds the K+1 evaluations at params.kappa[:K + 1] (checked), as
    wt_from_ode and wt_from_amplitude return them for that array. The
    additive constant -(d-2)/2 is the one that makes sigma_k = k exact for
    Q = 0.
    """
    K = params.K if K is None else K
    if K > params.K:
        raise ValidationError(f"K={K} exceeds the parameter table (K={params.K})", _MOD)
    if [ev.kappa for ev in evals] != params.kappa[:K + 1].tolist():
        raise ValidationError(
            f"the {len(evals)} evaluations are not at kappa_0..kappa_K, K={K}", _MOD)
    values = [ev.value for ev in evals]
    return SteklovSpectrum(d=params.d, sigma=-(params.d - 2) / 2.0 - np.array(values))


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
    gap is a maximum: indices beyond K cannot then raise it.
    """

    eps: float
    tail_bound: float
    certified: bool


def sup_gap(sigma: SteklovSpectrum, sigma_tilde: SteklovSpectrum) -> float:
    """max_k |sigma_k - sigma~_k| over two spectra of one dimension and one K."""
    if sigma.d != sigma_tilde.d:
        raise ValidationError(
            f"dimension mismatch: {sigma.d} vs {sigma_tilde.d}", _MOD)
    if sigma.K != sigma_tilde.K:
        raise ValidationError(
            f"truncation mismatch: K={sigma.K} vs K={sigma_tilde.K}", _MOD)
    return float(np.max(np.abs(sigma.sigma - sigma_tilde.sigma)))


def dn_gap(sigma: SteklovSpectrum, sigma_tilde: SteklovSpectrum,
           tail_bound: float) -> DnGap:
    eps = sup_gap(sigma, sigma_tilde)
    certified = tail_bound <= eps or (eps == 0.0 and tail_bound == 0.0)
    return DnGap(eps=eps, tail_bound=float(tail_bound), certified=certified)


def jost_closed_form(form: PotentialForm, kappa: float) -> float:
    """Boundary value of the Jost solution for the closed-form families.

    Roots on kappa > 0 are bound states, roots on kappa < 0 are real
    resonances; the induced spectral density on E > 0 is
    sqrt(E) / (pi |psi(0, sqrt(E))|^2).
    """
    if not isinstance(form, (ZeroForm, Bargmann1, Bargmann2)):
        raise ValidationError("no closed-form Jost value for this potential", _MOD)
    return float(form.jost0(kappa))
