"""Weyl-Titchmarsh values M(-kappa^2) by two independent routes, and Steklov
spectra.

Both routes take a 1-d array of kappas, a scalar counting as one entry, and
return two float arrays of that length: M and its est_error. A failure is
raised for the lowest failing index k as "evaluator failed at k=...: <cause>".
steklov_spectrum turns M at the ladder kappa_k into the Steklov eigenvalues.

Route one takes Q as a closed form (PotentialForm), evaluated exactly, or as a
sampled RadialPotential, interpolated between its nodes. It integrates
-u'' + Q u = -kappa^2 u backward from the truncation point x_max = 23/kappa
with the decaying (Jost) seed and returns u'(0)/u(0); backward integration
damps the growing mode, so the value is uniformly stable: whatever growing
mode the seed lets in shrinks by e^{-2 kappa x_max} = e^{-46} relative to the
decaying one on the way to x = 0, and a longer interval buys no accuracy.
The classical RK4 step is linear in (u, u'), so each step is a 2x2 propagator
matrix; a pass builds them as arrays a chunk at a time, multiplies each
chunk's propagators pairwise in a log-depth tree with power-of-two
renormalization (every fourth level only where the samples keep the entries
in range), and applies the chunk products to (u, u') in turn. Step
halving refines the pass, and the levels' values m_j fill two columns of the
Neville-Aitken table (Hairer, Norsett & Wanner, Solving ODEs I, II.9):
r_j = m_j + (m_j - m_{j-1})/15 cancels RK4's h^4 error term, and
e_j = r_j + (r_j - r_{j-1})/63 its h^6 term. A kappa is accepted once
|e_j - r_j|, the error of the lower-order entry, is within the tolerance
(_TOLERANCE = 1e-11 by default); e_j is its value, and
est_error adds 16 eps |e_j| for rounding. Halving gives up as soon
as the raw differences m_j - m_{j-1} stop contracting: they grow near an
eigenvalue, and shrink too slowly while the step does not resolve the
potential or the tolerance is below the rounding floor. A tolerance below
eps |e_j|/2 is met only by e_j - r_j rounding to 0, so such an acceptance is
refused unless the passes themselves agree within the rounding term. Every
kappa takes its own step x_max/n. A kappa's first n is the least 32 * 2^j
whose step is at most _STEP, and each halving doubles it. One batched
(2, 2, kappas, steps) propagator product per step count, least first, takes
every unconverged kappa whose next pass has that count, whatever its first
count, in batches of _CHUNK steps' worth of elements; each batch samples Q
once, on its own kappas' grids in kappa order. A kappa's value does not
depend on the kappas that share its batch, so it takes the same bits in any
call. A sampled table must reach 23/kappa; extend_potential carries one that
stops short on with a closed form. No pass takes more
than _MAX_STEPS steps, which bounds its 2n + 1 samples: a kappa whose first
pass cannot be halved twice within that budget is refused before any
shooting, and one that has not converged when the next pass would pass it
gives up.

Route two uses the representation
M(-kappa^2) = -kappa - int_0^inf A(alpha) e^{-2 kappa alpha} d alpha for the
amplitude A, in closed form: the base's Laplace transform is its laplace
method, and Amplitude.steklov_gap transforms the perturbation series over the
signed rates mu_k.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, ValidationError
from .radial_model import PotentialForm, RadialPotential, SpectralParams

if TYPE_CHECKING:
    from .perturbation import Amplitude

_MOD = "weyl_titchmarsh"
_CHUNK = 8192         # RK4 steps per propagator product
_MIN_CONTRACTION = 2  # step halving must shrink the difference at least this much
_STEP = 1.0 / 32.0    # largest step of the first shooting pass
_MAX_STEPS = 2 ** 20  # steps of the longest pass; its 2n + 1 samples take about 16 MiB
_EPS = np.finfo(float).eps
_ROUNDING = 16.0 * _EPS  # est_error's rounding term, relative to |M|
_TOLERANCE = 1e-11    # wt_from_ode's default tolerance, also the command line's


def _first_steps(x_max: float) -> int:
    """The step count of a kappa's first pass: the least 32 * 2^j steps no
    longer than _STEP, or the first such count past _MAX_STEPS, so that an
    infinite x_max ends the doubling too. It depends on the truncation point
    alone, so a kappa takes the same levels in any call, and a call's kappas
    share a few power-of-two step counts, one pass each."""
    n = 32
    while n * _STEP < x_max and n <= _MAX_STEPS:
        n *= 2
    return n


def _step_propagators(g0: np.ndarray, gm: np.ndarray, g1: np.ndarray,
                      s: np.ndarray) -> np.ndarray:
    """The classical RK4 steps of size s for u'' = g u as 2x2 matrices acting
    on (u, u'), shape (2, 2, kappas, m): the scheme is linear, and the entries
    are its stages expanded in closed form, written into one array. g0, gm, g1,
    of shape (kappas, m), hold g at each step's start, midpoint and end; s is a
    (kappas, 1) column, one step per kappa. Where s^2 |g| <= 4 the diagonal is
    below 4, the upper right below 2|s| and the lower left below (10/3) sqrt|g|."""
    s2 = s * s
    P = np.empty((2, 2) + g0.shape)
    np.add(1.0 + s2 / 6.0 * (g0 + 2.0 * gm), s2 * s2 / 24.0 * gm * g0, out=P[0, 0])
    np.add(s, s2 * s / 6.0 * gm, out=P[0, 1])
    np.add(s / 6.0 * (g0 + 4.0 * gm + g1), s2 * s / 12.0 * gm * (g0 + g1), out=P[1, 0])
    np.add(1.0 + s2 / 6.0 * (2.0 * gm + g1), s2 * s2 / 24.0 * g1 * gm, out=P[1, 1])
    return P


def _pow2_normalize(a: np.ndarray, axis=None) -> np.ndarray:
    """a divided, in place, by a power of two that brings its largest |entry|
    into [1/2, 1); exact, so only the (irrelevant) overall scale changes."""
    return np.ldexp(a, -np.frexp(np.abs(a).max(axis=axis))[1], out=a)


def _mul2(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """L @ R for 2x2 matrices L and 2xk matrices R, stacked along any trailing
    axes, written elementwise (no BLAS call per 2x2 product)."""
    return L[:, :1] * R[0] + L[:, 1:] * R[1]


def _chain_product(P: np.ndarray, moderate: bool) -> np.ndarray:
    """P[..., m-1] @ ... @ P[..., 0] up to a positive factor, multiplied
    pairwise in a log-depth tree and renormalized by powers of two, which is
    exact, so growth like e^{kappa x_max} cannot overflow. A moderate chunk
    (_shoot) renormalizes only levels 3, 7, 11, ... and its last: the same bits
    while all entries stay normal. Overflow: raw entries are below 2^22
    (_step_propagators), so levels 1-3 stay below 2^183, and from entries below
    1 three levels stay below 2^7. Underflow: renormalizing leaves the u' row up
    to sqrt|g| <= 2^20 above the u row, so 2^k normalized products shrink to
    about (2/sqrt|g|)^(2^k - 1) (constant g), the smallest entry 1/|g| lower:
    above 2^-400 up to the next renormalization (k = 4; 2^-336 measured at the
    corner |g| = 2^40, s^2 |g| = 4). Every third level of every chunk overflows
    at kappa x_max >= 1e12; a regime bounded by the largest entry alone
    underflows u(0) at kappa = 1e100."""
    level = 0
    while P.shape[-1] > 1:
        m = P.shape[-1]
        prod = _mul2(P[..., 1::2], P[..., :m - 1:2])
        if m % 2:
            prod[..., -1:] = _mul2(P[..., -1:], prod[..., -1:])
        level += 1
        if not moderate or level % 4 == 3 or prod.shape[-1] == 1:
            _pow2_normalize(prod, axis=(0, 1))
        P = prod
    return P[..., 0]


@np.errstate(all="ignore")  # a non-finite sample or end fails its kappa below
def _shoot(Q: Callable[[np.ndarray], np.ndarray], x_max: np.ndarray, kappas: np.ndarray,
           n: int) -> tuple[np.ndarray, int, NumericalError | None]:
    """(m, k, error): M = u'(0)/u(0) per kappa from one pass of n RK4 steps of
    u'' = (Q + kappa^2) u from x_max[i] down to 0 with the scaled Jost seed,
    the position k of the first kappa that fails (kappas.size if none) and the
    NumericalError that stops it. Only m[:k] is meaningful.

    A batch holds as many kappas as fill _CHUNK steps, or one kappa once
    n > _CHUNK. It samples Q once, on the half-step grids of its kappas in
    kappa order, and applies each kappa's steps as products of their
    propagators, _CHUNK steps at a time: the temporaries stay O(_CHUNK) and
    the samples O(n). A batch is moderate when each kappa's g = Q + kappa^2
    and step h have max |g| <= 2^40 and h^2 max |g| <= 4. The pass ends with
    the first failing batch.
    """
    width = _CHUNK // min(n, _CHUNK)
    m = np.empty(kappas.size)
    for lo in range(0, kappas.size, width):
        batch = slice(lo, lo + width)
        kap, ends = kappas[batch], x_max[batch]
        grid = np.arange(2 * n + 1) * (ends / (2 * n))[:, None]  # np.linspace's bits
        grid[:, -1] = ends
        q_half = Q(grid)
        del grid  # not held through the products
        g = q_half[:, ::-1] + kap[:, None] ** 2
        g0, gm, g1 = g[:, :-1:2], g[:, 1::2], g[:, 2::2]  # start, midpoint, end of each step
        s = -(ends / n)[:, None]
        big = np.maximum(g.max(axis=1), -g.min(axis=1))  # max |g| per kappa, no |g| temporary
        moderate = big.max() <= 2.0 ** 40 and (s[:, 0] ** 2 * big).max() <= 4.0
        y = np.stack([np.ones_like(kap), -kap])[:, None]
        for first in range(0, n, _CHUNK):
            steps = slice(first, first + _CHUNK)
            P = _step_propagators(g0[:, steps], gm[:, steps], g1[:, steps], s)
            y = _pow2_normalize(_mul2(_chain_product(P, moderate), y), axis=(0, 1))
        u0, v0 = y[:, 0]
        m[batch] = v0 / u0
        sampled = np.isfinite(q_half).all(axis=1)
        overflow = ~(np.isfinite(u0) & np.isfinite(v0))
        # |M| >= 1e12 max(1, kappa), scale-free; M is about -kappa for large
        # kappa, and <= catches 0 = 0
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


def _bad_kappa(kappa: float) -> ValidationError | None:
    if kappa > 0 and math.isfinite(kappa * kappa):
        return None
    return ValidationError(f"kappa must be positive with a finite square, got {kappa}", _MOD)


def _result(values: np.ndarray, est_errors: np.ndarray, stop: int,
            error: ValidationError | NumericalError | None):
    """A route's (values, est_errors), or the error of its lowest failing
    index stop, raised as "evaluator failed at k=stop: ..."."""
    if error is not None:
        raise type(error)(f"evaluator failed at k={stop}: {error}", _MOD) from error
    return values, est_errors


def wt_from_ode(Q: RadialPotential | PotentialForm, kappa, *,
                tolerance: float = _TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """(value, est_error): M(-kappa^2) = u'(0)/u(0) by backward integration
    and step halving, and its error estimate, one entry per kappa.

    Q is a sampled RadialPotential or a closed form, which is evaluated
    directly. kappa is a 1-d array; a scalar counts as one entry. Each kappa
    shoots over [0, 23/kappa] with its own step, first in _first_steps
    steps, then in twice as many at every level until it converges. Each
    pass, least step count first, shoots all the unconverged kappas whose
    next pass has that count, and samples Q on their half-step grids.
    From the levels' values m_j it forms the Richardson extrapolates
    r_j = m_j + (m_j - m_{j-1})/15 and the next Neville column
    e_j = r_j + (r_j - r_{j-1})/63. A kappa converges when
    |e_j - r_j| <= tolerance; value is e_j and est_error is
    |e_j - r_j| + 16 eps |e_j|, the last term for rounding, which the
    acceptance test leaves out. On a RadialPotential est_error is RK4's error
    on the interpolated table: it leaves out the table's cubic interpolation
    error (about 0.125 h^4 on Bargmann1, 1.07e-7 at 64 intervals on [0, 2]
    against est_error 2.9e-12), so it bounds the error against the true
    potential only for a closed form.

    Raises ValidationError for a tolerance that is not positive and finite,
    for a kappa that is not positive with a finite square, or whose
    truncation point needs a first pass longer than _MAX_STEPS/4 steps or
    lies past the end of a sampled table (extend_potential carries a table
    on to it), and NumericalError when a halving shrinks the raw
    difference |m_j - m_{j-1}| by less than _MIN_CONTRACTION (worded as an
    eigenvalue if it grew, as an unresolved step or a tolerance below the
    rounding floor if not), when a kappa is accepted with a tolerance below
    eps |e_j|/2 while |m_j - m_{j-1}| exceeds 16 eps |e_j|, or when the next
    pass would be longer than _MAX_STEPS. The error is that of the lowest
    failing index k, raised as "evaluator failed at k=..."; the kappas above
    k stop as soon as k fails.
    """
    if not 0 < tolerance < math.inf:  # NaN fails
        raise ValidationError(f"tolerance must be positive and finite, got {tolerance}", _MOD)
    closed = isinstance(Q, PotentialForm)  # a closed form is evaluated directly
    potential = Q.potential if closed else Q
    kappas = np.atleast_1d(np.asarray(kappa, dtype=float))
    values, est_errors = np.empty(kappas.size), np.empty(kappas.size)
    stop, error = kappas.size, None  # the lowest failing index and its error
    x_maxes = np.empty(kappas.size)
    steps = np.zeros(kappas.size, dtype=np.int64)  # each kappa's next step count; 0 once done
    for i, kap in enumerate(kappas.tolist()):
        if (error := _bad_kappa(kap)) is not None:
            stop = i
            break
        x_maxes[i] = x_max = 23.0 / kap
        steps[i] = n = _first_steps(x_max)
        if 4 * n > _MAX_STEPS:  # the two Neville columns need three levels
            stop, error = i, ValidationError(
                f"truncation point x_max={x_max} at kappa={kap} is out of reach: a first "
                f"pass and two halvings need more than {_MAX_STEPS} steps per pass", _MOD)
            break
        if not closed and x_max > Q.x_max + 1e-12:
            stop, error = i, ValidationError(
                f"potential sampled only up to {Q.x_max}, need x_max={x_max}", _MOD)
            break

    # per kappa, from its last level; NaN until a level sets it
    prev, prev_diff, prev_r = (np.full(kappas.size, np.nan) for _ in range(3))
    while (pending := np.flatnonzero(steps[:stop])).size:
        n = int(steps[pending].min())  # one pass per step count, whatever the first counts
        live = pending[steps[pending] == n]  # ascending
        m, k, failure = _shoot(potential, x_maxes[live], kappas[live], n)
        if failure is not None:
            stop, error = int(live[k]), failure
        live, m = live[:k], m[:k]
        change = m - prev[live]
        diff = np.abs(change)
        r = m + change / 15.0  # RK4's h^4 error term cancelled
        e = r + (r - prev_r[live]) / 63.0  # and the h^6 term
        est, size = np.abs(e - r), np.abs(e)
        done = est <= tolerance
        # RK4 contracts the difference about 16x per halving; near an
        # eigenvalue it grows instead, and while the step does not resolve Q
        # it shrinks slowly: no tolerance will be met. A tolerance below half
        # an ulp of e_j is met only by e_j - r_j rounding to 0, which certifies
        # nothing unless the passes themselves agree within the rounding term
        slow = ~done & (diff * _MIN_CONTRACTION > prev_diff[live])
        floor = done & (tolerance < _EPS / 2.0 * size) & (diff > _ROUNDING * size)
        if (slow | floor).any():
            j = int(np.argmax(slow | floor))
            i, was, now = int(live[j]), prev_diff[live[j]], diff[j]
            if floor[j]:
                cause = (f"tolerance {tolerance} is below the rounding floor of M at "
                         f"kappa={kappas[i]}: eps |M|/2 = {_EPS / 2.0 * size[j]:.3g}, "
                         f"while the passes still differ by {now:.3g}")
            else:
                cause = (f"step halving stopped converging at kappa={kappas[i]}: the "
                         f"difference went from {was:.3g} to {now:.3g} "
                         + ("(spectral parameter too close to an eigenvalue)" if now > was else
                            "(the step does not resolve the potential, or the "
                            "tolerance is below the rounding floor)"))
            stop, error = i, NumericalError(cause, _MOD)
            live, m, diff, r, e, est, size, done = (
                a[:j] for a in (live, m, diff, r, e, est, size, done))
        accepted = live[done]
        values[accepted] = e[done]
        est_errors[accepted] = est[done] + _ROUNDING * size[done]
        prev[live], prev_diff[live], prev_r[live] = m, diff, r
        steps[live] = np.where(done, 0, 2 * n)
        if 2 * n > _MAX_STEPS and not done.all():
            i = int(live[np.argmin(done)])
            stop, error = i, NumericalError(
                f"step halving did not reach tolerance {tolerance} at "
                f"kappa={float(kappas[i])} within {_MAX_STEPS} steps per pass", _MOD)
    return _result(values, est_errors, stop, error)


def wt_from_amplitude(A: Amplitude, kappa) -> tuple[np.ndarray, np.ndarray]:
    """(value, est_error): M(-kappa^2) = -kappa - base.laplace(kappa) -
    A.steklov_gap(kappa), the amplitude representation in closed form, one
    entry per kappa; est_error is the rounding term 1e-15 |value|.

    kappa is a 1-d array; a scalar counts as one entry. Raises
    ValidationError for a kappa that is not positive with a finite square, at
    or below kappa_min, or within 1e-8 of a bound-state pole, and for
    non-summable coefficients; NumericalError for a non-finite value. The
    error is that of the lowest failing index k, raised as "evaluator failed
    at k=...".
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
    with np.errstate(all="ignore"):  # non-finite raises below
        values = -ks - base.laplace(ks) - A.steklov_gap(ks)
    finite = np.isfinite(values)
    if not finite.all():
        stop = int(np.argmin(finite))
        error = NumericalError(
            f"the Laplace route is not finite at kappa={float(ks[stop])}", _MOD)
    return _result(values, 1e-15 * np.abs(values), stop, error)


def steklov_spectrum(params: SpectralParams, m) -> np.ndarray:
    """sigma_k = -(d-2)/2 - M(-kappa_k^2), from the values m of M that a route
    returns at the kappa_k of params. The additive constant -(d-2)/2 is the
    one that makes sigma_k = k exact for Q = 0."""
    return -(params.d - 2) / 2.0 - np.asarray(m, dtype=float)
