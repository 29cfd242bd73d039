"""Admissible amplitude perturbations and their spectral fingerprints.

A perturbed amplitude adds a series sum_k c_k e^{-mu_k alpha} to a base
amplitude, with c_k <= 0 and the generating power series converging on a disk
of radius R > 1. The induced change of the spectral measure is an explicit
nonnegative density on E > 0 plus finitely many point masses at -mu_k^2/4,
and the series injects real resonances at -|mu_k|/2. The ks_check_* routines
probe, numerically, the conditions under which such a measure still belongs
to a square-integrable potential.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalError, ValidationError
from .radial_model import Bargmann1, Bargmann2, PotentialForm, SpectralParams, ZeroForm

_MOD = "perturbation"

_TRUNC_REL = 1e-18   # relative cutoff when materializing generator tails
_MAX_TERMS = 5000
_WINDOW_BLOCK = 128  # maximal-function windows per block of the (window, term) table
# grids of the measure diagnostics: energies on E > 0, the energy window of the
# quasi-Szego fit, and the centres and half-widths of the maximal-function windows
_E_GRID = np.logspace(-3.0, 6.0, 1000)
_FIT_RANGE = (1e2, 1e6)
_K_GRID = np.logspace(0.5, 3.0, 48)
_L_GRID = 2.0 ** np.arange(-6, 1)


@dataclass(frozen=True)
class GeometricTail:
    """Coefficient generator c_k = -a * rho^{lam_k}; its radius is exactly 1/rho."""

    a: float
    rho: float

    def __post_init__(self):
        if not (self.a >= 0 and 0 < self.rho < 1):
            raise ValidationError(
                f"geometric tail needs a >= 0 and 0 < rho < 1, got a={self.a}, rho={self.rho}",
                _MOD)

    def coeff(self, lam_k: float) -> float:
        return -self.a * self.rho**lam_k


@dataclass(frozen=True)
class Amplitude:
    """Base amplitude plus a validated exponential-series perturbation.

    term_coeffs/term_mu hold the materialized series: explicit coefficients
    first, then generator terms down to a negligible size. The rates are
    signed (mu_k < 0 marks a bound-state term), so every transform of
    c e^{-mu alpha} is one broadcast expression over these finite arrays.
    """

    base: PotentialForm
    term_coeffs: np.ndarray
    term_mu: np.ndarray
    r_est: float = math.inf

    def series_diff(self, alpha) -> np.ndarray:
        """The perturbation sum_k c_k e^{-mu_k alpha} with signed rates; the
        terms with mu_k < 0 grow and carry the injected bound states."""
        alpha = np.asarray(alpha, dtype=float)
        return np.exp(-np.multiply.outer(alpha, self.term_mu)) @ self.term_coeffs

    def laplace_terms(self, kappa: float) -> np.ndarray:
        """Per-term transforms int_0^inf c_k e^{-mu_k alpha} e^{-2 kappa alpha}
        d alpha = c_k / (2 kappa + mu_k), valid while 2 kappa + mu_k > 0."""
        return self.term_coeffs / (2.0 * kappa + self.term_mu)

    def __call__(self, alpha) -> np.ndarray:
        return self.base.amplitude(alpha) + self.series_diff(alpha)


def _materialize_terms(coeffs: np.ndarray, generator: GeometricTail | None,
                       params: SpectralParams) -> tuple[np.ndarray, np.ndarray]:
    cs = list(coeffs)
    if generator is not None:
        scale = max(1.0, float(np.max(np.abs(coeffs))) if coeffs.size else 1.0, generator.a)
        k = len(cs)
        while k < _MAX_TERMS:
            ck = generator.coeff(float(params.lam_at(k)))
            if abs(ck) < _TRUNC_REL * scale:
                break
            cs.append(ck)
            k += 1
    c = np.asarray(cs, dtype=float)
    mu = params.mu_at(np.arange(c.size))
    keep = c != 0.0
    return c[keep], mu[keep]


@np.errstate(all="ignore")
def estimate_radius(coeffs, params: SpectralParams,
                    generator: GeometricTail | None = None) -> float:
    """Radius of convergence of sum_k c_k t^{lam_k}.

    Exact (1/rho) when a generator is present. For a stored list the limsup
    |c_k|^{1/lam_k} is estimated from successive-ratio samples over the
    nonzero tail; a clearly decaying ratio trend is reported as an infinite
    radius, matching e.g. factorially small coefficients. An all-zero list
    (or a single term) is a polynomial: radius infinity. A ratio past the
    float range gives 0 or infinity, or NaN, which no caller accepts as R > 1.
    """
    if generator is not None:
        return 1.0 / generator.rho
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nz = np.nonzero(c)[0]
    if nz.size <= 1:
        return math.inf
    lam = params.lam_at(nz)
    # ratio estimates of limsup |c_k|^{1/lam_k} between consecutive nonzero terms
    ratios = np.abs(c[nz[1:]] / c[nz[:-1]]) ** (1.0 / (lam[1:] - lam[:-1]))
    tail = ratios[len(ratios) // 2:]
    log_tail = np.log(tail)
    spread = float(np.max(log_tail) - np.min(log_tail))
    if tail.size >= 2:
        drift = float(log_tail[-1] - log_tail[0])
        if drift < -max(0.2, spread / 2):  # ratios still falling: radius unbounded
            return math.inf
    return float(1.0 / np.exp(np.mean(log_tail)))


def build_perturbed_amplitude(base: PotentialForm, coeffs, params: SpectralParams,
                              generator: GeometricTail | None = None) -> Amplitude:
    """Validate and assemble an admissible perturbed amplitude.

    Rejects any positive coefficient, an estimated radius <= 1, and growing
    (mu_k < 0) terms that would make the Laplace transform singular on (or
    divergent over) the kappa evaluation grid.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    bad = np.nonzero(c > 0)[0]
    if bad.size:
        raise ValidationError(
            f"coefficients must be <= 0; c[{bad[0]}] = {c[bad[0]]}", _MOD)
    r_est = estimate_radius(c, params, generator)
    if not r_est > 1.0:
        raise ValidationError(
            f"series radius of convergence must exceed 1, estimated R = {r_est}", _MOD)
    amp = Amplitude(base, *_materialize_terms(c, generator, params), r_est)
    # pole guard: bound-state terms need 2 kappa > |mu_k| strictly on the grid
    mu_neg = amp.term_mu[amp.term_mu < 0]
    if mu_neg.size:
        margin = 2.0 * params.kappa[0] - float(np.max(np.abs(mu_neg)))
        if margin < 1e-8:
            raise ValidationError(
                "bound-state rate |mu_k| collides with the evaluation grid: "
                f"2*kappa_0 - max|mu_k| = {margin:.3e} < 1e-8", _MOD)
    return amp


def holder_exponent(R: float, params: SpectralParams) -> float:
    """Stability exponent theta = (1/2) min(1, log R / log(9 M0 / 2))."""
    if not R > 1.0:
        raise ValidationError(f"exponent defined only for R > 1, got R={R}", _MOD)
    if math.isinf(R):
        return 0.5
    return 0.5 * min(1.0, math.log(R) / math.log(4.5 * params.m0))


@dataclass(frozen=True)
class SpectralMeasureDiff:
    """Change of spectral measure induced by an admissible perturbation.

    density_diff(E) >= 0 on E > 0; point_masses lists (E_j, weight_j) for the
    injected bound states; resonances lists -|mu_k|/2 for every active term.
    """

    term_coeffs: np.ndarray
    term_mu: np.ndarray
    point_masses: tuple[tuple[float, float], ...]
    resonances: tuple[float, ...]

    def density_diff(self, E) -> np.ndarray:
        E = np.asarray(E, dtype=float)
        return np.sqrt(E) / math.pi * _series_ratio(self.term_coeffs, self.term_mu, E)


def _series_ratio(c: np.ndarray, mu: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The series' share sum_k -2 c_k / (4E + mu_k^2) of d rho~/d rho_0 - 1."""
    den = np.add.outer(4.0 * E, mu**2)
    np.divide(-2.0 * c, den, out=den)
    return den.sum(axis=-1)


def spectral_measure_diff(A: Amplitude) -> SpectralMeasureDiff:
    c, mu = A.term_coeffs, A.term_mu
    bound = mu < 0
    masses = tuple(zip((-(mu[bound] ** 2) / 4.0).tolist(),
                       (-0.5 * c[bound] * np.abs(mu[bound])).tolist()))
    resonances = tuple((-np.abs(mu) / 2.0).tolist())
    return SpectralMeasureDiff(term_coeffs=c, term_mu=mu,
                               point_masses=masses, resonances=resonances)


# ---------------------------------------------------------------------------
# Killip-Simon style diagnostics. Only bases with a known spectral density are
# supported: the trivial base and the two closed-form wells.
# ---------------------------------------------------------------------------


def _diagnostic(check):
    """check(A) for a base with a closed-form spectral density, without numpy's
    float warnings: a measure past the float range raises the tagged error."""
    @functools.wraps(check)
    def run(A: Amplitude):
        if not isinstance(A.base, (ZeroForm, Bargmann1, Bargmann2)):
            raise ValidationError(
                "diagnostics need a base with a closed-form spectral density", _MOD)
        with np.errstate(all="ignore"):
            report = check(A)
        bad = [f.name for f in fields(report)
               if not np.all(np.isfinite(getattr(report, f.name)))]
        if bad:
            raise NumericalError(f"{check.__name__}: {', '.join(bad)} not finite", _MOD)
        return report
    return run


@dataclass(frozen=True)
class PositivityReport:
    min_density: float
    argmin_E: float
    passed: bool


@_diagnostic
def ks_check_positivity(A: Amplitude) -> PositivityReport:
    """Evaluate d rho~/dE on E > 0 and report its minimum (>= 0 when admissible)."""
    E = _E_GRID
    dens = np.sqrt(E) / math.pi * (1.0 + _ratio_minus_one(A, E))
    i = int(np.argmin(dens))
    return PositivityReport(min_density=float(dens[i]), argmin_E=float(E[i]),
                            passed=bool(dens[i] >= 0.0))


def _ratio_minus_one(A: Amplitude, E: np.ndarray) -> np.ndarray:
    """d rho~/d rho_0 - 1, in a cancellation-free closed form."""
    return A.base.density_ratio_minus_one(E) + _series_ratio(A.term_coeffs, A.term_mu, E)


@dataclass(frozen=True)
class QuasiSzegoReport:
    exponent: float
    residual: float


@_diagnostic
def ks_check_quasi_szego(A: Amplitude) -> QuasiSzegoReport:
    """Fit the large-E decay of log[(1/4) u + 1/2 + (1/4)/u], u = d rho~/d rho_0.

    The bracket equals 1 + (u-1)^2/(4u), so the log term is computed as
    log1p((u-1)^2/(4u)) with u-1 in closed form; its decay exponent should
    approach -2.
    """
    E = _E_GRID
    um1 = _ratio_minus_one(A, E)
    logterm = np.log1p(um1**2 / (4.0 * (1.0 + um1)))
    sel = (E >= _FIT_RANGE[0]) & (E <= _FIT_RANGE[1]) & (logterm > 0)
    if sel.sum() < 2:
        return QuasiSzegoReport(exponent=0.0, residual=0.0)
    coef = np.polyfit(np.log(E[sel]), np.log(logterm[sel]), 1)
    resid = float(np.sqrt(np.mean(
        (np.log(logterm[sel]) - np.polyval(coef, np.log(E[sel]))) ** 2)))
    return QuasiSzegoReport(exponent=float(coef[0]), residual=resid)


@dataclass(frozen=True)
class NormalizationReport:
    exponent: float
    partial_integrals: tuple[float, ...]
    increments_decreasing: bool


def _maximal_function(A: Amplitude, ks: np.ndarray,
                      L_grid: np.ndarray) -> np.ndarray:
    """Discretized Hardy-Littlewood maximal function of the perturbed measure
    with density Im M(k^2+i0) - k, using closed-form interval masses.

    Only windows [k-L, k+L] inside (0, inf) count. The (window, term) table of
    series masses is built in blocks of _WINDOW_BLOCK windows, which bounds
    its temporaries whatever the size of the series.
    """
    ki, li = np.nonzero(L_grid[None, :] < ks[:, None])
    k, L = ks[ki], L_grid[li]
    mass = A.base.nu_mass(k, L)
    w, mu2 = -0.25 * A.term_coeffs, A.term_mu**2
    for lo in range(0, k.size, _WINDOW_BLOCK):
        kb, Lb = k[lo:lo + _WINDOW_BLOCK, None], L[lo:lo + _WINDOW_BLOCK, None]
        ratio = 4.0 * (kb + Lb) ** 2 + mu2
        ratio /= 4.0 * (kb - Lb) ** 2 + mu2
        mass[lo:lo + _WINDOW_BLOCK] += np.log(ratio, out=ratio) @ w
    out = np.zeros_like(ks)
    np.maximum.at(out, ki, mass / (2.0 * L))
    return out


@_diagnostic
def ks_check_normalization(A: Amplitude) -> NormalizationReport:
    """Probe the normalization condition: the maximal function should drift like
    O(1/k) and log[1 + (M nu~ / k)^2] k^2 should have convergent partial integrals."""
    ks, Ls = _K_GRID, _L_GRID
    ms = _maximal_function(A, ks, Ls)
    if np.max(ms) == 0.0:
        return NormalizationReport(exponent=0.0, partial_integrals=(0.0,),
                                   increments_decreasing=True)
    tail = ks >= np.median(ks)
    exponent = float(np.polyfit(np.log(ks[tail]), np.log(ms[tail]), 1)[0])

    # partial integrals of the normalization integrand up to doubling endpoints
    partials = []
    for kmax in (8.0, 16.0, 32.0, 64.0, 128.0):
        kk = np.linspace(1.0, kmax, 513)
        mm = _maximal_function(A, kk, Ls)
        integrand = np.log1p((mm / kk) ** 2) * kk**2
        w = np.ones_like(kk); w[1:-1:2] = 4; w[2:-1:2] = 2
        partials.append(float(w @ integrand * (kk[1] - kk[0]) / 3.0))
    inc = np.diff(partials)
    return NormalizationReport(exponent=exponent,
                               partial_integrals=tuple(partials),
                               increments_decreasing=bool(np.all(np.diff(inc) < 0)))
