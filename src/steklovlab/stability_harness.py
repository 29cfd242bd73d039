"""End-to-end stability experiments.

A sweep scales an admissible coefficient family down over several decades,
reconstructs the base and perturbed potentials through the same
discretization (so discretization bias cancels in their difference), computes
the certified sup-norm Steklov gap eps, and records the potential-side and
amplitude-side gaps together with the two-term bound. fit_holder then checks
the Holder inequality q_gap <= C_T eps^theta with the constant fitted at the
largest scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, SteklovError, ValidationError
from .gelfand_levitan import recover_potential, solve_gl
from .muntz import MuntzSeries, still_bound
from .perturbation import (Amplitude, GeometricTail, build_perturbed_amplitude,
                           holder_exponent)
from .quadrature import l2_norm
from .radial_model import PotentialForm, SpectralParams, SteklovSpectrum
from .weyl_titchmarsh import (dn_gap, perturbation_tail_bound, steklov_spectrum,
                              sup_gap, wt_from_amplitude)

_MOD = "stability_harness"

BOUND_SLACK = 1.0 + 1e-6  # multiplicative tolerance for inequality checks


def _fmt(v: float) -> str:
    """A CSV number: 17 significant digits, enough to round-trip any double."""
    return format(float(v), ".17g")


@dataclass(frozen=True)
class SweepRecord:
    s: float       # perturbation scale
    eps: float     # certified sup-norm Steklov gap
    q_gap: float   # ||Q - Q~||_{L2(0,T)}
    a_gap: float   # weighted L2 amplitude gap (squared norm)
    bound: float   # two-term bound at this eps
    theta: float   # Holder exponent for the family's radius


CoeffFamily = Callable[[float], tuple[Sequence[float], GeometricTail | None]]


def geometric_family(rho: float, a: float = 1.0) -> CoeffFamily:
    """Family s -> generator c_k = -a s rho^{lam_k}; radius exactly 1/rho."""
    return lambda s: ((), GeometricTail(a=a * s, rho=rho))


def scaled_coeff_family(coeffs: Sequence[float]) -> CoeffFamily:
    """Family s -> s * coeffs for a fixed admissible coefficient list."""
    base = np.asarray(coeffs, dtype=float)
    return lambda s: (s * base, None)


def _amplitude_gap_sq(A: Amplitude, params: SpectralParams) -> float:
    """int_0^infty e^{(2 delta - 1) alpha} (A - A~)^2 d alpha in closed form.

    Under t = e^{-alpha} the integral becomes ||h||^2 on L^2(0,1) with
    h(t) = sum_k c_k t^{lam_k}, lam_k = mu_k - delta, a Muntz series.
    """
    return MuntzSeries(coeffs=tuple(A.term_coeffs.tolist()),
                       exponents=tuple((A.term_mu - params.delta).tolist())).norm_sq()


@np.errstate(over="ignore", invalid="ignore")  # every figure is checked finite
def run_sweep(base: PotentialForm, family: CoeffFamily, scales: Sequence[float],
              T: float, params: SpectralParams, K: int,
              M: int = 256) -> tuple[list[SweepRecord], list[str]]:
    """(records, dropped): one record per scale, except that a scale whose
    pipeline fails, or whose figures are not finite, is dropped and its
    reason, "s=...: [module] message", goes into dropped. Fewer than 3
    surviving records fails the sweep with every reason."""
    scales = [float(s) for s in scales]
    if any(s <= 0 for s in scales):
        raise ValidationError("scales must be positive", _MOD)
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValidationError("scales must be strictly decreasing", _MOD)
    if not scales or max(scales) / min(scales) < 1e3:
        raise ValidationError("scales must span at least 3 decades", _MOD)
    if K > params.K:
        raise ValidationError(f"K={K} exceeds the parameter table", _MOD)

    base_amp = build_perturbed_amplitude(base, np.zeros(0), params)
    q_base = recover_potential(solve_gl(base_amp, T, M))
    kappas = params.kappa[:K + 1]
    sigma_base = steklov_spectrum(wt_from_amplitude(base_amp, kappas), params, K)

    records: list[SweepRecord] = []
    reasons: list[str] = []
    for s in scales:
        try:
            coeffs, gen = family(s)
            amp = build_perturbed_amplitude(base, np.asarray(coeffs, float), params, gen)
            q_pert = recover_potential(solve_gl(amp, T, M))
            sigma_pert = steklov_spectrum(wt_from_amplitude(amp, kappas), params, K)
            gap = dn_gap(sigma_base, sigma_pert,
                         perturbation_tail_bound(amp, params, K))
            if not gap.certified:
                raise NumericalError(
                    f"gap truncation not certified at K={K}: tail bound "
                    f"{gap.tail_bound:.3e} exceeds the computed gap {gap.eps:.3e}",
                    _MOD)
            rec = SweepRecord(
                s=s,
                eps=gap.eps,
                q_gap=l2_norm(q_pert.values - q_base.values, T / M),
                a_gap=_amplitude_gap_sq(amp, params),
                bound=still_bound(gap.eps, amp.r_est, params),
                theta=holder_exponent(amp.r_est, params),
            )
            if bad := [k for k, v in vars(rec).items() if not np.isfinite(v)]:
                raise NumericalError(f"{', '.join(bad)} not finite", _MOD)
            records.append(rec)
        except SteklovError as exc:
            reasons.append(f"s={s}: {exc.tagged()}")
    if len(records) < 3:
        raise NumericalError(
            "sweep produced fewer than 3 valid records; failures: "
            + ("; ".join(reasons) if reasons else "none recorded"), _MOD)
    return records, reasons


@dataclass(frozen=True)
class HolderFit:
    C_T: float      # max over records of q_gap / eps^theta
    slope: float    # log-log slope of q_gap against eps
    theta: float
    C_anchor: float  # constant fitted at the largest eps
    verdict: str     # PASS iff the anchored inequality holds at every smaller eps
                     # and slope >= theta - 0.05


def fit_holder(records: Sequence[SweepRecord], theta: float | None = None) -> HolderFit:
    recs = [r for r in records if r.eps > 0]
    if len(recs) < 3:
        raise ValidationError("need at least 3 records with eps > 0", _MOD)
    eps = np.array([r.eps for r in recs])
    qg = np.array([r.q_gap for r in recs])
    if np.max(eps) == np.min(eps):
        raise ValidationError("degenerate sweep: all eps equal", _MOD)
    if np.any(qg <= 0):
        raise ValidationError("q_gap must be positive for the log-log fit", _MOD)
    theta = recs[0].theta if theta is None else float(theta)

    slope = float(np.polyfit(np.log(eps), np.log(qg), 1)[0])
    ratios = qg / eps**theta
    anchor = int(np.argmax(eps))
    c_anchor = float(ratios[anchor])
    holds = bool(np.all(qg <= c_anchor * eps**theta * BOUND_SLACK))
    verdict = "PASS" if holds and slope >= theta - 0.05 else "FAIL"
    return HolderFit(C_T=float(np.max(ratios)), slope=slope, theta=theta,
                     C_anchor=c_anchor, verdict=verdict)


def corollary_gap(sigma: SteklovSpectrum, sigma_tilde: SteklovSpectrum) -> float:
    """Operator-norm gap of the boundary maps, which equals the sup-norm gap of
    the spectra (the maps act diagonally on the spherical-harmonic spaces)."""
    return sup_gap(sigma, sigma_tilde)


def emit_records(records: Sequence[SweepRecord], fit: HolderFit | None = None,
                 dropped: Sequence[str] = ()) -> list[str]:
    """The sweep's CSV lines: the column header, one row per record, and a
    commented summary block: the fit when one is given, then one
    "# dropped = reason" line per dropped scale."""
    lines = ["s,eps,q_gap,a_gap,bound,theta,C_T_running,verdict"]
    running = 0.0
    for r in records:
        ratio = r.q_gap / r.eps**r.theta if r.eps > 0 else 0.0
        running = max(running, ratio)
        if fit is None:
            verdict = "NA"
        else:
            verdict = "PASS" if r.q_gap <= fit.C_anchor * r.eps**fit.theta * BOUND_SLACK else "FAIL"
        lines.append(",".join(
            [_fmt(r.s), _fmt(r.eps), _fmt(r.q_gap), _fmt(r.a_gap), _fmt(r.bound),
             _fmt(r.theta), _fmt(running), verdict]))
    if fit is not None:
        lines += [f"# theta = {_fmt(fit.theta)}",
                  f"# C_T = {_fmt(fit.C_T)}",
                  f"# slope = {_fmt(fit.slope)}",
                  f"# verdict = {fit.verdict}"]
    return lines + [f"# dropped = {reason}" for reason in dropped]
