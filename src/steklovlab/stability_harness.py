"""End-to-end stability experiments.

A sweep scales an admissible coefficient family down over several decades,
reconstructs the base and perturbed potentials through the same
discretization (so discretization bias cancels in their difference), reads
the sup-norm Steklov gap eps in closed form (Amplitude.steklov_gap at
kappa_0), and records the potential-side and amplitude-side gaps together
with the two-term bound. The bound column carries the a priori constant of
the two-term bound as 1; it is not an inequality on a_gap, which is
quadratic in the coefficients.

fit_holder then checks the Holder inequality q_gap <= C_T eps^theta with the
constant fitted at the largest scale. Along a family scaled in one direction
q_gap and eps are both linear in s to first order, so its PASS verdict checks
Lipschitz behaviour along that family (measured slopes near 1, against
theta <= 1/2), not the theorem's worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._format import _fmt
from .errors import NumericalError, SteklovError, ValidationError
from .gelfand_levitan import solve_gl
from .muntz import MuntzSeries, holder_exponent, still_bound
from .perturbation import Amplitude, GeometricTail, build_perturbed_amplitude, estimate_radius
from .quadrature import l2_norm
from .radial_model import PotentialForm, SpectralParams
from .weyl_titchmarsh import wt_from_amplitude

_MOD = "stability_harness"

BOUND_SLACK = 1.0 + 1e-6  # multiplicative tolerance for inequality checks


@dataclass(frozen=True)
class SweepRecord:
    s: float       # perturbation scale
    eps: float     # sup-norm Steklov gap, in closed form
    q_gap: float   # ||Q - Q~||_{L2(0,T)}
    a_gap: float   # weighted L2 amplitude gap (squared norm)
    bound: float   # two-term bound at this eps
    theta: float   # Holder exponent for the family's radius


def _amplitude_gap_sq(A: Amplitude, params: SpectralParams) -> float:
    """int_0^infty e^{(2 delta - 1) alpha} (A - A~)^2 d alpha in closed form.

    Under t = e^{-alpha} the integral becomes ||h||^2 on L^2(0,1) with
    h(t) = sum_k c_k t^{lam_k}, lam_k = mu_k - delta, a Muntz series.
    """
    return MuntzSeries(coeffs=tuple(A.term_coeffs.tolist()),
                       exponents=tuple((A.term_mu - params.delta).tolist())).norm_sq()


@np.errstate(over="ignore", invalid="ignore")  # every figure is checked finite
def run_sweep(base: PotentialForm, coeffs: Sequence[float], tail: GeometricTail | None,
              scales: Sequence[float], T: float, params: SpectralParams,
              M: int = 256) -> tuple[list[SweepRecord], list[str]]:
    """(records, dropped): one record per scale s, for the perturbation of
    base by the series terms s * coeffs and, if tail is given, the generator
    c_k = -(tail.a s) tail.rho^{lam_k}. Scaling leaves the radius alone, so
    every scale's bound and theta read the unscaled family's (1/tail.rho for
    a generator). A scale whose pipeline fails, whose figures are not
    finite, or whose q_gap reads 0 at a positive eps, is dropped and its
    reason, "s=...: [module] message", goes into dropped. Fewer than 3
    surviving records fails the sweep with every reason. The base is solved
    once; on a zero base its kernel is identically zero, so that solve
    factors nothing and the scales' solves are all of the sweep's
    factorizations."""
    scales = [float(s) for s in scales]
    coeffs = np.asarray(coeffs, dtype=float)
    if any(s <= 0 for s in scales):
        raise ValidationError("scales must be positive", _MOD)
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValidationError("scales must be strictly decreasing", _MOD)
    if not scales or max(scales) / min(scales) < 1e3:
        raise ValidationError("scales must span at least 3 decades", _MOD)

    R = estimate_radius(coeffs, params, tail)
    base_amp = build_perturbed_amplitude(base, np.zeros(0), params)
    wt_from_amplitude(base_amp, params.kappa[0])  # sigma_0 of the base must exist
    q_base = solve_gl(base_amp, T, M).potential

    records: list[SweepRecord] = []
    reasons: list[str] = []
    for s in scales:
        try:
            gen = None if tail is None else GeometricTail(a=tail.a * s, rho=tail.rho)
            amp = build_perturbed_amplitude(base, s * coeffs, params, gen)
            q_pert = solve_gl(amp, T, M).potential
            eps = abs(float(amp.steklov_gap(params.kappa[0])))
            rec = SweepRecord(
                s=s,
                eps=eps,
                q_gap=l2_norm(q_pert.values - q_base.values, T / M),
                a_gap=_amplitude_gap_sq(amp, params),
                bound=still_bound(eps, R, params),
                theta=holder_exponent(R, params),
            )
            if bad := [k for k, v in vars(rec).items() if not np.isfinite(v)]:
                raise NumericalError(f"{', '.join(bad)} not finite", _MOD)
            if rec.q_gap <= 0 < eps:  # fit_holder's log-log fit needs q_gap > 0
                raise NumericalError(
                    f"q_gap is 0 at eps = {_fmt(eps)}: Q~ - Q is below the rounding "
                    "level of the reconstructions", _MOD)
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


def emit_records(records: Sequence[SweepRecord], fit: HolderFit,
                 dropped: Sequence[str] = ()) -> list[str]:
    """The sweep's CSV lines: the column header, one row per record, and a
    commented summary block: the fit, then one "# dropped = reason" line per
    dropped scale."""
    lines = ["s,eps,q_gap,a_gap,bound,theta,C_T_running,verdict"]
    running = 0.0
    for r in records:
        ratio = r.q_gap / r.eps**r.theta if r.eps > 0 else 0.0
        running = max(running, ratio)
        verdict = "PASS" if r.q_gap <= fit.C_anchor * r.eps**fit.theta * BOUND_SLACK else "FAIL"
        lines.append(",".join(
            [_fmt(r.s), _fmt(r.eps), _fmt(r.q_gap), _fmt(r.a_gap), _fmt(r.bound),
             _fmt(r.theta), _fmt(running), verdict]))
    lines += [f"# theta = {_fmt(fit.theta)}",
              f"# C_T = {_fmt(fit.C_T)}",
              f"# slope = {_fmt(fit.slope)}",
              f"# verdict = {fit.verdict}"]
    return lines + [f"# dropped = {reason}" for reason in dropped]
