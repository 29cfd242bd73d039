"""Orthonormal Muntz systems on [0,1] and the two-term moment stability bound.

Everything is a bilinear form in the Gram matrix of monomials on L^2(0,1),
H_ij = 1/(lam_i + lam_j + 1). The table

    C_mj = sqrt(2 lam_m + 1) * prod_{r<m}(lam_j + lam_r + 1)
                             / prod_{r != j}(lam_j - lam_r)

orthonormalizes t^{lam_0}, ..., t^{lam_n}: C H C^T = I. Its alternating
products are astronomically ill-conditioned in 64-bit arithmetic beyond
n ~ 8, so the table and its Gram residual run in extended precision
(mpmath, default 256 bits); series values and norms are float broadcasts.
The Gram residual takes every dot product as exact integer products summed
in one integer and rounded once, which is what mp.fdot returns, over the
entries that fdot's zip reads. mpmath is imported by the functions that build
a table or its Gram residual, and fractions by the exact-rational path, so
importing this module, the series and the bound leaves both unloaded.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .radial_model import SpectralParams

if TYPE_CHECKING:
    from fractions import Fraction

_MOD = "muntz"


def _cauchy(a, b):
    """Monomial Gram matrix 1/(a_i + b_j + 1) of float exponents."""
    return 1 / (np.add.outer(a, b) + 1)


@dataclass(frozen=True)
class MuntzSeries:
    """A finite combination sum_j c_j t^{e_j} with real exponents e_j >= 0."""

    coeffs: tuple[float, ...]
    exponents: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.exponents):
            raise ValidationError("coefficient and exponent counts differ", _MOD)
        if any(e < 0 for e in self.exponents):
            raise ValidationError("series exponents must be >= 0", _MOD)

    def _terms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.coeffs, dtype=float), np.asarray(self.exponents, dtype=float)

    def __call__(self, t):
        c, e = self._terms()
        return np.asarray(t, dtype=float)[..., None] ** e @ c

    def norm_sq(self) -> float:
        """||h||^2 on L^2(0,1) = c^T H(e, e) c."""
        c, e = self._terms()
        return float(c @ _cauchy(e, e) @ c)


def _ladder(exponents: Iterable[float]) -> Iterator[float]:
    """The exponents one at a time, each checked as it arrives (lam_0 >= 0,
    strict increase), so a bad ladder is refused without listing the rest."""
    prev = -math.inf
    for lam in exponents:
        if lam <= prev:
            raise ValidationError("exponents must be strictly increasing "
                                  "(repeats make the coefficient formula singular)", _MOD)
        if lam < 0:  # only lam_0 can be: the later ones exceed it
            raise ValidationError("exponents must satisfy lam_0 >= 0", _MOD)
        prev = lam
        yield lam
    if prev == -math.inf:
        raise ValidationError("need at least one exponent", _MOD)


def muntz_coeffs(exponents: Iterable[float], precision: int = 256):
    """Coefficient rows C_m = (C_m0..C_mm) as mpmath floats, in O(n^2) mp
    operations: below the diagonal, row m is row m-1 times the ratio
    sqrt((2 lam_m + 1)/(2 lam_{m-1} + 1)) (lam_j + lam_{m-1} + 1)/(lam_j - lam_m);
    the diagonal C_mm is its product formula.

    Each row is checked as it is built: the first level m whose condition
    proxy sum_p |C_mp|, the growth factor that eats working digits, exceeds
    10^(digits - 8) raises NumericalError, because the rows from there on are
    noise, not a table. The exponents are read, checked for order, converted,
    rooted and checked for coincidence level by level too, so a refusal costs
    only the levels before it, however long the ladder (which may be lazy).
    Row 0's proxy is sqrt(2 lam_0 + 1) >= 1, so below 27 bits (fewer than 8
    digits) no table passes; a refusal at level 0 names the precision as the
    cause and the least precision that certifies row 0.

    Rows are plain lists of mpf, and the diagonal's product runs left to
    right."""
    from mpmath import mp

    def limit(bits: int) -> float:
        return 10.0 ** (int(bits * math.log10(2.0)) - 8)

    with mp.workprec(precision):
        lam, rows, ahead = [], [], []  # ahead: lam_j + lam_{m-1} + 1 for j < m - 1
        for m, x in enumerate(_ladder(exponents)):
            lam.append(mp.mpf(x))
            root = mp.sqrt(2 * lam[m] + 1)
            if not m:
                rows.append([root])
            elif lam[m] <= lam[m - 1]:
                raise NumericalError(f"exponents coincide at {precision}-bit precision", _MOD)
            else:
                gap = [lj - lam[m] for lj in lam[:m]]
                scale = root / prev
                ratio = [a * scale / g
                         for a, g in zip(ahead + [lam[m - 1] + lam[m - 1] + 1], gap)]
                ahead = [lj + lam[m] + 1 for lj in lam[:m]]
                diag = root * math.prod(a / -g for a, g in zip(ahead, gap))
                rows.append([c * r for c, r in zip(rows[-1], ratio)] + [diag])
            prev = root
            if (proxy := float(mp.fsum(rows[m], absolute=True))) > limit(precision):
                cause = ""
                if m == 0:
                    least = next(bits for bits in itertools.count(precision)
                                 if limit(bits) >= proxy)
                    cause = (": the precision is too low for any level of this ladder; "
                             f"level 0 needs at least {least} bits")
                raise NumericalError(
                    f"orthonormalization level n={m} exceeds the certified range at "
                    f"{precision}-bit precision (condition proxy {proxy:.3e}){cause}", _MOD)
        return tuple(tuple(row) for row in rows)


def muntz_coeff_squares(exponents: Sequence[Fraction]) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """Exact-rational certification path: (sign, C_mj^2) for rational exponents."""
    from fractions import Fraction
    lam = [Fraction(e) for e in exponents]
    list(_ladder(map(float, lam)))
    rows = []
    for m in range(len(lam)):
        row = []
        for j in range(m + 1):
            num = Fraction(1)
            for r in range(m):
                num *= lam[j] + lam[r] + 1
            den = Fraction(1)
            for r in range(m + 1):
                if r != j:
                    den *= lam[j] - lam[r]
            c2 = (2 * lam[m] + 1) * num**2 / den**2
            sign = 1 if (num / den) > 0 else -1
            row.append((sign, c2))
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class MuntzSystem:
    """Exponent ladder, orthonormalization table, and working precision."""

    exponents: tuple[float, ...]
    C: tuple  # jagged rows of mpf
    precision: int

    @property
    def n(self) -> int:
        return len(self.exponents) - 1

    def float_table(self) -> np.ndarray:
        out = np.zeros((self.n + 1, self.n + 1))
        for m, row in enumerate(self.C):
            out[m, : m + 1] = [float(c) for c in row]
        return out

    def gram_residual(self, n: int | None = None) -> float:
        """max |C H C^T - I| over levels m, q <= n, in working precision.

        Each dot product is the value mp.fdot returns over the entries its zip
        reads: (C H)_mk = <C_m, H_k> for k <= m, then <(C H)_m, C_q> for
        q <= m, each as long as the shorter row. Like fdot, the local fdot
        multiplies exactly, sums in one integer and rounds once, here with one
        integer product per term on mantissas put on each row's least
        exponent. fdot's mpf_sum can drop a term only where the exponents
        spread over more than 2 prec bits; rows whose spreads add up past that
        take its path. The sums lam_i + lam_j are formed for i <= j only and
        mirrored (an mpf sum rounds the exact sum once, so it is symmetric), and
        the Cauchy entries are built once per distinct sum (2n + 1 of them on a
        ladder)."""
        from mpmath import mp, mpf
        from mpmath.libmp import (fone, fzero, from_man_exp, mpf_abs, mpf_add, mpf_mul,
                                  mpf_sub, mpf_sum, to_float)
        n = self.n if n is None else n
        with mp.workprec(self.precision):
            prec, rnd = mp._prec_rounding  # what fdot rounds with

            def fdot(a, b):
                if a[3] + b[3] > 2 * prec:
                    return mpf_sum(list(map(mpf_mul, a[0], b[0])), prec, rnd)
                return from_man_exp(sum(map(operator.mul, a[1], b[1])), a[2] + b[2], prec, rnd)

            lam = [mpf(x)._mpf_ for x in self.exponents[: n + 1]]
            upper = [[mpf_add(a, b, prec, rnd) for b in lam[i:]] for i, a in enumerate(lam)]
            sums = [[upper[j][i - j] for j in range(i)] + upper[i] for i in range(len(lam))]
            cauchy = {s: (1 / (mp.make_mpf(s) + 1))._mpf_ for s in set().union(*sums)}
            H = [_fixed([cauchy[s] for s in row]) for row in sums]
            C = [_fixed([c._mpf_ for c in row]) for row in self.C[: n + 1]]
            worst = 0.0
            for m, Cm in enumerate(C):
                CHm = _fixed([fdot(Cm, H[k]) for k in range(m + 1)])
                for q in range(m + 1):
                    e = mpf_sub(fdot(CHm, C[q]), fone if m == q else fzero, prec, rnd)
                    worst = max(worst, to_float(mpf_abs(e, prec, rnd), rnd=rnd))
            return worst  # float rounding is monotone: the float of the mpf max


def _fixed(raw: list) -> tuple:
    """(raw, mantissas, exponent, spread) of a row of raw mpf tuples: the
    signed mantissas on the row's least exponent, and the exponent spread of
    the nonzero entries."""
    exps = [e for _, man, e, _ in raw if man]
    lo = min(exps, default=0)
    mans = [((-man if sign else man) << (e - lo)) if man else 0 for sign, man, e, _ in raw]
    return raw, mans, lo, max(exps, default=0) - lo


def system_for_params(params: SpectralParams, n: int, precision: int = 256) -> MuntzSystem:
    """The system on the exponent ladder lam_0..lam_n of params (any n: the
    ladder does not depend on params.K). The table reads the ladder lazily, so
    a refused table lists no exponent past its refusal."""
    C = muntz_coeffs((float(params.lam_at(k)) for k in range(n + 1)), precision)
    return MuntzSystem(exponents=tuple(params.lam_at(np.arange(n + 1)).tolist()), C=C,
                       precision=precision)


def _still_power(R: float, params: SpectralParams) -> float:
    """Still's exponent ratio log R / log(9 M0 / 2), for R > 1."""
    return math.log(R) / math.log(4.5 * params.m0)


def holder_exponent(R: float, params: SpectralParams) -> float:
    """Stability exponent theta = (1/2) min(1, log R / log(9 M0 / 2))."""
    if not R > 1.0:
        raise ValidationError(f"exponent defined only for R > 1, got R={R}", _MOD)
    return 0.5 * min(1.0, _still_power(R, params))


def still_bound(eps: float, R: float, params: SpectralParams) -> float:
    """Two-term stability bound eps + R^{1-d-delta} eps^{log R / log(9 M0/2)};
    inf where a term leaves the float range."""
    if eps < 0:
        raise ValidationError(f"eps must be >= 0, got {eps}", _MOD)
    if not R > 1.0:
        raise ValidationError(f"bound requires R > 1, got R={R}", _MOD)
    if eps == 0.0:
        return 0.0
    try:
        if math.isinf(R):
            return eps
        return eps + R ** (1.0 - params.d - params.delta) * eps ** _still_power(R, params)
    except OverflowError:  # float ** raises where * gives inf
        return math.inf
