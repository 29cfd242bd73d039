"""Shared domain types: spectral index sequences, radial potentials on the ball
and the half-line, the change of variables between them, and the explicitly
solvable (Bargmann) closed forms used as oracles by every other module.

A closed form (PotentialForm) is its own object, evaluated exactly by every
route; RadialPotential and BallPotential are only sampled tables.

Conventions. The unit ball with a radial potential q(r) maps to the half-line
via x = -log r, Q(x) = e^{-2x} q(e^{-x}); spherical harmonics of degree k see
the radial operator -d^2/dx^2 + Q at spectral parameter -kappa_k^2 with
kappa_k = k + (d-2)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quadrature import cubic_interp, l2_norm, simpson_weights

_MOD = "radial_model"
_MAX_EXTENSION = 2 ** 24  # closed-form points extend_potential appends, at most


def _exprel(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, and 1 where |z| is below machine epsilon: the definition
    scipy.special.exprel uses, with expm1 keeping the digits near z = 0."""
    return np.divide(np.expm1(z), z, out=np.ones_like(z),
                     where=~(np.abs(z) < np.finfo(float).eps))  # NaN stays NaN


@dataclass(frozen=True)
class SpectralParams:
    """Index sequences attached to a dimension d and shift parameter delta.

    kappa[k]  = k + (d-2)/2        spectral evaluation points, k = 0..K
    lam_at(k) = 2k + d - 3 + delta exponent lattice (spacing 2)
    mu_at(k)  = lam_at(k) + delta  decay rates of the perturbation series
    m0        = max(2, 4(d-3+delta)+1)
    """

    d: int
    delta: float
    kappa: np.ndarray
    m0: float

    @property
    def K(self) -> int:
        return self.kappa.size - 1

    def mu_at(self, k) -> np.ndarray:
        """mu_k from the defining formula, for any k."""
        return 2.0 * np.asarray(k, dtype=float) + self.d - 3 + 2.0 * self.delta

    def lam_at(self, k) -> np.ndarray:
        return 2.0 * np.asarray(k, dtype=float) + self.d - 3 + self.delta


def make_spectral_params(d: int, delta: float, K: int) -> SpectralParams:
    if d < 3:
        raise ValidationError(f"dimension must satisfy d >= 3, got d={d}", _MOD)
    if not delta >= 3 - d:  # NaN fails
        raise ValidationError(
            f"delta must satisfy delta >= 3 - d = {3 - d}, got delta={delta}", _MOD
        )
    if K < 1:
        raise ValidationError(f"truncation index must satisfy K >= 1, got K={K}", _MOD)
    return SpectralParams(d=d, delta=float(delta),
                          kappa=np.arange(K + 1, dtype=float) + (d - 2) / 2.0,
                          m0=max(2.0, 4.0 * (d - 3 + delta) + 1.0))


# ---------------------------------------------------------------------------
# Closed-form families. Each object knows its potential, its amplitude, the
# Laplace transform of the amplitude, the running integral p used by the
# reconstruction module, its Jost boundary value and the spectral density it
# induces. Keeping all of these on one object lets every module bypass
# interpolation for the exactly solvable cases.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroForm:
    """The trivial potential Q = 0, amplitude A = 0."""

    kind = "zero"
    kappa_min = 0.0  # Laplace transform converges for any kappa > 0

    def potential(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def amplitude(self, alpha):
        return np.zeros_like(np.asarray(alpha, dtype=float))

    def laplace(self, kappa: float) -> float:
        return 0.0

    def p_accum(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def jost0(self, kappa: float) -> float:
        return 1.0

    def density_ratio_minus_one(self, E):
        """1/|psi(0, sqrt(E))|^2 - 1 for E > 0."""
        return np.zeros_like(np.asarray(E, dtype=float))

    def nu_mass(self, k, L):
        """Mass on [k-L, k+L] of the measure with density Im M(k^2+i0) - k."""
        return np.zeros(np.broadcast(k, L).shape)


@dataclass(frozen=True)
class Bargmann1:
    """One-parameter well with a single real resonance at kappa = -gamma.

    Amplitude 2(gamma^2 - beta^2) e^{-2 gamma alpha} with 0 <= gamma < beta;
    the potential and the Jost boundary value (kappa+gamma)/(kappa+beta) are
    rational in closed form.
    """

    beta: float
    gamma: float
    kind = "bargmann1"
    kappa_min = 0.0  # amplitude decays, Laplace converges for kappa > -gamma

    def __post_init__(self):
        # the closed forms square beta: a square past the float range raised
        # OverflowError from deep inside the routes
        if not (self.beta > 0 and 0 <= self.gamma < self.beta
                and self.beta * self.beta < math.inf):
            raise ValidationError(
                f"bargmann1 needs beta > 0 and 0 <= gamma < beta with beta**2 finite, "
                f"got beta={self.beta}, gamma={self.gamma}", _MOD)

    def _tau(self) -> float:
        return (self.beta - self.gamma) / (self.beta + self.gamma)

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        tau = self._tau()
        e = np.exp(-2.0 * self.beta * x)
        return -8.0 * self.beta**2 * tau * e / (1.0 + tau * e) ** 2

    def amplitude(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return 2.0 * (self.gamma**2 - self.beta**2) * np.exp(-2.0 * self.gamma * alpha)

    def laplace(self, kappa: float) -> float:
        return (self.gamma**2 - self.beta**2) / (kappa + self.gamma)

    def p_accum(self, t):
        t = np.asarray(t, dtype=float)
        g = self.gamma
        if g == 0.0:
            return (self.beta**2 / 2.0) * t
        return -(g**2 - self.beta**2) * (-np.expm1(-g * t)) / (2.0 * g)

    def jost0(self, kappa: float) -> float:
        if abs(kappa + self.beta) < 1e-300:
            raise ValidationError(f"Jost value has a pole at kappa = {-self.beta}", _MOD)
        return (kappa + self.gamma) / (kappa + self.beta)

    def density_ratio_minus_one(self, E):
        E = np.asarray(E, dtype=float)
        return (self.beta**2 - self.gamma**2) / (E + self.gamma**2)

    def nu_mass(self, k, L):
        k = np.asarray(k, dtype=float)
        a, b = k - L, k + L
        c = self.beta**2 - self.gamma**2
        return 0.5 * c * np.log((b**2 + self.gamma**2) / (a**2 + self.gamma**2))


@dataclass(frozen=True)
class Bargmann2:
    """Reflectionless well with one bound state at -kappa1^2.

    Amplitude -(2 c1/kappa1) sinh(2 kappa1 alpha); potential
    -2 (log F)'' with F(x) = 1 + (c1/kappa1^2) int_0^x sinh^2(kappa1 y) dy;
    Jost boundary value (kappa - kappa1)/(kappa + kappa1).
    """

    c1: float
    kappa1: float
    kind = "bargmann2"

    def __post_init__(self):
        # the closed forms divide by kappa1**2: a square that underflows to 0
        # gave 0/0, one past the float range raised OverflowError
        if not (self.c1 > 0 and self.kappa1 > 0
                and 0 < self.kappa1 * self.kappa1 < math.inf):
            raise ValidationError(
                f"bargmann2 needs c1 > 0 and kappa1 > 0 with kappa1**2 positive and "
                f"finite, got c1={self.c1}, kappa1={self.kappa1}", _MOD)

    @property
    def kappa_min(self) -> float:
        return self.kappa1  # amplitude grows like e^{2 kappa1 alpha}

    def potential(self, x):
        """-2 (F'' F - F'^2)/F^2, with F, F' and F'' written in y = 2 kappa1 x
        and scaled by e^{-y}. That keeps them finite where e^{y} overflows and
        free of cancellation as kappa1 -> 0, where F -> 1 + c1 x^3/3:

            F e^{-y}   = e^{-y} + 2 c1 x^3 e^{-y} (sinh y - y)/y^3
            F' e^{-y}  = c1 x^2 exprel(-y)^2
            F'' e^{-y} = 2 c1 x exprel(-2y)
        """
        if not self.c1 * self.c1 < math.inf:  # F'' F and F'^2 carry c1^2
            raise ValidationError(
                f"the bargmann2 potential needs c1**2 finite, got c1={self.c1}", _MOD)
        x = np.asarray(x, dtype=float)
        y = 2.0 * self.kappa1 * x
        damp = np.exp(-y)
        # (sinh y - y)/y^3 = sum_k y^{2k}/(2k + 3)!, to 1e-18 relative in nine
        # terms for |y| < 1; beyond, e^{-y} (sinh y - y) = -expm1(-2y)/2 - y e^{-y}
        small = np.abs(y) < 1.0
        ys = np.where(small, y, 0.0)
        yl = np.where(small, 1.0, y)
        series = np.zeros_like(ys)
        for k in range(8, -1, -1):
            series = series * ys**2 + 1.0 / math.factorial(2 * k + 3)
        excess = np.where(small, damp * series,
                          (-0.5 * np.expm1(-2.0 * yl) - yl * damp) / yl**3)
        F = damp + 2.0 * self.c1 * x**3 * excess
        Fp = self.c1 * x**2 * _exprel(-y) ** 2
        Fpp = 2.0 * self.c1 * x * _exprel(-2.0 * y)
        return -2.0 * (Fpp * F - Fp**2) / F**2

    def amplitude(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return -(2.0 * self.c1 / self.kappa1) * np.sinh(2.0 * self.kappa1 * alpha)

    def laplace(self, kappa):
        if np.any(kappa <= self.kappa1):
            raise ValidationError(
                f"Laplace transform requires kappa > kappa1 = {self.kappa1}", _MOD)
        # factored: kappa^2 - kappa1^2 loses digits near the threshold, where
        # kappa - kappa1 is exact (kappa < 2 kappa1)
        return -self.c1 / ((kappa - self.kappa1) * (kappa + self.kappa1))

    def p_accum(self, t):
        # c1 (cosh(kappa1 t) - 1)/(2 kappa1^2) without its cancellation
        t = np.asarray(t, dtype=float)
        return self.c1 * (np.sinh(0.5 * self.kappa1 * t) / self.kappa1) ** 2

    def jost0(self, kappa: float) -> float:
        if abs(kappa + self.kappa1) < 1e-300:
            raise ValidationError(f"Jost value has a pole at kappa = {-self.kappa1}", _MOD)
        return (kappa - self.kappa1) / (kappa + self.kappa1)

    # reflectionless, |psi(0, k)|^2 = 1: the spectral density of Q = 0
    density_ratio_minus_one = ZeroForm.density_ratio_minus_one
    nu_mass = ZeroForm.nu_mass


PotentialForm = ZeroForm | Bargmann1 | Bargmann2


# ---------------------------------------------------------------------------
# Sampled potentials.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SampledTable:
    """Finite values on a finite, strictly increasing grid of at least 4 nodes;
    values between nodes come from local cubic interpolation, which needs 4."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size != v.size or g.size < 4:
            raise ValidationError("grid and values must be 1-d arrays of equal size >= 4", _MOD)
        if not np.all(np.isfinite(g)):
            raise ValidationError("grid must be finite", _MOD)
        if not np.all(np.diff(g) > 0):
            raise ValidationError("grid must be strictly increasing", _MOD)
        if not np.all(np.isfinite(v)):
            raise ValidationError("potential values must be finite", _MOD)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, x):
        return cubic_interp(self.grid, self.values, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class RadialPotential(_SampledTable):
    """Half-line potential Q sampled on a sorted grid covering [0, X_max]."""

    @property
    def x_max(self) -> float:
        return float(self.grid[-1])


@dataclass(frozen=True)
class BallPotential(_SampledTable):
    """Radial potential q on a grid of radii inside (0, 1]; norms against r^3 dr."""

    def __post_init__(self):
        super().__post_init__()
        if self.grid[0] <= 0 or self.grid[-1] > 1 + 1e-12:
            raise ValidationError("ball grid must lie inside (0, 1]", _MOD)


# ---------------------------------------------------------------------------
# Potential constructors and the ball <-> half-line change of variables.
# ---------------------------------------------------------------------------


def extend_potential(q: RadialPotential, form: PotentialForm, x_max: float) -> RadialPotential:
    """Extend grid samples beyond their domain with a closed form.

    This is how a table that stops short of shooting's truncation point
    23/kappa reaches it: extend to 23/kappa_min, with ZeroForm for a Q = 0
    tail. The result keeps the original samples and appends closed-form
    values at q.x_max + j h, h the table's first interval, up to the first
    such point at or past x_max, which must be finite; evaluation
    interpolates the stitched table. At most _MAX_EXTENSION = 2^24 points
    are appended (two 128 MiB arrays, far past any table the routes use); a
    longer extension is refused before anything is allocated.
    """
    if not x_max < math.inf:   # NaN fails
        raise ValidationError(f"extension endpoint must be finite, got {x_max}", _MOD)
    if x_max <= q.x_max:
        raise ValidationError("extension endpoint must exceed the sampled domain", _MOD)
    h = float(q.grid[1] - q.grid[0])
    count = math.ceil((x_max - q.x_max) / h)
    count += q.x_max + h * count < x_max   # rounding left the last point short
    if count > _MAX_EXTENSION:
        raise ValidationError(
            f"extension to x_max={x_max} needs {count:.4g} points of step {h}, more than "
            f"{_MAX_EXTENSION}", _MOD)
    extra = q.x_max + h * np.arange(1, count + 1)
    grid = np.concatenate([q.grid, extra])
    values = np.concatenate([q.values, form.potential(extra)])
    return RadialPotential(grid=grid, values=values)


def ball_to_halfline(q: BallPotential) -> RadialPotential:
    """Map q(r) on the ball to Q(x) = e^{-2x} q(e^{-x}) on the half-line.

    Grid nodes map one to one (x = -log r), so the round trip with
    halfline_to_ball is exact on shared grids.
    """
    x = -np.log(q.grid[::-1])
    x[x == 0.0] = 0.0  # normalize -0.0 from r = 1
    vals = np.exp(-2.0 * x) * q.values[::-1]
    return RadialPotential(grid=x, values=vals)


def halfline_to_ball(Q: RadialPotential) -> BallPotential:
    """Inverse of ball_to_halfline: q(r) = Q(-log r)/r^2 on r = e^{-x}."""
    r = np.exp(-Q.grid[::-1])
    vals = Q.values[::-1] / r**2
    return BallPotential(grid=r, values=vals)


def weighted_norm_equivalence(q: BallPotential, q_tilde: BallPotential, T: float,
                              n: int = 512) -> tuple[float, float]:
    """Return (||Q - Q~||_{L2(0,T)}, ||q - q~||_{L2((e^{-T},1), r^3 dr)}).

    The half-line norm integrates on a uniform x grid, the ball norm on a
    uniform r grid; the two quadratures are independent and agree up to
    discretization error by the change-of-variables isometry. T must be
    positive and finite.
    """
    if not 0 < T < math.inf:   # NaN fails
        raise ValidationError(f"norm horizon T must be positive and finite, got {T}", _MOD)
    if q.grid.size != q_tilde.grid.size or np.max(np.abs(q.grid - q_tilde.grid)) > 1e-12:
        raise ValidationError("ball potentials must share a grid", _MOD)
    dq = BallPotential(grid=q.grid, values=q.values - q_tilde.values)

    hx = T / n
    xs = np.linspace(0.0, T, n + 1)
    dQ = np.exp(-2.0 * xs) * dq(np.exp(-xs))
    half_norm = l2_norm(dQ, hx)

    r0 = math.exp(-T)
    hr = (1.0 - r0) / n
    rs = np.linspace(r0, 1.0, n + 1)
    integrand = dq(rs) ** 2 * rs**3
    ball_norm = float(np.sqrt(max(simpson_weights(n, hr) @ integrand, 0.0)))
    return half_norm, ball_norm
