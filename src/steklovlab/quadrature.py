"""Quadrature and interpolation helpers used throughout the package.

Composite Simpson on uniform grids is the default integrator; local 4-point
(cubic) Lagrange interpolation matches its order between nodes.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MOD = "quadrature"


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n intervals (n even, n >= 2) of width h."""
    if n < 2 or n % 2 != 0:
        raise ValidationError(
            f"composite Simpson needs an even interval count >= 2, got {n}", _MOD)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def simpson(values: np.ndarray, h: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(simpson_weights(values.size - 1, h) @ values)


def l2_norm(values: np.ndarray, h: float) -> float:
    """L2 norm of uniform-grid samples by composite Simpson."""
    return float(np.sqrt(max(simpson(np.asarray(values, float) ** 2, h), 0.0)))


def cubic_interp(xs: np.ndarray, ys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Local 4-point Lagrange interpolation on a sorted grid (vectorized).

    Stencils are clamped at the ends; evaluation outside [xs[0], xs[-1]] is
    rejected since every caller is expected to stay inside the sampled domain.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x = np.asarray(x, dtype=float)
    if xs.size < 4:
        raise ValidationError("cubic interpolation needs at least 4 nodes", _MOD)
    lo, hi = xs[0], xs[-1]
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    if np.any(x < lo - pad) or np.any(x > hi + pad):
        raise ValidationError("interpolation point outside the sampled grid", _MOD)
    xq = np.clip(x, lo, hi)
    idx = np.searchsorted(xs, xq, side="right") - 1
    j0 = np.clip(idx - 1, 0, xs.size - 4)
    out = np.zeros_like(xq, dtype=float)
    for m in range(4):
        lm = np.ones_like(xq, dtype=float)
        xm = xs[j0 + m]
        for r in range(4):
            if r == m:
                continue
            xr = xs[j0 + r]
            lm *= (xq - xr) / (xm - xr)
        out += ys[j0 + m] * lm
    return out

