"""Discrete estimators of the norms the analysis lives in.

All estimators are Riemann sums on the grid: a sample of |f| owns one
cell of volume h^3, the decreasing rearrangement is the sorted sample
table, and weighted/local norms use the minimum-image distance.  They are
1-homogeneous in the samples exactly, which the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidExponents
from .spectral import _CHUNK, Grid, RealVectorField, scalar_to_real, scalar_to_spectral


def _samples(field) -> np.ndarray:
    """Flatten a field (a RealVectorField or a scalar array) to pointwise
    magnitudes, in a new array."""
    if isinstance(field, RealVectorField):
        return field.magnitude().ravel()
    return np.abs(np.asarray(field)).ravel()


def distribution_function(field, lam: float, cell_volume: float) -> float:
    """Volume of {|f| > lam} on the grid (strict inequality)."""
    if lam < 0:
        raise ValueError("level must be nonnegative")
    vals = _samples(field)
    return float(cell_volume * np.count_nonzero(vals > lam))


@dataclass
class RearrangementTable:
    """Sorted |samples| (nonincreasing); step function with cell-volume steps."""

    values: np.ndarray
    cell_volume: float

    def __call__(self, t):
        """Evaluate f*(t) = inf{lam >= 0 : d_f(lam) <= t}."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.floor(t / self.cell_volume).astype(np.int64)
        out = np.where(
            idx < len(self.values),
            self.values[np.minimum(idx, len(self.values) - 1)],
            0.0,
        )
        return out if out.ndim else float(out)


def rearrangement(field, cell_volume: float) -> RearrangementTable:
    vals = _samples(field)
    vals.sort()  # in place: the magnitudes are a new array
    return RearrangementTable(vals[::-1], cell_volume)


def lorentz_quasinorm(field, p: float, q: float, cell_volume: float) -> float:
    """Discrete Lorentz (p, q) quasinorm of a field.

    q = inf: sup over rearrangement steps of t^{1/p} f*(t), the sup on each
    step taken from the right (this makes the Chebyshev bound
    lam * d_f(lam)^{1/p} <= ||f||_{p,inf} exact on step functions).
    q < inf: ((q/p) * integral t^{q/p-1} f*(t)^q dt)^{1/q} evaluated exactly
    on the step function, which reduces to the plain L^p norm at q = p.
    """
    if p < 1:
        raise InvalidExponents(f"need p >= 1, got {p}")
    if q < 1:
        raise InvalidExponents(f"need q >= 1 (or inf), got {q}")
    vals = rearrangement(field, cell_volume).values
    nz = np.count_nonzero(vals)
    if nz == 0:
        return 0.0
    vals = vals[:nz]
    if np.isinf(q):
        # by chunks of ranks: an n^3 array of weights raised a 128^3 decay's peak RSS
        sups = []
        for a in range(0, nz, _CHUNK):
            t_right = cell_volume * np.arange(a + 1, min(a + _CHUNK, nz) + 1, dtype=np.float64)
            t_right **= 1.0 / p
            t_right *= vals[a : a + _CHUNK]
            sups.append(np.max(t_right))
        return float(np.max(sups))
    t_right = cell_volume * np.arange(1, nz + 1, dtype=np.float64)
    t_left = t_right - cell_volume
    increments = t_right ** (q / p) - t_left ** (q / p)
    return float(np.sum(vals**q * increments) ** (1.0 / q))


def lp_norm(field, p: float, cell_volume: float) -> float:
    vals = _samples(field)
    if np.isinf(p):
        return float(np.max(vals))
    return float((cell_volume * np.sum(vals**p)) ** (1.0 / p))


def weighted_sup_norm(field, theta: float, grid: Grid) -> float:
    """sup over grid cells of |x - c|^theta |f(x)|, c the box center (periodic
    distance).

    The center cell itself is excluded: the weight vanishes there and the
    value carries no information about the singular comparison.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    r = grid.radius_from(grid.center).ravel()
    vals = _samples(field)
    keep = r > 0
    return float(np.max(r[keep] ** theta * vals[keep]))


def morrey_norm(field, p: float, R: float, grid: Grid) -> float:
    """R^{3/p} (mean of |f|^2 over the ball of radius R about the box center)^{1/2}."""
    if p <= 2:
        raise InvalidExponents(f"Morrey exponent must satisfy p > 2, got {p}")
    if R > grid.box_length / 4 * (1 + 1e-12):
        raise ValueError(f"radius {R} exceeds box_length/4")
    ball = grid.radius_from(grid.center) <= R
    count = int(np.count_nonzero(ball))
    if count == 0:
        raise ValueError(f"the ball of radius {R} contains no grid cell")
    mean = np.sum(_samples(field).reshape(ball.shape)[ball] ** 2) / count
    return float(R ** (3.0 / p) * mean ** (1.0 / 2))


def young_check(f, g, grid: Grid, p, p1, p2, q, q1, q2) -> float:
    """Measured ratio ||f*g||_{p,q} / (||f||_{p1,q1} ||g||_{p2,q2}).

    The convolution is computed spectrally with the h^3 quadrature weight.
    Exponents must satisfy 1 + 1/p = 1/p1 + 1/p2 and 1/q <= 1/q1 + 1/q2.
    """
    tol = 1e-9
    if abs(1.0 + 1.0 / p - (1.0 / p1 + 1.0 / p2)) > tol:
        raise InvalidExponents("scaling relation 1 + 1/p = 1/p1 + 1/p2 violated")
    inv = lambda x: 0.0 if np.isinf(x) else 1.0 / x
    if inv(q) > inv(q1) + inv(q2) + tol:
        raise InvalidExponents("secondary relation 1/q <= 1/q1 + 1/q2 violated")

    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    conv = scalar_to_real(scalar_to_spectral(f) * scalar_to_spectral(g)) * grid.cell_volume
    h3 = grid.cell_volume
    num = lorentz_quasinorm(conv, p, q, h3)
    den = lorentz_quasinorm(f, p1, q1, h3) * lorentz_quasinorm(g, p2, q2, h3)
    if den == 0.0:
        raise DegenerateInput("zero factor in the convolution inequality")
    return float(num / den)
