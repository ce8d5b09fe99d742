"""Periodic grids, spectral transforms and the Fourier-multiplier operators.

Everything downstream (steady solver, time integrator, force constructors)
is built from the primitives here: the Leray projector, fractional
Laplacian powers, the lifted-advection symbol and the dissipation
semigroup.  All multipliers follow one convention, kept in one place
(``Grid.power``): symbols that are singular or undefined at the zero mode
return 0 there, and admissible forces are mean-free, so the convention is
exact for every pipeline that matters.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .errors import InvalidAlpha, InvalidGrid, NumericalBlowup, ZeroModeUndefined

_WORKERS = os.cpu_count() or 1

ALPHA_SOLVE_RANGE = (1.0, 2.5)


@dataclass(frozen=True)
class Grid:
    """
    Pre-computed spectral quantities for a periodic cubic box [0, L)^3.

    Parameters
    ----------
    n : int
        Points per axis (even, >= 8).
    box_length : float
        Physical side length L.

    The frequency lattice per axis is {2*pi*k/L : k in [-n/2, n/2)} in
    standard DFT ordering.  The Nyquist row is treated as self-conjugate
    and is zeroed inside every odd (differentiation-like) multiplier so
    that real fields stay real.
    """

    n: int
    box_length: float

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise InvalidGrid(f"need an even number of points >= 8, got {self.n}")
        if not (self.box_length > 0.0):
            raise InvalidGrid(f"box length must be positive, got {self.box_length}")

        n, L = self.n, float(self.box_length)
        object.__setattr__(self, "box_length", L)
        object.__setattr__(self, "spacing", L / n)
        object.__setattr__(self, "cell_volume", (L / n) ** 3)

        k_int = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)  # 0,1,..,n/2-1,-n/2,..,-1
        xi_axis = (2.0 * np.pi / L) * k_int
        object.__setattr__(self, "k_int", k_int)
        object.__setattr__(self, "xi_axis", xi_axis)
        object.__setattr__(self, "x_axis", (L / n) * np.arange(n))

        shape = [(n, 1, 1), (1, n, 1), (1, 1, n)]
        xi = [xi_axis.reshape(s) for s in shape]
        k2 = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", np.sqrt(k2))

        # 2/3-rule spherical truncation radius and mask.
        xi_max = np.pi * n / L
        object.__setattr__(self, "dealias_radius", (2.0 / 3.0) * xi_max)
        object.__setattr__(
            self, "dealias_mask", self.kmag <= self.dealias_radius * (1.0 + 1e-12)
        )

        # True where no axis sits on the Nyquist row.
        nyq = [np.abs(k_int.reshape(s)) != n // 2 for s in shape]
        object.__setattr__(self, "nyquist_free", nyq[0] & nyq[1] & nyq[2])

    def power(self, beta: float) -> np.ndarray:
        """The symbol |xi|^beta, 0 at the zero mode for every beta.

        This is the package's single zero-mode rule: the lift |xi|^-alpha and
        the Leray factor 1/|xi|^2 = power(-2.0) are singular there.
        """
        out = np.where(self.kmag == 0.0, 1.0, self.kmag)
        np.power(out, beta, out=out)  # in place: one n^3 array per call
        out[0, 0, 0] = 0.0
        return out

    def shift_phase(self, origin) -> np.ndarray:
        """The translation phase exp(-i xi . origin)."""
        xi = self.xi
        return np.exp(-1j * (xi[0] * origin[0] + xi[1] * origin[1] + xi[2] * origin[2]))

    def radius_from(self, origin):
        """Minimum-image distance of every grid point from ``origin``."""
        L = self.box_length
        d = []
        for axis, o in enumerate(origin):
            dx = np.abs(self.x_axis - o)
            dx = np.minimum(dx, L - dx)
            shape = [1, 1, 1]
            shape[axis] = self.n
            d.append(dx.reshape(shape))
        return np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)

    @property
    def center(self):
        return np.full(3, 0.5 * self.box_length)

    def same_as(self, other) -> bool:
        return self.n == other.n and self.box_length == other.box_length


@dataclass
class RealVectorField:
    """Three scalar arrays of N^3 real samples on a common grid."""

    grid: Grid
    data: np.ndarray  # (3, n, n, n), float64

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (3, self.grid.n, self.grid.n, self.grid.n):
            raise ValueError(f"bad field shape {self.data.shape}")

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.data**2, axis=0))


@dataclass
class SpectralVectorField:
    """Three scalar arrays of N^3 complex Fourier coefficients (DFT layout)."""

    grid: Grid
    data: np.ndarray  # (3, n, n, n), complex128

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (3, self.grid.n, self.grid.n, self.grid.n):
            raise ValueError(f"bad field shape {self.data.shape}")

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.data.copy())


def zero_spectral(grid: Grid) -> SpectralVectorField:
    return SpectralVectorField(grid, np.zeros((3, grid.n, grid.n, grid.n), dtype=np.complex128))


def to_spectral(field: RealVectorField) -> SpectralVectorField:
    return SpectralVectorField(
        field.grid, sfft.fftn(field.data, axes=(1, 2, 3), workers=_WORKERS)
    )


def to_real(field: SpectralVectorField) -> RealVectorField:
    phys = sfft.ifftn(field.data, axes=(1, 2, 3), workers=_WORKERS)
    return RealVectorField(field.grid, phys.real)


def scalar_to_real(coeffs: np.ndarray) -> np.ndarray:
    return sfft.ifftn(coeffs, workers=_WORKERS).real


def scalar_to_spectral(samples: np.ndarray) -> np.ndarray:
    return sfft.fftn(samples, workers=_WORKERS)


def reflect_coeffs(arr: np.ndarray) -> np.ndarray:
    """Coefficient array evaluated at -xi (DFT index negation)."""
    out = arr[..., ::-1, ::-1, ::-1]
    return np.roll(out, shift=(1, 1, 1), axis=(-3, -2, -1))


def hermitian_symmetrize(arr: np.ndarray) -> np.ndarray:
    return 0.5 * (arr + np.conj(reflect_coeffs(arr)))


def hermitian_defect(field: SpectralVectorField) -> float:
    """Max |v(-xi) - conj(v(xi))| relative to the largest coefficient."""
    d = np.max(np.abs(field.data - np.conj(reflect_coeffs(field.data))))
    scale = np.max(np.abs(field.data))
    return float(d / scale) if scale > 0 else 0.0


@dataclass(frozen=True)
class FracParams:
    """Dissipation exponent and dealiasing switch for the solve pipelines."""

    alpha: float
    dealias: bool = True

    def __post_init__(self):
        lo, hi = ALPHA_SOLVE_RANGE
        if not (lo < self.alpha < hi):
            raise InvalidAlpha(
                f"solver requires alpha in ({lo}, {hi}), got {self.alpha}"
            )


# ---------------------------------------------------------------------------
# multipliers


def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: (I - xi xi^T/|xi|^2) v(xi).

    The zero mode is passed through unchanged (xi = 0 there).
    """
    g = v.grid
    dot = g.xi[0] * v.data[0] + g.xi[1] * v.data[1] + g.xi[2] * v.data[2]
    dot *= g.power(-2.0)
    out = np.empty_like(v.data)
    for i in range(3):
        out[i] = v.data[i] - g.xi[i] * dot
    return SpectralVectorField(g, out)


def fractional_power(v: SpectralVectorField, beta: float) -> SpectralVectorField:
    """Multiply coefficients by |xi|^beta; the zero mode maps to 0.

    For beta < 0 the symbol is singular at xi = 0, so a nonzero zero mode
    is rejected.
    """
    g = v.grid
    if beta < 0:
        z = np.max(np.abs(v.data[:, 0, 0, 0]))
        scale = max(1.0, float(np.max(np.abs(v.data))))
        if z > 1e-12 * scale:
            raise ZeroModeUndefined(
                "negative fractional power applied to a field with nonzero mean"
            )
    if beta == 0.0:
        return v.copy()
    return SpectralVectorField(g, v.data * g.power(beta))


def bilinear_symbol(xi, alpha: float, i: int, j: int, k: int) -> complex:
    """Entry (i, j, k) of the lifted-advection tensor symbol at frequency xi.

    -(delta_ij - xi_i xi_j / |xi|^2) * (1j * xi_k) / |xi|^alpha, with the
    convention value 0 at xi = 0 (callers in batched code handle that mode
    themselves).  Indices are 0-based.
    """
    xi = np.asarray(xi, dtype=np.float64)
    r2 = float(np.dot(xi, xi))
    if r2 == 0.0:
        return 0.0 + 0.0j
    proj = (1.0 if i == j else 0.0) - xi[i] * xi[j] / r2
    return complex(-proj * 1j * xi[k] / r2 ** (alpha / 2.0))


def kernel_tensor(grid: Grid, m: np.ndarray):
    """Yield ``(i, j, k, K)`` for i <= j, K the real-space samples
    ifftn(-(delta_ij - xi_i xi_j/|xi|^2) 1j xi_k m).real / cell_volume of the
    lifted-advection tensor for the multiplier array ``m`` (zero mode 0).

    The symbol is delta_ij A_k + C_ijk with A_k = -1j xi_k m and the fully
    symmetric C_ijk = 1j xi_i xi_j xi_k m/|xi|^2: 3 + 10 inverse transforms.
    Entries sharing one C come together, so one C is held at a time; they
    may share an array, which callers must not modify.
    """

    def real_space(sym):  # sym is a temporary, so it is transformed in place
        sym[0, 0, 0] = 0.0
        return sfft.ifftn(sym, overwrite_x=True, workers=_WORKERS).real / grid.cell_volume

    xi = grid.xi
    A = [real_space(-1j * xi[k] * m) for k in range(3)]
    m_k2 = m * grid.power(-2.0)
    for a, b, c in itertools.combinations_with_replacement(range(3), 3):
        C = real_space(1j * xi[a] * xi[b] * (xi[c] * m_k2))
        for i, j, k in sorted(set(itertools.permutations((a, b, c)))):
            if i < j:
                yield i, j, k, C
            elif i == j:
                yield i, j, k, A[k] + C


def _advection_divergence(v: SpectralVectorField, dealias: bool) -> np.ndarray:
    """D_j = sum_k 1j xi_k W_jk = div(v (x) v), W_jk the transform of v_j v_k formed
    in physical space after a 2/3-rule truncation of the inputs (when ``dealias``);
    D is truncated likewise and its Nyquist rows are zeroed.  W is symmetric: each
    of its six products is transformed once, one at a time, into both rows."""
    g = v.grid
    vin = v.data * g.dealias_mask if dealias else v.data
    phys = sfft.ifftn(vin, axes=(1, 2, 3), workers=_WORKERS).real
    del vin  # the truncated copy is not read past the transform
    if not np.all(np.isfinite(phys)):
        raise NumericalBlowup("non-finite samples entering the quadratic term")
    div = np.zeros((3, g.n, g.n, g.n), dtype=np.complex128)
    for j in range(3):
        for k in range(j, 3):
            prod = phys[j] * phys[k]
            if not np.all(np.isfinite(prod)):
                raise NumericalBlowup("overflow while forming the quadratic term")
            w_hat = sfft.fftn(prod, workers=_WORKERS)
            div[j] += 1j * g.xi[k] * w_hat
            if k != j:
                div[k] += 1j * g.xi[j] * w_hat
    div *= g.nyquist_free
    if dealias:
        div *= g.dealias_mask
    return div


def projected_advection(v: SpectralVectorField, dealias: bool = True) -> SpectralVectorField:
    """Leray-projected divergence of v (x) v: P D, D from ``_advection_divergence``."""
    return leray_project(SpectralVectorField(v.grid, _advection_divergence(v, dealias)))


def apply_bilinear(v: SpectralVectorField, params: FracParams) -> SpectralVectorField:
    """-(-Lap)^(-alpha/2) P div(v (x) v): one application of the quadratic map.
    P D has a zero mode of exactly 0, so the lift is applied in place, unchecked."""
    out = projected_advection(v, dealias=params.dealias)
    out.data *= -v.grid.power(-params.alpha)
    return out


def semigroup_multiply(v: SpectralVectorField, t: float, alpha: float) -> SpectralVectorField:
    """Apply the dissipation semigroup exp(-t |xi|^alpha)."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    g = v.grid
    return SpectralVectorField(g, v.data * np.exp(-t * g.power(alpha)))


def spectral_gradient(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Gradient of a scalar spectral field, Nyquist rows zeroed."""
    out = np.empty((3,) + coeffs.shape, dtype=np.complex128)
    for i in range(3):
        out[i] = 1j * grid.xi[i] * coeffs
    out *= grid.nyquist_free
    return out


# ---------------------------------------------------------------------------
# quadrature norms (physical-space integrals via Parseval)


def l2_norm(field) -> float:
    """Discrete L^2 norm sqrt(h^3 * sum |field|^2), spectral or physical."""
    if isinstance(field, SpectralVectorField):
        g = field.grid
        s = np.sum(np.abs(field.data) ** 2) / g.n**3
        return float(np.sqrt(g.cell_volume * s))
    if isinstance(field, RealVectorField):
        return float(np.sqrt(field.grid.cell_volume * np.sum(field.data**2)))
    raise TypeError("expected a vector field")


def l2_inner(a: SpectralVectorField, b: SpectralVectorField) -> float:
    g = a.grid
    s = np.real(np.sum(np.conj(a.data) * b.data)) / g.n**3
    return float(g.cell_volume * s)
