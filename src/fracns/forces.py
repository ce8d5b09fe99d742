"""Constructions of admissible external forces and the moment matrix.

The flagship constructor places a smooth, compactly supported profile on a
frequency annulus (so the zero mode is excluded exactly and the lifted
field decays rapidly in physical space), modulates it with a seeded
low-degree odd polynomial, and Leray-projects.  Component weights bias the
moment matrix M_jk = integral of u_j u_k away from scalar; averaging over
the 24 cube rotations forces it to be scalar exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAnnulus, ScalarMomentMatrix
from .solver import lift_force, weak_lorentz_norm
from .spectral import (
    FracParams,
    Grid,
    RealVectorField,
    SpectralVectorField,
    leray_project,
    to_real,
    to_spectral,
    zero_spectral,
)


@dataclass(frozen=True)
class ForceSpec:
    """Recipe for a reproducible external force.

    kind is one of ``annulus_ring``, ``gaussian_bump``, ``plane_wave_pair``.
    ``amplitude`` fixes the weak-Lorentz size of the lifted force (the
    solver's smallness parameter), not the pointwise size of f itself.
    """

    kind: str = "annulus_ring"
    amplitude: float = 1.25
    r0: float = 0.6
    r1: float = 8.2
    seed: int = 7
    anisotropy: tuple = (1.0, 1.0, 1.0)
    symmetrize: bool = False

    def __post_init__(self):
        if self.kind not in ("annulus_ring", "gaussian_bump", "plane_wave_pair"):
            raise ValueError(f"unknown force kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative (0 means no forcing)")
        if not (0 < self.r0 < self.r1):
            raise InvalidAnnulus(f"need 0 < r0 < r1, got ({self.r0}, {self.r1})")

    def to_dict(self):
        return {
            "kind": self.kind,
            "amplitude": self.amplitude,
            "r0": self.r0,
            "r1": self.r1,
            "seed": self.seed,
            "anisotropy": list(self.anisotropy),
            "symmetrize": self.symmetrize,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "anisotropy" in d:
            d["anisotropy"] = tuple(d["anisotropy"])
        return cls(**d)


def octahedral_rotations():
    """The 24 proper rotations of the cube as integer matrices."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            R = np.zeros((3, 3), dtype=np.int64)
            for j, (i, s) in enumerate(zip(perm, signs)):
                R[i, j] = s
            if round(np.linalg.det(R)) == 1:
                mats.append(R)
    assert len(mats) == 24
    return mats


def rotate_real_field(data: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Samples of the rotated vector field x -> R v(R^{-1} x), rotated about
    the lattice origin.

    R must be a signed permutation matrix; the lattice is then mapped onto
    itself and the rotation is exact.
    """
    n = data.shape[-1]
    rotated = np.empty_like(data)
    # source index along array axis j is a signed-permutation image of the
    # target index along axis i_j, where R[i_j, j] = s_j
    idx = []
    for j in range(3):
        i_j = int(np.nonzero(R[:, j])[0][0])
        s_j = int(R[i_j, j])
        m = (s_j * np.arange(n)) % n
        shape = [1, 1, 1]
        shape[i_j] = n
        idx.append(m.reshape(shape))
    for comp in range(3):
        rotated[comp] = data[comp][idx[0], idx[1], idx[2]]
    out = np.zeros_like(data)
    for i in range(3):
        for l in range(3):
            if R[i, l] != 0:
                out[i] += R[i, l] * rotated[l]
    return out


def _odd_polynomial(grid: Grid, rng, anisotropy, scale):
    """Random real polynomial, odd in xi, one array per component."""
    nu = [x / scale for x in grid.xi]
    cubic = [
        (a, b, c)
        for a in range(3)
        for b in range(a, 3)
        for c in range(b, 3)
    ]
    out = []
    for j in range(3):
        beta = rng.standard_normal(3)
        gamma = rng.standard_normal(len(cubic))
        g = beta[0] * nu[0] + beta[1] * nu[1] + beta[2] * nu[2]
        for coeff, (a, b, c) in zip(gamma, cubic):
            g = g + coeff * (nu[a] * nu[b] * nu[c])
        out.append(anisotropy[j] * g)
    return out


def _bump_window(
    r: np.ndarray, r0: float, r1: float, sharpness: float = 8.0
) -> np.ndarray:
    """Smooth compactly supported radial window on the annulus [r0, r1].

    ``sharpness`` is the bump exponent b in exp(-b/(1-t^2)); larger b
    steepens the transform tail (~exp(-sqrt(2 b a r))), which keeps the
    lifted field's physical tail below the far-field profile term.
    """
    rc = 0.5 * (r0 + r1)
    half = 0.5 * (r1 - r0)
    t = (r - rc) / half
    inside = np.abs(t) < 1.0
    w = np.zeros_like(r)
    ts = t[inside]
    w[inside] = np.exp(sharpness * (1.0 - 1.0 / (1.0 - ts * ts)))
    return w


def _modulated(spec: ForceSpec, grid: Grid, seed: int, window: np.ndarray) -> SpectralVectorField:
    """A radial window times the seeded odd polynomial, centered in the box."""
    rng = np.random.default_rng(seed)
    poly = _odd_polynomial(grid, rng, spec.anisotropy, spec.r1)
    phase = grid.shift_phase(grid.center)
    window = window * grid.nyquist_free  # an odd polynomial is not Hermitian there
    data = np.stack([1j * window * poly[j] * phase for j in range(3)])
    data[:, 0, 0, 0] = 0.0
    return SpectralVectorField(grid, data)


def _raw_annulus(spec: ForceSpec, grid: Grid, seed: int, alpha: float) -> SpectralVectorField:
    # The |xi|^alpha weight cancels the lift's |xi|^(-alpha), so the lifted
    # field carries the clean compactly supported bump: that is what makes
    # its physical-space tail drop below the far-field profile term.
    window = _bump_window(grid.kmag, spec.r0, spec.r1) * grid.power(alpha)
    if not np.any(window > 0):
        raise InvalidAnnulus(
            f"no lattice modes inside the annulus ({spec.r0}, {spec.r1}) "
            f"at resolution {grid.n}, box {grid.box_length}"
        )
    return _modulated(spec, grid, seed, window)


def _raw_gaussian_bump(spec: ForceSpec, grid: Grid, seed: int, alpha: float) -> SpectralVectorField:
    rc = 0.5 * (spec.r0 + spec.r1)
    s = (spec.r1 - spec.r0) / 6.0
    window = np.exp(-((grid.kmag - rc) ** 2) / (2.0 * s * s))
    return _modulated(spec, grid, seed, window)


def _raw_plane_wave_pair(spec: ForceSpec, grid: Grid, seed: int, alpha: float) -> SpectralVectorField:
    # deterministic: the lexicographically smallest integer mode in the annulus
    n = grid.n
    best = None
    dk = 2.0 * np.pi / grid.box_length
    kmax = int(np.ceil(spec.r1 / dk))
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            for kz in range(-kmax, kmax + 1):
                mag = dk * np.sqrt(kx * kx + ky * ky + kz * kz)
                if spec.r0 <= mag <= spec.r1 and abs(kx) < n // 2 and abs(ky) < n // 2 and abs(kz) < n // 2:
                    cand = (kx, ky, kz)
                    if best is None or cand < best:
                        best = cand
    if best is None:
        raise InvalidAnnulus("no lattice mode inside the annulus")
    rng = np.random.default_rng(seed)
    k = np.array(best, dtype=np.float64) * dk
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a -= k * (np.dot(k, a) / np.dot(k, k))  # divergence-free amplitude
    a *= np.asarray(spec.anisotropy)
    f = zero_spectral(grid)
    for mode, amp in ((np.array(best), a), (-np.array(best), np.conj(a))):
        if mode[2] >= 0:  # the half lattice holds k_z >= 0 only
            f.data[(slice(None),) + tuple(mode % n)] = amp
    return f


_RAW_BUILDERS = {
    "annulus_ring": _raw_annulus,
    "gaussian_bump": _raw_gaussian_bump,
    "plane_wave_pair": _raw_plane_wave_pair,
}


def moment_matrix(u: RealVectorField) -> np.ndarray:
    """M_jk = h^3 sum over cells of u_j u_k (symmetric PSD by construction)."""
    if not np.all(np.isfinite(u.data)):
        raise ValueError("non-finite samples in moment matrix input")
    flat = u.data.reshape(3, -1)
    return u.grid.cell_volume * (flat @ flat.T)


def scalar_deviation(M: np.ndarray, normalized: bool = True) -> float:
    """Frobenius distance of M from its scalar part, normalized by tr M.

    Zero trace (the zero field) counts as trivially scalar.
    """
    M = np.asarray(M, dtype=np.float64)
    tr = float(np.trace(M))
    dev = float(np.linalg.norm(M - (tr / 3.0) * np.eye(3)))
    if not normalized:
        return dev
    return dev / tr if tr > 0 else 0.0


def make_force(spec: ForceSpec, grid: Grid, alpha: float) -> SpectralVectorField:
    """Build, project and normalize a force so that the weak-Lorentz size of
    its lift equals ``spec.amplitude``.

    Anisotropic specs are checked at construction: the lifted moment matrix
    must deviate from scalar by at least 0.05, retrying a few reseeded
    draws before giving up.  Isotropic specs with ``symmetrize`` average
    over the 24 cube rotations, which makes the lifted moment matrix
    scalar exactly.
    """
    if spec.kind == "annulus_ring":
        limit = grid.dealias_radius
        if not (spec.r1 < limit):
            raise InvalidAnnulus(
                f"annulus outer radius {spec.r1} must stay inside the dealias "
                f"sphere of radius {limit:.4g}"
            )
    if spec.amplitude == 0.0:
        return zero_spectral(grid)
    params = FracParams(alpha=alpha, dealias=True)
    builder = _RAW_BUILDERS[spec.kind]
    anisotropic = not np.allclose(spec.anisotropy, (1.0, 1.0, 1.0))

    attempts = 5 if anisotropic else 1
    for attempt in range(attempts):
        raw = builder(spec, grid, spec.seed + attempt, alpha)
        if spec.symmetrize:
            samples = to_real(raw).data
            acc = np.zeros_like(samples)
            for R in octahedral_rotations():
                acc += rotate_real_field(samples, R)
            raw = to_spectral(RealVectorField(grid, acc / 24.0))
        f = leray_project(raw)
        f.data[:, 0, 0, 0] = 0.0
        u0 = lift_force(f, params)
        norm = weak_lorentz_norm(u0, alpha)
        if norm == 0.0:
            continue
        f = SpectralVectorField(grid, f.data * (spec.amplitude / norm))
        if anisotropic:
            u0 = lift_force(f, params)
            dev = scalar_deviation(moment_matrix(to_real(u0)))
            if dev < 0.05:
                continue
        return f
    raise ScalarMomentMatrix(
        "could not realize a usably non-scalar lifted moment matrix "
        f"from seed {spec.seed} in {attempts} attempts"
    )
