"""Constructions of admissible external forces and the moment matrix.

The one constructor places a smooth, compactly supported profile on a
frequency annulus (so the zero mode is excluded exactly and the lifted
field decays rapidly in physical space), modulates it with a seeded
low-degree odd polynomial, and Leray-projects, on the dealias cube that holds
the annulus (``spectral.Lattice.dealias_cube``).  Component weights bias the
moment matrix M_jk = integral of u_j u_k away from scalar; averaging over
the 24 cube rotations forces it to be scalar exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidAnnulus, ScalarMomentMatrix
from .solver import lift_force, weak_lorentz_norm
from .spectral import (
    CUBIC_MONOMIALS,
    Grid,
    Lattice,
    RealVectorField,
    SpectralVectorField,
    _real_to_cube,
    is_real,
    l2_norm,
    leray_project,
    to_real,
    zero_spectral,
)


@dataclass(frozen=True)
class ForceSpec:
    """Recipe for a reproducible external force.

    ``kind`` names the constructor; ``annulus_ring`` is the only one.
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
        if self.kind != "annulus_ring":
            raise ValueError(f"unknown force kind {self.kind!r}: the only kind is 'annulus_ring'")
        if not (is_real(self.amplitude) and 0 <= self.amplitude < np.inf):
            raise ValueError("amplitude must be finite and nonnegative (0 means no forcing), "
                             f"got {self.amplitude!r}")
        if not (is_real(self.r0) and is_real(self.r1) and 0 < self.r0 < self.r1):
            raise InvalidAnnulus(f"need 0 < r0 < r1, got ({self.r0}, {self.r1})")
        if not np.isfinite(self.r1):  # then r0 < r1 is finite too
            raise InvalidAnnulus(f"the annulus radii must be finite, got r1={self.r1}")
        a = self.anisotropy
        if not (len(a) == 3 and all(is_real(x) and np.isfinite(x) for x in a)):
            raise ValueError(f"anisotropy must be three finite numbers, got {list(a)}")
        if not isinstance(self.symmetrize, bool):
            raise ValueError(f"symmetrize must be true or false, got {self.symmetrize!r}")


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
    itself and the rotation is exact.  Source axis j is read backwards
    (index k -> -k mod n) where column j's entry is -1, result axis i reads
    the source axis of row i's entry, and component i is component cols[i]
    times that entry (no BLAS call).
    """
    for j in range(3):
        if R[:, j].sum() < 0:
            data = np.roll(np.flip(data, j + 1), 1, j + 1)
    cols = np.nonzero(R)[1]  # row i's entry is in column cols[i]
    out = np.transpose(data, (0, *(cols + 1)))[cols]
    out *= R[range(3), cols].reshape(3, 1, 1, 1)
    return out


def _odd_polynomial(lattice, rng, anisotropy, scale):
    """Random real polynomial, odd in xi, one array per component."""
    nu = [x / scale for x in lattice.xi]
    out = []
    for j in range(3):
        beta = rng.standard_normal(3)
        gamma = rng.standard_normal(len(CUBIC_MONOMIALS))
        g = beta[0] * nu[0] + beta[1] * nu[1] + beta[2] * nu[2]
        for coeff, (a, b, c) in zip(gamma, CUBIC_MONOMIALS):
            g = g + coeff * (nu[a] * nu[b] * nu[c])
        out.append(anisotropy[j] * g)
    return out


def _bump_window(r: np.ndarray, r0: float, r1: float) -> np.ndarray:
    """Smooth compactly supported radial window on the annulus [r0, r1].

    The bump exponent b = 8 in exp(-b/(1-t^2)) sets its sharpness: larger b
    steepens the transform tail (~exp(-sqrt(2 b a r))), which keeps the
    lifted field's physical tail below the far-field profile term.
    """
    rc = 0.5 * (r0 + r1)
    half = 0.5 * (r1 - r0)
    t = (r - rc) / half
    inside = np.abs(t) < 1.0
    w = np.zeros_like(r)
    ts = t[inside]
    w[inside] = np.exp(8.0 * (1.0 - 1.0 / (1.0 - ts * ts)))
    return w


def _raw_annulus(spec: ForceSpec, lattice: Lattice, seed: int, alpha: float) -> SpectralVectorField:
    """The annulus window times the seeded odd polynomial, centered in the box,
    on ``lattice``, the dealias cube ``make_force`` passes.

    The |xi|^alpha weight cancels the lift's |xi|^(-alpha), so the lifted
    field carries the clean compactly supported bump: that is what makes
    its physical-space tail drop below the far-field profile term.  The
    window is 0 outside r0 < |xi| < r1, and r1 lies inside the dealias
    sphere, so it is exactly 0 off the dealias cube and on every Nyquist
    row, where the odd polynomial is not Hermitian.  The anisotropy is
    divided by its largest entry: only its ratios matter once ``make_force``
    scales to the amplitude, and a huge entry would overflow the lift's norms.
    """
    window = _bump_window(lattice.kmag, spec.r0, spec.r1) * lattice.power(alpha)
    if not np.any(window > 0):
        raise InvalidAnnulus(
            f"no lattice modes inside the annulus ({spec.r0}, {spec.r1}) "
            f"at resolution {lattice.grid.n}, box {lattice.grid.box_length}"
        )
    anisotropy = np.asarray(spec.anisotropy, dtype=np.float64)
    largest = np.max(np.abs(anisotropy))
    if largest > 0:
        anisotropy = anisotropy / largest
    poly = _odd_polynomial(lattice, np.random.default_rng(seed), anisotropy, spec.r1)
    phase = lattice.shift_phase(lattice.grid.center)
    data = np.stack([1j * window * poly[j] * phase for j in range(3)])
    data[:, 0, 0, 0] = 0.0
    return SpectralVectorField(lattice, data)


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


def _check_scale(coeffs: np.ndarray, factor: float, what: str, lift: np.ndarray | None = None):
    """DegenerateInput unless ``factor`` times the largest of ``coeffs`` leaves their
    L^2 sum over the cube (twice off k_z = 0) a float (an overflow reads inf), and,
    given their ``lift``'s samples, factor times the largest sample has a normal
    square: the lift's and the solution's norms square their samples."""
    f64 = np.finfo(np.float64)
    scale = float(np.max(np.abs(coeffs))) * factor
    if not scale < np.sqrt(f64.max / (2 * coeffs.size)):
        raise DegenerateInput(f"{what} has scale {scale:.3g} (its largest coefficient), "
                              "too large for its L^2 norm to be a float")
    low = np.inf if lift is None else float(np.max(np.abs(lift))) * factor
    if not low >= np.sqrt(f64.tiny):
        raise DegenerateInput(f"{what} has a lift of scale {low:.3g} (its largest sample), "
                              "too small for its square to be a normal float")


def make_force(spec: ForceSpec, grid: Grid, alpha: float) -> SpectralVectorField:
    """Build, project and normalize a force, held on the grid's dealias cube,
    so that the weak-Lorentz size of its lift equals ``spec.amplitude``.

    Anisotropic specs are checked at construction: the lifted moment matrix
    must deviate from scalar by at least 0.05, retrying a few reseeded
    draws before giving up.  Isotropic specs with ``symmetrize`` average
    over the 24 cube rotations, which makes the lifted moment matrix
    scalar exactly.
    """
    limit = grid.dealias_radius
    if not (spec.r1 < limit):
        raise InvalidAnnulus(f"annulus outer radius {spec.r1} must stay inside the dealias "
                             f"sphere of radius {limit:.4g}")
    cube = Lattice.dealias_cube(grid)
    if spec.amplitude == 0.0:
        return zero_spectral(cube)
    anisotropic = not np.allclose(spec.anisotropy, (1.0, 1.0, 1.0))

    attempts = 5 if anisotropic else 1
    for attempt in range(attempts):
        raw = _raw_annulus(spec, cube, spec.seed + attempt, alpha)
        _check_scale(raw.data, 1.0, "the annulus force")
        f = raw
        if spec.symmetrize:
            samples = to_real(raw).data
            acc = np.zeros_like(samples)
            for R in octahedral_rotations():
                acc += rotate_real_field(samples, R)
            # the rotations map the cube onto itself: off it, only FFT round-off drops
            f = SpectralVectorField(cube, _real_to_cube(acc / 24.0, cube))
        f = leray_project(f)
        f.data[:, 0, 0, 0] = 0.0
        if l2_norm(f) <= 1e-12 * l2_norm(raw):
            # only round-off is left, which scaling to the amplitude would turn into noise
            raise DegenerateInput(f"the annulus force from seed {spec.seed + attempt} has no "
                                  "divergence-free part (its projection is round-off)")
        u0 = to_real(lift_force(f, alpha))
        # the normalized deviation is scale-invariant: the unscaled lift decides
        if anisotropic and scalar_deviation(moment_matrix(u0)) < 0.05:
            continue
        factor = spec.amplitude / weak_lorentz_norm(u0, alpha)
        _check_scale(f.data, factor, f"the annulus force scaled to amplitude {spec.amplitude}",
                     u0.data)
        return SpectralVectorField(cube, f.data * factor)
    raise ScalarMomentMatrix("could not realize a usably non-scalar lifted moment matrix "
                             f"from seed {spec.seed} in {attempts} attempts")
