import itertools

import numpy as np
import pytest
import scipy.fft as sfft

from fracns.asymptotics import RadialProfile, fibonacci_sphere
from fracns.forces import ForceSpec, make_force
from fracns.solver import SolverConfig, solve_steady
from fracns.spectral import (
    CUBIC_MONOMIALS,
    Grid,
    Lattice,
    RealVectorField,
    SpectralVectorField,
    parseval_l2,
)


@pytest.fixture(scope="session")
def grid32():
    return Grid(32, 16.0)


@pytest.fixture(scope="session")
def grid16():
    return Grid(16, 4.0)


def random_real_field(grid, seed=0, smooth=False):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((3, grid.n, grid.n, grid.n))
    if smooth:
        hat = sfft.rfftn(data, axes=(1, 2, 3))
        hat *= np.exp(-Lattice.half(grid).k2() / (2.0 * (4.0 * 2 * np.pi / grid.box_length) ** 2))
        data = sfft.irfftn(hat, s=data.shape[1:], axes=(1, 2, 3))
    return RealVectorField(grid, data)


def k_int(n):
    """The integer wavenumbers of an axis of n points, in DFT order."""
    return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)


def dealias_mask(grid):
    """The 2/3-rule mask on a Grid's half lattice (n, n, n/2+1): |xi| within the
    dealias radius, up to a relative 1e-12."""
    return Lattice.half(grid).kmag <= grid.dealias_radius * (1.0 + 1e-12)


def on_nyquist(grid):
    """One boolean array per axis, broadcast over a Grid's half lattice: True on
    that axis's Nyquist row k = -n/2."""
    n, k = grid.n, k_int(grid.n)
    rows = [k.reshape(n, 1, 1), k.reshape(1, n, 1), k[: n // 2 + 1].reshape(1, 1, n // 2 + 1)]
    return [r == -(n // 2) for r in rows]


def to_spectral(u):
    """The half-lattice coefficients of real samples ``u``, as ``rfftn`` takes them."""
    return SpectralVectorField(Lattice.half(u.grid), sfft.rfftn(u.data, axes=(1, 2, 3)))


def cube_rows(cube):
    """The grid rows of the cube's kept k = 0, 1, .. and .., -1, in the cube's order."""
    return np.r_[tuple(g for _, g in cube.row_runs(slice(0, cube.spectral_shape[0])))]


def gather(a, cube):
    """The part on ``cube`` of a half-lattice array (..., n, n, n/2+1)."""
    rows = cube_rows(cube)
    return a[..., rows[:, None], rows, : cube.spectral_shape[2]]


def on_cube(v):
    """The part of a half-lattice field on its grid's dealias cube, held there."""
    cube = Lattice.dealias_cube(v.grid.grid)
    return SpectralVectorField(cube, gather(v.data, cube))


def zero_filled(a, cube):
    """Coefficients (..., cube.spectral_shape) held on ``cube``, zero-filled to
    its grid's half lattice (..., n, n, n/2+1)."""
    n = cube.grid.n
    out = np.zeros(a.shape[:-3] + (n, n, n // 2 + 1), dtype=a.dtype)
    rows = cube_rows(cube)
    out[..., rows[:, None], rows, : cube.spectral_shape[2]] = a
    return out


def staged_cube_to_real(coeffs, cube):
    """Real samples (..., n, n, n) of coefficients (..., cube.spectral_shape) held
    on ``cube``, by whole one-axis stages on the zero-filled half lattice in the
    pruned inverse's order: ifft along y, ifft along x, irfft along z.  (irfftn
    takes its stages in another order, which moves the last bits.)"""
    b = sfft.ifft(zero_filled(coeffs, cube), axis=-2)
    b = sfft.ifft(b, axis=-3)
    return sfft.irfft(b, n=cube.grid.n, axis=-1)


def on_half_lattice(v):
    """A field held on a dealias cube, zero-filled to its grid's half lattice."""
    return SpectralVectorField(Lattice.half(v.grid.grid), zero_filled(v.data, v.grid))


def realness_defect(field):
    """Max |rfftn(irfftn(v)) - v| relative to the largest coefficient of a field
    held on a dealias cube: 0 when its coefficients, zero-filled to the half
    lattice, are those of a real field."""
    field = on_half_lattice(field)
    n = field.grid.grid.n
    back = sfft.rfftn(sfft.irfftn(field.data, s=(n, n, n), axes=(1, 2, 3)), axes=(1, 2, 3))
    scale = np.max(np.abs(field.data))
    return float(np.max(np.abs(back - field.data)) / scale) if scale > 0 else 0.0


def half_lattice_sum(a, b):
    """Re sum over the full lattice of conj(a) b for half-lattice a, b: each
    interior k_z plane also stands for its conjugate mirror, so it counts twice."""
    return (2.0 * np.vdot(a, b).real - np.vdot(a[..., 0], b[..., 0]).real
            - np.vdot(a[..., -1], b[..., -1]).real)


def half_lattice_l2(v):
    """The discrete L^2 norm of a half-lattice field, through Parseval."""
    return parseval_l2(v.grid, half_lattice_sum(v.data, v.data))


def l2_inner(a, b):
    """The discrete L^2 inner product h^3 sum a . b of two fields held on one
    dealias cube, through Parseval."""
    g = a.grid
    return float(g.grid.cell_volume * g.lattice_sum(a.data, b.data) / g.grid.n**3)


def sample_moment(u):
    """M_jk = h^3 sum over cells of u_j u_k for real samples ``u``, a GEMM over
    them: the reference for ``forces.moment_matrix``'s Parseval sum."""
    if not np.all(np.isfinite(u.data)):
        raise ValueError("non-finite samples in moment matrix input")
    flat = u.data.reshape(3, -1)
    return u.grid.cell_volume * (flat @ flat.T)


def spectral_gradient(coeffs, lattice):
    """Gradient of a scalar spectral field on ``lattice``, Nyquist rows zeroed."""
    out = np.empty((3,) + coeffs.shape, dtype=np.complex128)
    for i in range(3):
        out[i] = 1j * lattice.xi[i] * coeffs
    out *= lattice.nyquist_free
    return out


def random_divfree_spectral(grid, seed=0, smooth=True, mean_free=True):
    from fracns.spectral import leray_project

    v = leray_project(to_spectral(random_real_field(grid, seed, smooth)))
    if mean_free:
        v.data[:, 0, 0, 0] = 0.0
    return v


def bilinear_on_lattice(v, alpha):
    """apply_bilinear of a half-lattice v's part on the dealias cube, read on the
    half lattice."""
    from fracns.spectral import apply_bilinear

    return on_half_lattice(apply_bilinear(on_cube(v), alpha)).data


def whole_range_profile(radii, values):
    """A radial profile whose fit window is its whole radius range."""
    radii = np.asarray(radii, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    return RadialProfile(radii, values, (float(radii.min()), float(radii.max())))


def sphere_frobenius(kernel, dirs):
    """|m|_F of a HomogeneousKernel at unit vectors (p, 3)."""
    return np.sqrt(np.sum(kernel.evaluate_directions(dirs) ** 2, axis=(1, 2, 3)))


def nelder_mead_bound(kernel):
    """The oracle for ``HomogeneousKernel.bound_constant``: the largest |m|_F over
    20000 Fibonacci points and 8 Nelder-Mead runs from the best of them, each
    maximizing |m|_F at the direction of v over v in R^3."""
    import scipy.optimize

    def at(v):
        return float(sphere_frobenius(kernel, (v / np.sqrt(np.sum(v * v))).reshape(1, 3))[0])

    cand = fibonacci_sphere(20000)
    fc = sphere_frobenius(kernel, cand)
    best = float(fc.max())
    for i in np.argsort(fc)[::-1][:8]:
        res = scipy.optimize.minimize(lambda v: -at(v), cand[i], method="Nelder-Mead",
                                      options={"xatol": 1e-14, "fatol": 1e-15, "maxiter": 2000})
        best = max(best, at(res.x))
    return best


@pytest.fixture(scope="session")
def small_solution(grid32):
    """A converged steady solve on the 32^3 grid, shared across tests."""
    spec = ForceSpec(kind="annulus_ring", amplitude=0.05, r0=0.8, r1=3.5, seed=3)
    f = make_force(spec, grid32, alpha=2.0)
    cfg = SolverConfig(2.0)
    sol = solve_steady(f, cfg)
    return {"force": f, "solution": sol, "config": cfg, "grid": grid32, "spec": spec}


def symmetric_parts(grid, m):
    """The fully symmetric tensor C_ijk, shape (3, 3, 3, n, n, n), of the ten parts
    irfftn(1j xi_a xi_b xi_c m/|xi|^2) / cell_volume for ``m`` on a Grid's half
    lattice, each ``np.fft.irfftn`` of its symbol's Hermitian part: the symbol
    zeroed where an odd number of the monomial's factors sit on their Nyquist
    rows (where -xi_c is xi_c).  The kernel tensor is C_ijk - delta_ij sum_l C_llk."""
    n, half, nyq = grid.n, Lattice.half(grid), on_nyquist(grid)
    m_k2 = m * half.power(-2.0)
    C = np.empty((3, 3, 3, n, n, n))
    for a, b, c in CUBIC_MONOMIALS:
        sym = 1j * half.xi[a] * half.xi[b] * half.xi[c] * m_k2 * ~(nyq[a] ^ nyq[b] ^ nyq[c])
        sym[0, 0, 0] = 0.0
        part = np.fft.irfftn(sym, s=(n, n, n), axes=(0, 1, 2)) / grid.cell_volume
        for i, j, k in set(itertools.permutations((a, b, c))):
            C[i, j, k] = part
    return C


def rotate_by_indices(data: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Samples of the rotated vector field x -> R v(R^{-1} x), rotated about
    the lattice origin, by modular index arithmetic: the reference for
    ``forces.rotate_real_field``.

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
