import numpy as np
import pytest

from fracns.forces import ForceSpec, make_force
from fracns.solver import SolverConfig, solve_steady
from fracns.spectral import Grid, RealVectorField, SpectralVectorField, _Cube, kernel_tensor, to_spectral


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
        import scipy.fft as sfft

        hat = sfft.rfftn(data, axes=(1, 2, 3))
        hat *= np.exp(-grid.k2 / (2.0 * (4.0 * 2 * np.pi / grid.box_length) ** 2))
        data = sfft.irfftn(hat, s=data.shape[1:], axes=(1, 2, 3))
    return RealVectorField(grid, data)


def on_half_lattice(v):
    """v read on its grid's half lattice: a field held on a dealias cube
    zero-filled there, a half-lattice field as it is."""
    if isinstance(v.grid, _Cube):
        return SpectralVectorField(v.grid.grid, v.grid.scatter(v.data))
    return v


def realness_defect(field):
    """Max |rfftn(irfftn(v)) - v| relative to the largest coefficient: 0 when
    the coefficients, read on the half lattice, are those of a real field."""
    import scipy.fft as sfft

    field = on_half_lattice(field)
    n = field.grid.n
    back = sfft.rfftn(sfft.irfftn(field.data, s=(n, n, n), axes=(1, 2, 3)), axes=(1, 2, 3))
    scale = np.max(np.abs(field.data))
    return float(np.max(np.abs(back - field.data)) / scale) if scale > 0 else 0.0


def l2_inner(a, b):
    """The discrete L^2 inner product h^3 sum a . b of two fields on one lattice,
    through Parseval."""
    g = a.grid
    return float(g.cell_volume * g.lattice_sum(a.data, b.data) / g.n**3)


def spectral_gradient(coeffs, grid):
    """Gradient of a scalar spectral field, Nyquist rows zeroed."""
    out = np.empty((3,) + coeffs.shape, dtype=np.complex128)
    for i in range(3):
        out[i] = 1j * grid.xi[i] * coeffs
    out *= grid.nyquist_free
    return out


def random_divfree_spectral(grid, seed=0, smooth=True, mean_free=True):
    from fracns.spectral import leray_project

    v = leray_project(to_spectral(random_real_field(grid, seed, smooth)))
    if mean_free:
        v.data[:, 0, 0, 0] = 0.0
    return v


def bilinear_on_lattice(v, alpha):
    """apply_bilinear of v's part on the dealias cube, read on the half lattice."""
    from fracns.spectral import _Cube, apply_bilinear

    cube = _Cube(v.grid)
    out = apply_bilinear(cube.restrict(v), alpha)
    assert out.grid is cube
    return cube.scatter(out.data)


@pytest.fixture(scope="session")
def small_solution(grid32):
    """A converged steady solve on the 32^3 grid, shared across tests."""
    spec = ForceSpec(kind="annulus_ring", amplitude=0.05, r0=0.8, r1=3.5, seed=3)
    f = make_force(spec, grid32, alpha=2.0)
    cfg = SolverConfig(2.0)
    sol = solve_steady(f, cfg)
    return {"force": f, "solution": sol, "config": cfg, "grid": grid32, "spec": spec}


def symmetric_parts(grid, m):
    """The fully symmetric tensor C_ijk, shape (3, 3, 3, n, n, n), filled from the
    ten parts ``kernel_tensor`` yields; the kernel tensor is C_ijk - delta_ij sum_l C_llk."""
    n = grid.n
    C = np.empty((3, 3, 3, n, n, n))
    for entries, part in kernel_tensor(grid, m):
        for i, j, k in entries:
            C[i, j, k] = part
    return C
