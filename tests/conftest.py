import numpy as np
import pytest

from fracns.forces import ForceSpec, make_force
from fracns.solver import SolverConfig, solve_steady
from fracns.spectral import FracParams, Grid, RealVectorField, to_spectral


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


def realness_defect(field):
    """Max |rfftn(irfftn(v)) - v| relative to the largest coefficient: 0 when
    the half-lattice coefficients are those of a real field."""
    import scipy.fft as sfft

    n = field.grid.n
    back = sfft.rfftn(sfft.irfftn(field.data, s=(n, n, n), axes=(1, 2, 3)), axes=(1, 2, 3))
    scale = np.max(np.abs(field.data))
    return float(np.max(np.abs(back - field.data)) / scale) if scale > 0 else 0.0


def random_divfree_spectral(grid, seed=0, smooth=True, mean_free=True):
    from fracns.spectral import leray_project

    v = leray_project(to_spectral(random_real_field(grid, seed, smooth)))
    if mean_free:
        v.data[:, 0, 0, 0] = 0.0
    return v


@pytest.fixture(scope="session")
def small_solution(grid32):
    """A converged steady solve on the 32^3 grid, shared across tests."""
    spec = ForceSpec(kind="annulus_ring", amplitude=0.05, r0=0.8, r1=3.5, seed=3)
    f = make_force(spec, grid32, alpha=2.0)
    cfg = SolverConfig(FracParams(2.0))
    sol = solve_steady(f, cfg)
    return {"force": f, "solution": sol, "config": cfg, "grid": grid32, "spec": spec}
