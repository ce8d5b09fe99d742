import warnings

import numpy as np
import pytest

from conftest import on_cube, on_half_lattice, random_real_field, realness_defect, zero_filled
from fracns.errors import DegenerateInput, InvalidAnnulus
from fracns.forces import (
    ForceSpec,
    _raw_annulus,
    make_force,
    moment_matrix,
    octahedral_rotations,
    rotate_real_field,
    scalar_deviation,
)
from fracns.solver import SolverConfig, lift_force, solve_steady, weak_lorentz_norm
from fracns.spectral import (
    Grid,
    RealVectorField,
    SpectralVectorField,
    _Cube,
    l2_norm,
    leray_project,
    to_real,
)


class TestMomentMatrix:
    def test_zero_field(self, grid16):
        M = moment_matrix(RealVectorField(grid16, np.zeros((3, 16, 16, 16))))
        assert np.all(M == 0)

    def test_single_component_support(self, grid16):
        g = grid16
        w = np.exp(-g.radius_from(g.center) ** 2)
        x1 = g.x_axis.reshape(-1, 1, 1)
        data = np.stack([np.sin(2 * np.pi * x1 / g.box_length) * w, 0 * w, 0 * w])
        M = moment_matrix(RealVectorField(g, data))
        assert M[0, 0] > 0
        off = np.abs(M).sum() - np.abs(M[0, 0])
        assert off < 1e-12 * M[0, 0]

    def test_symmetric_psd(self, grid16):
        for seed in range(100):
            u = random_real_field(grid16, seed=seed)
            M = moment_matrix(u)
            assert np.allclose(M, M.T)
            eig = np.linalg.eigvalsh(M)
            assert np.min(eig) >= -1e-12 * np.trace(M)


class TestScalarDeviation:
    def test_scalar_matrix(self):
        assert scalar_deviation(5.0 * np.eye(3)) == 0.0

    def test_diag123(self):
        got = scalar_deviation(np.diag([1.0, 2.0, 3.0]))
        assert got == pytest.approx(np.sqrt(2.0) / 6.0, rel=1e-12)

    def test_scale_invariance(self):
        M = np.diag([1.0, 2.0, 3.0])
        assert scalar_deviation(7.0 * M) == pytest.approx(scalar_deviation(M), rel=1e-14)

    def test_zero_trace(self):
        assert scalar_deviation(np.zeros((3, 3))) == 0.0


class TestAnnulusForce:
    def test_normalization(self, grid32):
        alpha = 1.5
        spec = ForceSpec(amplitude=0.23, r0=0.8, r1=3.5, seed=1)
        f = make_force(spec, grid32, alpha)
        u0 = to_real(lift_force(f, alpha))
        assert weak_lorentz_norm(u0, alpha) == pytest.approx(0.23, rel=1e-10)

    def test_support_on_annulus(self, grid32):
        spec = ForceSpec(amplitude=0.1, r0=1.0, r1=3.0, seed=2)
        f = on_half_lattice(make_force(spec, grid32, 2.0))
        g = f.grid
        outside = (g.kmag < spec.r0) | (g.kmag > spec.r1)
        assert np.max(np.abs(f.data[:, outside])) == 0.0

    def test_real_mean_free_divergence_free(self, grid32):
        f = make_force(ForceSpec(amplitude=0.1, r1=3.0, seed=4), grid32, 1.5)
        g = f.grid  # the dealias cube
        assert realness_defect(f) < 1e-13
        assert np.all(f.data[:, 0, 0, 0] == 0.0)
        div = sum(g.xi[i] * f.data[i] for i in range(3))
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(f.data)) * np.max(g.kmag)

    @pytest.mark.parametrize(
        "spec", [ForceSpec(amplitude=0.1, r1=3.5, seed=7, symmetrize=True)], ids=["symmetrized"]
    )
    def test_other_kinds_real_mean_free_divergence_free(self, grid32, spec):
        f = make_force(spec, grid32, 1.5)
        g = f.grid  # the dealias cube
        assert realness_defect(f) < 1e-13
        assert np.all(f.data[:, 0, 0, 0] == 0.0)
        div = sum(g.xi[i] * f.data[i] for i in range(3))
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(f.data)) * np.max(g.kmag)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.4])
    def test_held_on_the_cube_with_no_mode_off_it(self, grid32, alpha):
        # the construction on the half lattice, scaled by the same factor, is the
        # cube force zero-filled bit for bit: it has no mode off the cube
        spec = ForceSpec(amplitude=0.1, r1=3.0, seed=4)
        f = make_force(spec, grid32, alpha)
        cube = f.grid
        assert isinstance(cube, _Cube) and cube.grid == grid32
        p = leray_project(_raw_annulus(spec, grid32, spec.seed, alpha))
        p.data[:, 0, 0, 0] = 0.0
        norm = weak_lorentz_norm(to_real(lift_force(on_cube(p), alpha)), alpha)
        assert np.array_equal(zero_filled(f.data, cube), p.data * (spec.amplitude / norm))

    def test_odd_symmetry_about_center(self, grid32):
        # f(center + z) = -f(center - z) kills the dipole of u (x) u
        g = grid32
        f = to_real(make_force(ForceSpec(amplitude=0.1, r1=3.0, seed=5), g, 1.5))
        arr = f.data
        flipped = arr[:, ::-1, ::-1, ::-1]
        flipped = np.roll(flipped, shift=1, axis=1)
        flipped = np.roll(flipped, shift=1, axis=2)
        flipped = np.roll(flipped, shift=1, axis=3)
        # the box center sits at L/2, so center-oddness equals lattice-oddness
        assert np.max(np.abs(arr + flipped)) < 1e-12 * np.max(np.abs(arr))

    def test_annulus_outside_dealias_rejected(self, grid32):
        spec = ForceSpec(amplitude=0.1, r0=1.0, r1=8.0, seed=1)
        with pytest.raises(InvalidAnnulus):
            make_force(spec, grid32, 2.0)

    def test_empty_annulus_rejected(self, grid16):
        # grid16 has dk = 2 pi / 4 ~ 1.57; a sliver below it holds no modes
        spec = ForceSpec(amplitude=0.1, r0=0.05, r1=0.12, seed=1)
        with pytest.raises(InvalidAnnulus):
            make_force(spec, grid16, 2.0)

    def test_anisotropic_moment_ratio(self, grid32):
        spec = ForceSpec(amplitude=0.1, r1=3.5, seed=6, anisotropy=(2.0, 1.0, 1.0))
        f = make_force(spec, grid32, 1.5)
        u0 = to_real(lift_force(f, 1.5))
        M = moment_matrix(u0)
        assert M[0, 0] / M[1, 1] > 1.2
        assert scalar_deviation(M) >= 0.05

    def test_huge_anisotropy_keeps_its_amplitude(self):
        # only the ratios of the weights matter; a 1e300 weight taken as it
        # is overflows the lift's norms, and the force is scaled to 0
        spec = ForceSpec(r1=3.0, anisotropy=(1e300, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = make_force(spec, Grid(16, 8.0), 1.5)
            u0 = to_real(lift_force(f, 1.5))
            assert weak_lorentz_norm(u0, 1.5) == pytest.approx(spec.amplitude, rel=1e-12)
            assert scalar_deviation(moment_matrix(u0)) >= 0.05

    def test_force_projecting_to_round_off_rejected(self):
        # the rotation average of this draw is a gradient field, which the
        # projection reduces to ~1e-19; scaling that to the amplitude gave noise
        spec = ForceSpec(amplitude=0.1, r1=3.0, seed=4, symmetrize=True)
        with pytest.raises(DegenerateInput):
            make_force(spec, Grid(16, 4.0), 1.5)

    def test_isotropic_symmetrized_moment_scalar(self, grid32):
        spec = ForceSpec(amplitude=0.1, r1=3.5, seed=7, symmetrize=True)
        f = make_force(spec, grid32, 1.5)
        u0 = to_real(lift_force(f, 1.5))
        M = moment_matrix(u0)
        off = np.max(np.abs(M - np.diag(np.diag(M))))
        assert off < 1e-10 * np.trace(M)
        assert np.max(np.abs(np.diag(M) - np.trace(M) / 3)) < 1e-10 * np.trace(M)


class TestRotations:
    def test_group_size_and_orthogonality(self):
        mats = octahedral_rotations()
        assert len(mats) == 24
        for R in mats:
            assert round(np.linalg.det(R)) == 1
            assert np.array_equal(R @ R.T, np.eye(3, dtype=np.int64))

    def test_rotation_is_exact_on_lattice(self, grid16):
        g = grid16
        v = random_real_field(g, seed=8)
        R = octahedral_rotations()[7]
        rot = rotate_real_field(v.data, R)
        # rotating back with the inverse recovers the field exactly
        back = rotate_real_field(rot, R.T)
        assert np.array_equal(back, v.data)

    def test_rotation_preserves_l2(self, grid16):
        g = grid16
        v = random_real_field(g, seed=9)
        for R in octahedral_rotations()[:6]:
            rot = rotate_real_field(v.data, R)
            assert np.sqrt(np.sum(rot**2)) == pytest.approx(np.sqrt(np.sum(v.data**2)), rel=1e-12)


class TestPerturbationOrdering:
    def test_quadratic_and_linear_slopes(self, grid32):
        # ||u - u0||_2 = O(eta^2) while ||u0||_2 = Theta(eta)
        alpha = 1.5
        cfg = SolverConfig(alpha)
        etas, d2, d1 = [], [], []
        for divisor in (1, 2, 4):
            eta = 0.08 / divisor
            spec = ForceSpec(amplitude=eta, r1=3.5, seed=10)
            f = make_force(spec, grid32, alpha)
            sol = solve_steady(f, cfg)
            u0 = lift_force(f, cfg.alpha)
            diff = SpectralVectorField(u0.grid, sol.velocity.data - u0.data)
            etas.append(eta)
            d2.append(l2_norm(diff))
            d1.append(l2_norm(u0))
        s2 = np.polyfit(np.log(etas), np.log(d2), 1)[0]
        s1 = np.polyfit(np.log(etas), np.log(d1), 1)[0]
        assert abs(s2 - 2.0) < 0.2
        assert abs(s1 - 1.0) < 1e-6
