import numpy as np
import pytest

from conftest import random_divfree_spectral, realness_defect
from fracns.errors import InvalidTimeStep, NumericalBlowup
from fracns.evolve import (
    evolve_mild,
    kernel_l1_check,
    smoothing_check,
    stable_dt,
    stationarity_check,
)
from fracns.spectral import (
    FracParams,
    SpectralVectorField,
    l2_norm,
    to_real,
    to_spectral,
    zero_spectral,
)


class TestEvolveMild:
    def test_zero_stays_zero(self, grid32):
        traj = evolve_mild(
            zero_spectral(grid32), zero_spectral(grid32), FracParams(1.5), 0.2, 0.05
        )
        for s in traj.states:
            assert np.all(s.data == 0)

    def test_linear_decay_rate(self, grid32):
        # single wave pair at tiny amplitude follows exp(-t |k|^alpha)
        g = grid32
        dk = 2 * np.pi / g.box_length
        kidx = np.array([2, 1, 0])
        k = kidx * dk
        a = np.array([0.0, 0.0, 1e-6 + 0j])  # orthogonal to k
        data = np.zeros((3,) + g.spectral_shape, complex)
        pos, neg = tuple(kidx % g.n), tuple((-kidx) % g.n)  # both in the k_z = 0 plane
        for c in range(3):
            data[(c,) + pos] = a[c] * g.n**3 / 2
            data[(c,) + neg] = np.conj(a[c]) * g.n**3 / 2
        v0 = SpectralVectorField(g, data)
        alpha, T, dt = 1.5, 0.5, 0.01
        traj = evolve_mild(v0, zero_spectral(g), FracParams(alpha), T, dt, store_every=10**9)
        end = traj.states[-1]
        expect = np.exp(-T * np.linalg.norm(k) ** alpha)
        got = l2_norm(end) / l2_norm(v0)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_second_order_in_dt(self, small_solution):
        v0 = small_solution["solution"].velocity.copy()
        v0.data = 0.5 * v0.data
        f = small_solution["force"]
        params = small_solution["config"].params
        ends = []
        for dt in (0.05, 0.025, 0.0125):
            traj = evolve_mild(v0, f, params, 0.5, dt, store_every=10**9)
            ends.append(traj.states[-1].data)
        e1 = np.linalg.norm(ends[0] - ends[1])
        e2 = np.linalg.norm(ends[1] - ends[2])
        assert np.log2(e1 / e2) >= 1.8

    def test_structure_preserved(self, small_solution):
        g = small_solution["grid"]
        f = small_solution["force"]
        params = small_solution["config"].params
        v0 = small_solution["solution"].velocity
        traj = evolve_mild(v0, f, params, 0.2, 0.02)
        end = traj.states[-1]
        assert realness_defect(end) < 1e-12
        div = sum(g.xi[i] * end.data[i] for i in range(3))
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(end.data)) * np.max(g.kmag)

    def test_unforced_energy_nonincreasing(self, grid32):
        v0 = random_divfree_spectral(grid32, seed=40)
        v0.data *= grid32.dealias_mask * 0.01
        traj = evolve_mild(v0, zero_spectral(grid32), FracParams(2.0), 0.3, 0.01, store_every=4)
        energies = [l2_norm(s) for s in traj.states]
        assert all(a >= b - 1e-13 * energies[0] for a, b in zip(energies, energies[1:]))

    def test_dt_guard(self, grid32):
        v0 = random_divfree_spectral(grid32, seed=41)
        bound = stable_dt(v0)
        with pytest.raises(InvalidTimeStep):
            evolve_mild(v0, zero_spectral(grid32), FracParams(2.0), 1.0, 2 * bound)

    def test_blowup_detection(self, grid32):
        from fracns.forces import ForceSpec, make_force

        f = make_force(ForceSpec(amplitude=500.0, r1=3.5, seed=3), grid32, 2.0)
        v0 = zero_spectral(grid32)
        v0.data[:] = 0.0
        with pytest.raises(NumericalBlowup):
            evolve_mild(v0, f, FracParams(2.0), 40.0, 0.05)


class TestStationarity:
    def test_converged_solution_is_fixed_point(self, small_solution):
        drift = stationarity_check(
            small_solution["solution"],
            small_solution["force"],
            small_solution["config"].params,
            T=1.0,
            dt=0.02,
        )
        assert drift < 1e-6

    def test_perturbed_state_relaxes_back(self, small_solution):
        from fracns.spectral import leray_project

        g = small_solution["grid"]
        sol = small_solution["solution"]
        f = small_solution["force"]
        params = small_solution["config"].params
        rng = np.random.default_rng(42)
        noise = leray_project(
            SpectralVectorField(
                g,
                (rng.standard_normal((3,) + g.spectral_shape)
                 + 1j * rng.standard_normal((3,) + g.spectral_shape)) * g.dealias_mask,
            )
        )
        noise = to_spectral(to_real(noise))  # the coefficients of the real part
        assert realness_defect(noise) < 1e-13
        noise.data[:, 0, 0, 0] = 0.0
        amp = 0.01 * l2_norm(sol.velocity) / l2_norm(noise)
        v0 = SpectralVectorField(g, sol.velocity.data + amp * noise.data)

        traj = evolve_mild(v0, f, params, 2.0, 0.02, store_every=10**9)
        u_l2 = l2_norm(sol.velocity)
        d0 = l2_norm(SpectralVectorField(g, v0.data - sol.velocity.data)) / u_l2
        dT = l2_norm(SpectralVectorField(g, traj.states[-1].data - sol.velocity.data)) / u_l2
        assert d0 >= 1e-3
        assert dT < 0.5 * d0

    def test_zero_on_zero(self, grid32):
        from fracns.solver import SolverConfig, solve_steady

        sol = solve_steady(zero_spectral(grid32), SolverConfig(FracParams(1.5)))
        drift = stationarity_check(sol, zero_spectral(grid32), FracParams(1.5), T=0.2, dt=0.05)
        assert drift == 0.0


class TestSmoothing:
    def test_refinement_stability(self):
        from fracns.spectral import Grid

        vals = []
        for n in (32, 64):
            g = Grid(n, 16.0)
            r = g.radius_from(g.center)
            f = np.exp(-(r**2) / (2 * 1.5**2))
            out = smoothing_check(f, 3.0, 2.0, times=np.linspace(0.05, 2.0, 8), grid=g)
            vals.append(out["ratio"])
        assert abs(vals[1] - vals[0]) / vals[1] < 0.2

    def test_linearity_in_amplitude(self, grid32):
        g = grid32
        r = g.radius_from(g.center)
        f = np.exp(-(r**2) / 3.0)
        t = [0.1, 0.5, 1.0]
        s1 = smoothing_check(f, 3.0, 1.5, t, g)["sup_weighted"]
        s2 = smoothing_check(5.0 * f, 3.0, 1.5, t, g)["sup_weighted"]
        assert s2 == pytest.approx(5.0 * s1, rel=1e-12)

    def test_ratio_bounded_over_bumps(self, grid32):
        g = grid32
        rng = np.random.default_rng(43)
        ratios = []
        for _ in range(20):
            c = g.box_length * rng.uniform(0.3, 0.7, 3)
            w = rng.uniform(0.8, 2.5)
            f = np.exp(-(g.radius_from(c) ** 2) / (2 * w**2))
            ratios.append(smoothing_check(f, 3.0, 2.0, [0.1, 0.3, 1.0], g)["ratio"])
        assert np.max(ratios) < 5.0


class TestKernelMasses:
    def test_heat_kernel_mass(self):
        tab = kernel_l1_check(2.0, [0.05, 0.1, 0.2, 0.4], n=96, box=8.0)
        assert np.all(np.abs(tab["p_mass"] - 1.0) < 1e-6)

    def test_columns_positive_finite(self):
        tab = kernel_l1_check(1.5, [0.1, 0.2], n=64, box=8.0)
        for key in ("p_mass", "grad_p_mass_scaled", "K_mass_scaled"):
            assert np.all(np.isfinite(tab[key]))
            assert np.all(tab[key] > 0)
