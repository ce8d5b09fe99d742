import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    on_cube,
    random_divfree_spectral,
    realness_defect,
    spectral_gradient,
    symmetric_parts,
)
from fracns import spectral
from fracns.errors import InvalidTimeStep, NumericalBlowup
from fracns.evolve import evolve_mild, kernel_l1_check, smoothing_check, stable_dt
from fracns.spectral import (
    Grid,
    Lattice,
    SpectralVectorField,
    l2_norm,
    scalar_to_real,
    to_real,
    zero_spectral,
)


class TestEvolveMild:
    def test_zero_stays_zero(self, grid32):
        cube = Lattice.dealias_cube(grid32)
        end, drift = evolve_mild(zero_spectral(cube), zero_spectral(cube), 1.5, 0.2, 0.05)
        assert np.all(end.data == 0)
        assert drift == [0.0] * 5

    def test_linear_decay_rate(self, grid32):
        # single wave pair at tiny amplitude follows exp(-t |k|^alpha)
        g = grid32
        dk = 2 * np.pi / g.box_length
        kidx = np.array([2, 1, 0])
        k = kidx * dk
        a = np.array([0.0, 0.0, 1e-6 + 0j])  # orthogonal to k
        data = np.zeros((3, g.n, g.n, g.n // 2 + 1), complex)
        pos, neg = tuple(kidx % g.n), tuple((-kidx) % g.n)  # both in the k_z = 0 plane
        for c in range(3):
            data[(c,) + pos] = a[c] * g.n**3 / 2
            data[(c,) + neg] = np.conj(a[c]) * g.n**3 / 2
        v0 = on_cube(SpectralVectorField(Lattice.half(g), data))
        alpha, T, dt = 1.5, 0.5, 0.01
        end, _ = evolve_mild(v0, zero_spectral(v0.grid), alpha, T, dt)
        expect = np.exp(-T * np.linalg.norm(k) ** alpha)
        got = l2_norm(end) / l2_norm(v0)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_second_order_in_dt(self, small_solution):
        u = small_solution["solution"].velocity
        v0 = SpectralVectorField(u.grid, 0.5 * u.data)
        f = small_solution["force"]
        alpha = small_solution["config"].alpha
        ends = []
        for dt in (0.05, 0.025, 0.0125):
            end, _ = evolve_mild(v0, f, alpha, 0.5, dt)
            ends.append(end.data)
        e1 = np.linalg.norm(ends[0] - ends[1])
        e2 = np.linalg.norm(ends[1] - ends[2])
        assert np.log2(e1 / e2) >= 1.8

    def test_structure_preserved(self, small_solution):
        f = small_solution["force"]
        alpha = small_solution["config"].alpha
        v0 = small_solution["solution"].velocity
        end, _ = evolve_mild(v0, f, alpha, 0.2, 0.02)
        assert realness_defect(end) < 1e-12
        g = end.grid  # the solution's dealias cube
        div = sum(g.xi[i] * end.data[i] for i in range(3))
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(end.data)) * np.max(g.kmag)

    def test_unforced_energy_nonincreasing(self, grid32):
        v = on_cube(random_divfree_spectral(grid32, seed=40))
        v.data *= v.grid.dealias_mask * 0.01
        energies = [l2_norm(v)]
        for _ in range(8):  # 4-step segments
            v, _ = evolve_mild(v, zero_spectral(v.grid), 2.0, 0.04, 0.01)
            energies.append(l2_norm(v))
        assert all(a >= b - 1e-13 * energies[0] for a, b in zip(energies, energies[1:]))

    def test_dt_guard(self, grid32):
        v0 = on_cube(random_divfree_spectral(grid32, seed=41))
        bound = stable_dt(v0)
        with pytest.raises(InvalidTimeStep):
            evolve_mild(v0, zero_spectral(v0.grid), 2.0, 1.0, 2 * bound)

    def test_blowup_detection(self, grid32):
        from fracns.forces import ForceSpec, make_force

        f = make_force(ForceSpec(amplitude=500.0, r1=3.5, seed=3), grid32, 2.0)
        v0 = zero_spectral(f.grid)
        v0.data[:] = 0.0
        with pytest.raises(NumericalBlowup):
            evolve_mild(v0, f, 2.0, 40.0, 0.05)


class TestStationarity:
    def test_converged_solution_is_fixed_point(self, small_solution):
        _, drift = evolve_mild(
            small_solution["solution"].velocity,
            small_solution["force"],
            small_solution["config"].alpha,
            1.0,
            0.02,
        )
        assert max(drift) < 1e-6

    def test_perturbed_state_relaxes_back(self, small_solution):
        from fracns.spectral import leray_project

        sol = small_solution["solution"]
        f = small_solution["force"]
        alpha = small_solution["config"].alpha
        cube = sol.velocity.grid  # the noise is drawn on the solution's cube
        rng = np.random.default_rng(42)
        noise = leray_project(
            SpectralVectorField(
                cube,
                (rng.standard_normal((3,) + cube.spectral_shape)
                 + 1j * rng.standard_normal((3,) + cube.spectral_shape)) * cube.dealias_mask,
            )
        )
        # the coefficients of the real part
        noise = SpectralVectorField(cube, spectral._real_to_cube(to_real(noise).data, cube))
        assert realness_defect(noise) < 1e-13
        noise.data[:, 0, 0, 0] = 0.0
        amp = 0.01 * l2_norm(sol.velocity) / l2_norm(noise)
        v0 = SpectralVectorField(cube, sol.velocity.data + amp * noise.data)

        end, _ = evolve_mild(v0, f, alpha, 2.0, 0.02)
        u_l2 = l2_norm(sol.velocity)
        d0 = l2_norm(SpectralVectorField(cube, v0.data - sol.velocity.data)) / u_l2
        dT = l2_norm(SpectralVectorField(cube, end.data - sol.velocity.data)) / u_l2
        assert d0 >= 1e-3
        assert dT < 0.5 * d0

    def test_zero_on_zero(self, grid32):
        from fracns.solver import SolverConfig, solve_steady

        sol = solve_steady(zero_spectral(Lattice.dealias_cube(grid32)), SolverConfig(1.5))
        _, drift = evolve_mild(sol.velocity, zero_spectral(sol.velocity.grid), 1.5, 0.2, 0.05)
        assert max(drift) == 0.0


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

    @pytest.mark.parametrize("n", [32, 64])
    def test_gradient_mass_matches_direct_transform(self, n):
        # the gradient column is read off the kernel tensor's parts; here it is
        # transformed directly from 1j xi m, Nyquist rows zeroed
        alpha, times = 1.5, (0.1, 0.3)
        tab = kernel_l1_check(alpha, times, n=n, box=8.0)
        g = Grid(n, 8.0)
        half = Lattice.half(g)
        for t, got in zip(times, tab["grad_p_mass_scaled"]):
            grads = scalar_to_real(spectral_gradient(np.exp(-t * half.power(alpha)), half))
            grads /= g.cell_volume
            want = t ** (1.0 / alpha) * g.cell_volume * np.sum(np.sqrt(np.sum(grads**2, 0)))
            assert abs(got - want) <= 1e-14 * want

    def test_tensor_mass_matches_assembled_tensor(self):
        # the K column takes |K|_F^2 = |C|_F^2 + |grad p|^2; here K is assembled entry by entry
        alpha, t, n = 1.5, 0.2, 16
        tab = kernel_l1_check(alpha, [t], n=n, box=8.0)
        g = Grid(n, 8.0)
        half = Lattice.half(g)
        C = symmetric_parts(g, np.exp(-t * half.power(alpha)) * half.nyquist_free)
        K = C - np.einsum("ij,llk...->ijk...", np.eye(3), C)
        want = t ** (1.0 / alpha) * g.cell_volume * np.sum(np.sqrt(np.sum(K**2, axis=(0, 1, 2))))
        assert abs(tab["K_mass_scaled"][0] - want) <= 1e-14 * want

    def test_octant_transforms_per_time(self, monkeypatch):
        # no transform of the full lattice: p is three DCT-I stages, and each of
        # the four parity groups of the tensor's parts one stacked stage per axis,
        # each stage rffts of extensions of length n
        n = 16
        calls = {"other": 0, "dct": 0, "dst": 0}  # other: every transform but rfft
        lengths = set()

        def counting(f):
            def counted(*args, **kwargs):
                calls["other"] += 1
                return f(*args, **kwargs)

            return counted

        def stage(x, axis, odd, *args, _f=spectral._dct1_or_dst1):
            calls["dst" if odd else "dct"] += 1
            return _f(x, axis, odd, *args)

        def rfft(a, *args, _f=np.fft.rfft, **kwargs):
            lengths.add(np.shape(a)[kwargs["axis"]])
            return _f(a, *args, **kwargs)

        for name in ("irfftn", "ifftn", "fftn", "rfftn", "irfft", "ifft", "fft"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        monkeypatch.setattr(np.fft, "rfft", rfft)
        monkeypatch.setattr(spectral, "_dct1_or_dst1", stage)
        kernel_l1_check(2.0, (0.1, 0.2, 0.4), n=n, box=4.0)
        assert calls == {"other": 0, "dct": 3 * 9, "dst": 3 * 6}
        assert lengths == {n}

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 16).map(lambda m: 2 * m),
        box=st.floats(2.0, 40.0),
        alpha=st.floats(1.0, 4.0, exclude_min=True, exclude_max=True),
        t=st.floats(1e-300, 1.0),  # t**(1/alpha) stays a normal float
    )
    def test_masses_match_full_lattice_transforms(self, n, box, alpha, t):
        # the octant sums against the irfftn path: p from scalar_to_real, the
        # tensor assembled from kernel_tensor's parts, both summed over the lattice
        tab = kernel_l1_check(alpha, [t], n=n, box=box)
        g = Grid(n, box)
        half = Lattice.half(g)
        mult = np.exp(-t * half.power(alpha))
        p = scalar_to_real(mult) / g.cell_volume
        C = symmetric_parts(g, mult * half.nyquist_free)
        grad = np.einsum("llk...->k...", C)
        K = C - np.einsum("ij,k...->ijk...", np.eye(3), grad)
        scale = t ** (1.0 / alpha) * g.cell_volume
        want = {
            "p_mass": g.cell_volume * np.sum(np.abs(p)),
            "grad_p_mass_scaled": scale * np.sum(np.sqrt(np.sum(grad**2, axis=0))),
            "K_mass_scaled": scale * np.sum(np.sqrt(np.sum(K**2, axis=(0, 1, 2)))),
        }
        for key, w in want.items():
            assert abs(tab[key][0] - w) <= 1e-13 * w, key

    def test_columns_positive_finite(self):
        tab = kernel_l1_check(1.5, [0.1, 0.2], n=64, box=8.0)
        for key in ("p_mass", "grad_p_mass_scaled", "K_mass_scaled"):
            assert np.all(np.isfinite(tab[key]))
            assert np.all(tab[key] > 0)
