import tracemalloc

import numpy as np
import pytest

from conftest import nelder_mead_bound, sphere_frobenius, symmetric_parts, whole_range_profile
from fracns import asymptotics, forces, solver, spectral
from fracns.asymptotics import (
    KERNEL_SHELL,
    build_kernel,
    bv_polynomial,
    bv_scalar_test,
    fibonacci_sphere,
    fit_decay_exponent,
    kernel_shell_sites,
    nonexistence_certificate,
    profile_decomposition,
    radial_profile,
)
from fracns.errors import EmptyShell, InvalidAlpha, InvalidGrid, InvalidRadius
from fracns.spectral import Grid, Lattice, RealVectorField


def oseen_type_oracle(dirs):
    """Closed-form unit-sphere kernel for classical dissipation (alpha = 2):
    -d_k G * delta_ij - d_i d_j d_k N, G = 1/(4 pi |x|), N = -|x|/(8 pi)."""
    n = len(dirs)
    out = np.zeros((n, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                d_ij = float(i == j)
                d_jk = float(j == k)
                d_ik = float(i == k)
                out[:, i, j, k] = (
                    d_ij * dirs[:, k]
                    - d_jk * dirs[:, i]
                    - d_ik * dirs[:, j]
                    + 3 * dirs[:, i] * dirs[:, j] * dirs[:, k]
                ) / (8 * np.pi)
    return out


@pytest.fixture(scope="module")
def kernel15():
    return build_kernel(1.5, refinement_grid_n=96)


class TestKernel:
    def test_alpha_range(self):
        with pytest.raises(InvalidAlpha):
            build_kernel(0.9)
        with pytest.raises(InvalidAlpha):
            build_kernel(4.0)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 2.4])
    def test_fit_symmetric_and_trace_free(self, alpha):
        # the samples are C_ijk - delta_ij sum_l C_llk and the fit is linear in them
        c = build_kernel(alpha, refinement_grid_n=64).coeffs
        scale = np.max(np.abs(c))
        assert np.max(np.abs(c - c.transpose(1, 0, 2, 3))) <= 1e-13 * scale
        assert np.max(np.abs(np.einsum("ijjm->im", c))) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    def test_shell_sites_match_grid_radius(self, n):
        r = Grid(n, 1.0).radius_from(np.zeros(3))
        lo, hi = KERNEL_SHELL
        assert np.array_equal(kernel_shell_sites(n), np.argwhere((r >= lo) & (r <= hi)))

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_underdetermined_fit_rejected(self, n):
        # the shell holds 6, 18 and 20 sites for the fit's 23 unknowns
        with pytest.raises(InvalidGrid):
            build_kernel(1.5, refinement_grid_n=n)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("alpha", [1.2, 2.0, 3.5])
    def test_samples_are_irfftn_parts(self, n, alpha, monkeypatch):
        # the fitted samples against irfftn of each part's Hermitian-part symbol
        # on the whole lattice, read at the shell sites: the damped symbol is not
        # 0 on the Nyquist rows, where the xyz part keeps lines with two axes there
        fitted = []

        def lstsq(design, samples, *args, _f=np.linalg.lstsq, **kwargs):
            fitted.append(samples)
            return _f(design, samples, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        build_kernel(alpha, refinement_grid_n=n)
        grid = Grid(n, 1.0)
        half = Lattice.half(grid)
        m = half.power(-alpha) * np.exp(-0.5 * (1.4 * grid.spacing) ** 2 * half.k2())
        C = symmetric_parts(grid, m)
        K = C - np.einsum("ij,llk...->ijk...", np.eye(3), C)
        want = K[(...,) + tuple(kernel_shell_sites(n).T)].reshape(27, -1).T
        assert np.max(np.abs(fitted[0] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_parts_synthesized_on_the_shell_rows_alone(self):
        # build_kernel forms its symbol on the octant and each part's stages
        # there, kept to the shell's rows: its traced peak is 4.6 half-lattice
        # float arrays at 64^3, and 5.2 with the parts on the whole octant
        n = 64
        build_kernel(2.0, refinement_grid_n=n)  # plans the transforms
        tracemalloc.start()
        try:
            build_kernel(2.0, refinement_grid_n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * n * n * (n // 2 + 1), peak

    def test_homogeneity_exact(self, kernel15):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3))
        m1 = kernel15.evaluate(2.0 * x)
        m0 = kernel15.evaluate(x)
        scale = np.max(np.abs(m0))
        assert np.max(np.abs(m1 - 2.0 ** (1.5 - 4.0) * m0)) < 1e-12 * scale

    def test_classical_closed_form(self):
        kernel = build_kernel(2.0, refinement_grid_n=96)
        dirs = fibonacci_sphere(500)
        got = kernel.evaluate_directions(dirs)
        want = oseen_type_oracle(dirs)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err < 0.02

    def test_bound_constant_holds(self, kernel15):
        ker = kernel15
        sphere_frob = np.sqrt(np.sum(ker.evaluate_directions(fibonacci_sphere(2000)) ** 2,
                                     axis=(1, 2, 3)))
        assert np.max(sphere_frob) <= ker.bound_constant * (1 + 1e-12)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 3))
        r = np.linalg.norm(x, axis=1)
        vals = ker.evaluate(x)
        frob = np.sqrt(np.sum(vals**2, axis=(1, 2, 3)))
        assert np.all(frob <= ker.bound_constant * r ** (1.5 - 4.0) * (1 + 1e-12))

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 2.4])
    def test_bound_constant_matches_nelder_mead(self, alpha):
        # Newton's method finds the maxima Nelder-Mead finds, and the bound is
        # never below a scanned point
        kernel = build_kernel(alpha, refinement_grid_n=64)
        scan = sphere_frobenius(kernel, fibonacci_sphere(20000))
        assert np.all(scan <= kernel.bound_constant)
        assert kernel.bound_constant == pytest.approx(nelder_mead_bound(kernel), rel=1e-13, abs=0)

    def test_bound_constant_formed_on_first_read(self, small_solution):
        # the sphere search runs only for the reports that print the bound
        kernel = build_kernel(2.0, refinement_grid_n=64)
        nonexistence_certificate(small_solution["solution"], kernel)
        assert "bound_constant" not in vars(kernel)
        c = kernel.bound_constant
        assert "bound_constant" in vars(kernel) and kernel.bound_constant == c > 0

    def test_bound_constant_refinement_stable(self):
        c1 = build_kernel(1.5, refinement_grid_n=64).bound_constant
        c2 = build_kernel(1.5, refinement_grid_n=128).bound_constant
        assert abs(c2 - c1) / c2 < 0.10

    def test_scalar_moment_annihilates_profile(self, kernel15):
        dirs = fibonacci_sphere(300)
        prof = kernel15.contract_directions(dirs, 4.2 * np.eye(3))
        assert np.max(np.abs(prof)) < 1e-9 * kernel15.bound_constant

    def test_nonscalar_moment_gives_floor(self, kernel15):
        dirs = fibonacci_sphere(300)
        M = np.diag([2.0, 1.0, 1.0])
        prof = np.linalg.norm(kernel15.contract_directions(dirs, M), axis=1)
        frac = np.mean(prof > 0.01 * np.max(prof))
        assert frac > 0.01


class TestDecayFit:
    def test_synthetic_smooth_profile(self):
        radii = np.linspace(40.0, 120.0, 24)
        values = 1.0 / (1.0 + radii) ** 2.5
        prof = fit_decay_exponent(whole_range_profile(radii, values))
        assert prof.fitted_exponent == pytest.approx(2.5, abs=0.05)

    def test_needs_eight_bins(self):
        radii = np.linspace(1.0, 2.0, 5)
        with pytest.raises(EmptyShell):
            fit_decay_exponent(whole_range_profile(radii, radii**-2))

    def test_nonpositive_values_rejected(self):
        radii = np.linspace(1.0, 2.0, 10)
        vals = radii**-2
        vals[3] = 0.0
        with pytest.raises(EmptyShell):
            fit_decay_exponent(whole_range_profile(radii, vals))

    @pytest.mark.parametrize("n, box, window", [
        (32, 8.0, None), (32, 8.0, (0.4, 2.0)), (48, 12.0, (0.3, 3.0)), (48, 12.0, (1.1, 1.7)),
    ], ids=["default", "quarter_box", "quarter_box_48", "narrow"])
    def test_sub_box_profile_is_the_whole_grid_one(self, n, box, window):
        # the bins read from the sub-box within hi of the center hold the whole
        # grid's members in its C order, so every mean is the same sum
        g = Grid(n, box)
        values = np.random.default_rng(n).standard_normal((n, n, n))
        lo, hi = window or (0.1 * box, 0.22 * box)
        r, v = g.radius_from(g.center).ravel(), np.abs(values).ravel()
        edges = np.linspace(lo, hi, 13)
        members = [(r >= a) & (r < b) for a, b in zip(edges[:-1], edges[1:])]
        got = radial_profile(values, g, window=window)
        want = [(np.exp(np.mean(np.log(r[m]))), np.mean(v[m])) for m in members if m.any()]
        assert np.array_equal(got.bin_centers, [c for c, _ in want])
        assert np.array_equal(got.bin_values, [m for _, m in want])

    def test_window_inside_quarter_box(self, grid32):
        with pytest.raises(InvalidRadius):
            radial_profile(np.ones((32, 32, 32)), grid32, window=(1.0, 10.0))

    @pytest.mark.parametrize("window", [(0.0, 2.0), (-1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
    def test_window_starts_past_the_center_and_is_ordered(self, window):
        # the center sample r = 0 would enter a bin center's log as log(0)
        with pytest.raises(InvalidRadius, match="^window must be 0 < lo < hi"):
            radial_profile(np.ones((16, 16, 16)), Grid(16, 8.0), window=window, nbins=8)


class TestProfileDecomposition:
    def test_trivial_remainder(self, grid32):
        g = grid32
        rng = np.random.default_rng(3)
        u = RealVectorField(g, rng.standard_normal((3, 32, 32, 32)))
        kernel = build_kernel(1.5, refinement_grid_n=64)
        prof = profile_decomposition(u, u, np.zeros((3, 3)), kernel)
        assert np.all(prof.bin_values == 0.0)


class TestBrandoleseVigneron:
    def test_identity_annihilated(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            xi = rng.standard_normal(3)
            i = rng.integers(0, 3)
            q = bv_polynomial(np.eye(3), xi, i)
            assert abs(q) < 1e-12 * np.linalg.norm(xi) ** 3

    def test_scaled_identity_annihilated(self):
        xi = np.array([0.3, -1.2, 0.5])
        for i in range(3):
            assert abs(bv_polynomial(5.0 * np.eye(3), xi, i)) < 1e-11

    def test_diag123_detected(self):
        A = np.diag([1.0, 2.0, 3.0])
        t = np.linspace(-1, 1, 10)
        found = 0.0
        for x in t:
            for y in t:
                for z in t:
                    xi = np.array([x, y, z])
                    if np.linalg.norm(xi) < 1e-9:
                        continue
                    found = max(found, abs(bv_polynomial(A, xi, 0)))
        assert found > 1e-6

    def test_scalar_test_basic(self):
        assert bv_scalar_test(3.7 * np.eye(3))
        assert not bv_scalar_test(np.diag([1.0, 2.0, 3.0]))

    def test_equivalence_with_direct_test(self):
        rng = np.random.default_rng(5)
        agree = 0
        for trial in range(1000):
            if trial % 3 == 0:
                A = float(rng.standard_normal()) * np.eye(3)
            elif trial % 3 == 1:
                B = rng.standard_normal((3, 3))
                A = B + B.T
            else:
                B = rng.standard_normal((3, 3)) * 1e-8
                A = np.eye(3) + B + B.T
            direct = (
                np.linalg.norm(A - (np.trace(A) / 3.0) * np.eye(3))
                < 1e-9 * max(np.linalg.norm(A), 1e-300)
                or np.linalg.norm(A) == 0.0
            )
            agree += bv_scalar_test(A) == direct
        assert agree == 1000


class TestCertificate:
    def test_takes_no_transform(self, small_solution, kernel15, monkeypatch):
        # the moment matrix is the cube's Parseval sum of the velocity: no samples
        # (any kernel serves to count the certificate's transforms)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spectral, "_cube_to_real",
                            counted("_cube_to_real", spectral._cube_to_real))
        for module in (spectral, solver, forces, asymptotics):
            monkeypatch.setattr(module, "to_real", counted("to_real", spectral.to_real),
                                raising=False)
        cert = nonexistence_certificate(small_solution["solution"], kernel15)
        assert calls == [] and cert["deviation"] > 0

    def test_zero_solution_no_certificate(self, grid32, kernel15):
        from fracns.solver import SolverConfig, solve_steady
        from fracns.spectral import Lattice, zero_spectral

        sol = solve_steady(zero_spectral(Lattice.dealias_cube(grid32)), SolverConfig(1.5))
        cert = nonexistence_certificate(sol, kernel15)
        assert cert["deviation"] == 0.0
        assert cert["leading_lower_bound"] == 0.0
        assert not cert["affirmative"]
