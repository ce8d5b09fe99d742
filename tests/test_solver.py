import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    bilinear_on_lattice,
    dealias_mask,
    half_lattice_l2,
    on_cube,
    on_half_lattice,
    random_divfree_spectral,
    spectral_gradient,
    to_spectral,
    zero_filled,
)
from fracns import solver, spectral
from fracns.asymptotics import radial_profile
from fracns.errors import (
    Diverged,
    InvalidAlpha,
    InvalidGrid,
    NotConverged,
    ZeroModeUndefined,
)
from fracns.forces import ForceSpec, make_force
from fracns.solver import (
    SolverConfig,
    contraction_metrics,
    lift_force,
    recover_pressure,
    rescale_pair,
    residual,
    scaling_check,
    solve_steady,
)
from fracns.spectral import (
    Grid,
    Lattice,
    RealVectorField,
    SpectralVectorField,
    fractional_power,
    l2_norm,
    leray_project,
    projected_advection,
    to_real,
    zero_spectral,
)


def unprojected_advection(u):
    """div(u (x) u) from all nine products, masked like projected_advection."""
    g = u.grid
    phys = sfft.irfftn(u.data * dealias_mask(g.grid), s=(g.grid.n,) * 3, axes=(1, 2, 3))
    div = np.zeros((3,) + g.spectral_shape, complex)
    for j in range(3):
        for k in range(3):
            w = sfft.rfftn(phys[j] * phys[k])
            div[j] += 1j * g.xi[k] * w
    div *= g.nyquist_free
    div *= dealias_mask(g.grid)
    return div


class TestAdvectionDivergence:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 12, 14, 16, 18, 24]),
        box=st.floats(1.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_nine_product_reference(self, n, box, seed):
        g = Grid(n, box)
        u = random_divfree_spectral(g, seed=seed)
        want = unprojected_advection(u)
        held = on_cube(u)
        d = spectral._advection_divergence(held)
        assert d.grid is held.grid
        got = on_half_lattice(d).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


HALF_SIZES = st.integers(4, 12).map(lambda m: 2 * m)  # even n in [8, 24]
BOXES = st.floats(1.0, 40.0)
LIFT_ALPHAS = st.floats(0.5, 4.0)


class TestLiftForce:
    def test_zero_force(self, grid32):
        out = lift_force(zero_spectral(Lattice.half(grid32)), 1.5)
        assert np.all(out.data == 0)

    def test_mean_force_rejected(self, grid32):
        f = zero_spectral(Lattice.half(grid32))
        f.data[0, 0, 0, 0] = 1.0
        with pytest.raises(ZeroModeUndefined):
            lift_force(f, 2.0)

    @staticmethod
    def _mean_free_force(n, box, seed):
        g = Grid(n, box)
        f = to_spectral(RealVectorField(g, np.random.default_rng(seed).standard_normal((3, n, n, n))))
        f.data[:, 0, 0, 0] = 0.0
        return f.grid, f

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, alpha=LIFT_ALPHAS, seed=st.integers(0, 2**16))
    def test_lift_is_power_times_projection(self, n, box, alpha, seed):
        g, f = self._mean_free_force(n, box, seed)
        assert np.array_equal(lift_force(f, alpha).data, g.power(-alpha) * leray_project(f).data)

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, alpha=LIFT_ALPHAS, seed=st.integers(0, 2**16))
    def test_random_lift_is_divergence_free(self, n, box, alpha, seed):
        g, f = self._mean_free_force(n, box, seed)
        u = lift_force(f, alpha).data
        div = g.xi[0] * u[0] + g.xi[1] * u[1] + g.xi[2] * u[2]
        assert np.max(np.abs(div)) <= 1e-12 * np.max(g.kmag) * np.max(np.abs(u))

    def test_lift_is_divergence_free(self, grid32):
        f = make_force(ForceSpec(amplitude=0.1, r1=3.0), grid32, alpha=1.5)
        u0 = lift_force(f, 1.5)
        g = u0.grid  # the dealias cube
        div = sum(g.xi[i] * u0.data[i] for i in range(3))
        assert np.max(np.abs(div)) < 1e-12


class TestSolverConfig:
    @pytest.mark.parametrize("alpha", [1.0, 2.5, float("nan")])
    def test_alpha_outside_solve_range_rejected(self, alpha):
        with pytest.raises(InvalidAlpha):
            SolverConfig(alpha)

    def test_alpha_inside_solve_range_accepted(self):
        assert SolverConfig(1.5).alpha == 1.5

    @pytest.mark.parametrize("max_iter", [True, 0, 2.5])
    def test_max_iter_not_a_positive_integer_rejected(self, max_iter):
        with pytest.raises(ValueError):
            SolverConfig(1.5, max_iter=max_iter)


@pytest.fixture(scope="module")
def small_metrics(small_solution):
    s = small_solution
    return contraction_metrics(s["solution"], s["force"], s["config"].alpha)


class TestSolveSteady:
    def test_zero_force_zero_solution(self, grid32):
        sol = solve_steady(zero_spectral(Lattice.dealias_cube(grid32)), SolverConfig(1.5))
        assert l2_norm(sol.velocity) == 0.0
        assert sol.diagnostics.iterations <= 1

    def test_zero_force_metrics(self, grid32):
        f = zero_spectral(Lattice.dealias_cube(grid32))
        m = contraction_metrics(solve_steady(f, SolverConfig(1.5)), f, 1.5)
        assert m == {"lifted_force_lorentz_norm": 0.0, "empirical_bilinear_constant": 0.0,
                     "contraction_product": 0.0, "solution_lorentz_norm": 0.0,
                     "two_ball_ok": True, "residual": 0.0}

    def test_small_force_converges(self, small_solution, small_metrics):
        f = small_solution["force"]
        cfg = small_solution["config"]
        assert small_metrics["contraction_product"] < 1.0
        u = small_solution["solution"].velocity
        res = residual(u, f, cfg.alpha)
        scale = l2_norm(fractional_power(u, cfg.alpha)) + l2_norm(leray_project(f))
        assert res < 1e-8 * scale

    def test_geometric_difference_decay(self, small_solution, small_metrics):
        d = small_solution["solution"].diagnostics
        assert len(d.difference_ratios) >= 2
        assert max(d.difference_ratios) <= small_metrics["contraction_product"] + 0.1

    def test_two_ball_condition(self, small_metrics):
        m = small_metrics
        assert m["two_ball_ok"]
        assert m["solution_lorentz_norm"] <= 2 * m["lifted_force_lorentz_norm"] * (1 + 1e-6)

    @settings(max_examples=20, deadline=None)
    @given(
        n=HALF_SIZES,
        box=BOXES,
        alpha=st.floats(1.0, 2.5, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**16),
    )
    def test_matches_half_lattice_picard(self, n, box, alpha, seed):
        # the loop held on the dealias cube against u <- u0 + B(u), B zero-filled,
        # on the half lattice, with the half lattice's Parseval norms: the same
        # iterates bit for bit, so the same iteration count, and step norms equal
        # up to summation order
        g = Grid(n, box)
        f = random_divfree_spectral(g, seed=seed)
        f.data *= dealias_mask(g)
        u0 = lift_force(f, alpha)
        h = f.grid
        b_norm = half_lattice_l2(SpectralVectorField(h, bilinear_on_lattice(u0, alpha)))
        assume(b_norm > 0.0)
        f.data *= 0.1 * half_lattice_l2(u0) / b_norm  # B is quadratic: a contraction by ~1/10
        config = SolverConfig(alpha)
        u = u0 = lift_force(f, alpha)
        steps = []
        for _ in range(config.max_iter):
            new = SpectralVectorField(h, bilinear_on_lattice(u, alpha) + u0.data)
            steps.append(half_lattice_l2(SpectralVectorField(h, new.data - u.data)))
            u = new
            if steps[-1] <= config.tol_rel * half_lattice_l2(new):
                break
        sol = solve_steady(on_cube(f), config)
        assert np.array_equal(on_half_lattice(sol.velocity).data, u.data)
        assert sol.diagnostics.iterations == len(steps)
        np.testing.assert_allclose(sol.diagnostics.residual_history, steps, rtol=1e-13, atol=0)

    def test_huge_amplitude_diverges(self, grid32):
        spec = ForceSpec(amplitude=0.05 * 1e4, r0=0.8, r1=3.5, seed=3)
        f = make_force(spec, grid32, alpha=2.0)
        with pytest.raises((Diverged, NotConverged)):
            solve_steady(f, SolverConfig(2.0))

    def test_iterates_divergence_and_mean_free(self, small_solution):
        u = small_solution["solution"].velocity
        g = u.grid  # the dealias cube
        div = sum(g.xi[i] * u.data[i] for i in range(3))
        assert np.max(np.abs(div)) < 1e-12
        assert np.all(u.data[:, 0, 0, 0] == 0.0)

    def test_lorentz_norm_not_evaluated_per_iteration(self, grid16, monkeypatch):
        # no weak-Lorentz evaluation in the solve however many iterations it
        # takes; three (lifted force, solution, B(u, u)) in contraction_metrics
        calls = []

        def counted(u, alpha, _norm=solver.weak_lorentz_norm):
            calls.append(alpha)
            return _norm(u, alpha)

        f = make_force(ForceSpec(amplitude=0.05, r0=0.8, r1=3.5, seed=3), grid16, alpha=2.0)
        monkeypatch.setattr(solver, "weak_lorentz_norm", counted)
        iterations = set()
        for tol_rel in (1e-3, 1e-12):
            calls.clear()
            sol = solve_steady(f, SolverConfig(2.0, tol_rel=tol_rel))
            iterations.add(sol.diagnostics.iterations)
            assert len(calls) == 0
            contraction_metrics(sol, f, 2.0)
            assert len(calls) == 3
        assert len(iterations) == 2

    def test_residual_reuses_converged_advection(self, grid16, monkeypatch):
        # one advection divergence per iteration in the solve, and one in
        # contraction_metrics for B(u, u) that also gives the residual
        calls = []

        def counted(v, *args, _adv=spectral._advection_divergence):
            calls.append(v)
            return _adv(v, *args)

        f = make_force(ForceSpec(amplitude=0.05, r0=0.8, r1=3.5, seed=3), grid16, alpha=2.0)
        alpha = 2.0
        for namespace in (spectral, solver):
            monkeypatch.setattr(namespace, "_advection_divergence", counted)
        sol = solve_steady(f, SolverConfig(alpha))
        assert len(calls) == sol.diagnostics.iterations
        calls.clear()
        m = contraction_metrics(sol, f, alpha)
        assert len(calls) == 1
        assert m["residual"] == residual(sol.velocity, f, alpha)

    def test_lp_persistence(self, small_solution):
        # finite-lift forces give solutions with ||u||_p <= 2 ||u0||_p
        from fracns.spaces import lp_norm

        g = small_solution["grid"]
        f = small_solution["force"]
        cfg = small_solution["config"]
        u = to_real(small_solution["solution"].velocity).magnitude()
        u0 = to_real(lift_force(f, cfg.alpha)).magnitude()
        for p in (2.0, 3.0, 6.0):
            assert lp_norm(u, p, g.cell_volume) <= 2.0 * lp_norm(u0, p, g.cell_volume)


class TestAllocation:
    @pytest.mark.parametrize("n", [32, 64])
    def test_decay_pipeline_peak_below_80_bytes_per_site(self, n):
        # the force, its lift, the iterates and the solution are held on the
        # dealias cube; a half-lattice copy of each took the traced peak of
        # this pipeline to ~150 bytes per grid site, and the pruned inverse of
        # three components at once and an n^3 product array to ~85; it reads
        # 75-79 on one to eight slabs.  tracemalloc counts numpy's allocations
        # exactly, so the peak repeats run to run.
        grid = Grid(n, n / 4)  # h = 1/4, as in the decay run, so its annulus fits
        tracemalloc.start()
        try:
            f = make_force(ForceSpec(), grid, 1.5)
            sol = solve_steady(f, SolverConfig(1.5))
            contraction_metrics(sol, f, 1.5)
            assert sol.samples.grid is grid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * n**3, peak / n**3

    def test_map_scratch_holds_one_component_half_lattice(self):
        # the three components' samples, one component's half lattice, which the
        # pruned pair takes each component and each product through in turn, and
        # work of a cube component's size: a three-component half lattice took
        # the solve's map to the run's peak
        n = 64
        cube = Lattice.dealias_cube(Grid(n, n / 4))
        held = [a.nbytes for a in vars(spectral._MapScratch(cube)).values()]
        component = np.empty(cube.spectral_shape, dtype=complex).nbytes
        assert sum(held) <= 3 * n**3 * 8 + n * n * (n // 2 + 1) * 16 + 3 * component

    def test_decay_pipeline_forms_no_half_lattice_array(self, monkeypatch):
        # a half lattice's kmag and nyquist_free are n x n x (n/2+1) each, formed
        # on first read; the pipeline forms no half lattice, and its Grid holds no array of one
        half, made = Lattice.half, []
        monkeypatch.setattr(Lattice, "half", classmethod(lambda cls, g: made.append(g) or half(g)))
        grid = Grid(32, 8.0)
        f = make_force(ForceSpec(), grid, 1.5)
        sol = solve_steady(f, SolverConfig(1.5))
        contraction_metrics(sol, f, 1.5)
        radial_profile(sol.samples.magnitude(), grid)
        assert made == []
        assert [k for k, v in vars(grid).items() if np.size(v) > grid.n] == []
        lattice = half(grid)
        assert {"kmag", "nyquist_free"}.isdisjoint(vars(lattice))
        lattice.power(1.0)
        assert "kmag" in vars(lattice)

    def test_grid_allocates_no_half_lattice_array(self):
        tracemalloc.start()
        try:
            Grid(128, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak


class TestResidual:
    def test_zero_zero(self, grid32):
        cube = Lattice.dealias_cube(grid32)
        assert residual(zero_spectral(cube), zero_spectral(cube), 2.0) == 0.0

    def test_lift_residual_is_pure_advection(self, grid32):
        # linear terms cancel exactly for u = u0
        alpha = 1.8
        f = make_force(ForceSpec(amplitude=0.2, r1=3.0, seed=5), grid32, alpha=1.8)
        u0 = lift_force(f, alpha)
        res = residual(u0, f, alpha)
        adv = l2_norm(projected_advection(u0))
        assert res == pytest.approx(adv, rel=1e-10)

    def test_scaling_keeps_the_bits(self, small_solution):
        # the residual field is divided by a power of two before its sum of
        # squares and the norm multiplied back: both are exact
        f, alpha = small_solution["force"], small_solution["config"].alpha
        u = small_solution["solution"].velocity
        r = solver._residual_field(*solver._residual_terms(u, f, alpha))
        r[:, 0, 0, 0] = 0.0
        assert residual(u, f, alpha) == l2_norm(SpectralVectorField(u.grid, r))

    @pytest.mark.parametrize("box", [1e90, 1e100])
    def test_no_underflow_at_large_boxes(self, box):
        # unscaled, the squares of the residual's coefficients (~1e-188 at
        # L = 1e90) underflow and the norm reads exactly 0.0.  With the annulus
        # at 0.6 to 3.0 lattice steps and the force at a fixed scale-invariant
        # size, the problem is the one at L = 32 rescaled: f scales as
        # L^(1 - 2 alpha), so its L^2 norm and the residual's as L^(-1/2)
        res = {}
        for L in (32.0, box):
            spec = ForceSpec(r0=0.6 * 2 * np.pi / L, r1=3.0 * 2 * np.pi / L)
            f = make_force(spec, Grid(16, L), 1.5)
            res[L] = residual(solve_steady(f, SolverConfig(1.5)).velocity, f, 1.5)
        assert res[box] == pytest.approx(res[32.0] * (box / 32.0) ** -0.5, rel=1e-4, abs=0)

    def test_subnormal_field_scaled_without_overflow(self):
        # at amplitude 1e-300 the residual field's largest part is subnormal, and
        # so is its scale; a complex division by it overflows through 1/scale.
        # Multiplying the parts by 2^600 is exact, and so is the norm's scaling.
        # make_force rejects a force this small, so it is scaled down here
        f = make_force(ForceSpec(amplitude=1.0, r0=0.6, r1=2.0), Grid(16, 8.0), 1.5)
        f = SpectralVectorField(f.grid, f.data * 1e-300)
        u = solve_steady(f, SolverConfig(1.5)).velocity
        r = solver._residual_field(*solver._residual_terms(u, f, 1.5))
        r[:, 0, 0, 0] = 0.0
        assert 0 < np.max(np.abs(r.view(np.float64))) < np.finfo(np.float64).tiny
        r.view(np.float64)[...] *= 2.0**600
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = residual(u, f, 1.5)
        assert res == l2_norm(SpectralVectorField(u.grid, r)) / 2.0**600 > 0


class TestPressure:
    def test_zero_fields(self, grid32):
        cube = Lattice.dealias_cube(grid32)
        p = recover_pressure(zero_spectral(cube), zero_spectral(cube))
        assert np.all(p == 0)

    def test_single_pair_pressure_vanishes(self, grid32):
        # xi . a = 0 makes the quadratic self-interaction of one wave pure gradient-free
        g = grid32
        dk = 2 * np.pi / g.box_length
        kidx = np.array([1, 2, 0])
        a = np.array([2.0 - 1j, 1.0 + 0.5j, 0.0])
        k = kidx * dk
        a -= k * np.dot(k, a) / np.dot(k, k)
        data = np.zeros((3, g.n, g.n, g.n // 2 + 1), complex)
        pos, neg = tuple(kidx % g.n), tuple((-kidx) % g.n)  # both in the k_z = 0 plane
        for c in range(3):
            data[(c,) + pos] = a[c]
            data[(c,) + neg] = np.conj(a[c])
        u = on_cube(SpectralVectorField(Lattice.half(g), data))
        p = recover_pressure(u, zero_spectral(u.grid))
        assert np.max(np.abs(p)) < 1e-12 * np.max(np.abs(u.data))

    def test_two_wave_closed_form(self, grid32):
        # hand computation of the quadratic interaction of two wave pairs:
        # u = 2 Re[a e^{i k1.x}] + 2 Re[b e^{i k2.x}] with k1.a = k2.b = 0 gives
        #   P = 2 Re[P+ e^{i(k1+k2).x}] + 2 Re[P- e^{i(k1-k2).x}],
        #   P+ = -2 (k2.a)(k1.b)/|k1+k2|^2,  P- = +2 (k2.a)(k1.conj(b))/|k1-k2|^2
        g = grid32
        dk = 2 * np.pi / g.box_length
        k1i, k2i = np.array([1, 0, 0]), np.array([0, 2, 1])
        k1, k2 = k1i * dk, k2i * dk
        rng = np.random.default_rng(11)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a -= k1 * np.dot(k1, a) / np.dot(k1, k1)
        b -= k2 * np.dot(k2, b) / np.dot(k2, k2)

        ax = [g.x_axis.reshape(-1, 1, 1), g.x_axis.reshape(1, -1, 1),
              g.x_axis.reshape(1, 1, -1)]
        ph1 = np.exp(1j * (k1[0] * ax[0] + k1[1] * ax[1] + k1[2] * ax[2]))
        ph2 = np.exp(1j * (k2[0] * ax[0] + k2[1] * ax[1] + k2[2] * ax[2]))
        data = np.stack(
            [2 * np.real(a[c] * ph1) + 2 * np.real(b[c] * ph2) for c in range(3)]
        )
        u = on_cube(to_spectral(RealVectorField(g, data)))

        ksum, kdif = k1 + k2, k1 - k2
        p_plus = -2.0 * np.dot(k2, a) * np.dot(k1, b) / np.dot(ksum, ksum)
        p_minus = 2.0 * np.dot(k2, a) * np.dot(k1, np.conj(b)) / np.dot(kdif, kdif)
        phs = ph1 * ph2
        phd = ph1 * np.conj(ph2)
        expect = 2 * np.real(p_plus * phs) + 2 * np.real(p_minus * phd)

        got = spectral._cube_to_real(recover_pressure(u, zero_spectral(u.grid)), u.grid)
        assert np.max(np.abs(got - expect)) < 1e-10 * np.max(np.abs(expect))

    def test_momentum_budget_closure(self, small_solution):
        # grad P restores exactly the gradient part removed by the projector:
        # || (-Lap)^{a/2} u + div(u x u) + grad P - f || equals the projected residual
        g = small_solution["grid"]
        sol = small_solution["solution"]
        f = small_solution["force"]
        alpha = small_solution["config"].alpha

        u = on_half_lattice(sol.velocity)
        div = unprojected_advection(u)
        p = zero_filled(recover_pressure(sol.velocity, f), f.grid)
        gradp = spectral_gradient(p, u.grid)
        raw = fractional_power(u, alpha).data + div + gradp - on_half_lattice(f).data
        raw[:, 0, 0, 0] = 0.0
        unprojected = half_lattice_l2(SpectralVectorField(u.grid, raw))
        projected = residual(sol.velocity, f, alpha)
        assert abs(unprojected - projected) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 12, 16]),
        box=st.floats(1.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_completes_projected_advection(self, n, box, seed):
        # P div(u (x) u) = div(u (x) u) + grad p, with p the force-free pressure
        g = Grid(n, box)
        u = random_divfree_spectral(g, seed=seed)
        div = unprojected_advection(u)
        held = on_cube(u)
        p = zero_filled(recover_pressure(held, zero_spectral(held.grid)), held.grid)
        got = on_half_lattice(projected_advection(held)).data
        err = np.max(np.abs(got - (div + spectral_gradient(p, u.grid))))
        assert err <= 1e-12 * np.max(np.abs(div))

    def test_pressure_mean_free(self, small_solution):
        sol, f = small_solution["solution"], small_solution["force"]
        p = recover_pressure(sol.velocity, f)
        assert p[0, 0, 0] == 0.0


class TestScalingCheck:
    def test_zero_field(self, grid32):
        cube = Lattice.dealias_cube(grid32)
        out = scaling_check(zero_spectral(cube), zero_spectral(cube), 1.5, 2)
        assert out == 0.0

    def test_linear_only_covariance(self, grid32):
        u = on_cube(random_divfree_spectral(grid32, seed=31))
        u.data *= u.grid.dealias_mask
        f = on_cube(random_divfree_spectral(grid32, seed=32))
        f.data *= f.grid.dealias_mask
        d = scaling_check(u, f, 1.7, 2)  # the bilinear term included
        assert d < 1e-12

    def test_converged_solution_covariance(self, small_solution):
        sol = small_solution["solution"]
        f = small_solution["force"]
        alpha = small_solution["config"].alpha
        assert scaling_check(sol.velocity, f, alpha, 2) < 1e-9

    def test_lambda_must_divide_n(self, grid32):
        u = random_divfree_spectral(grid32, seed=33)
        with pytest.raises(InvalidGrid):
            scaling_check(u, u, 1.5, 3)

    def test_rescaled_pair_fields(self, small_solution):
        # spot-check the physical meaning: u_lam samples are lam^(a-1) u samples
        sol, alpha = small_solution["solution"], small_solution["config"].alpha
        f = small_solution["force"]
        u2, f2 = rescale_pair(sol.velocity, f, alpha, 2)
        s1 = to_real(sol.velocity).data
        s2 = to_real(u2).data
        assert np.allclose(s2, 2 ** (alpha - 1.0) * s1)
