import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_divfree_spectral
from fracns import solver, spectral
from fracns.errors import Diverged, InvalidGrid, NotConverged, ZeroModeUndefined
from fracns.forces import ForceSpec, make_force
from fracns.solver import (
    SolverConfig,
    lift_force,
    recover_pressure,
    rescale_pair,
    residual,
    scaling_check,
    solve_steady,
)
from fracns.spectral import (
    FracParams,
    Grid,
    RealVectorField,
    SpectralVectorField,
    fractional_power,
    l2_norm,
    leray_project,
    projected_advection,
    scalar_to_real,
    spectral_gradient,
    to_real,
    to_spectral,
    zero_spectral,
)


def unprojected_advection(u, dealias=True):
    """div(u (x) u) from all nine products, masked like projected_advection."""
    g = u.grid
    vin = u.data * g.dealias_mask if dealias else u.data
    phys = sfft.irfftn(vin, s=(g.n,) * 3, axes=(1, 2, 3))
    div = np.zeros((3,) + g.spectral_shape, complex)
    for j in range(3):
        for k in range(3):
            w = sfft.rfftn(phys[j] * phys[k])
            div[j] += 1j * g.xi[k] * w
    div *= g.nyquist_free
    if dealias:
        div *= g.dealias_mask
    return div


class TestAdvectionDivergence:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 12, 16]),
        box=st.floats(1.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
        dealias=st.booleans(),
    )
    def test_matches_nine_product_reference(self, n, box, seed, dealias):
        g = Grid(n, box)
        u = random_divfree_spectral(g, seed=seed)
        want = unprojected_advection(u, dealias)
        got = spectral._advection_divergence(u, dealias)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestLiftForce:
    def test_zero_force(self, grid32):
        out = lift_force(zero_spectral(grid32), FracParams(1.5))
        assert np.all(out.data == 0)

    def test_plane_wave_pair_amplitude(self, grid32):
        g = grid32
        spec = ForceSpec(kind="plane_wave_pair", amplitude=1.0, r0=0.7, r1=1.3, seed=2)
        f = make_force(spec, g, alpha=2.0)
        alpha = 2.0
        u0 = lift_force(f, FracParams(alpha))
        nz = np.abs(f.data) > 1e-12 * np.max(np.abs(f.data))
        kmag = np.broadcast_to(g.kmag, f.data.shape)[nz]
        k0 = kmag[0]
        assert np.allclose(kmag, k0)
        ratio = u0.data[nz] / f.data[nz]
        assert np.allclose(ratio, k0**-alpha)

    def test_mean_force_rejected(self, grid32):
        f = zero_spectral(grid32)
        f.data[0, 0, 0, 0] = 1.0
        with pytest.raises(ZeroModeUndefined):
            lift_force(f, FracParams(2.0))

    def test_lift_is_divergence_free(self, grid32):
        g = grid32
        f = make_force(ForceSpec(amplitude=0.1, r1=3.0), g, alpha=1.5)
        u0 = lift_force(f, FracParams(1.5))
        div = sum(g.xi[i] * u0.data[i] for i in range(3))
        assert np.max(np.abs(div)) < 1e-12


class TestSolveSteady:
    def test_zero_force_zero_solution(self, grid32):
        sol = solve_steady(zero_spectral(grid32), SolverConfig(FracParams(1.5)))
        assert l2_norm(sol.velocity) == 0.0
        assert sol.diagnostics.iterations <= 1

    def test_small_force_converges(self, small_solution):
        sol = small_solution["solution"]
        f = small_solution["force"]
        cfg = small_solution["config"]
        d = sol.diagnostics
        assert d.contraction_product < 1.0
        u = sol.velocity
        res = residual(u, f, cfg.params)
        scale = l2_norm(fractional_power(u, cfg.params.alpha)) + l2_norm(leray_project(f))
        assert res < 1e-8 * scale

    def test_geometric_difference_decay(self, small_solution):
        d = small_solution["solution"].diagnostics
        assert len(d.difference_ratios) >= 2
        assert max(d.difference_ratios) <= d.contraction_product + 0.1

    def test_two_ball_condition(self, small_solution):
        d = small_solution["solution"].diagnostics
        assert d.two_ball_ok
        assert d.solution_lorentz_norm <= 2 * d.lifted_force_lorentz_norm * (1 + 1e-6)

    def test_huge_amplitude_diverges(self, grid32):
        spec = ForceSpec(amplitude=0.05 * 1e4, r0=0.8, r1=3.5, seed=3)
        f = make_force(spec, grid32, alpha=2.0)
        with pytest.raises((Diverged, NotConverged)):
            solve_steady(f, SolverConfig(FracParams(2.0)))

    def test_iterates_divergence_and_mean_free(self, small_solution):
        g = small_solution["grid"]
        u = small_solution["solution"].velocity
        div = sum(g.xi[i] * u.data[i] for i in range(3))
        assert np.max(np.abs(div)) < 1e-12
        assert np.all(u.data[:, 0, 0, 0] == 0.0)

    def test_lorentz_norm_not_evaluated_per_iteration(self, grid16, monkeypatch):
        # three weak-Lorentz evaluations (lifted force, solution, B(u, u))
        # however many iterations the solve takes
        calls = []

        def counted(u, alpha, _norm=solver.weak_lorentz_norm):
            calls.append(alpha)
            return _norm(u, alpha)

        f = make_force(ForceSpec(amplitude=0.05, r0=0.8, r1=3.5, seed=3), grid16, alpha=2.0)
        monkeypatch.setattr(solver, "weak_lorentz_norm", counted)
        iterations = set()
        for tol_rel in (1e-3, 1e-12):
            calls.clear()
            sol = solve_steady(f, SolverConfig(FracParams(2.0), tol_rel=tol_rel))
            iterations.add(sol.diagnostics.iterations)
            assert len(calls) == 3
        assert len(iterations) == 2

    def test_residual_reuses_converged_advection(self, grid16, monkeypatch):
        # one projected advection per iteration, plus one for the contraction
        # data that also gives the stored residual
        calls = []

        def counted(v, dealias=True, _adv=spectral.projected_advection):
            calls.append(dealias)
            return _adv(v, dealias)

        f = make_force(ForceSpec(amplitude=0.05, r0=0.8, r1=3.5, seed=3), grid16, alpha=2.0)
        params = FracParams(2.0)
        for namespace in (spectral, solver):
            monkeypatch.setattr(namespace, "projected_advection", counted)
        sol = solve_steady(f, SolverConfig(params))
        assert len(calls) == sol.diagnostics.iterations + 1
        assert sol.diagnostics.residual == residual(sol.velocity, f, params)

    def test_lp_persistence(self, small_solution):
        # finite-lift forces give solutions with ||u||_p <= 2 ||u0||_p
        from fracns.spaces import lp_norm

        g = small_solution["grid"]
        f = small_solution["force"]
        cfg = small_solution["config"]
        u = to_real(small_solution["solution"].velocity).magnitude()
        u0 = to_real(lift_force(f, cfg.params)).magnitude()
        for p in (2.0, 3.0, 6.0):
            assert lp_norm(u, p, g.cell_volume) <= 2.0 * lp_norm(u0, p, g.cell_volume)


class TestResidual:
    def test_zero_zero(self, grid32):
        assert residual(zero_spectral(grid32), zero_spectral(grid32), FracParams(2.0)) == 0.0

    def test_lift_residual_is_pure_advection(self, grid32):
        # linear terms cancel exactly for u = u0
        params = FracParams(1.8)
        f = make_force(ForceSpec(amplitude=0.2, r1=3.0, seed=5), grid32, alpha=1.8)
        u0 = lift_force(f, params)
        res = residual(u0, f, params)
        adv = l2_norm(projected_advection(u0, dealias=params.dealias))
        assert res == pytest.approx(adv, rel=1e-10)


class TestPressure:
    def test_zero_fields(self, grid32):
        p = recover_pressure(zero_spectral(grid32), zero_spectral(grid32), FracParams(2.0))
        assert np.all(p == 0)

    def test_single_pair_pressure_vanishes(self, grid32):
        # xi . a = 0 makes the quadratic self-interaction of one wave pure gradient-free
        g = grid32
        dk = 2 * np.pi / g.box_length
        kidx = np.array([1, 2, 0])
        a = np.array([2.0 - 1j, 1.0 + 0.5j, 0.0])
        k = kidx * dk
        a -= k * np.dot(k, a) / np.dot(k, k)
        data = np.zeros((3,) + g.spectral_shape, complex)
        pos, neg = tuple(kidx % g.n), tuple((-kidx) % g.n)  # both in the k_z = 0 plane
        for c in range(3):
            data[(c,) + pos] = a[c]
            data[(c,) + neg] = np.conj(a[c])
        u = SpectralVectorField(g, data)
        p = recover_pressure(u, zero_spectral(g), FracParams(2.0))
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
        u = to_spectral(RealVectorField(g, data))

        ksum, kdif = k1 + k2, k1 - k2
        p_plus = -2.0 * np.dot(k2, a) * np.dot(k1, b) / np.dot(ksum, ksum)
        p_minus = 2.0 * np.dot(k2, a) * np.dot(k1, np.conj(b)) / np.dot(kdif, kdif)
        phs = ph1 * ph2
        phd = ph1 * np.conj(ph2)
        expect = 2 * np.real(p_plus * phs) + 2 * np.real(p_minus * phd)

        got = scalar_to_real(recover_pressure(u, zero_spectral(g), FracParams(2.0)))
        assert np.max(np.abs(got - expect)) < 1e-10 * np.max(np.abs(expect))

    def test_momentum_budget_closure(self, small_solution):
        # grad P restores exactly the gradient part removed by the projector:
        # || (-Lap)^{a/2} u + div(u x u) + grad P - f || equals the projected residual
        g = small_solution["grid"]
        sol = small_solution["solution"]
        f = small_solution["force"]
        params = small_solution["config"].params

        u = sol.velocity
        div = unprojected_advection(u)
        gradp = spectral_gradient(recover_pressure(u, f, params), g)
        raw = fractional_power(u, params.alpha).data + div + gradp - f.data
        raw[:, 0, 0, 0] = 0.0
        unprojected = l2_norm(SpectralVectorField(g, raw))
        projected = residual(u, f, params)
        assert abs(unprojected - projected) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 12, 16]),
        box=st.floats(1.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
        dealias=st.booleans(),
    )
    def test_gradient_completes_projected_advection(self, n, box, seed, dealias):
        # P div(u (x) u) = div(u (x) u) + grad p, with p the force-free pressure
        g = Grid(n, box)
        u = random_divfree_spectral(g, seed=seed)
        div = unprojected_advection(u, dealias)
        p = recover_pressure(u, zero_spectral(g), FracParams(2.0, dealias))
        got = projected_advection(u, dealias=dealias).data
        err = np.max(np.abs(got - (div + spectral_gradient(p, g))))
        assert err <= 1e-12 * np.max(np.abs(div))

    def test_pressure_mean_free(self, small_solution):
        sol, f = small_solution["solution"], small_solution["force"]
        p = recover_pressure(sol.velocity, f, small_solution["config"].params)
        assert p[0, 0, 0] == 0.0


class TestScalingCheck:
    def test_zero_field(self, grid32):
        out = scaling_check(zero_spectral(grid32), zero_spectral(grid32), FracParams(1.5), 2)
        assert out == 0.0

    def test_linear_only_covariance(self, grid32):
        u = random_divfree_spectral(grid32, seed=31)
        u.data *= grid32.dealias_mask
        f = random_divfree_spectral(grid32, seed=32)
        f.data *= grid32.dealias_mask
        d = scaling_check(u, f, FracParams(1.7), 2, include_bilinear=False)
        assert d < 1e-12

    def test_converged_solution_covariance(self, small_solution):
        sol = small_solution["solution"]
        f = small_solution["force"]
        params = small_solution["config"].params
        assert scaling_check(sol.velocity, f, params, 2) < 1e-9

    def test_lambda_must_divide_n(self, grid32):
        u = random_divfree_spectral(grid32, seed=33)
        with pytest.raises(InvalidGrid):
            scaling_check(u, u, FracParams(1.5), 3)

    def test_rescaled_pair_fields(self, small_solution):
        # spot-check the physical meaning: u_lam samples are lam^(a-1) u samples
        sol, params = small_solution["solution"], small_solution["config"].params
        f = small_solution["force"]
        u2, f2 = rescale_pair(sol.velocity, f, params.alpha, 2)
        s1 = to_real(sol.velocity).data
        s2 = to_real(u2).data
        assert np.allclose(s2, 2 ** (params.alpha - 1.0) * s1)
