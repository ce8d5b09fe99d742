import itertools
import warnings

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_divfree_spectral, random_real_field, realness_defect
from fracns.errors import InvalidGrid, NumericalBlowup, ZeroModeUndefined
from fracns.spectral import (
    FracParams,
    Grid,
    RealVectorField,
    SpectralVectorField,
    apply_bilinear,
    bilinear_symbol,
    fractional_power,
    kernel_tensor,
    l2_inner,
    l2_norm,
    leray_project,
    projected_advection,
    semigroup_multiply,
    to_real,
    to_spectral,
)


class TestGrid:
    def test_spacing(self):
        g = Grid(8, 2 * np.pi)
        assert g.spacing == pytest.approx(np.pi / 4)
        assert g.spacing * g.n == pytest.approx(g.box_length)

    def test_axis_frequencies(self):
        g = Grid(8, 2 * np.pi)
        assert sorted(g.k_int.tolist()) == list(range(-4, 4))
        # standard DFT ordering: 0..3 then -4..-1
        assert g.k_int.tolist() == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidGrid):
            Grid(7, 1.0)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidGrid):
            Grid(6, 1.0)

    def test_negation_closure(self):
        g = Grid(8, 2 * np.pi)
        ks = set(g.k_int.tolist())
        for k in ks:
            if k != -4:  # Nyquist row is self-conjugate
                assert -k in ks


GRID_SIZES = st.sampled_from([8, 12, 16])
BOXES = st.floats(1.0, 40.0)
EXPONENTS = st.floats(-4.0, 4.0)


class TestPower:
    @settings(max_examples=20, deadline=None)
    @given(n=GRID_SIZES, box=BOXES, beta=EXPONENTS)
    def test_zero_at_zero_mode(self, n, box, beta):
        g = Grid(n, box)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by zero on the way
            p = g.power(beta)
        assert p[0, 0, 0] == 0.0
        assert np.all(np.isfinite(p))

    @settings(max_examples=20, deadline=None)
    @given(n=GRID_SIZES, box=BOXES, a=EXPONENTS, b=EXPONENTS)
    def test_product_adds_exponents(self, n, box, a, b):
        g = Grid(n, box)
        off = g.k2 > 0
        prod, want = (g.power(a) * g.power(b))[off], g.power(a + b)[off]
        assert np.max(np.abs(prod - want) / want) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(n=GRID_SIZES, box=BOXES)
    def test_minus_two_inverts_k2(self, n, box):
        g = Grid(n, box)
        off = g.k2 > 0
        assert np.max(np.abs((g.power(-2.0) * g.k2)[off] - 1.0)) <= 1e-12


HALF_SIZES = st.integers(4, 12).map(lambda m: 2 * m)  # even n in [8, 24]


class TestHalfLattice:
    """Symbols and norms on the (n, n, n/2+1) rfftn lattice."""

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, beta=EXPONENTS)
    def test_symbols_are_full_symbols_sliced(self, n, box, beta):
        g = Grid(n, box)
        half = (Ellipsis, slice(0, n // 2 + 1))
        full = np.meshgrid(*(g.xi_axis,) * 3, indexing="ij")
        kmag = np.sqrt(full[0] ** 2 + full[1] ** 2 + full[2] ** 2)
        for c in range(3):
            assert np.array_equal(np.broadcast_to(g.xi[c], g.spectral_shape), full[c][half])
        power = np.where(kmag == 0.0, 1.0, kmag) ** beta
        power[0, 0, 0] = 0.0
        assert np.array_equal(g.power(beta), power[half])
        dealias = kmag <= (2.0 / 3.0) * (np.pi * n / g.box_length) * (1.0 + 1e-12)
        assert np.array_equal(g.dealias_mask, dealias[half])
        k_int = np.stack(np.meshgrid(*(g.k_int,) * 3, indexing="ij"))
        nyquist = np.any(k_int == -n // 2, axis=0)
        assert np.array_equal(np.broadcast_to(g.nyquist_free, g.spectral_shape), ~nyquist[half])

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, seed=st.integers(0, 2**16))
    def test_parseval_on_half_lattice(self, n, box, seed):
        # interior k_z planes weigh 2, the k_z = 0 and Nyquist planes 1
        g = Grid(n, box)
        u, w = random_real_field(g, seed=seed), random_real_field(g, seed=seed + 1)
        assert abs(l2_norm(to_spectral(u)) - l2_norm(u)) <= 1e-13 * l2_norm(u)
        inner = g.cell_volume * np.sum(u.data * w.data)
        got = l2_inner(to_spectral(u), to_spectral(w))
        assert abs(got - inner) <= 1e-13 * l2_norm(u) * l2_norm(w)


class TestTransforms:
    def test_round_trip(self, grid32):
        u = random_real_field(grid32, seed=1)
        back = to_real(to_spectral(u))
        assert np.max(np.abs(back.data - u.data)) < 1e-12 * np.max(np.abs(u.data))

    def test_real_field_is_hermitian(self, grid32):
        v = to_spectral(random_real_field(grid32, seed=2))
        assert realness_defect(v) < 1e-13


class TestLeray:
    def test_annihilates_gradients(self, grid32):
        g = grid32
        rng = np.random.default_rng(3)
        ghat = to_spectral(random_real_field(g, seed=3)).data[0]
        grad = np.stack([1j * g.xi[i] * ghat for i in range(3)])
        out = leray_project(SpectralVectorField(g, grad))
        mask = g.k2 > 0
        worst = max(np.max(np.abs(out.data[i][mask])) for i in range(3))
        assert worst < 1e-10 * np.max(np.abs(ghat))

    def test_fixes_divergence_free(self, grid32):
        v = random_divfree_spectral(grid32, seed=4)
        out = leray_project(v)
        assert np.max(np.abs(out.data - v.data)) < 1e-12 * np.max(np.abs(v.data))

    def test_idempotent(self, grid32):
        v = to_spectral(random_real_field(grid32, seed=5))
        once = leray_project(v)
        twice = leray_project(once)
        assert np.max(np.abs(twice.data - once.data)) < 1e-12

    def test_output_divergence_free(self, grid32):
        g = grid32
        v = leray_project(to_spectral(random_real_field(g, seed=6)))
        div = g.xi[0] * v.data[0] + g.xi[1] * v.data[1] + g.xi[2] * v.data[2]
        assert np.max(np.abs(div)) < 1e-10 * np.max(np.abs(v.data))

    def test_self_adjoint(self, grid32):
        u = random_divfree_spectral(grid32, seed=7, smooth=False)
        v = to_spectral(random_real_field(grid32, seed=8))
        u_full = to_spectral(random_real_field(grid32, seed=9))
        lhs = l2_inner(leray_project(u_full), v)
        rhs = l2_inner(u_full, leray_project(v))
        scale = l2_norm(u_full) * l2_norm(v)
        assert abs(lhs - rhs) < 1e-10 * scale

    @settings(max_examples=20, deadline=None)
    @given(n=GRID_SIZES, box=BOXES, seed=st.integers(0, 2**16))
    def test_projector_properties(self, n, box, seed):
        g = Grid(n, box)
        v = to_spectral(random_real_field(g, seed=seed))
        v.data[:, 0, 0, 0] = (3.0, -1.5, 0.25)
        scale = np.max(np.abs(v.data))
        p = leray_project(v)
        assert np.array_equal(p.data[:, 0, 0, 0], v.data[:, 0, 0, 0])
        assert np.max(np.abs(leray_project(p).data - p.data)) <= 1e-12 * scale
        div = g.xi[0] * p.data[0] + g.xi[1] * p.data[1] + g.xi[2] * p.data[2]
        assert np.max(np.abs(div)) <= 1e-12 * np.max(g.kmag) * scale
        grad = np.stack([1j * g.xi[i] * v.data[0] for i in range(3)])
        out = leray_project(SpectralVectorField(g, grad))
        assert np.max(np.abs(out.data)) <= 1e-12 * np.max(np.abs(grad))


class TestFractionalPower:
    def test_plane_wave_symbol(self, grid16):
        g = grid16
        dk = 2 * np.pi / g.box_length
        k = np.array([2, 1, 0]) * dk
        x = [g.x_axis.reshape(-1, 1, 1), g.x_axis.reshape(1, -1, 1), g.x_axis.reshape(1, 1, -1)]
        wave = np.cos(k[0] * x[0] + k[1] * x[1] + k[2] * x[2])
        data = np.stack([wave, 0 * wave, 0 * wave])
        v = to_spectral(RealVectorField(g, data))
        out = to_real(fractional_power(v, 2.0))
        expect = float(np.dot(k, k)) * wave
        assert np.max(np.abs(out.data[0] - expect)) < 1e-10 * np.max(np.abs(expect))

    def test_beta_zero_identity(self, grid32):
        v = to_spectral(random_real_field(grid32, seed=10))
        out = fractional_power(v, 0.0)
        assert np.array_equal(out.data, v.data)

    def test_semigroup_in_beta(self, grid32):
        v = random_divfree_spectral(grid32, seed=11)
        a, b = 0.7, -1.3
        two_step = fractional_power(fractional_power(v, a), b)
        one_step = fractional_power(v, a + b)
        scale = np.max(np.abs(one_step.data))
        assert np.max(np.abs(two_step.data - one_step.data)) < 1e-12 * scale

    def test_zero_mode_guard(self, grid32):
        v = to_spectral(random_real_field(grid32, seed=12))
        v.data[:, 0, 0, 0] = 5.0
        with pytest.raises(ZeroModeUndefined):
            fractional_power(v, -1.5)

    def test_zero_mode_output_is_zero(self, grid32):
        v = to_spectral(random_real_field(grid32, seed=13))
        out = fractional_power(v, 2.0)
        assert np.all(out.data[:, 0, 0, 0] == 0.0)


class TestBilinearSymbol:
    def test_hand_value(self):
        # xi = e_1, entry (i, j, k) = (2, 2, 1) in 1-based labels, alpha = 2
        assert bilinear_symbol((1, 0, 0), 2.0, 1, 1, 0) == pytest.approx(-1j)

    def test_projector_kills_aligned_entry(self):
        for alpha in (1.2, 2.0, 3.7):
            assert bilinear_symbol((1, 0, 0), alpha, 0, 0, 0) == 0

    def test_homogeneity_degree(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            xi = rng.standard_normal(3)
            lam = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(1.05, 3.95))
            i, j, k = rng.integers(0, 3, size=3)
            lhs = bilinear_symbol(lam * xi, alpha, i, j, k)
            rhs = lam ** (1.0 - alpha) * bilinear_symbol(xi, alpha, i, j, k)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_zero_frequency_convention(self):
        assert bilinear_symbol((0, 0, 0), 1.5, 0, 1, 2) == 0


def inverse_power(g, alpha):
    return np.where(g.kmag == 0.0, 1.0, g.kmag) ** (-alpha)


class TestKernelTensor:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([8, 12]),
        box=st.floats(1.0, 40.0),
        alpha=st.floats(1.0, 4.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_reference_symbol(self, n, box, alpha):
        # every entry, the mirrored j > i ones included, is the inverse
        # transform of bilinear_symbol sampled on the lattice
        g = Grid(n, box)
        got = {}
        for i, j, k, K in kernel_tensor(g, inverse_power(g, alpha)):
            got[i, j, k] = got[j, i, k] = K
        assert len(got) == 27
        xis = np.stack(np.meshgrid(*(g.xi_axis,) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        for i, j, k in itertools.product(range(3), repeat=3):
            sym = np.array([bilinear_symbol(xi, alpha, i, j, k) for xi in xis])
            want = sfft.ifftn(sym.reshape(n, n, n)).real / g.cell_volume
            assert np.max(np.abs(got[i, j, k] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_thirteen_inverse_transforms(self, monkeypatch):
        calls = {"irfftn": [], "ifftn": []}

        def counting(name):
            def counted(x, *args, _f=getattr(sfft, name), **kwargs):
                calls[name].append(np.shape(x))
                return _f(x, *args, **kwargs)

            return counted

        g = Grid(8, 3.0)
        for name in calls:
            monkeypatch.setattr(sfft, name, counting(name))
        entries = list(kernel_tensor(g, inverse_power(g, 1.5)))
        assert sorted((i, j, k) for i, j, k, _ in entries) == [
            (i, j, k) for i in range(3) for j in range(i, 3) for k in range(3)
        ]
        assert len(calls["irfftn"]) == 13
        assert calls["ifftn"] == []


class TestApplyBilinear:
    def test_zero_in_zero_out(self, grid32):
        v = SpectralVectorField(grid32, np.zeros((3, 32, 32, 17), complex))
        out = apply_bilinear(v, FracParams(1.5))
        assert np.all(out.data == 0)

    def test_output_divergence_free_and_mean_free(self, grid32):
        g = grid32
        v = random_divfree_spectral(g, seed=14)
        out = apply_bilinear(v, FracParams(1.5))
        div = g.xi[0] * out.data[0] + g.xi[1] * out.data[1] + g.xi[2] * out.data[2]
        assert np.max(np.abs(div)) < 1e-12 * max(
            np.max(np.abs(out.data)) * np.max(g.kmag), 1e-300
        )
        assert np.all(out.data[:, 0, 0, 0] == 0.0)

    @pytest.mark.parametrize("mean_free", [True, False])
    def test_lift_of_projected_advection(self, grid32, mean_free):
        # the lift is applied without a mean check: P div(v (x) v) has a zero
        # mode of exactly 0 even when v has a mean
        v = random_divfree_spectral(grid32, seed=17, mean_free=mean_free)
        assert mean_free or np.any(v.data[:, 0, 0, 0] != 0)
        params = FracParams(1.5)
        out = apply_bilinear(v, params)
        want = fractional_power(projected_advection(v), -params.alpha).data
        assert np.array_equal(out.data, -want)
        assert np.all(out.data[:, 0, 0, 0] == 0.0)

    def test_scaling_covariance(self, grid32):
        # u_lam(x) = lam^(alpha-1) u(lam x) realized with the same mode count
        # on the box L/lam: coefficients must match lam^(alpha-1) B(u,u).
        from fracns.spectral import Grid

        g = grid32
        alpha, lam = 1.7, 2
        params = FracParams(alpha)
        u = random_divfree_spectral(g, seed=15)
        u.data *= g.dealias_mask
        b1 = apply_bilinear(u, params)

        g2 = Grid(g.n, g.box_length / lam)
        u2 = SpectralVectorField(g2, lam ** (alpha - 1.0) * u.data)
        b2 = apply_bilinear(u2, params)
        want = lam ** (alpha - 1.0) * b1.data
        scale = np.max(np.abs(want))
        assert np.max(np.abs(b2.data - want)) < 1e-10 * scale

    def test_energy_neutral_advection(self, grid32):
        # discrete analogue of the divergence-free cancellation
        u = random_divfree_spectral(grid32, seed=16)
        u.data *= grid32.dealias_mask
        adv = projected_advection(u, dealias=True)
        s = l2_inner(adv, u)
        assert abs(s) < 1e-8 * l2_norm(u) ** 3


class TestFiniteness:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_products_raise(self, grid16):
        # finite samples whose squares exceed the float64 range
        v = random_divfree_spectral(grid16, seed=20)
        v.data *= 1e160 / np.max(np.abs(to_real(v).data))
        assert np.all(np.isfinite(to_real(v).data))
        with pytest.raises(NumericalBlowup):
            projected_advection(v)

    def test_nonfinite_velocity_raises(self, grid16):
        v = random_divfree_spectral(grid16, seed=21)
        v.data[0, 1, 0, 0] = np.nan
        with pytest.raises(NumericalBlowup):
            projected_advection(v)


class TestSemigroup:
    def test_t_zero_identity(self, grid32):
        v = to_spectral(random_real_field(grid32, seed=17))
        out = semigroup_multiply(v, 0.0, 1.5)
        assert np.array_equal(out.data, v.data)

    def test_plane_wave_factor(self, grid16):
        g = grid16
        dk = 2 * np.pi / g.box_length
        k = np.array([1, 2, 2]) * dk
        x = [g.x_axis.reshape(-1, 1, 1), g.x_axis.reshape(1, -1, 1), g.x_axis.reshape(1, 1, -1)]
        wave = np.cos(k[0] * x[0] + k[1] * x[1] + k[2] * x[2])
        data = np.stack([wave, 0 * wave, 0 * wave])
        v = to_spectral(RealVectorField(g, data))
        t, alpha = 0.3, 1.5
        out = to_real(semigroup_multiply(v, t, alpha))
        expect = np.exp(-t * np.linalg.norm(k) ** alpha) * wave
        assert np.max(np.abs(out.data[0] - expect)) < 1e-12

    def test_composition(self, grid32):
        v = to_spectral(random_real_field(grid32, seed=18))
        t1, t2, alpha = 0.2, 0.5, 1.8
        two = semigroup_multiply(semigroup_multiply(v, t1, alpha), t2, alpha)
        one = semigroup_multiply(v, t1 + t2, alpha)
        assert np.max(np.abs(two.data - one.data)) < 1e-13 * np.max(np.abs(one.data))

    def test_negative_time_rejected(self, grid32):
        v = to_spectral(random_real_field(grid32, seed=19))
        with pytest.raises(ValueError):
            semigroup_multiply(v, -0.1, 2.0)
