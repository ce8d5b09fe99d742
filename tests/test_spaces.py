import numpy as np
import pytest

from conftest import random_real_field
from fracns.errors import InvalidExponents
from fracns.spaces import (
    distribution_function,
    lorentz_quasinorm,
    lp_norm,
    morrey_norm,
    rearrangement,
    weighted_sup_norm,
    young_check,
)
from fracns.spectral import _CHUNK, Grid


@pytest.fixture(scope="module")
def indicator_setup():
    """3 * indicator of a region of exactly unit-cell-aligned volume 2."""
    g = Grid(16, 4.0)  # h^3 = 1/64, so volume 2 is 128 cells
    field = np.zeros((16, 16, 16))
    flat = field.ravel()
    flat[:128] = 3.0
    return g, flat.reshape(16, 16, 16)


class TestDistribution:
    def test_indicator_level_below(self, indicator_setup):
        g, f = indicator_setup
        assert distribution_function(f, 1.0, g.cell_volume) == pytest.approx(2.0)

    def test_strict_inequality_at_level(self, indicator_setup):
        g, f = indicator_setup
        assert distribution_function(f, 3.0, g.cell_volume) == 0.0

    def test_monotone_in_level(self, grid16):
        f = random_real_field(grid16, seed=21).data[0]
        levels = np.linspace(0, np.max(np.abs(f)), 100)
        d = [distribution_function(f, lam, grid16.cell_volume) for lam in levels]
        assert all(a >= b for a, b in zip(d, d[1:]))


class TestRearrangement:
    def test_indicator_steps(self, indicator_setup):
        g, f = indicator_setup
        table = rearrangement(f, g.cell_volume)
        assert table(1.0) == 3.0
        assert table(1.999) == 3.0
        assert table(2.0) == 0.0
        assert table(5.0) == 0.0

    def test_constant_field(self, grid16):
        c = 2.5
        f = np.full((16, 16, 16), c)
        table = rearrangement(f, grid16.cell_volume)
        vol = grid16.box_length**3
        assert table(vol * 0.5) == c
        assert table(vol * 1.01) == 0.0

    def test_preserves_multiset(self, grid16):
        f = random_real_field(grid16, seed=22).data[0]
        table = rearrangement(f, grid16.cell_volume)
        assert np.allclose(np.sort(table.values), np.sort(np.abs(f).ravel()))


class TestLorentz:
    def test_indicator_weak_norm(self, indicator_setup):
        g, f = indicator_setup
        for p in (1.0, 2.0, 3.5):
            got = lorentz_quasinorm(f, p, np.inf, g.cell_volume)
            assert got == pytest.approx(3.0 * 2.0 ** (1.0 / p), rel=1e-12)

    def test_indicator_pq_norm(self, indicator_setup):
        # exact closed form for a one-step rearrangement: 3 * 2^{1/p} for all q
        g, f = indicator_setup
        for p, q in ((2.0, 1.0), (3.0, 2.0), (1.5, 4.0)):
            got = lorentz_quasinorm(f, p, q, g.cell_volume)
            assert got == pytest.approx(3.0 * 2.0 ** (1.0 / p), rel=1e-12)

    def test_pp_matches_lp(self, grid16):
        rng = np.random.default_rng(23)
        for seed in range(20):
            f = rng.standard_normal((16, 16, 16))
            p = float(rng.uniform(1.0, 6.0))
            lq = lorentz_quasinorm(f, p, p, grid16.cell_volume)
            lp = lp_norm(f, p, grid16.cell_volume)
            assert abs(lq - lp) < 1e-10 * lp

    def test_secondary_index_ordering(self, grid16):
        # ||f||_{p,q2} <= C ||f||_{p,q1} for q1 < q2; the weak norm is the
        # smallest with constant exactly 1 in this normalization
        rng = np.random.default_rng(24)
        p = 2.5
        for seed in range(100):
            f = rng.standard_normal((8, 8, 8))
            n1 = lorentz_quasinorm(f, p, 1.5, grid16.cell_volume)
            n2 = lorentz_quasinorm(f, p, 3.0, grid16.cell_volume)
            ninf = lorentz_quasinorm(f, p, np.inf, grid16.cell_volume)
            assert ninf <= n2 * (1 + 1e-12)
            assert ninf <= n1 * (1 + 1e-12)

    def test_embedding_ordering_recorded_constant(self, grid16):
        # ||f||_{p,q2} <= C ||f||_{p,q1} for q1 < q2; record the empirical C
        rng = np.random.default_rng(77)
        p, q1, q2 = 2.5, 1.5, 4.0
        worst = 0.0
        for _ in range(100):
            f = rng.standard_normal((8, 8, 8))
            n1 = lorentz_quasinorm(f, p, q1, grid16.cell_volume)
            n2 = lorentz_quasinorm(f, p, q2, grid16.cell_volume)
            worst = max(worst, n2 / n1)
        assert worst <= 1.0 + 1e-12  # in this normalization the constant is 1

    def test_chebyshev_exact(self, grid16):
        f = random_real_field(grid16, seed=25).data[0]
        h3 = grid16.cell_volume
        p = 3.0
        weak = lorentz_quasinorm(f, p, np.inf, h3)
        for lam in np.linspace(0, np.max(np.abs(f)) * 0.999, 50):
            lhs = lam * distribution_function(f, lam, h3) ** (1.0 / p)
            assert lhs <= weak * (1 + 1e-12)

    def test_homogeneity(self, grid16):
        f = random_real_field(grid16, seed=26).data[0]
        h3 = grid16.cell_volume
        for p, q in ((2.0, np.inf), (3.0, 1.5)):
            base = lorentz_quasinorm(f, p, q, h3)
            assert lorentz_quasinorm(7.0 * f, p, q, h3) == pytest.approx(
                7.0 * base, rel=1e-12
            )

    @pytest.mark.parametrize("nonzero", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_weak_norm_by_chunks_is_the_whole_array_formula(self, nonzero, p):
        # the weights (i h^3)^(1/p) of the nonzero samples' ranks i, formed by
        # chunks of ranks, give the sup of the whole array of them bit for bit;
        # at p = 1 the sup of uniform samples lies near rank N/2, a chunk edge
        rng = np.random.default_rng(nonzero)
        f = np.concatenate([rng.random(nonzero) + 1e-3, np.zeros(nonzero // 3)])
        rng.shuffle(f)
        f *= np.where(rng.random(f.size) < 0.5, -1.0, 1.0)
        h3 = 0.37
        vals = np.sort(np.abs(f))[::-1][:nonzero]
        t_right = h3 * np.arange(1, nonzero + 1, dtype=np.float64)
        assert lorentz_quasinorm(f, p, np.inf, h3) == float(np.max(t_right ** (1.0 / p) * vals))

    def test_bad_exponents(self, grid16):
        f = np.ones((16, 16, 16))
        with pytest.raises(InvalidExponents):
            lorentz_quasinorm(f, 0.5, 2.0, grid16.cell_volume)


class TestWeightedSup:
    def test_theta_zero_plain_sup(self, grid32):
        f = random_real_field(grid32, seed=27).data[0]
        got = weighted_sup_norm(f, 0.0, grid32)
        r = grid32.radius_from(grid32.center).ravel()
        expect = np.max(np.abs(f).ravel()[r > 0])
        assert got == pytest.approx(expect)

    def test_saturated_power_profile(self, grid32):
        theta = 1.3
        r = grid32.radius_from(grid32.center)
        f = np.minimum(1.0, np.where(r == 0, 1.0, r) ** (-theta))
        got = weighted_sup_norm(f, theta, grid32)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_doubling_theta_on_point_bump(self, grid32):
        g = grid32
        theta = 0.8
        f = np.zeros((g.n, g.n, g.n))
        f[20, 13, 9] = 1.0
        r = g.radius_from(g.center)[20, 13, 9]
        n1 = weighted_sup_norm(f, theta, g)
        n2 = weighted_sup_norm(f, 2 * theta, g)
        assert n2 == pytest.approx(n1 * r**theta, rel=1e-12)


class TestMorrey:
    def test_zero_field(self, grid32):
        f = np.zeros((32, 32, 32))
        assert [morrey_norm(f, 4.0, R, grid32) for R in (1.0, 2.0)] == [0.0, 0.0]

    def test_scale_invariant_profile(self, grid32):
        g = grid32
        p = 4.0
        r = g.radius_from(g.center)
        f = np.maximum(r, g.spacing) ** (-3.0 / p)
        vals = [
            morrey_norm(f, p, R, g)
            for R in (g.box_length / 16, g.box_length / 8, g.box_length / 4)
        ]
        assert max(vals) / min(vals) < 2.0

    def test_constant_field(self, grid32):
        g = grid32
        c = 1.7
        f = np.full((32, 32, 32), c)
        radii = [1.0, 2.0, g.box_length / 4]
        got = max(morrey_norm(f, 3.0, R, g) for R in radii)
        assert got == pytest.approx(c * (g.box_length / 4) ** (3.0 / 3.0), rel=1e-12)

    def test_empty_ball_rejected(self, grid32):
        # the center cell lies in every ball of radius >= 0
        with pytest.raises(ValueError, match="no grid cell"):
            morrey_norm(np.ones((32, 32, 32)), 4.0, -1.0, grid32)

    def test_radius_above_a_quarter_box_rejected(self, grid32):
        with pytest.raises(ValueError, match="box_length/4"):
            morrey_norm(np.ones((32, 32, 32)), 4.0, 4.5, grid32)


class TestYoung:
    @staticmethod
    def _bump(grid, center, width):
        r = grid.radius_from(np.asarray(center))
        return np.exp(-(r**2) / (2 * width**2))

    def test_gaussian_pair_finite(self, grid32):
        f = self._bump(grid32, grid32.center, 1.5)
        ratio = young_check(f, f, grid32, 3.0, 1.5, 1.5, 3.0, 1.5, 1.5)
        assert 0 < ratio < np.inf

    def test_amplitude_invariance(self, grid32):
        f = self._bump(grid32, grid32.center, 1.5)
        g2 = self._bump(grid32, grid32.center + 2.0, 2.0)
        r1 = young_check(f, g2, grid32, 3.0, 1.5, 1.5, 3.0, 1.5, 1.5)
        r2 = young_check(3.0 * f, 0.5 * g2, grid32, 3.0, 1.5, 1.5, 3.0, 1.5, 1.5)
        assert r1 == pytest.approx(r2, rel=1e-10)

    def test_sweep_bounded(self, grid32):
        rng = np.random.default_rng(28)
        ratios = []
        for _ in range(100):
            c1 = grid32.box_length * rng.uniform(0.25, 0.75, 3)
            c2 = grid32.box_length * rng.uniform(0.25, 0.75, 3)
            f = self._bump(grid32, c1, rng.uniform(0.8, 3.0))
            g2 = self._bump(grid32, c2, rng.uniform(0.8, 3.0))
            ratios.append(young_check(f, g2, grid32, 3.0, 1.5, 1.5, 3.0, 1.5, 1.5))
        assert np.max(ratios) < 10.0  # recorded empirical constant

    def test_exponent_relation_enforced(self, grid32):
        f = self._bump(grid32, grid32.center, 1.5)
        with pytest.raises(InvalidExponents):
            young_check(f, f, grid32, 3.0, 2.0, 2.0, 3.0, 2.0, 2.0)


class TestWeightedInterpolation:
    def test_powerlaw_interpolation_bound(self, grid32):
        # fields bounded by min(|x|^-t1, |x|^-t2) with 3/t1 < p < 3/t2 have
        # finite L^p norm controlled by the two weighted sup norms
        g = grid32
        theta1, theta2, p = 2.2, 0.7, 3.0
        assert 3.0 / theta1 < p < 3.0 / theta2
        r = np.maximum(g.radius_from(g.center), g.spacing)
        f = np.minimum(r**-theta1, r**-theta2)
        n1 = weighted_sup_norm(f, theta1, g)
        n2 = weighted_sup_norm(f, theta2, g)
        lp = lp_norm(f, p, g.cell_volume)
        assert np.isfinite(lp)
        # analytic bound: split at the crossover radius r* = (n1/n2)^(1/(t1-t2))
        rstar = (n1 / n2) ** (1.0 / (theta1 - theta2))
        bound = 4 * np.pi * (
            n2**p * rstar ** (3 - theta2 * p) / (3 - theta2 * p)
            + n1**p * rstar ** (3 - theta1 * p) / (theta1 * p - 3)
        )
        assert lp**p <= bound * 1.5  # Riemann-sum slack
