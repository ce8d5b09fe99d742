import gc
import itertools
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bilinear_on_lattice,
    dealias_mask,
    gather,
    half_lattice_l2,
    half_lattice_sum,
    k_int,
    l2_inner,
    on_cube,
    on_half_lattice,
    on_nyquist,
    random_divfree_spectral,
    random_real_field,
    realness_defect,
    staged_cube_to_real,
    symmetric_parts,
    to_spectral,
    zero_filled,
)
from fracns import spectral
from fracns.errors import InvalidGrid, NumericalBlowup, ZeroModeUndefined
from fracns.spectral import (
    Grid,
    Lattice,
    RealVectorField,
    SpectralVectorField,
    bilinear_symbol,
    fractional_power,
    kernel_tensor,
    l2_norm,
    leray_project,
    projected_advection,
    to_real,
)


class TestGrid:
    def test_spacing(self):
        g = Grid(8, 2 * np.pi)
        assert g.spacing == pytest.approx(np.pi / 4)
        assert g.spacing * g.n == pytest.approx(g.box_length)

    def test_axis_frequencies(self):
        k = Lattice.half(Grid(8, 2 * np.pi)).k[0].ravel()
        assert sorted(k.tolist()) == list(range(-4, 4))
        # standard DFT ordering: 0..3 then -4..-1
        assert k.tolist() == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidGrid):
            Grid(7, 1.0)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidGrid):
            Grid(6, 1.0)

    @pytest.mark.parametrize("box", [np.inf, np.nan])
    def test_nonfinite_box_rejected(self, box):
        with pytest.raises(InvalidGrid):
            Grid(8, box)

    def test_negation_closure(self):
        ks = set(Lattice.half(Grid(8, 2 * np.pi)).k[0].ravel().tolist())
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
        g = Lattice.half(Grid(n, box))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by zero on the way
            p = g.power(beta)
        assert p[0, 0, 0] == 0.0
        assert np.all(np.isfinite(p))

    @settings(max_examples=20, deadline=None)
    @given(n=GRID_SIZES, box=BOXES, a=EXPONENTS, b=EXPONENTS)
    def test_product_adds_exponents(self, n, box, a, b):
        g = Lattice.half(Grid(n, box))
        off = g.k2() > 0
        prod, want = (g.power(a) * g.power(b))[off], g.power(a + b)[off]
        assert np.max(np.abs(prod - want) / want) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(n=GRID_SIZES, box=BOXES)
    def test_minus_two_inverts_k2(self, n, box):
        g = Lattice.half(Grid(n, box))
        off = g.k2() > 0
        assert np.max(np.abs((g.power(-2.0) * g.k2())[off] - 1.0)) <= 1e-12


HALF_SIZES = st.integers(4, 12).map(lambda m: 2 * m)  # even n in [8, 24]


class TestHalfLattice:
    """Symbols and norms on the (n, n, n/2+1) rfftn lattice."""

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, beta=EXPONENTS)
    def test_symbols_are_full_symbols_sliced(self, n, box, beta):
        grid = Grid(n, box)
        g = Lattice.half(grid)
        half = (Ellipsis, slice(0, n // 2 + 1))
        full = np.meshgrid(*((2 * np.pi / grid.box_length) * k_int(n),) * 3, indexing="ij")
        kmag = np.sqrt(full[0] ** 2 + full[1] ** 2 + full[2] ** 2)
        for c in range(3):
            assert np.array_equal(np.broadcast_to(g.xi[c], g.spectral_shape), full[c][half])
        power = np.where(kmag == 0.0, 1.0, kmag) ** beta
        power[0, 0, 0] = 0.0
        assert np.array_equal(g.power(beta), power[half])
        dealias = kmag <= (2.0 / 3.0) * (np.pi * n / grid.box_length) * (1.0 + 1e-12)
        cube = Lattice.dealias_cube(grid)  # the mask lives on the cube, 0 off it
        assert np.array_equal(zero_filled(cube.dealias_mask, cube), dealias[half])
        ks = np.stack(np.meshgrid(*(k_int(n),) * 3, indexing="ij"))
        nyquist = np.any(ks == -n // 2, axis=0)
        assert np.array_equal(np.broadcast_to(g.nyquist_free, g.spectral_shape), ~nyquist[half])

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, seed=st.integers(0, 2**16))
    def test_parseval_on_half_lattice(self, n, box, seed):
        # interior k_z planes weigh 2, the k_z = 0 and Nyquist planes 1
        # (the reference sum of conftest, which the half-lattice checks read)
        g = Grid(n, box)
        u, w = random_real_field(g, seed=seed), random_real_field(g, seed=seed + 1)
        u_l2 = np.sqrt(g.cell_volume * np.sum(u.data**2))
        w_l2 = np.sqrt(g.cell_volume * np.sum(w.data**2))
        assert abs(half_lattice_l2(to_spectral(u)) - u_l2) <= 1e-13 * u_l2
        inner = g.cell_volume * np.sum(u.data * w.data)
        got = g.cell_volume * half_lattice_sum(to_spectral(u).data, to_spectral(w).data) / n**3
        assert abs(got - inner) <= 1e-13 * u_l2 * w_l2

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES)
    def test_dealias_cube_is_the_box_of_kept_modes(self, n, box):
        # every mode the 2/3 rule keeps lies in the cube, and each of its faces
        # (k_x, k_y = +-m, k_z = 0 and m) holds a kept mode
        g = Grid(n, box)
        cube = Lattice.dealias_cube(g)
        inside = zero_filled(np.ones(cube.spectral_shape, dtype=bool), cube)
        assert not np.any(dealias_mask(g) & ~inside)
        kept = gather(dealias_mask(g), cube)
        shape = (n, n, n // 2 + 1)
        k_rows = gather(np.broadcast_to(k_int(n)[:, None, None], shape), cube)[:, 0, 0]
        ks = [k_rows, k_rows, k_int(n)[: cube.spectral_shape[2]]]
        for axis, k in enumerate(ks):
            for face in (np.argmin(k), np.argmax(k)):
                assert np.any(np.take(kept, face, axis=axis)), (axis, k[face])

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 128).map(lambda m: 2 * m), box=st.sampled_from([1.0, 4.0, 32.0]))
    def test_dealias_cube_holds_no_nyquist_mode(self, n, box):
        # the kept |k| stay below n/3 < n/2, so the quadratic map on the cube
        # needs no Nyquist zeroing
        g = Grid(n, box)
        assert gather(Lattice.half(g).nyquist_free, Lattice.dealias_cube(g)).all()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 32).map(lambda m: 2 * m),
           box=st.one_of(BOXES, st.floats(1e-80, 1e80)),
           where=st.tuples(*(st.floats(0.0, 1.0, exclude_max=True),) * 3))
    def test_axis_built_cube_and_radius_match_their_mask_and_minimum_forms(self, n, box, where):
        # the cube built from the axes against the cube gathered from the half-lattice
        # mask, and radius_from against np.minimum(dx, L - dx): equal bit for bit
        g = Grid(n, box)
        keep = dealias_mask(g)
        k = k_int(n)[keep.any(axis=(1, 2))]
        lo, hi = int(np.sum(k >= 0)), int(np.sum(k < 0))
        rows = np.r_[0:lo, n - hi : n]
        planes = int(np.flatnonzero(keep.any(axis=(0, 1)))[-1]) + 1
        modes = (..., rows[:, None], rows, slice(0, planes))
        cube = Lattice.dealias_cube(g)
        assert cube.spectral_shape[2] == planes
        # the slices of cube rows and grid rows that cover a slab of cube rows
        for a, b in ((0, lo + hi), (1, lo + hi - 1), (lo - 1, lo + 1), (lo, lo + hi)):
            runs = cube.row_runs(slice(a, b))
            assert np.array_equal(np.r_[tuple(c for c, _ in runs)], np.arange(a, b))
            assert np.array_equal(np.r_[tuple(g for _, g in runs)], rows[a:b])
        assert np.array_equal(cube.kmag, Lattice.half(g).kmag[modes])
        assert np.array_equal(cube.dealias_mask, keep[modes])
        L = g.box_length
        for origin in (g.center, L * np.asarray(where)):
            d = []
            for axis, o in enumerate(origin):
                dx = np.abs(g.x_axis - o)
                d.append(np.minimum(dx, L - dx).reshape([n if c == axis else 1 for c in range(3)]))
            assert np.array_equal(g.radius_from(origin), np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2))

    @settings(max_examples=20, deadline=None)
    @given(n=st.one_of(HALF_SIZES, st.just(128)), box=BOXES, beta=EXPONENTS)
    def test_cube_power_is_the_grid_power_gathered(self, n, box, beta):
        g = Grid(n, box)
        cube, power = Lattice.dealias_cube(g), Lattice.half(g).power(beta)
        assert np.array_equal(cube.power(beta), gather(power, cube))
        h = n // 2 + 1  # the octant: the first n/2+1 rows of each half-lattice axis
        assert np.array_equal(Lattice.octant(g).power(beta), power[:h, :h])


class TestLattice:
    """The half lattice, the dealias cube and the octant, each formed from its own
    integer axes."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.one_of(HALF_SIZES, st.just(128)), box=BOXES, beta=EXPONENTS)
    def test_symbols_at_their_own_integer_axes(self, n, box, beta):
        g = Grid(n, box)
        half = Lattice.half(g)
        power = half.power(beta)
        for lattice in (half, Lattice.dealias_cube(g), Lattice.octant(g)):
            k = [a.ravel() for a in lattice.k]
            assert lattice.spectral_shape == tuple(map(len, k))
            assert [a[0] for a in k] == [0, 0, 0]
            for c in range(3):
                assert np.array_equal(lattice.xi[c].ravel(), (2 * np.pi / g.box_length) * k[c])
                assert np.array_equal(lattice.nyquist_rows[c].ravel(), k[c] == -(n // 2))
            # the half lattice holds wavenumber k at index k mod n of each axis
            at = np.ix_(*(a % n for a in k))
            got = lattice.power(beta)
            assert got[0, 0, 0] == 0.0 and np.array_equal(got, power[at])
            nyquist = np.any(np.stack(np.meshgrid(*k, indexing="ij")) == -(n // 2), axis=0)
            assert np.array_equal(np.broadcast_to(lattice.nyquist_free, got.shape), ~nyquist)

    @pytest.mark.parametrize("make", [Lattice.half, Lattice.dealias_cube, Lattice.octant],
                             ids=["half", "dealias_cube", "octant"])
    def test_freed_when_dropped_without_the_collector(self, make):
        # no lattice is cached on its Grid or refers back to itself, so its arrays
        # go with its last reference, as build_kernel's and kernel_tensor's del rely on
        lattice = make(Grid(16, 4.0))
        held = [weakref.ref(a) for a in (lattice.kmag, lattice.nyquist_free)]
        gc.disable()
        try:
            del lattice
            assert [ref() for ref in held] == [None, None]
        finally:
            gc.enable()


class TestCubeLattice:
    """Each operator on a field held on the dealias cube against the same operator
    on the half lattice, gathered to the cube."""

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, alpha=st.floats(0.5, 4.0), seed=st.integers(0, 2**16))
    def test_operators_match_the_half_lattice(self, n, box, alpha, seed):
        g = Grid(n, box)
        v = to_spectral(random_real_field(g, seed=seed))
        v.data[:, 0, 0, 0] = 0.0
        held = on_cube(v)
        cube = held.grid
        assert np.array_equal(leray_project(held).data, gather(leray_project(v).data, cube))
        for beta in (-alpha, alpha):
            want = gather(fractional_power(v, beta).data, cube)
            assert np.array_equal(fractional_power(held, beta).data, want)
        # the norm and the samples against those of the field zero-filled to the half lattice
        filled = on_half_lattice(held)
        assert abs(l2_norm(held) - half_lattice_l2(filled)) <= 1e-14 * half_lattice_l2(filled)
        samples = to_real(held)
        want = sfft.irfftn(filled.data, s=(n, n, n), axes=(1, 2, 3))
        assert samples.grid is g
        assert np.max(np.abs(samples.data - want)) <= 1e-14 * np.max(np.abs(want))


def full_lattice(a, cube):
    """Coefficients held on ``cube`` on the whole lattice (..., n, n, n): the
    half lattice, then each mode with k_z > n/2 the conjugate of its mirror -k."""
    n = cube.grid.n
    half = zero_filled(a, cube)
    neg = -np.arange(n) % n
    full = np.zeros(a.shape[:-3] + (n, n, n), dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    full[..., n // 2 + 1 :] = np.conj(half[..., neg[:, None], neg, n // 2 - 1 : 0 : -1])
    return full


# |lattice_sum - exact sum| / sum |products| over 4000 draws of the test below:
# worst 5.4e-16 (2.5 eps); the BLAS dot it replaced reached 2.4e-14 on them
LATTICE_SUM_RTOL = 2e-15


class TestLatticeSum:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 24).map(lambda m: 2 * m), box=st.floats(0.1, 100.0),
           seed=st.integers(0, 2**16), decay=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
           same=st.booleans())
    def test_matches_an_exact_sum_over_the_full_lattice(self, n, box, seed, decay, same):
        # random cube data, or data falling off as (1 + |k|)^-decay, whose sum the
        # planes near the zero mode hold; a = b is a squared norm
        cube = Lattice.dealias_cube(Grid(n, box))
        rng = np.random.default_rng(seed)
        shape = (3,) + cube.spectral_shape
        weight = (1.0 + cube.kmag * box / (2 * np.pi)) ** -decay
        a, b = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * weight
                for _ in range(2))
        if same:
            b = a
        products = (full_lattice(a, cube).view(np.float64)
                    * full_lattice(b, cube).view(np.float64)).ravel()
        exact = math.fsum(products)
        assert abs(cube.lattice_sum(a, b) - exact) <= LATTICE_SUM_RTOL * math.fsum(np.abs(products))


class TestTransforms:
    def test_round_trip(self, grid32):
        # a real field with modes on the cube alone, through the pruned pair
        v = on_cube(to_spectral(random_real_field(grid32, seed=1)))
        back = spectral._real_to_cube(to_real(v).data, v.grid)
        assert np.max(np.abs(back - v.data)) < 1e-12 * np.max(np.abs(v.data))

    def test_real_field_is_hermitian(self, grid32):
        cube = Lattice.dealias_cube(grid32)
        samples = random_real_field(grid32, seed=2).data
        v = SpectralVectorField(cube, spectral._real_to_cube(samples, cube))
        assert realness_defect(v) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, seed=st.integers(0, 2**16))
    def test_forward_pruned_transform_is_rfftn_gathered(self, n, seed):
        # the cube's part of rfftn of the samples, bit for bit
        g = Grid(n, 1.0)
        cube = Lattice.dealias_cube(g)
        x = np.random.default_rng(seed).standard_normal((3, n, n, n))
        want = gather(sfft.rfftn(x, axes=(1, 2, 3)), cube)
        assert np.array_equal(spectral._real_to_cube(x, cube), want)

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, batch=st.sampled_from([1, 3]), seed=st.integers(0, 2**16))
    def test_inverse_pruned_transform_is_the_staged_inverse(self, n, batch, seed):
        # the staged inverse of the zero-filled half lattice, bit for bit, whatever
        # the half-lattice array it is given held before
        g = Grid(n, 1.0)
        cube = Lattice.dealias_cube(g)
        rng = np.random.default_rng(seed)
        shape = (batch,) + cube.spectral_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = staged_cube_to_real(c, cube)
        assert np.array_equal(spectral._cube_to_real(c, cube), want)
        padded = np.full((batch, n, n, n // 2 + 1), complex(np.nan, np.inf))
        assert np.array_equal(spectral._cube_to_real(c, cube, padded), want)

    def test_forward_pruned_transform_stages_nothing(self):
        # the rfft output and the cube it gathers are the arrays it makes: an
        # array of the cube's k_x rows between the x and y stages overran this
        n = 32
        cube = Lattice.dealias_cube(Grid(n, 1.0))
        x = np.random.default_rng(3).standard_normal((3, n, n, n))
        spectral._real_to_cube(x, cube)  # plans the transforms
        tracemalloc.start()
        try:
            spectral._real_to_cube(x, cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rfft_out, result = 48 * n * n * (n // 2 + 1), 48 * math.prod(cube.spectral_shape)
        assert peak <= rfft_out + result + 64 * 1024, peak

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, batch=st.sampled_from([1, 3]), seed=st.integers(0, 2**16))
    def test_leading_axes_are_a_batch(self, n, batch, seed):
        # one call on a stack is the stack of per-component calls, bit for bit
        x = np.random.default_rng(seed).standard_normal((batch, n, n, n))
        hat = spectral.scalar_to_spectral(x)
        assert np.array_equal(hat, np.stack([spectral.scalar_to_spectral(c) for c in x]))
        back = spectral.scalar_to_real(hat)
        assert np.array_equal(back, np.stack([spectral.scalar_to_real(h) for h in hat]))

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, seed=st.integers(0, 2**16))
    def test_magnitude_is_root_of_summed_squares(self, n, seed):
        u = random_real_field(Grid(n, 1.0), seed=seed)
        assert np.array_equal(u.magnitude(), np.sqrt(np.sum(u.data**2, axis=0)))


class TestLeray:
    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, seed=st.integers(0, 2**16))
    def test_matches_the_written_out_projector(self, n, box, seed):
        # bit for bit, on the half lattice and on the dealias cube
        g = Grid(n, box)
        v = to_spectral(random_real_field(g, seed=seed))
        for field in (v, on_cube(v)):
            xi, d = field.grid.xi, field.data
            dot = (xi[0] * d[0] + xi[1] * d[1] + xi[2] * d[2]) * field.grid.power(-2.0)
            want = np.stack([d[i] - xi[i] * dot for i in range(3)])
            assert np.array_equal(leray_project(field).data, want)

    def test_annihilates_gradients(self, grid32):
        g = Lattice.half(grid32)
        rng = np.random.default_rng(3)
        ghat = to_spectral(random_real_field(grid32, seed=3)).data[0]
        grad = np.stack([1j * g.xi[i] * ghat for i in range(3)])
        out = leray_project(SpectralVectorField(g, grad))
        mask = g.k2() > 0
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
        v = leray_project(to_spectral(random_real_field(grid32, seed=6)))
        g = v.grid
        div = g.xi[0] * v.data[0] + g.xi[1] * v.data[1] + g.xi[2] * v.data[2]
        assert np.max(np.abs(div)) < 1e-10 * np.max(np.abs(v.data))

    def test_self_adjoint(self, grid32):
        u = random_divfree_spectral(grid32, seed=7, smooth=False)
        v = on_cube(to_spectral(random_real_field(grid32, seed=8)))
        u_full = on_cube(to_spectral(random_real_field(grid32, seed=9)))
        lhs = l2_inner(leray_project(u_full), v)
        rhs = l2_inner(u_full, leray_project(v))
        scale = l2_norm(u_full) * l2_norm(v)
        assert abs(lhs - rhs) < 1e-10 * scale

    @settings(max_examples=20, deadline=None)
    @given(n=HALF_SIZES, box=BOXES, seed=st.integers(0, 2**16))
    def test_projector_properties(self, n, box, seed):
        v = to_spectral(random_real_field(Grid(n, box), seed=seed))
        g = v.grid
        v.data[:, 0, 0, 0] = (3.0, -1.5, 0.25)
        scale = np.max(np.abs(v.data))
        p = leray_project(v)
        assert np.array_equal(p.data[:, 0, 0, 0], v.data[:, 0, 0, 0])
        assert np.max(np.abs(leray_project(p).data - p.data)) <= 1e-14 * scale
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
        v = on_cube(to_spectral(RealVectorField(g, data)))
        out = to_real(fractional_power(v, 2.0))
        expect = float(np.dot(k, k)) * wave
        assert np.max(np.abs(out.data[0] - expect)) < 1e-10 * np.max(np.abs(expect))

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
    kmag = Lattice.half(g).kmag
    return np.where(kmag == 0.0, 1.0, kmag) ** (-alpha)


class TestKernelTensor:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([8, 12]),
        box=st.floats(1.0, 40.0),
        alpha=st.floats(1.0, 4.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_reference_symbol(self, n, box, alpha):
        # every entry K_ijk = C_ijk - delta_ij sum_l C_llk is the inverse
        # transform of bilinear_symbol sampled on the lattice
        g = Grid(n, box)
        C = symmetric_parts(g, inverse_power(g, alpha))
        got = C - np.einsum("ij,llk...->ijk...", np.eye(3), C)
        xi_axis = (2 * np.pi / g.box_length) * k_int(n)
        xis = np.stack(np.meshgrid(*(xi_axis,) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        for i, j, k in itertools.product(range(3), repeat=3):
            sym = np.array([bilinear_symbol(xi, alpha, i, j, k) for xi in xis])
            want = sfft.ifftn(sym.reshape(n, n, n)).real / g.cell_volume
            assert np.max(np.abs(got[i, j, k] - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([8, 12, 16]),
        box=st.floats(1.0, 40.0),
        alpha=st.floats(1.0, 4.0, exclude_min=True, exclude_max=True),
    )
    def test_trace_is_gradient_symbol(self, n, box, alpha):
        # sum_l C_llk is the transform of 1j xi_k m, Nyquist row k zeroed, zero mode 0
        g = Grid(n, box)
        m = inverse_power(g, alpha)
        trace = np.einsum("llk...->k...", symmetric_parts(g, m))
        for k in range(3):
            sym = 1j * Lattice.half(g).xi[k] * m * ~on_nyquist(g)[k]
            sym[0, 0, 0] = 0.0
            want = sfft.irfftn(sym, s=(n, n, n)) / g.cell_volume
            assert np.max(np.abs(trace[k] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_ten_inverse_transforms(self, monkeypatch):
        calls = {"_irfftn_at": [], "irfftn": [], "ifftn": []}

        def counting(module, name):
            def counted(x, *args, _f=getattr(module, name), **kwargs):
                calls[name].append(np.shape(x))
                return _f(x, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        g = Grid(8, 3.0)
        counting(spectral, "_irfftn_at")
        for name in ("irfftn", "ifftn"):
            counting(np.fft, name)
        parts = list(kernel_tensor(Lattice.half(g), inverse_power(g, 1.5), np.arange(8)))
        # the ten parts fill each of the 27 entries of C once
        assert sorted(e for entries, _ in parts for e in entries) == list(
            itertools.product(range(3), repeat=3)
        )
        assert len(calls["_irfftn_at"]) == 10
        assert calls["irfftn"] == calls["ifftn"] == []

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2**16))
    def test_parts_on_rows_are_the_whole_parts_there(self, n, seed):
        # a part on a sub-box of rows is the whole part read there, bit for bit
        g = Grid(n, 1.0)
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        m, half = inverse_power(g, 1.5), Lattice.half(g)
        whole = kernel_tensor(half, m, np.arange(n))
        for (entries, part), (_, at) in zip(whole, kernel_tensor(half, m, rows)):
            want = part[np.ix_(rows, rows, rows)]
            assert np.array_equal(at.view(np.int64), want.view(np.int64)), entries


class TestIrfftnAt:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([8, 12, 16, 48, 96]),
        batch=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**16),
        every_row=st.booleans(),
    )
    def test_is_irfftn_read_on_the_rows(self, n, batch, seed, every_row):
        # irfftn of random half-lattice coefficients on rows x rows x rows, bit for
        # bit (signed zeros included), whether the rows are all n or a subset
        rng = np.random.default_rng(seed)
        shape = (batch, n, n, n // 2 + 1)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows = (np.arange(n) if every_row
                else np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)))
        want = spectral.scalar_to_real(c)[:, rows][:, :, rows][..., rows]
        got = spectral._irfftn_at(c.copy(), rows)
        assert got.shape == (batch,) + (len(rows),) * 3
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestOctantToReal:
    @pytest.mark.parametrize("parity", list(itertools.product((0, 1), repeat=3)),
                             ids=lambda p: "".join("eo"[c] for c in p))
    @settings(max_examples=10, deadline=None)
    @given(n=HALF_SIZES, seed=st.integers(0, 2**16))
    def test_matches_irfftn_of_the_extended_symbol(self, parity, n, seed):
        # a random real multiplier on the octant, extended to the half lattice by
        # its parities (Nyquist rows zeroed), through irfftn and read on the octant
        half = n // 2 + 1
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((2, half, half, half))  # a batch of two
        m[:, half - 1] = m[:, :, half - 1] = m[..., half - 1] = 0.0
        k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        rows = [np.abs(k), np.abs(k), np.abs(k[:half])]
        sign = [np.sign(r) ** p for r, p in zip((k, k, k[:half]), parity)]
        sym = m[:, rows[0][:, None, None], rows[1][None, :, None], rows[2][None, None, :]]
        sym = sym * sign[0][:, None, None] * sign[1][None, :, None] * sign[2][None, None, :]
        want = sfft.irfftn((-1j) ** sum(parity) * sym, s=(n, n, n))[:, :half, :half, :half]
        got = spectral.octant_to_real(m, parity)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        for axis, p in zip((1, 2, 3), parity):  # the rows j = 0, n/2 of an odd axis are 0
            if p:
                assert np.all(np.take(got, [0, half - 1], axis=axis) == 0.0)

    def test_reads_no_endpoint_row_of_an_odd_axis_and_keeps_its_input(self):
        m = np.random.default_rng(5).standard_normal((9, 9, 9))
        kept = m.copy()
        cut = m.copy()
        cut[0], cut[-1] = 0.0, 0.0
        got = spectral.octant_to_real(m, (1, 0, 0))
        assert np.array_equal(m, kept)
        assert np.array_equal(got, spectral.octant_to_real(cut, (1, 0, 0)))


def scipy_octant_to_real(m, parity):
    """``octant_to_real`` as scipy.fft spells it: one DCT-I or DST-I per axis."""
    n = 2 * (m.shape[-1] - 1)
    inner = (...,) + tuple(slice(1, -1) if p else slice(None) for p in parity)
    out = m[inner]
    for axis, p in zip((-3, -2, -1), parity):
        out = (sfft.dst if p else sfft.dct)(out, type=1, axis=axis)
    full = np.zeros(m.shape)
    full[inner] = out / n**3
    return full


# (n, _WORKERS, _SLAB_ROWS): every size split as a run splits it (at 16^3 nothing
# splits; at 48^3 the full-size stages do; from 96^3 the pruned pair's scatter and
# gather and the octant stages do too), and a 16^3 grid with _SLAB_ROWS = 1, whose
# stages run on three slabs, _irfftn_at's y and z stages on slabs of one row
STAGE_CASES = [(n, w, 40) for n in (16, 48, 96, 128) for w in (1, 2, 3)] + [(16, 3, 1)]


class TestStagesMatchScipy:
    """Each transform, taken as numpy.fft one-axis stages by slabs of rows, is
    scipy.fft's, bit for bit, however its rows are split."""

    @pytest.fixture(params=STAGE_CASES, ids=lambda c: "n%d-w%d-r%d" % c)
    def case(self, request, monkeypatch):
        n, workers, rows = request.param
        monkeypatch.setattr(spectral, "_WORKERS", workers)
        monkeypatch.setattr(spectral, "_SLAB_ROWS", rows)
        return n, np.random.default_rng(n + workers + rows)

    @staticmethod
    def coefficients(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_pruned_pair(self, case):
        n, rng = case
        cube = Lattice.dealias_cube(Grid(n, 1.0))
        c = self.coefficients(rng, (3,) + cube.spectral_shape)
        assert np.array_equal(spectral._cube_to_real(c, cube), staged_cube_to_real(c, cube))
        x = rng.standard_normal((3, n, n, n))
        want = gather(sfft.rfftn(x, axes=(1, 2, 3)), cube)
        assert np.array_equal(spectral._real_to_cube(x, cube), want)

    def test_half_lattice_pair(self, case):
        n, rng = case
        c = self.coefficients(rng, (3, n, n, n // 2 + 1))
        want = sfft.irfftn(c, s=(n, n, n), axes=(1, 2, 3))
        assert np.array_equal(spectral.scalar_to_real(c), want)
        x = rng.standard_normal((3, n, n, n))
        assert np.array_equal(spectral.scalar_to_spectral(x), sfft.rfftn(x, axes=(1, 2, 3)))

    def test_irfftn_at(self, case):
        # three rows: at _SLAB_ROWS = 1 on three workers, the y and z stages,
        # which keep only these rows, run on three slabs of one row each
        n, rng = case
        c = self.coefficients(rng, (n, n, n // 2 + 1))
        rows = np.sort(rng.choice(n, size=3, replace=False))
        want = sfft.irfftn(c, s=(n, n, n))[np.ix_(rows, rows, rows)]
        assert np.array_equal(spectral._irfftn_at(c.copy(), rows), want)

    @pytest.mark.parametrize("parity", list(itertools.product((0, 1), repeat=3)),
                             ids=lambda p: "".join("eo"[c] for c in p))
    def test_octant_to_real(self, case, parity):
        n, rng = case
        half = n // 2 + 1
        m = rng.standard_normal((2, half, half, half))  # a batch of two
        m[:, :, 2] = 0.0  # rows of zeros, as an underflowed multiplier holds
        assert np.array_equal(spectral.octant_to_real(m, parity), scipy_octant_to_real(m, parity))


class TestApplyBilinear:
    def test_zero_in_zero_out(self, grid32):
        v = SpectralVectorField(Lattice.half(grid32), np.zeros((3, 32, 32, 17), complex))
        out = bilinear_on_lattice(v, 1.5)
        assert np.all(out == 0)

    def test_output_divergence_free_and_mean_free(self, grid32):
        v = random_divfree_spectral(grid32, seed=14)
        g = v.grid
        out = bilinear_on_lattice(v, 1.5)
        div = g.xi[0] * out[0] + g.xi[1] * out[1] + g.xi[2] * out[2]
        assert np.max(np.abs(div)) < 1e-12 * max(
            np.max(np.abs(out)) * np.max(g.kmag), 1e-300
        )
        assert np.all(out[:, 0, 0, 0] == 0.0)

    @pytest.mark.parametrize("mean_free", [True, False])
    def test_lift_of_projected_advection(self, grid32, mean_free):
        # the lift is applied without a mean check: P div(v (x) v) has a zero
        # mode of exactly 0 even when v has a mean
        v = random_divfree_spectral(grid32, seed=17, mean_free=mean_free)
        assert mean_free or np.any(v.data[:, 0, 0, 0] != 0)
        alpha = 1.5
        out = bilinear_on_lattice(v, alpha)
        want = on_half_lattice(fractional_power(projected_advection(on_cube(v)), -alpha)).data
        assert np.array_equal(out, -want)
        assert np.all(out[:, 0, 0, 0] == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([10, 14, 18, 24]),
        box=BOXES,
        seed=st.integers(0, 2**16),
    )
    def test_lift_of_projected_advection_where_cube_rounds(self, n, box, seed):
        # sizes where n/3 has fractional part 1/3, 2/3 or none: the cube path
        # of apply_bilinear and the zero-filled projected_advection agree exactly
        v = random_divfree_spectral(Grid(n, box), seed=seed)
        alpha = 1.5
        out = bilinear_on_lattice(v, alpha)
        want = on_half_lattice(fractional_power(projected_advection(on_cube(v)), -alpha)).data
        assert np.array_equal(out, -want)

    def test_scaling_covariance(self, grid32):
        # u_lam(x) = lam^(alpha-1) u(lam x) realized with the same mode count
        # on the box L/lam: coefficients must match lam^(alpha-1) B(u,u).
        from fracns.spectral import Grid

        g = grid32
        alpha, lam = 1.7, 2
        u = random_divfree_spectral(g, seed=15)
        u.data *= dealias_mask(g)
        b1 = bilinear_on_lattice(u, alpha)

        g2 = Grid(g.n, g.box_length / lam)
        u2 = SpectralVectorField(Lattice.half(g2), lam ** (alpha - 1.0) * u.data)
        b2 = bilinear_on_lattice(u2, alpha)
        want = lam ** (alpha - 1.0) * b1
        scale = np.max(np.abs(want))
        assert np.max(np.abs(b2 - want)) < 1e-10 * scale

    def test_energy_neutral_advection(self, grid32):
        # discrete analogue of the divergence-free cancellation
        u = on_cube(random_divfree_spectral(grid32, seed=16))
        u.data *= u.grid.dealias_mask
        adv = projected_advection(u)
        s = l2_inner(adv, u)
        assert abs(s) < 1e-8 * l2_norm(u) ** 3


class TestFiniteness:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_products_raise(self, grid16):
        # finite samples whose squares exceed the float64 range
        v = on_cube(random_divfree_spectral(grid16, seed=20))
        v.data *= 1e160 / np.max(np.abs(to_real(v).data))
        assert np.all(np.isfinite(to_real(v).data))
        with pytest.raises(NumericalBlowup):
            projected_advection(v)

    def test_nonfinite_velocity_raises(self, grid16):
        v = on_cube(random_divfree_spectral(grid16, seed=21))
        v.data[0, 1, 0, 0] = np.nan
        with pytest.raises(NumericalBlowup):
            projected_advection(v)


class TestSlabs:
    """The map's elementwise passes run by slabs of leading rows
    (``spectral._by_slabs``), one slab per worker, the first on the calling
    thread; ``_WORKERS`` sets the slab count, and a slab of a single row is
    allowed here so that small cubes split too."""

    @pytest.fixture(autouse=True)
    def _single_row_slabs(self, monkeypatch):
        monkeypatch.setattr(spectral, "_SLAB_ROWS", 1)

    @pytest.mark.parametrize("n, box", [(16, 4.0), (32, 16.0)])
    def test_split_keeps_the_bits(self, monkeypatch, n, box):
        v = on_cube(random_divfree_spectral(Grid(n, box), seed=n))
        # 2 slabs do not divide the cube's rows, 3 do not divide the samples' rows
        assert v.grid.spectral_shape[0] % 2 and n % 3
        got = {}
        for slabs in (1, 2, 3):
            monkeypatch.setattr(spectral, "_WORKERS", slabs)
            got[slabs] = (spectral.apply_bilinear(v, 1.5).data, projected_advection(v).data,
                          to_real(v).data)
        for slabs in (2, 3):
            assert all(np.array_equal(a, b) for a, b in zip(got[1], got[slabs])), slabs

    @pytest.mark.parametrize("n, box", [(16, 4.0), (32, 16.0)])
    @pytest.mark.parametrize("slabs", [1, 2, 3])
    def test_maps_sharing_a_scratch_keep_the_bits(self, monkeypatch, n, box, slabs):
        # successive iterates mapped in one scratch, as a solve maps them, against
        # maps that make their own: the same bits, and no returned array lies in
        # the scratch or in an earlier result
        monkeypatch.setattr(spectral, "_WORKERS", slabs)
        v = on_cube(random_divfree_spectral(Grid(n, box), seed=n))
        scratch = spectral._MapScratch(v.grid)
        held = list(vars(scratch).values())
        earlier = []
        for _ in range(3):
            got = spectral.apply_bilinear(v, 1.5, _scratch=scratch).data
            assert np.array_equal(got, spectral.apply_bilinear(v, 1.5).data)
            assert not any(np.shares_memory(got, a) for a in held + earlier)
            earlier.append(got)
            v = SpectralVectorField(v.grid, v.data + got)

    @pytest.mark.parametrize("slabs", [1, 2, 3])
    @pytest.mark.parametrize("row", [0, -1], ids=["first_row", "last_row"])
    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_blowup_raises_from_any_slab(self, monkeypatch, grid16, slabs, row, value):
        monkeypatch.setattr(spectral, "_WORKERS", slabs)
        v = on_cube(random_divfree_spectral(grid16, seed=21))
        v.data[0, row, 1, 1] = value  # k_x = 0 or -1, inside the 2/3 rule
        # the mask's complex product makes inf * 0 in the imaginary part
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalBlowup, match="^non-finite coefficients entering the quadratic term$"):
            projected_advection(v)

    @pytest.mark.parametrize("slabs", [1, 2, 3])
    def test_overflow_raises_under_the_callers_error_state(self, monkeypatch, grid16, slabs):
        # the products overflow in every slab; np.errstate, set by the caller, holds
        # on the pool's slabs too, so none of them warns
        monkeypatch.setattr(spectral, "_WORKERS", slabs)
        v = on_cube(random_divfree_spectral(grid16, seed=20))
        v.data *= 1e160 / np.max(np.abs(to_real(v).data))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalBlowup, match="^overflow while forming the quadratic term$"):
            projected_advection(v)

    def test_slabs_cover_the_rows_in_order(self, monkeypatch):
        monkeypatch.setattr(spectral, "_WORKERS", 3)
        assert spectral._by_slabs(lambda s: (s.start, s.stop), 10) == [(0, 3), (3, 6), (6, 10)]
        assert spectral._by_slabs(lambda s: (s.start, s.stop), 2) == [(0, 1), (1, 2)]

    def test_few_rows_are_one_slab(self, monkeypatch):
        # below two slabs' worth of rows a pass stays whole, on the calling thread
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        monkeypatch.setattr(spectral, "_SLAB_ROWS", 20)
        assert spectral._by_slabs(lambda s: s, 39) == [slice(0, 39)]
        assert spectral._by_slabs(lambda s: s, 40) == [slice(0, 20), slice(20, 40)]
        # a transform stage's slab needs half as many rows, so lowering _SLAB_ROWS
        # splits the stages, the scatter and the gather too, to one row at 1
        assert spectral._stage_rows() == 10
        monkeypatch.setattr(spectral, "_SLAB_ROWS", 1)
        assert spectral._stage_rows() == 1

    def test_one_worker_is_one_call_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(spectral, "_WORKERS", 1)
        calls = spectral._by_slabs(lambda s: (s, threading.get_ident()), 7)
        assert calls == [(slice(0, 7), threading.get_ident())]

    @pytest.mark.parametrize("failing", [0, 6], ids=["calling_thread", "pool"])
    def test_waits_for_every_slab_before_it_raises(self, monkeypatch, failing):
        monkeypatch.setattr(spectral, "_WORKERS", 3)
        done = []

        def pass_(s):
            if s.start == failing:
                raise ValueError(f"slab {s.start}")
            time.sleep(0.05)
            done.append(s.start)

        with pytest.raises(ValueError, match=f"^slab {failing}$"):
            spectral._by_slabs(pass_, 9)
        assert sorted(done) == sorted({0, 3, 6} - {failing})

    def test_concurrent_callers_share_the_pool(self, monkeypatch, grid16):
        # callers on several threads give the one pool their slabs at once, with
        # the interpreter switching threads often; each gets its own bits back
        v = on_cube(random_divfree_spectral(grid16, seed=22))
        want = spectral.apply_bilinear(v, 1.5).data
        monkeypatch.setattr(spectral, "_WORKERS", 3)
        got = [None] * 4

        def call(i):
            got[i] = spectral.apply_bilinear(v, 1.5).data

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(got))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert all(g is not None and np.array_equal(g, want) for g in got)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_gets_its_own_pool(self):
        # the parent's pool thread does not exist in a forked child, whose
        # slabs must not wait on it
        script = textwrap.dedent("""
            import os, signal, sys
            from fracns import spectral
            spectral._WORKERS, spectral._SLAB_ROWS = 2, 1
            assert spectral._by_slabs(lambda s: s.stop, 4) == [2, 4]  # starts a pool thread
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)  # a child that waits on no thread ends here
                os._exit(0 if spectral._by_slabs(lambda s: s.stop, 4) == [2, 4] else 1)
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        src = str(pathlib.Path(spectral.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
