"""Periodic grids, spectral transforms and the Fourier-multiplier operators.

Everything downstream is built from the primitives here: the Leray projector,
fractional Laplacian powers and the lifted-advection symbol.  Every multiplier
takes its zero-mode rule from ``Grid.power``: a symbol singular or undefined
there returns 0, which is exact for the mean-free admissible forces.  A run's
spectral fields are held on one lattice, the box of rfftn half-lattice modes
the 2/3 rule keeps (``_Cube``, where the 2/3-rule mask is defined), which
stands in for its Grid: the force, its lift, every Picard iterate and the
solution are 0 off it.  ``min_image`` is the one minimum-image rule.  A cube
is transformed through a pruned pair whose one-axis complex stages run in
place on one half-lattice array, the y stage on the cube's two runs of k_x
rows.  The quadratic map (``apply_bilinear``), ``projected_advection``,
``to_real`` and ``l2_norm`` take a field held on a cube; the map works in a
``_MapScratch``, which a solve holds for all its maps.  The solver stack calls
no BLAS: the transforms take ``_WORKERS`` pocketfft threads and the Parseval
sums (``_Cube.lattice_sum``) run in numpy's own loops, so no idle OpenBLAS
thread spins against the FFT workers and no bit depends on its thread count.
Between the transforms, the map's elementwise passes and the Picard step run
by slabs of leading rows (``_by_slabs``) on the calling thread and a pool of
``_WORKERS`` - 1 threads, each element with the same float operations in
whichever slab it falls.  The multipliers (``leray_project``,
``fractional_power``) read a field on either lattice with one code path.  The
kernel tensor's ten parts (``kernel_tensor``) are synthesized on a sub-box of
rows alone, by irfftn's own stages (``_irfftn_at``), equal to irfftn there bit
for bit.  A symbol even or odd along each axis is also sampled on the octant
alone (``octant_to_real``), by one real DCT-I or DST-I per axis; a lattice sum
of a reflection-invariant quantity is the octant sum weighted 1 on the j = 0
and j = n/2 planes of each axis and 2 elsewhere.
"""

from __future__ import annotations

import contextvars
import itertools
import numbers
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from .errors import InvalidGrid, NumericalBlowup, ZeroModeUndefined

# the CPUs this process may run on, where the platform says so
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _new_pool():
    """The process's one pool for ``_by_slabs``, made without starting a thread:
    its _WORKERS - 1 threads (at least one) start when first given a slab."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=max(_WORKERS - 1, 1))


_new_pool()
if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_new_pool)

# the fewest rows worth a slab (2 CPUs): handing one to the pool costs about
# 40 us, so a map on two slabs took 1.5x as long as on one at 32^3; a
# fresh-process nonexist run at 64^3, whole here, gained nothing split
_SLAB_ROWS = 40


def _by_slabs(pass_, rows: int) -> list:
    """Run the elementwise ``pass_(s)`` over up to ``_WORKERS`` contiguous slabs
    s of range(rows), the leading rows of the arrays it reads and writes, each
    of at least ``_SLAB_ROWS`` rows where there are two or more: the first slab
    on the calling thread, the others on the pool.  Returns the slabs'
    results in order once every slab is done, or re-raises once every slab is
    done, so no pool thread still writes the caller's arrays when it moves on.
    A pass takes no transform and calls no public function, and it allocates no
    array: it writes rows of arrays and scratch that the caller owns, so each
    element gets the same float operations however the rows are split.  Each
    slab runs in a copy of the caller's context, which holds numpy's error
    state (``np.errstate``)."""
    k = max(1, min(_WORKERS, rows // _SLAB_ROWS))
    cuts = [rows * i // k for i in range(k + 1)]
    slabs = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    futures = [_POOL.submit(contextvars.copy_context().run, pass_, s) for s in slabs[1:]]
    try:
        first = pass_(slabs[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


# the ten cubic monomials xi_a xi_b xi_c, a <= b <= c, in lexicographic order
CUBIC_MONOMIALS = tuple(itertools.combinations_with_replacement(range(3), 3))


def is_integer(x) -> bool:
    """True for integers other than bool (True is not a count)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for real numbers other than bool (True is not a length)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_grid(n, box_length):
    """Raise InvalidGrid unless ``n`` is an even integer >= 8 and the box
    length is finite and positive, with a cell volume (L/n)^3 that is a normal
    float; allocates nothing, so configs are checked cheaply."""
    if not is_integer(n):
        raise InvalidGrid(f"need an integer number of points, got {n!r}")
    if n < 8 or n % 2 != 0:
        raise InvalidGrid(f"need an even number of points >= 8, got {n}")
    if not (is_real(box_length) and 0.0 < box_length < np.inf):
        raise InvalidGrid(f"box_length must be finite and positive, got {box_length!r}")
    # outside, (L/n)^3 overflows, or underflows to 0 while |xi|^2 overflows
    f64 = np.finfo(np.float64)
    if not n * f64.tiny ** (1 / 3) < box_length < n * f64.max ** (1 / 3):
        raise InvalidGrid(f"box_length {box_length!r} at n = {n} gives a cell volume "
                          "(box_length/n)^3 outside the normal float range")


def min_image(d, L: float) -> np.ndarray:
    """The signed minimum image of offsets ``d`` in [-L, L] on a period ``L``: d
    moved by one period where |d| > L/2, into [-L/2, L/2]."""
    return np.where(d > L / 2, d - L, np.where(d < -L / 2, d + L, d))


@dataclass(frozen=True)
class Grid:
    """Spectral quantities for a periodic cubic box [0, L)^3, L = ``box_length``,
    of ``n`` points per axis (even, >= 8); the n^3 ones are formed on first read.

    The frequency lattice per axis is {2*pi*k/L : k in [-n/2, n/2)} in
    standard DFT ordering.  Real fields are stored on the half lattice
    (n, n, n/2+1) of ``rfftn``: the last axis keeps k = 0..n/2-1 and the
    Nyquist plane k = -n/2, so every symbol here is the full-lattice symbol
    sliced to its first n/2+1 planes.  The Nyquist row is treated as
    self-conjugate and is zeroed inside every odd (differentiation-like)
    multiplier so that real fields stay real.
    """

    n: int
    box_length: float

    def __post_init__(self):
        check_grid(self.n, self.box_length)
        n, L = self.n, float(self.box_length)
        object.__setattr__(self, "box_length", L)
        object.__setattr__(self, "spacing", L / n)
        object.__setattr__(self, "cell_volume", (L / n) ** 3)
        object.__setattr__(self, "spectral_shape", (n, n, n // 2 + 1))

        k_int = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)  # 0,1,..,n/2-1,-n/2,..,-1
        object.__setattr__(self, "k_int", k_int)
        object.__setattr__(self, "x_axis", (L / n) * np.arange(n))

        half = n // 2 + 1  # the last axis ends on the Nyquist plane, kept at -n/2
        rows = [k_int.reshape(n, 1, 1), k_int.reshape(1, n, 1), k_int[:half].reshape(1, 1, half)]
        object.__setattr__(self, "xi", [(2.0 * np.pi / L) * k for k in rows])
        # one boolean row per axis, broadcast over the half lattice: True on k = -n/2
        object.__setattr__(self, "nyquist_rows", [k == -(n // 2) for k in rows])

        # the 2/3-rule truncation radius; the dealias cube (``_Cube``) keeps the modes inside
        object.__setattr__(self, "dealias_radius", (2.0 / 3.0) * (np.pi * n / L))

    # the half-lattice arrays, formed on first read: a run's fields live on its cube
    @cached_property
    def k2(self) -> np.ndarray:
        return self.xi[0] ** 2 + self.xi[1] ** 2 + self.xi[2] ** 2

    @cached_property
    def kmag(self) -> np.ndarray:
        return np.sqrt(self.k2)

    @cached_property
    def nyquist_free(self) -> np.ndarray:  # True where no axis is on its Nyquist row
        nyq = self.nyquist_rows
        return ~(nyq[0] | nyq[1] | nyq[2])

    def power(self, beta: float) -> np.ndarray:
        """The symbol |xi|^beta, 0 at the zero mode for every beta.

        This is the package's single zero-mode rule: the lift |xi|^-alpha and
        the Leray factor 1/|xi|^2 = power(-2.0) are singular there.
        """
        out = np.where(self.kmag == 0.0, 1.0, self.kmag)
        np.power(out, beta, out=out)  # in place: one n^3 array per call
        out[0, 0, 0] = 0.0
        return out

    def shift_phase(self, origin) -> np.ndarray:
        """The translation phase exp(-i xi . origin)."""
        xi = self.xi
        return np.exp(-1j * (xi[0] * origin[0] + xi[1] * origin[1] + xi[2] * origin[2]))

    def offsets(self, origin):
        """The signed minimum-image offsets x - origin, one (n,) array per axis."""
        return [min_image(self.x_axis - o, self.box_length) for o in origin]

    def radius_from(self, origin):
        """Minimum-image distance of every grid point from ``origin``."""
        d0, d1, d2 = self.offsets(origin)
        return np.sqrt(d0[:, None, None] ** 2 + d1[:, None] ** 2 + d2**2)

    @property
    def center(self):
        return np.full(3, 0.5 * self.box_length)


@dataclass
class RealVectorField:
    """Three scalar arrays of N^3 real samples on a common grid."""

    grid: Grid
    data: np.ndarray  # (3, n, n, n), float64

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (3, self.grid.n, self.grid.n, self.grid.n):
            raise ValueError(f"bad field shape {self.data.shape}")

    def magnitude(self) -> np.ndarray:
        # ((d0^2 + d1^2) + d2^2), the order of sum(axis=0), with one n^3 array
        d = self.data
        m = d[0] * d[0]
        m += d[1] * d[1]
        m += d[2] * d[2]
        return np.sqrt(m, out=m)


@dataclass
class SpectralVectorField:
    """Three arrays of Fourier coefficients of a real field, held on the lattice
    ``grid``: a dealias cube (``_Cube``), where a run holds every field it makes,
    or a Grid's half lattice (the ``rfftn`` layout), which the multipliers alone
    read."""

    grid: Grid | _Cube
    data: np.ndarray  # (3,) + grid.spectral_shape, complex128

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (3,) + self.grid.spectral_shape:
            raise ValueError(f"bad field shape {self.data.shape}")


def zero_spectral(lattice: Grid | _Cube) -> SpectralVectorField:
    return SpectralVectorField(lattice, np.zeros((3,) + lattice.spectral_shape, dtype=complex))


def to_real(field: SpectralVectorField) -> RealVectorField:
    """The real samples of a field held on a dealias cube."""
    cube = field.grid
    return RealVectorField(cube.grid, _cube_to_real(field.data, cube))


def scalar_to_real(coeffs: np.ndarray) -> np.ndarray:
    """Real samples (..., n, n, n) of half-lattice coefficients (..., n, n, n/2+1):
    the last three axes are transformed, any leading axes are a batch."""
    n = coeffs.shape[-3]
    return sfft.irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1), workers=_WORKERS)


def _irfftn_at(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``scalar_to_real(coeffs)`` on the sites ``rows`` x ``rows`` x ``rows``, bit for
    bit, for half-lattice coefficients (..., n, n, n/2+1), which it overwrites:
    irfftn's stages unscaled, ifft along x in place, ifft along y and irfft along
    z, each keeping ``rows`` of its axis, then one product by irfftn's 1/n^3."""
    n, kw = coeffs.shape[-3], dict(norm="forward", workers=_WORKERS)
    x = sfft.ifft(coeffs, axis=-3, overwrite_x=True, **kw)[..., rows, :, :]
    y = sfft.ifft(x, axis=-2, overwrite_x=True, **kw)[..., rows, :]
    return sfft.irfft(y, n=n, axis=-1, **kw)[..., rows] * (1 / n**3)


def scalar_to_spectral(samples: np.ndarray) -> np.ndarray:
    """Half-lattice coefficients of real samples, ``scalar_to_real``'s inverse:
    the last three axes are transformed, any leading axes are a batch."""
    return sfft.rfftn(samples, axes=(-3, -2, -1), workers=_WORKERS)


def octant_to_real(m: np.ndarray, parity) -> np.ndarray:
    """Real samples, on the octant j = 0..n/2 of each axis, of a real multiplier
    given on the octant k = 0..n/2 of each axis and even (parity 0) or odd
    (parity 1) along each of the last three axes:
    sum_k m(k) prod_c cs_c(2 pi k_c j_c / n) / n^3 over the full lattice, cs_c
    cos on even axes and sin on odd ones.  That is irfftn of the symbol
    (-1j)**(number of odd axes) m, extended to the lattice by its parities.

    An even axis is one DCT-I (FFTW's REDFT00).  An odd axis is one DST-I
    (RODFT00) of its interior rows 1..n/2-1: an odd multiplier is 0 on the
    rows k = 0 and n/2, where -k is k, and so are the samples on the rows
    j = 0 and n/2.  Leading axes of ``m`` are a batch.
    """
    n = 2 * (m.shape[-1] - 1)
    inner = (...,) + tuple(slice(1, -1) if p else slice(None) for p in parity)
    out = m[inner]
    for stage, (axis, p) in enumerate(zip((-3, -2, -1), parity)):
        transform = sfft.dst if p else sfft.dct
        # the first stage reads the caller's m; later ones own their input
        out = transform(out, type=1, axis=axis, overwrite_x=stage > 0, workers=_WORKERS)
    out /= n**3
    if not any(parity):
        return out
    full = np.zeros(m.shape)
    full[inner] = out
    return full


class _Cube:
    """The box of half-lattice modes the quadratic map keeps: the rows and
    planes of ``grid`` whose axis frequency lies in the 2/3-rule sphere, |k_x|,
    |k_y| <= m and 0 <= k_z <= m, m the largest kept |k| on an axis (m <= n/3, so
    no Nyquist row or plane).  Dealiasing is defined here: ``dealias_mask`` is
    |xi| <= ``dealias_radius`` on the box.  The cube stands in for its Grid as the
    lattice of the fields held on it: ``xi`` is the Grid's, gathered, ``kmag`` is
    |xi| on the box, ``n``, ``box_length``, ``spacing`` and ``cell_volume`` are the
    Grid's, and ``power``, ``shift_phase`` and ``center`` are Grid methods, so the
    one zero-mode rule applies (the cube's first mode is k = 0).  A cube is built
    once per force: it forms the Leray factor 1/|xi|^2 when built and the lift of
    each order alpha when first asked for it."""

    def __init__(self, grid: Grid):
        n, r = grid.n, grid.dealias_radius * (1.0 + 1e-12)
        # the kept axis frequencies: |xi| <= r at k_y = k_z = 0, as the mask below reads it
        k = grid.k_int[np.sqrt(grid.xi[0].ravel() ** 2) <= r]
        lo, hi = int(np.sum(k >= 0)), int(np.sum(k < 0))
        self.grid = grid
        self.n, self.box_length = n, grid.box_length
        self.spacing, self.cell_volume = grid.spacing, grid.cell_volume
        # the grid rows of the kept k = 0, 1, .. and .., -1, in the cube's order
        rows = np.r_[0:lo, n - hi : n]
        self.planes, self.spectral_shape = lo, (lo + hi, lo + hi, lo)
        xi = grid.xi
        self.xi = xi = [xi[0][rows], xi[1][:, rows], xi[2][..., :lo]]
        self.kmag = kmag = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
        np.sqrt(kmag, out=kmag)  # in place: a freed cube-sized temporary raised decay's peak RSS
        self.dealias_mask = kmag <= r
        self.leray_factor = self.power(-2.0)
        self._lifts = {}

    power = Grid.power
    shift_phase = Grid.shift_phase
    center = Grid.center

    def row_runs(self, s: slice) -> list:
        """(cube rows, grid rows) slice pairs that cover the cube rows ``s`` of an
        axis: the kept k >= 0 are the grid's first rows, the kept k < 0 its last."""
        lo, nc = self.planes, self.spectral_shape[0]
        return [(slice(a, b), slice(a + shift, b + shift))
                for a, b, shift in ((s.start, min(s.stop, lo), 0),
                                    (max(s.start, lo), s.stop, self.n - nc))
                if a < b]

    def lift(self, alpha: float) -> np.ndarray:
        """The quadratic map's lift -|xi|^-alpha on the cube, formed once per alpha."""
        if alpha not in self._lifts:
            self._lifts[alpha] = -self.power(-alpha)
        return self._lifts[alpha]

    def lattice_sum(self, a: np.ndarray, b: np.ndarray) -> float:
        """Re sum over the full lattice of conj(a) b for vector fields a, b (3,) +
        the cube's shape, contiguous along k_z: the cube holds no Nyquist plane,
        so every plane but k_z = 0 also stands for its conjugate mirror and counts
        twice.  Re conj(a) b is the dot product of the float64 views, whose first
        two entries along z are the k_z = 0 plane.  That plane and the mirrored
        ones are summed apart, so neither cancels the other, by einsum along each
        z row and a pairwise sum of the rows: numpy's own loops, in one thread.  A
        BLAS dot's idle threads would spin against the FFT workers, and its sum
        would split by the host's thread count."""
        x, y = a.view(np.float64), b.view(np.float64)
        mirrored = np.einsum("cxyz,cxyz->cxy", x[..., 2:], y[..., 2:]).sum()
        plane = np.einsum("cxyz,cxyz->cxy", x[..., :2], y[..., :2]).sum()
        return 2.0 * mirrored + plane


def _into(view: np.ndarray, x: np.ndarray) -> None:
    """Keep in ``view`` the one-axis transform ``x`` taken of it with overwrite_x,
    which permits a transform in place but does not promise it: ``x`` is either
    written over ``view`` or a new array."""
    if not np.may_share_memory(x, view):
        view[...] = x


class _MapScratch:
    """The quadratic map's numpy scratch on one cube, for three components: the
    inverse stage's half-lattice array ``padded`` and the marks ``finite`` of
    the finiteness checks, and, cut from the memory of ``padded`` once the
    inverse stage has read it, the forward loop's ``product``, ``w_hat`` and
    ``tmp`` (Leray's ``dot`` and ``tmp`` after it).  ``solve_steady`` holds one
    for all the maps of a solve; a map given none makes its own.  Nothing the
    map returns is cut from it."""

    def __init__(self, cube: _Cube):
        n, shape = cube.n, cube.spectral_shape
        self.padded = np.empty((3,) + cube.grid.spectral_shape, dtype=np.complex128)
        self.finite = np.empty((3,) + shape, dtype=bool)
        # n^3/2 + 2 size of its 3 n^2 (n/2+1) slots: the cube holds under n^3/2 modes
        flat, k, size = self.padded.reshape(-1), n**3 // 2, int(np.prod(shape))
        self.product = flat[:k].view(np.float64).reshape(n, n, n)
        self.w_hat = flat[k : k + size].reshape(shape)
        self.tmp = flat[k + size : k + 2 * size].reshape(shape)


def _cube_to_real(coeffs: np.ndarray, cube: _Cube, padded: np.ndarray | None = None,
                  mask: np.ndarray | None = None,
                  finite: np.ndarray | None = None) -> np.ndarray:
    """Real samples (..., n, n, n) of coefficients held on ``cube`` (every other
    mode 0).  The cube is scattered into a half-lattice array (``padded``, which
    may hold anything, or a new one), zero off the cube, by slabs of k_x rows;
    then ifft along y in place on the cube's two runs of k_x rows, ifft along x
    in place on the cube's planes, and irfft along z, which reads that array as
    it is.  With ``mask`` (the 2/3-rule mask, as the quadratic map reads it)
    the scatter writes the coefficients times the mask and marks in ``finite``
    where that is finite, and a non-finite one raises NumericalBlowup."""
    n, p, nc = cube.n, cube.planes, cube.spectral_shape[0]
    # all n/2+1 planes, so that irfft needs no zero-padded copy
    b = (np.empty(coeffs.shape[:-3] + cube.grid.spectral_shape, dtype=np.complex128)
         if padded is None else padded)
    runs = cube.row_runs(slice(0, nc))
    off = slice(p, p + n - nc)  # the grid rows between the cube's two runs
    b_off = b[..., off, :, :]

    def clear(s):
        b_off[..., s, :, :] = 0

    def scatter(s):
        ok = True
        for c, g in cube.row_runs(s):
            rows = b[..., g, :, :]
            rows[..., off, :p] = 0
            rows[..., p:] = 0
            for cy, gy in runs:
                to = rows[..., gy, :p]
                if mask is None:
                    to[...] = coeffs[..., c, cy, :]
                else:
                    np.multiply(coeffs[..., c, cy, :], mask[c, cy, :], out=to)
                    ok &= np.isfinite(to, out=finite[..., c, cy, :]).all()
        return ok

    _by_slabs(clear, n - nc)
    if not all(_by_slabs(scatter, nc)):
        raise NumericalBlowup("non-finite coefficients entering the quadratic term")
    for _, g in runs:
        y = b[..., g, :, :p]
        _into(y, sfft.ifft(y, axis=-2, overwrite_x=True, workers=_WORKERS))
    x = b[..., :p]
    _into(x, sfft.ifft(x, axis=-3, overwrite_x=True, workers=_WORKERS))
    return sfft.irfft(b, n=n, axis=-1, workers=_WORKERS)


def _real_to_cube(samples: np.ndarray, cube: _Cube,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The coefficients on ``cube`` of real samples (..., n, n, n): rfft along z,
    fft along x in place on the cube's planes of its output, then fft along y
    in place on the cube's two runs of k_x rows there.  The cube is gathered
    from that array by slabs of k_x rows, into ``out`` where given."""
    p, nc = cube.planes, cube.spectral_shape[0]
    a = sfft.rfft(samples, axis=-1, workers=_WORKERS)
    x = a[..., :p]
    _into(x, sfft.fft(x, axis=-3, overwrite_x=True, workers=_WORKERS))
    runs = cube.row_runs(slice(0, nc))
    for _, g in runs:
        y = a[..., g, :, :p]
        _into(y, sfft.fft(y, axis=-2, overwrite_x=True, workers=_WORKERS))
    if out is None:
        out = np.empty(a.shape[:-3] + cube.spectral_shape, dtype=np.complex128)

    def gather(s):
        for c, g in cube.row_runs(s):
            for cy, gy in runs:
                out[..., c, cy, :] = a[..., g, gy, :p]

    _by_slabs(gather, nc)
    return out


# ---------------------------------------------------------------------------
# multipliers


def _leray(v: np.ndarray, grid, leray_factor: np.ndarray, out: np.ndarray,
           lift: np.ndarray | None = None, work=None) -> np.ndarray:
    """out = (I - xi xi^T/|xi|^2) v for coefficients v (3, ...) on ``grid`` (a Grid
    or a ``_Cube``), ``leray_factor`` its 1/|xi|^2 with 0 at the zero mode, then
    times ``lift`` where given, one component at a time, by slabs of k_x rows;
    ``out`` may be ``v``.  The xi rows are cast to complex once, as the products
    would cast them.  The pass works in ``work``, two arrays of a component's
    shape, or in two new ones."""
    xi = [x.astype(np.complex128) for x in grid.xi]
    dot, tmp = np.empty((2,) + v.shape[1:], dtype=np.complex128) if work is None else work

    def project(s):  # only the k_x row of xi varies along the slab's rows
        x, d, t = (xi[0][s], xi[1], xi[2]), dot[s], tmp[s]
        np.multiply(x[0], v[0, s], out=d)
        d += np.multiply(x[1], v[1, s], out=t)
        d += np.multiply(x[2], v[2, s], out=t)
        d *= leray_factor[s]
        for i in range(3):
            o = out[i, s]
            np.subtract(v[i, s], np.multiply(x[i], d, out=t), out=o)
            if lift is not None:
                o *= lift[s]

    _by_slabs(project, v.shape[1])
    return out


def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: (I - xi xi^T/|xi|^2) v(xi).

    The zero mode is passed through unchanged (xi = 0 there).
    """
    g = v.grid
    return SpectralVectorField(g, _leray(v.data, g, g.power(-2.0), np.empty_like(v.data)))


def fractional_power(v: SpectralVectorField, beta: float) -> SpectralVectorField:
    """Multiply coefficients by |xi|^beta; the zero mode maps to 0.

    For beta < 0 the symbol is singular at xi = 0, so a nonzero zero mode
    is rejected.
    """
    g = v.grid
    if beta < 0:
        z = np.max(np.abs(v.data[:, 0, 0, 0]))
        scale = max(1.0, float(np.max(np.abs(v.data))))
        if z > 1e-12 * scale:
            raise ZeroModeUndefined(
                "negative fractional power applied to a field with nonzero mean"
            )
    return SpectralVectorField(g, v.data * g.power(beta))


def bilinear_symbol(xi, alpha: float, i: int, j: int, k: int) -> complex:
    """Entry (i, j, k) of the lifted-advection tensor symbol at frequency xi.

    -(delta_ij - xi_i xi_j / |xi|^2) * (1j * xi_k) / |xi|^alpha, with the
    convention value 0 at xi = 0 (callers in batched code handle that mode
    themselves).  Indices are 0-based.
    """
    xi = np.asarray(xi, dtype=np.float64)
    r2 = float(np.dot(xi, xi))
    if r2 == 0.0:
        return 0.0 + 0.0j
    proj = (1.0 if i == j else 0.0) - xi[i] * xi[j] / r2
    return complex(-proj * 1j * xi[k] / r2 ** (alpha / 2.0))


def kernel_tensor(grid: Grid, m: np.ndarray, rows: np.ndarray):
    """Yield ``(entries, C)`` for each of the ten ``CUBIC_MONOMIALS`` (a, b, c):
    C the samples ifftn(1j xi_a xi_b xi_c m/|xi|^2).real / cell_volume on the
    sites ``rows`` x ``rows`` x ``rows`` for the real half-lattice multiplier
    ``m`` (a function of |xi|, zero mode 0), and ``entries`` the distinct index
    triples that C fills in the fully symmetric tensor C_ijk.

    The lifted-advection tensor -(delta_ij - xi_i xi_j/|xi|^2) 1j xi_k m is
    C_ijk - delta_ij sum_l C_llk, as sum_l C_llk = 1j xi_k m, the symbol of
    d_k p for p = ifftn(m).  Each part is irfftn's (``_irfftn_at``), the
    transform of the symbol's Hermitian part, which the ``.real`` keeps: the
    monomial times (1 + prod_c sigma_c^d_c)/2, d_c its degree in xi_c and
    sigma_c = -1 on axis c's Nyquist row (``grid.nyquist_rows``, where -xi_c is
    xi_c), +1 elsewhere.  Every C_llk is zeroed on axis k's Nyquist row alone,
    so the identity holds on the lattice.  Each symbol is formed in one real
    and one complex array held for all ten.  ``build_kernel``'s damped symbol
    is not 0 on the Nyquist rows, where the Hermitian part keeps what an octant
    DST-I would drop.
    """
    xi, nyq = grid.xi, grid.nyquist_rows
    m_k2 = grid.power(-2.0)
    m_k2 *= m
    real = np.empty(m_k2.shape)
    sym = np.empty(m_k2.shape, dtype=np.complex128)
    for a, b, c in CUBIC_MONOMIALS:
        np.multiply(xi[c], m_k2, out=real)
        np.multiply(1j * xi[a] * xi[b], real, out=sym)
        sym *= ~(nyq[a] ^ nyq[b] ^ nyq[c])  # 0 where sigma_a sigma_b sigma_c = -1
        sym[0, 0, 0] = 0.0
        C = _irfftn_at(sym, rows)
        C /= grid.cell_volume
        yield sorted(set(itertools.permutations((a, b, c)))), C


def _advection_divergence(v: SpectralVectorField,
                          scratch: _MapScratch | None = None) -> SpectralVectorField:
    """D_j = sum_k 1j xi_k W_jk = div(v (x) v) for a field ``v`` held on a dealias
    cube (``_Cube``), a new field on the same cube: W_jk is the transform of v_j
    v_k formed in physical space after a 2/3-rule truncation of v, and D is
    truncated likewise.  Every mode outside the cube, the Nyquist rows among
    them, is 0 in D.  W is symmetric: each of its six products is transformed
    once, one at a time, into both rows.  The passes work in ``scratch``, or in
    a new ``_MapScratch``.

    Finiteness is checked on the truncated v, as the inverse stage scatters it,
    and on D: samples and products of finite coefficients can only overflow to
    +-inf, which the transforms carry into D."""
    cube = v.grid
    mask, nc = cube.dealias_mask, cube.spectral_shape[0]
    s = _MapScratch(cube) if scratch is None else scratch
    phys = _cube_to_real(v.data, cube, s.padded, mask, s.finite)
    ixi = [1j * x for x in cube.xi]
    div = np.zeros((3,) + cube.spectral_shape, dtype=np.complex128)
    product, w_hat, tmp, finite = s.product, s.w_hat, s.tmp, s.finite

    # the passes over the pair (j, k) of the loop below
    def multiply(r):
        np.multiply(a[r], b[r], out=product[r])

    def accumulate(r):
        x, w, t = (ixi[0][r], ixi[1], ixi[2]), w_hat[r], tmp[r]
        d = div[j, r]
        d += np.multiply(x[k], w, out=t)
        if k != j:
            d = div[k, r]
            d += np.multiply(x[j], w, out=t)

    for j in range(3):
        for k in range(j, 3):
            a, b = phys[j], phys[k]
            _by_slabs(multiply, cube.n)
            _real_to_cube(product, cube, out=w_hat)
            _by_slabs(accumulate, nc)

    def truncate_div(r):
        ok = np.isfinite(div[:, r], out=finite[:, r]).all()
        d = div[:, r]
        d *= mask[r]
        return ok

    if not all(_by_slabs(truncate_div, nc)):
        raise NumericalBlowup("overflow while forming the quadratic term")
    return SpectralVectorField(cube, div)


def projected_advection(v: SpectralVectorField) -> SpectralVectorField:
    """Leray-projected divergence of v (x) v for a field ``v`` held on a dealias
    cube: P D, D from ``_advection_divergence``, projected in place there."""
    s = _MapScratch(v.grid)
    d = _advection_divergence(v, s)
    _leray(d.data, d.grid, d.grid.leray_factor, d.data, work=(s.w_hat, s.tmp))
    return d


def apply_bilinear(v: SpectralVectorField, alpha: float,
                   _scratch: _MapScratch | None = None) -> SpectralVectorField:
    """-(-Lap)^(-alpha/2) P div(v (x) v) for a field ``v`` held on a dealias cube
    (``_Cube``): one application of the quadratic map, a new field on the same
    cube, outside which it is 0.  Leray and the lift run as one in-place pass
    over D, with the cube's own symbols.  P D has a zero mode of exactly 0, so
    the lift is applied unchecked.  A caller that maps many times on one cube
    (``solve_steady``) passes one ``_MapScratch`` for all of them."""
    s = _MapScratch(v.grid) if _scratch is None else _scratch
    d = _advection_divergence(v, s)
    cube = d.grid
    _leray(d.data, cube, cube.leray_factor, d.data, lift=cube.lift(alpha),
           work=(s.w_hat, s.tmp))
    return d


# ---------------------------------------------------------------------------
# quadrature norms (physical-space integrals via Parseval)


def parseval_l2(lattice, s: float) -> float:
    """The discrete L^2 norm sqrt(h^3 * sum |field|^2) of a field held on
    ``lattice`` whose coefficients' squares sum to ``s`` over the full lattice."""
    return float(np.sqrt(lattice.cell_volume * (s / lattice.n**3)))


def l2_norm(field: SpectralVectorField) -> float:
    """Discrete L^2 norm sqrt(h^3 * sum |field|^2) of a field held on a dealias cube."""
    return parseval_l2(field.grid, field.grid.lattice_sum(field.data, field.data))
