"""Periodic grids, spectral transforms and the Fourier-multiplier operators.

Everything downstream (steady solver, time integrator, force constructors)
is built from the primitives here: the Leray projector, fractional
Laplacian powers and the lifted-advection symbol.  All multipliers follow
one convention, kept in one place (``Grid.power``): symbols that are
singular or undefined at the zero mode return 0 there, and admissible
forces are mean-free, so the convention is exact for every pipeline that
matters.  A run's spectral fields are held on one lattice, the box of rfftn
half-lattice modes the 2/3 rule keeps (``_Cube``), which stands in for its
Grid: the force, its lift, every Picard iterate and the solution are 0 off it.
The cube, built from the Grid's axes, is where the 2/3-rule mask is defined,
and ``min_image`` is the one minimum-image rule (``Grid.offsets``).
They are transformed through a pruned pair that touches the cube alone, and
the quadratic map (``apply_bilinear``), ``projected_advection``, ``to_real``
and ``l2_norm`` take a field held on a cube and nothing else.  The solver stack
calls no BLAS: the transforms run on the calling thread, where pocketfft takes
``_WORKERS`` threads, and the Parseval sums (``_Cube.lattice_sum``) in numpy's
own loops, whole, so no idle OpenBLAS thread spins against the FFT workers and
no bit of a solve depends on how many threads OpenBLAS would start.  Between
the transforms, the map's elementwise passes (the 2/3-rule mask and the
finiteness checks, the six products, the cube's row fills and gathers, the
sum into D, Leray with the lift) and the Picard step run by slabs of leading
rows (``_by_slabs``), one slab on the calling thread and the others on one
pool of ``_WORKERS`` - 1 threads, where there are rows enough.  Each element
gets the same float operations in whichever slab it falls, so no bit depends
on the split.  The multipliers
(``leray_project``, ``fractional_power``) read whichever lattice a field is on
with one code path, a Grid's half lattice (n, n, n/2+1) included.  A symbol
that is even or odd along each axis (a radial multiplier times a monomial in
xi) is also sampled on the octant alone (``octant_to_real``): k = 0..n/2 in,
j = 0..n/2 out, one real DCT-I or DST-I per axis.  Every other sample is a
reflection of an octant sample up to sign, so a lattice sum of a
reflection-invariant quantity is the octant sum weighted 1 on the j = 0 and
j = n/2 planes of each axis and 2 elsewhere.
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
# 40 us, so a map on two slabs took 1.5x as long as on one at 32^3, and a
# fresh-process nonexist run at 64^3 took 10-20 ms longer split than whole
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
    """
    Spectral quantities for a periodic cubic box [0, L)^3, the n^3 ones on first read.

    Parameters
    ----------
    n : int
        Points per axis (even, >= 8).
    box_length : float
        Physical side length L.

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


def _irfftn(coeffs: np.ndarray, **kwargs) -> np.ndarray:
    """Real samples of half-lattice coefficients over the last three axes."""
    n = coeffs.shape[-3]
    return sfft.irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1), workers=_WORKERS, **kwargs)


def to_real(field: SpectralVectorField) -> RealVectorField:
    """The real samples of a field held on a dealias cube."""
    cube = field.grid
    return RealVectorField(cube.grid, _cube_to_real(field.data, cube))


def scalar_to_real(coeffs: np.ndarray) -> np.ndarray:
    """Real samples (..., n, n, n) of half-lattice coefficients (..., n, n, n/2+1):
    the last three axes are transformed, any leading axes are a batch."""
    return _irfftn(coeffs)


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


def _cube_to_real(coeffs: np.ndarray, cube: _Cube) -> np.ndarray:
    """Real samples (..., n, n, n) of coefficients held on ``cube`` (every other
    mode 0): ifft along y on the cube's k_x rows, ifft along x in place on the
    cube's planes of a zeroed half-lattice array, then irfft along z, which reads
    that array as it is.  The rows are filled by slabs of k_x rows."""
    n, p, nc = cube.n, cube.planes, cube.spectral_shape[0]
    lead = coeffs.shape[:-3]
    a = np.zeros(lead + (nc, n, p), dtype=np.complex128)
    y_runs = cube.row_runs(slice(0, nc))

    def fill_y(s):
        for c, g in y_runs:
            a[..., s, g, :] = coeffs[..., s, c, :]

    _by_slabs(fill_y, nc)
    a = sfft.ifft(a, axis=-2, overwrite_x=True, workers=_WORKERS)
    # all n/2+1 planes, so that irfft needs no zero-padded copy
    b = np.zeros(lead + cube.grid.spectral_shape, dtype=np.complex128)

    def fill_x(s):
        for c, g in cube.row_runs(s):
            b[..., g, :, :p] = a[..., c, :, :]

    _by_slabs(fill_x, nc)
    del a
    x = sfft.ifft(b[..., :p], axis=-3, overwrite_x=True, workers=_WORKERS)
    if x.base is not b:  # overwrite_x permits a transform in place but does not promise it
        b[..., :p] = x
    del x
    return sfft.irfft(b, n=n, axis=-1, workers=_WORKERS)


def _real_to_cube(samples: np.ndarray, cube: _Cube) -> np.ndarray:
    """The coefficients on ``cube`` of real samples (..., n, n, n): rfft along z,
    fft along x in place on the cube's planes of its output, keeping the cube's
    rows, then fft along y, keeping the cube's columns.  The kept rows and
    columns are gathered by slabs of k_x rows."""
    nc = cube.spectral_shape[0]
    a = sfft.rfft(samples, axis=-1, workers=_WORKERS)[..., : cube.planes]
    a = sfft.fft(a, axis=-3, overwrite_x=True, workers=_WORKERS)
    rows = np.empty(a.shape[:-3] + (nc,) + a.shape[-2:], dtype=np.complex128)

    def gather_x(s):
        for c, g in cube.row_runs(s):
            rows[..., c, :, :] = a[..., g, :, :]

    _by_slabs(gather_x, nc)
    del a
    rows = sfft.fft(rows, axis=-2, overwrite_x=True, workers=_WORKERS)
    out = np.empty(rows.shape[:-3] + cube.spectral_shape, dtype=np.complex128)
    y_runs = cube.row_runs(slice(0, nc))

    def gather_y(s):
        for c, g in y_runs:
            out[..., s, c, :] = rows[..., s, g, :]

    _by_slabs(gather_y, nc)
    return out


# ---------------------------------------------------------------------------
# multipliers


def _leray(v: np.ndarray, grid, leray_factor: np.ndarray, out: np.ndarray,
           lift: np.ndarray | None = None) -> np.ndarray:
    """out = (I - xi xi^T/|xi|^2) v for coefficients v (3, ...) on ``grid`` (a Grid
    or a ``_Cube``), ``leray_factor`` its 1/|xi|^2 with 0 at the zero mode, then
    times ``lift`` where given, one component at a time, by slabs of k_x rows;
    ``out`` may be ``v``.  The xi rows are cast to complex once, as the products
    would cast them."""
    xi = [x.astype(np.complex128) for x in grid.xi]
    dot = np.empty(v.shape[1:], dtype=np.complex128)
    tmp = np.empty_like(dot)

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


def kernel_tensor(grid: Grid, m: np.ndarray):
    """Yield ``(entries, C)`` for each of the ten ``CUBIC_MONOMIALS`` (a, b, c):
    C the real-space samples ifftn(1j xi_a xi_b xi_c m/|xi|^2).real / cell_volume
    for the real half-lattice multiplier ``m`` (zero mode 0), which must be a
    function of |xi|, and ``entries`` the distinct index triples that C fills
    in the fully symmetric tensor C_ijk.

    The lifted-advection tensor -(delta_ij - xi_i xi_j/|xi|^2) 1j xi_k m is
    C_ijk - delta_ij sum_l C_llk, as sum_l C_llk = 1j xi_k m, the symbol of
    d_k p for p = ifftn(m): ten inverse transforms in all.  Each goes through
    irfftn, so each is taken of its Hermitian part, which is what the
    ``.real`` above keeps: the monomial times (1 + prod_c sigma_c^d_c)/2, d_c
    its degree in xi_c and sigma_c = -1 on axis c's Nyquist row
    (``grid.nyquist_rows``, where -xi_c is xi_c) and +1 elsewhere.  Every C_llk is zeroed on axis k's Nyquist row
    alone, so the identity holds on the lattice.  One C is held at a time.
    ``build_kernel`` reads it: its damped symbol is not 0 on the Nyquist rows,
    where the Hermitian part keeps what an octant DST-I would drop.
    """
    xi, nyq = grid.xi, grid.nyquist_rows
    m_k2 = m * grid.power(-2.0)
    for a, b, c in CUBIC_MONOMIALS:
        sym = 1j * xi[a] * xi[b] * (xi[c] * m_k2)
        sym *= ~(nyq[a] ^ nyq[b] ^ nyq[c])  # 0 where sigma_a sigma_b sigma_c = -1
        sym[0, 0, 0] = 0.0
        C = _irfftn(sym, overwrite_x=True)  # sym is a temporary
        C /= grid.cell_volume
        yield sorted(set(itertools.permutations((a, b, c)))), C


def _advection_divergence(v: SpectralVectorField) -> SpectralVectorField:
    """D_j = sum_k 1j xi_k W_jk = div(v (x) v) for a field ``v`` held on a dealias
    cube (``_Cube``), a field on the same cube: W_jk is the transform of v_j v_k
    formed in physical space after a 2/3-rule truncation of v, and D is truncated
    likewise.  Every mode outside the cube, the Nyquist rows among them, is 0 in
    D.  W is symmetric: each of its six products is transformed once, one at a
    time, into both rows.

    Finiteness is checked on the truncated v and on D: samples and products of
    finite coefficients can only overflow to +-inf, which the transforms carry
    into D."""
    cube = v.grid
    mask, nc = cube.dealias_mask, cube.spectral_shape[0]
    vin = np.empty_like(v.data)
    finite = np.empty(v.data.shape, dtype=bool)

    def truncate(s):
        np.multiply(v.data[:, s], mask[s], out=vin[:, s])
        return np.isfinite(vin[:, s], out=finite[:, s]).all()

    if not all(_by_slabs(truncate, nc)):
        raise NumericalBlowup("non-finite coefficients entering the quadratic term")
    phys = _cube_to_real(vin, cube)
    del vin  # not read past the transform
    ixi = [1j * x for x in cube.xi]
    div = np.zeros((3,) + cube.spectral_shape, dtype=np.complex128)
    tmp = np.empty(cube.spectral_shape, dtype=np.complex128)
    product = np.empty(phys.shape[1:])

    # the passes over the pair (j, k) of the loop below
    def multiply(s):
        np.multiply(a[s], b[s], out=product[s])

    def accumulate(s):
        x, w, t = (ixi[0][s], ixi[1], ixi[2]), w_hat[s], tmp[s]
        d = div[j, s]
        d += np.multiply(x[k], w, out=t)
        if k != j:
            d = div[k, s]
            d += np.multiply(x[j], w, out=t)

    for j in range(3):
        for k in range(j, 3):
            a, b = phys[j], phys[k]
            _by_slabs(multiply, cube.n)
            w_hat = _real_to_cube(product, cube)
            _by_slabs(accumulate, nc)

    def truncate_div(s):
        ok = np.isfinite(div[:, s], out=finite[:, s]).all()
        d = div[:, s]
        d *= mask[s]
        return ok

    if not all(_by_slabs(truncate_div, nc)):
        raise NumericalBlowup("overflow while forming the quadratic term")
    return SpectralVectorField(cube, div)


def projected_advection(v: SpectralVectorField) -> SpectralVectorField:
    """Leray-projected divergence of v (x) v for a field ``v`` held on a dealias
    cube: P D, D from ``_advection_divergence``, projected in place there."""
    d = _advection_divergence(v)
    _leray(d.data, d.grid, d.grid.leray_factor, d.data)
    return d


def apply_bilinear(v: SpectralVectorField, alpha: float) -> SpectralVectorField:
    """-(-Lap)^(-alpha/2) P div(v (x) v) for a field ``v`` held on a dealias cube
    (``_Cube``): one application of the quadratic map, a field on the same cube,
    outside which it is 0.  Leray and the lift run as one in-place pass over
    D, with the cube's own symbols.  P D has a zero mode of exactly 0, so the
    lift is applied unchecked."""
    d = _advection_divergence(v)
    cube = d.grid
    _leray(d.data, cube, cube.leray_factor, d.data, lift=cube.lift(alpha))
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
