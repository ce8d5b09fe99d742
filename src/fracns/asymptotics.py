"""Real-space advection kernel, far-field profiles and decay diagnostics.

The kernel tensor behind the lifted advection map is homogeneous of
degree alpha - 4 and smooth away from the origin, so its unit-sphere
values determine it everywhere.  We synthesize those values once on a
refined auxiliary grid (inverse transform of the symbol under a smooth
high-frequency splitting), read them off on a mid-radius shell where the
discretization error is smallest, and fit the known angular structure: an
odd cubic polynomial in the direction vector.  Extension by homogeneity
is then exact.  The samples come from the tensor's ten symmetric parts, so
they and the fit are symmetric in (i, j) and trace-free in (j, k) to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyShell, InvalidAlpha, InvalidGrid, InvalidRadius
from .forces import moment_matrix, scalar_deviation
from .solver import SteadySolution, lift_force
from .spectral import (
    CUBIC_MONOMIALS,
    Grid,
    Lattice,
    RealVectorField,
    SpectralVectorField,
    kernel_tensor,
    min_image,
    scalar_to_real,
    to_real,
)


# build_kernel fits its 23 columns (10 + 10 angular, 3 linear) to the unit-box sites in this shell
KERNEL_SHELL = (0.085, 0.16)


def kernel_shell_sites(n: int) -> np.ndarray:
    """Indices (m, 3), in C order, of the sites of the unit box's n^3 lattice whose distance
    from 0 lies in KERNEL_SHELL; InvalidGrid if they are fewer than the fit's 23 columns."""
    d = np.abs(min_image((1.0 / n) * np.arange(n), 1.0))  # |x| of Grid(n, 1.0), no Grid built
    near = np.flatnonzero(d <= KERNEL_SHELL[1])  # a site in the shell is this near on each axis
    r = np.sqrt(d[near, None, None] ** 2 + d[near, None] ** 2 + d[near] ** 2)
    sites = near[np.argwhere((r >= KERNEL_SHELL[0]) & (r <= KERNEL_SHELL[1]))]
    if len(sites) < 23:
        raise InvalidGrid(f"kernel_n={n} leaves {len(sites)} shell sites for the fit's 23 columns")
    return sites


def _monomial_matrix(points: np.ndarray) -> np.ndarray:
    """(n, 10) matrix of cubic monomials of the (unit) direction vectors."""
    cols = [points[:, a] * points[:, b] * points[:, c] for a, b, c in CUBIC_MONOMIALS]
    return np.stack(cols, axis=1)


def _angular_values(coeffs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Values of the angular polynomial ``coeffs`` at unit vectors; shape (n, 3, 3, 3)."""
    return np.einsum("nm,ijkm->nijk", _monomial_matrix(np.atleast_2d(dirs)), coeffs)


def _monomial_jets(d: np.ndarray):
    """The cubic monomials at points d (p, 3), shape (p, 10), with their gradients
    (p, 10, 3) and Hessians (p, 10, 3, 3)."""
    grad = np.zeros((len(d), 10, 3))
    hess = np.zeros((len(d), 10, 3, 3))
    for m, t in enumerate(CUBIC_MONOMIALS):
        for a in range(3):  # factor a differentiated, then factor b or c
            b, c = (q for q in range(3) if q != a)
            grad[:, m, t[a]] += d[:, t[b]] * d[:, t[c]]
            hess[:, m, t[a], t[b]] += d[:, t[c]]
            hess[:, m, t[a], t[c]] += d[:, t[b]]
    return _monomial_matrix(d), grad, hess


def _sphere_maxima(A: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Local maxima on the unit sphere of F(d) = phi(d)^T A phi(d), phi the cubic
    monomials, by Newton's method from each unit vector in d (p, 3).

    F is homogeneous of degree 6, so in tangent coordinates s at d it reads
    F(d + E s) / (1 + |s|^2)^3, whose gradient at 0 is E^T grad F and whose
    Hessian is E^T hess F E - 6 F I; the 2x2 system is solved in closed form.
    A point whose tangent Hessian is not negative definite takes no step.
    Every product is numpy's own loop (einsum), with no BLAS call."""
    for _ in range(50):  # from a scan point, 4 to 6 steps reach round-off
        phi, dphi, d2phi = _monomial_jets(d)
        Aphi = np.einsum("mn,pn->pm", A, phi)
        F = np.einsum("pm,pm->p", phi, Aphi)
        gradF = 2.0 * np.einsum("pml,pm->pl", dphi, Aphi)
        hessF = 2.0 * (np.einsum("pml,mn,pnk->plk", dphi, A, dphi)
                       + np.einsum("pm,pmlk->plk", Aphi, d2phi))
        # an orthonormal tangent pair: d x (the axis least along d), then d x e1
        axis = np.eye(3)[np.argmin(np.abs(d), axis=1)]
        e1 = np.cross(d, axis)
        e1 /= np.sqrt(np.einsum("pl,pl->p", e1, e1))[:, None]
        E = np.stack([e1, np.cross(d, e1)], axis=2)  # (p, 3, 2)
        g = np.einsum("pla,pl->pa", E, gradF)
        H = np.einsum("pla,plk,pkb->pab", E, hessF, E) - 6.0 * F[:, None, None] * np.eye(2)
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        det = np.where((H[:, 0, 0] < 0) & (det > 0), det, np.inf)  # inf: no step
        s0 = (H[:, 0, 1] * g[:, 1] - H[:, 1, 1] * g[:, 0]) / det
        s1 = (H[:, 1, 0] * g[:, 0] - H[:, 0, 0] * g[:, 1]) / det
        d = d + E[:, :, 0] * s0[:, None] + E[:, :, 1] * s1[:, None]
        d = d / np.sqrt(np.einsum("pl,pl->p", d, d))[:, None]
        if np.max(np.abs(s0) + np.abs(s1)) < 1e-13:
            break
    return d


def fibonacci_sphere(n: int) -> np.ndarray:
    """Quasi-uniform deterministic point set on the unit sphere."""
    i = np.arange(n, dtype=np.float64) + 0.5
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


@dataclass
class HomogeneousKernel:
    """Homogeneous degree alpha-4 tensor kernel m[i, j, k](x).

    ``coeffs`` holds the fitted cubic-polynomial angular structure, so
    evaluation is m(x) = |x|^(alpha-4) * poly(x/|x|); homogeneity is exact
    by construction.  ``bound_constant`` is the sphere maximum of the
    Frobenius norm, so |m(x)| <= c |x|^(alpha-4) everywhere; its search is
    run on first read, which only the ``kernel`` and ``profile`` reports make.
    """

    alpha: float
    coeffs: np.ndarray  # (3, 3, 3, 10)

    @property
    def degree(self) -> float:
        return self.alpha - 4.0

    @cached_property
    def bound_constant(self) -> float:
        """Global maximum of the Frobenius norm over the unit sphere: the largest
        of 20000 Fibonacci points, refined by Newton's method from the best 8."""

        def frob(dirs):
            return np.sqrt(np.sum(self.evaluate_directions(dirs) ** 2, axis=(1, 2, 3)))

        cand = fibonacci_sphere(20000)
        fc = frob(cand)
        # |m|_F^2 = phi^T A phi for the monomials phi at a direction
        A = np.einsum("ijkm,ijkn->mn", self.coeffs, self.coeffs)
        refined = _sphere_maxima(A, cand[np.argsort(fc)[::-1][:8]])
        return float(max(fc.max(), frob(refined).max()))

    def evaluate_directions(self, dirs: np.ndarray) -> np.ndarray:
        """Tensor values at unit vectors; shape (n, 3, 3, 3)."""
        return _angular_values(self.coeffs, dirs)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        r = np.linalg.norm(pts, axis=1)
        if np.any(r == 0):
            raise ValueError("kernel is singular at the origin")
        vals = self.evaluate_directions(pts / r[:, None])
        return vals * (r ** (self.alpha - 4.0))[:, None, None, None]

    def contract_directions(self, dirs: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Profile vector m(x) : M at unit vectors; shape (n, 3)."""
        vals = self.evaluate_directions(dirs)
        return np.einsum("nijk,jk->ni", vals, np.asarray(M, dtype=np.float64))

    def _harmonic_split(self, M: np.ndarray):
        """Split the contracted angular polynomial into solid harmonics.

        The contraction m(x) : M equals r^(alpha-4) Q(x/r) with Q an odd
        cubic, i.e. r^(alpha-7) q(x) for the solid cubic q.  Writing
        q = h3 + |x|^2 (l . x) with h3 harmonic gives the two blocks the
        Laplacian acts on diagonally.  Returns (C, l) where C[i, m] are
        the cubic coefficients of q_i and l[i] the linear vectors.
        """
        M = np.asarray(M, dtype=np.float64)
        C = np.einsum("ijkm,jk->im", self.coeffs, M)  # (3, 10)
        lin = np.zeros((3, 3))
        # laplacian of x_a x_b x_c is 2(d_ab x_c + d_ac x_b + d_bc x_a)
        for m, (a, b, c) in enumerate(CUBIC_MONOMIALS):
            for i in range(3):
                coef = C[i, m]
                if a == b:
                    lin[i, c] += 2.0 * coef
                if a == c:
                    lin[i, b] += 2.0 * coef
                if b == c:
                    lin[i, a] += 2.0 * coef
        return C, lin / 10.0

    def contract_smoothing_defect(
        self, points: np.ndarray, M: np.ndarray, sigma: float
    ) -> np.ndarray:
        """(1 - G_sigma*) applied to the profile field m(x) : M.

        G_sigma is the Gaussian of width sigma; the mollification acts on
        the homogeneous harmonic blocks as the exact series
        sum_k (sigma^2/2)^k / k! Delta^k, with
        Delta(r^g h_l) = g (g + 2l + 1) r^(g-2) h_l.  Valid for
        sigma << |x|; three powers of (sigma/|x|)^2 are kept.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        r = np.linalg.norm(pts, axis=1)
        C, lin = self._harmonic_split(M)
        phi = _monomial_matrix(pts / r[:, None])
        q = phi @ C.T  # (n, 3): cubic part evaluated at unit directions
        h1 = (pts / r[:, None]) @ lin.T
        h3 = q - h1

        alpha = self.alpha
        g3, g1 = alpha - 7.0, alpha - 5.0  # solid exponents: r^g3 h3, r^g1 h1
        out = np.zeros_like(q)
        fac3 = fac1 = coef = 1.0
        for k in range(1, 4):
            fac3 *= (g3 - 2 * (k - 1)) * (g3 - 2 * (k - 1) + 7.0)
            fac1 *= (g1 - 2 * (k - 1)) * (g1 - 2 * (k - 1) + 3.0)
            coef *= (sigma * sigma / 2.0) / k
            scale = r ** (alpha - 4.0 - 2.0 * k)
            out -= coef * scale[:, None] * (fac3 * h3 + fac1 * h1)
        return out


def build_kernel(alpha: float, refinement_grid_n: int = 128) -> HomogeneousKernel:
    """Synthesize the real-space kernel from its symbol on a refined grid.

    The symbol is damped by a narrow Gaussian high-frequency splitting
    (width ~ 1.4 cells, so truncation ringing is negligible), inverse
    transformed on the rows the mid-radius shell ``KERNEL_SHELL`` of the unit
    box meets, and sampled on all its lattice sites as C_ijk - delta_ij sum_l
    C_llk, C from ``kernel_tensor``.  The samples are fitted against the exact
    angular basis plus two nuisance blocks: a degree alpha-6 correction absorbing
    the smoothing bias and a linear-in-x background absorbing the residual
    lattice artifacts.  Only the homogeneous degree alpha-4 block is kept.
    """
    if not (1.0 < alpha < 4.0):
        raise InvalidAlpha(f"kernel synthesis requires alpha in (1, 4), got {alpha}")
    L = 1.0
    grid = Grid(refinement_grid_n, L)
    half = Lattice.half(grid)
    sites = kernel_shell_sites(refinement_grid_n)
    h = grid.spacing
    sigma = 1.4 * h
    damped_inv_pow = half.power(-alpha)
    damped_inv_pow *= np.exp(-0.5 * sigma * sigma * half.k2())

    coords = min_image(grid.x_axis[sites], L)  # (m, 3) signed offsets from 0
    radii = np.linalg.norm(coords, axis=1)
    dirs = coords / radii[:, None]

    phi = _monomial_matrix(dirs)
    design = np.hstack([phi * (radii ** (alpha - 4.0))[:, None],
                        phi * (radii ** (alpha - 6.0))[:, None], coords])

    rows = np.unique(sites)  # C is synthesized on rows^3 and read at ``at``
    at = tuple(np.searchsorted(rows, sites).T)
    samples = np.empty((3, 3, 3, len(radii)))
    parts = kernel_tensor(half, damped_inv_pow, rows)
    del half, damped_inv_pow  # nor is the half lattice's |xi| held through the parts
    for entries, C in parts:
        samples[tuple(zip(*entries))] = C[at]
    samples[range(3), range(3)] -= np.einsum("llkn->kn", samples)  # delta_ij grad_k p

    sol, *_ = np.linalg.lstsq(design, samples.reshape(27, -1).T, rcond=None)
    coeffs = sol[:10].T.reshape(3, 3, 3, 10)
    return HomogeneousKernel(alpha, coeffs)


# ---------------------------------------------------------------------------
# radial profiles and decay fits


@dataclass
class RadialProfile:
    bin_centers: np.ndarray
    bin_values: np.ndarray
    window: tuple
    fitted_exponent: float = np.nan
    fit_stderr: float = np.nan

    def in_window(self):
        lo, hi = self.window
        keep = (self.bin_centers >= lo) & (self.bin_centers <= hi)
        return self.bin_centers[keep], self.bin_values[keep]


def radial_profile(
    values: np.ndarray,
    grid: Grid,
    window: tuple | None = None,
    nbins: int = 12,
) -> RadialProfile:
    """Shell means of |values| around the box center (periodic distance).

    Bin centers are geometric means of member radii.  Empty bins are
    dropped.  Only the sub-box within ``hi`` (and a grid step) of the center
    along every axis is read, which holds every sample of the window, in the
    grid's C order: each bin's members, and so its sums, are the whole grid's.
    """
    L = grid.box_length
    if window is None:
        window = (0.1 * L, 0.22 * L)
    lo, hi = window
    # lo > 0, as RunConfig.validate asks: the center sample r = 0 has no log
    if not 0 < lo < hi <= L / 4 * (1 + 1e-12):
        raise InvalidRadius(f"window must be 0 < lo < hi <= box_length/4, got {window}")
    near = np.flatnonzero(np.abs(grid.offsets(grid.center)[0]) <= hi + grid.spacing)
    box = slice(near[0], near[-1] + 1)
    r = grid.radius_from(grid.center, box).ravel()
    v = np.abs(np.asarray(values)[box, box, box]).ravel()
    edges = np.linspace(lo, hi, nbins + 1)
    centers, means = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (r >= a) & (r < b)
        if not np.any(sel):
            continue
        centers.append(np.exp(np.mean(np.log(r[sel]))))
        means.append(np.mean(v[sel]))
    return RadialProfile(np.asarray(centers), np.asarray(means), window)


def fit_decay_exponent(profile: RadialProfile) -> RadialProfile:
    """Least-squares slope of log(value) against log(r) over the profile's window.

    Returns the profile with ``fitted_exponent`` (the negated slope) and its
    standard error.
    """
    rr, vv = profile.in_window()
    if len(rr) < 8:
        raise EmptyShell(f"need at least 8 bins in the fit window, have {len(rr)}")
    if np.any(vv <= 0):
        raise EmptyShell("nonpositive bin values in the fit window")
    x = np.log(rr)
    y = np.log(vv)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res_, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = coef[0]
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    s2 = float(np.sum(resid**2)) / dof
    stderr = np.sqrt(s2 / float(np.sum((x - x.mean()) ** 2)))
    profile.fitted_exponent = float(-slope)
    profile.fit_stderr = float(stderr)
    return profile


def profile_term_on_grid(M: np.ndarray, kernel: HomogeneousKernel, grid: Grid) -> np.ndarray:
    """The profile field m(x) : M, centered in the box, as the experiment's
    torus realizes it.

    Ewald-style split: the low-frequency band is synthesized on the
    experiment's own lattice from the exact symbol (Gaussian-damped at
    width 0.45), which reproduces the renormalized
    periodization the solution itself contains; the complementary
    high-frequency content is restored analytically as the Gaussian
    smoothing defect of the homogeneous kernel.  In the continuum limit
    the two pieces sum to m(x) : M exactly.
    """
    origin, width = grid.center, 0.45
    alpha = kernel.alpha
    M = np.asarray(M, dtype=np.float64)

    half = Lattice.half(grid)  # the experiment's own lattice, dropped on return
    xi = half.xi
    dvec = np.stack(
        [1j * (xi[0] * M[i, 0] + xi[1] * M[i, 1] + xi[2] * M[i, 2]) for i in range(3)]
    ).astype(np.complex128)
    dvec *= half.nyquist_free
    sym = -lift_force(SpectralVectorField(half, dvec), alpha).data
    damp = np.exp(-0.5 * width * width * half.k2())
    phase = half.shift_phase(origin)
    low = scalar_to_real(sym * damp * phase) / grid.cell_volume

    far = grid.radius_from(origin) >= 4.0 * width  # series valid once sigma << |x|
    pos = np.stack([d[i] for d, i in zip(grid.offsets(origin), np.nonzero(far))], axis=1)
    low[:, far] += kernel.contract_smoothing_defect(pos, M, width).T
    return low


def profile_decomposition(
    u: RealVectorField,
    u0: RealVectorField,
    M: np.ndarray,
    kernel: HomogeneousKernel,
    window: tuple | None = None,
    nbins: int = 12,
) -> RadialProfile:
    """Shell mean profile of |u - u0 - m(x) : M| (the far-field remainder)
    around the box center.

    The profile term is evaluated torus-consistently (see
    ``profile_term_on_grid``), so the remainder measures the genuine
    higher-order far-field content rather than the lattice rendering of
    the leading term.
    """
    grid = u.grid
    if u0.grid != grid:
        raise ValueError("u and u0 must live on the same grid")
    L = grid.box_length
    if window is None:
        # remainder is informative between the source support and the radius
        # where the box's lowest modes quantize the far field (~L/6)
        window = (0.075 * L, 0.166 * L)

    if np.any(M != 0.0):
        prof = profile_term_on_grid(M, kernel, grid)
    else:
        prof = np.zeros_like(u.data)
    rem = RealVectorField(grid, u.data - u0.data - prof)
    return radial_profile(rem.magnitude(), grid, window=window, nbins=nbins)


# ---------------------------------------------------------------------------
# moment-matrix criteria


def bv_polynomial(A: np.ndarray, xi, i: int):
    """Cubic form whose identical vanishing characterizes scalar matrices:

    Q_i(xi) = sum_jk (|xi|^2 (d_jk xi_i + d_ik xi_j + d_ij xi_k)
                      - 5 xi_i xi_j xi_k) A_jk,  i 0-based,

    for symmetric A, at one frequency xi (3,) or at each row of xi (m, 3).
    """
    A = np.asarray(A, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    r2 = np.sum(xi * xi, axis=-1)
    Axi = xi @ A.T
    quad = np.sum(xi * Axi, axis=-1)
    return r2 * (np.trace(A) * xi[..., i] + 2.0 * Axi[..., i]) - 5.0 * xi[..., i] * quad


def _bv_sample_directions() -> np.ndarray:
    t = np.linspace(-1.0, 1.0, 20)
    g = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    g = g[np.linalg.norm(g, axis=1) > 1e-9]
    return g


def bv_scalar_test(A: np.ndarray) -> bool:
    """True iff the cubic forms vanish on a deterministic frequency sample,
    equivalently iff A is proportional to the identity."""
    A = np.asarray(A, dtype=np.float64)
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.linalg.norm(A))):
        raise ValueError("moment matrix must be symmetric")
    normA = np.linalg.norm(A)
    if normA == 0.0:
        return True
    xis = _bv_sample_directions()
    scale = np.sum(xis**2, axis=1) ** 1.5 * normA
    worst = max(float(np.max(np.abs(bv_polynomial(A, xis, i)) / scale)) for i in range(3))
    return worst < 1e-9


def nonexistence_certificate(solution: SteadySolution, kernel: HomogeneousKernel) -> dict:
    """Finite-volume evidence that the leading far-field term cannot vanish.

    deviation: normalized scalar deviation of the velocity moment matrix.
    raw_deviation: the unnormalized Frobenius deviation (scales like the
    square of the force amplitude).
    leading_lower_bound: min over 2000 Fibonacci-sphere directions of
    |m(x/|x|) : M|, the directional coefficient of the |x|^{alpha-4} lower
    bound.
    The certificate is affirmative when the deviation is at least 0.01 and
    the bound at least 1e-4 times its sphere maximum.
    """
    u = to_real(solution.velocity)
    M = moment_matrix(u)
    dev = scalar_deviation(M)
    raw = scalar_deviation(M, normalized=False)
    prof = kernel.contract_directions(fibonacci_sphere(2000), M)
    mags = np.linalg.norm(prof, axis=1)
    lower = float(np.min(mags))
    upper = float(np.max(mags))
    affirmative = bool(dev >= 0.01 and upper > 0 and lower >= 1e-4 * upper)
    return {
        "deviation": float(dev),
        "raw_deviation": float(raw),
        "leading_lower_bound": lower,
        "profile_sphere_max": upper,
        "affirmative": affirmative,
    }
