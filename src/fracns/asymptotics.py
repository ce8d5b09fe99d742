"""Real-space advection kernel, far-field profiles and decay diagnostics.

The kernel tensor behind the lifted advection map is homogeneous of
degree alpha - 4 and smooth away from the origin, so its unit-sphere
values determine it everywhere.  We synthesize those values once on a
refined auxiliary grid (inverse transform of the symbol under a smooth
high-frequency splitting), read them off on mid-radius shells where the
discretization error is smallest, and fit the known angular structure: an
odd cubic polynomial in the direction vector.  Extension by homogeneity
is then exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import EmptyShell, InvalidAlpha, InvalidRadius
from .forces import moment_matrix, scalar_deviation
from .solver import SteadySolution
from .spectral import Grid, RealVectorField, kernel_tensor, scalar_to_real, scalar_to_spectral

_CUBIC_MONOMIALS = [
    (a, b, c) for a in range(3) for b in range(a, 3) for c in range(b, 3)
]


def _monomial_matrix(points: np.ndarray) -> np.ndarray:
    """(n, 10) matrix of cubic monomials of the (unit) direction vectors."""
    cols = [points[:, a] * points[:, b] * points[:, c] for a, b, c in _CUBIC_MONOMIALS]
    return np.stack(cols, axis=1)


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
    Frobenius norm, so |m(x)| <= c |x|^(alpha-4) everywhere.
    """

    alpha: float
    coeffs: np.ndarray  # (3, 3, 3, 10)
    sphere_points: np.ndarray  # (m, 3)
    sphere_values: np.ndarray  # (m, 3, 3, 3)
    bound_constant: float

    @property
    def degree(self) -> float:
        return self.alpha - 4.0

    def evaluate_directions(self, dirs: np.ndarray) -> np.ndarray:
        """Tensor values at unit vectors; shape (n, 3, 3, 3)."""
        phi = _monomial_matrix(np.atleast_2d(dirs))
        return np.einsum("nm,ijkm->nijk", phi, self.coeffs)

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
        for m, (a, b, c) in enumerate(_CUBIC_MONOMIALS):
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
        self, points: np.ndarray, M: np.ndarray, sigma: float, terms: int = 3
    ) -> np.ndarray:
        """(1 - G_sigma*) applied to the profile field m(x) : M.

        G_sigma is the Gaussian of width sigma; the mollification acts on
        the homogeneous harmonic blocks as the exact series
        sum_k (sigma^2/2)^k / k! Delta^k, with
        Delta(r^g h_l) = g (g + 2l + 1) r^(g-2) h_l.  Valid for
        sigma << |x|; ``terms`` powers of (sigma/|x|)^2 are kept.
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
        for k in range(1, terms + 1):
            fac3 *= (g3 - 2 * (k - 1)) * (g3 - 2 * (k - 1) + 7.0)
            fac1 *= (g1 - 2 * (k - 1)) * (g1 - 2 * (k - 1) + 3.0)
            coef *= (sigma * sigma / 2.0) / k
            scale = r ** (alpha - 4.0 - 2.0 * k)
            out -= coef * scale[:, None] * (fac3 * h3 + fac1 * h1)
        return out


def _sphere_max(coeffs: np.ndarray) -> tuple[float, np.ndarray]:
    """Global maximum of the Frobenius norm over the unit sphere."""

    def frob(dirs):
        phi = _monomial_matrix(np.atleast_2d(dirs))
        vals = np.einsum("nm,ijkm->nijk", phi, coeffs)
        return np.sqrt(np.sum(vals**2, axis=(1, 2, 3)))

    cand = fibonacci_sphere(20000)
    fc = frob(cand)
    order = np.argsort(fc)[::-1][:8]
    best_val, best_dir = fc[order[0]], cand[order[0]]
    for i in order:
        res = scipy.optimize.minimize(
            lambda v: -float(frob((v / np.linalg.norm(v)).reshape(1, 3))[0]),
            cand[i],
            method="Nelder-Mead",
            options={"xatol": 1e-14, "fatol": 1e-15, "maxiter": 2000},
        )
        v = res.x / np.linalg.norm(res.x)
        val = float(frob(v.reshape(1, 3))[0])
        if val > best_val:
            best_val, best_dir = val, v
    return best_val, best_dir


def build_kernel(
    alpha: float,
    refinement_grid_n: int = 128,
    sphere_points: int = 2000,
    shell: tuple = (0.085, 0.16),
) -> HomogeneousKernel:
    """Synthesize the real-space kernel from its symbol on a refined grid.

    The symbol is damped by a narrow Gaussian high-frequency splitting
    (width ~ 1.4 cells, so truncation ringing is negligible), inverse
    transformed, and sampled on all lattice sites in a mid-radius shell.
    The samples are fitted against the exact angular basis plus two
    nuisance blocks: a degree alpha-6 correction absorbing the smoothing
    bias and a linear-in-x background absorbing the residual lattice
    artifacts.  Only the homogeneous degree alpha-4 block is kept.
    """
    if not (1.0 < alpha < 4.0):
        raise InvalidAlpha(f"kernel synthesis requires alpha in (1, 4), got {alpha}")
    L = 1.0
    grid = Grid(refinement_grid_n, L)
    h = grid.spacing
    sigma = 1.4 * h
    damped_inv_pow = grid.power(-alpha)
    damped_inv_pow *= np.exp(-0.5 * sigma * sigma * grid.k2)

    # lattice sites in the read-off shell
    r = grid.radius_from(np.zeros(3))
    lo, hi = shell[0] * L, shell[1] * L
    sel = (r >= lo) & (r <= hi)
    pts_idx = np.argwhere(sel)
    coords = grid.x_axis[pts_idx]  # (m, 3) positions in [0, L)
    coords = np.where(coords > L / 2, coords - L, coords)  # minimum-image signed
    radii = np.linalg.norm(coords, axis=1)
    dirs = coords / radii[:, None]

    phi = _monomial_matrix(dirs)
    design = np.hstack(
        [
            phi * (radii ** (alpha - 4.0))[:, None],
            phi * (radii ** (alpha - 6.0))[:, None],
            coords,
        ]
    )

    samples = np.empty((len(radii), 3, 3, 3))
    for i, j, k, K in kernel_tensor(grid, damped_inv_pow):
        samples[:, i, j, k] = samples[:, j, i, k] = K[sel]

    rhs = samples.reshape(len(radii), 27)
    sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    coeffs = sol[:10].T.reshape(3, 3, 3, 10)

    # exact structure of the symbol: symmetric in (i, j), trace-free in (j, k)
    coeffs = 0.5 * (coeffs + coeffs.transpose(1, 0, 2, 3))
    trace = np.einsum("illm->im", coeffs)
    for j in range(3):
        coeffs[:, j, j, :] -= trace / 3.0

    kernel = HomogeneousKernel(
        alpha=alpha,
        coeffs=coeffs,
        sphere_points=np.zeros((0, 3)),
        sphere_values=np.zeros((0, 3, 3, 3)),
        bound_constant=0.0,
    )
    pts = fibonacci_sphere(sphere_points)
    cmax, argmax_dir = _sphere_max(coeffs)
    pts = np.vstack([pts, argmax_dir])
    kernel.sphere_points = pts
    kernel.sphere_values = kernel.evaluate_directions(pts)
    kernel.bound_constant = cmax
    return kernel


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
    origin=None,
    window: tuple | None = None,
    nbins: int = 12,
    statistic: str = "mean",
) -> RadialProfile:
    """Shell statistics of |values| around ``origin`` (periodic distance).

    statistic: 'mean' for upper-bound style claims, 'max' for lower-bound
    style claims, 'gmean' for exact log-linearity of sampled power laws.
    Bin centers are geometric means of member radii.  Empty bins are
    dropped.
    """
    origin = grid.center if origin is None else np.asarray(origin, dtype=np.float64)
    L = grid.box_length
    if window is None:
        window = (0.1 * L, 0.22 * L)
    lo, hi = window
    if hi > L / 4 * (1 + 1e-12):
        raise InvalidRadius(f"window must stay within box_length/4, got {hi}")
    r = grid.radius_from(origin).ravel()
    v = np.abs(np.asarray(values)).ravel()
    edges = np.linspace(lo, hi, nbins + 1)
    centers, stats = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (r >= a) & (r < b)
        if not np.any(sel):
            continue
        rv, vv = r[sel], v[sel]
        centers.append(np.exp(np.mean(np.log(rv))))
        if statistic == "mean":
            stats.append(np.mean(vv))
        elif statistic == "max":
            stats.append(np.max(vv))
        elif statistic == "gmean":
            if np.any(vv <= 0):
                raise EmptyShell("nonpositive shell values in geometric mean")
            stats.append(np.exp(np.mean(np.log(vv))))
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
    return RadialProfile(np.asarray(centers), np.asarray(stats), window)


def fit_decay_exponent(profile, window: tuple | None = None) -> RadialProfile:
    """Least-squares slope of log(value) against log(r) over the window.

    Accepts a RadialProfile or a (radii, values) pair.  Returns the profile
    with ``fitted_exponent`` (the negated slope) and its standard error.
    """
    if isinstance(profile, RadialProfile):
        prof = profile
    else:
        radii, values = profile
        radii = np.asarray(radii, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        win = window or (float(radii.min()), float(radii.max()))
        prof = RadialProfile(radii, values, win)
    if window is not None:
        prof = RadialProfile(prof.bin_centers, prof.bin_values, window)
    rr, vv = prof.in_window()
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
    prof.fitted_exponent = float(-slope)
    prof.fit_stderr = float(stderr)
    return prof


def profile_term_on_grid(
    M: np.ndarray,
    kernel: HomogeneousKernel,
    grid: Grid,
    origin=None,
    split_width: float = 0.45,
) -> np.ndarray:
    """The profile field m(x) : M as the experiment's torus realizes it.

    Ewald-style split: the low-frequency band is synthesized on the
    experiment's own lattice from the exact symbol (Gaussian-damped at
    width ``split_width``), which reproduces the renormalized
    periodization the solution itself contains; the complementary
    high-frequency content is restored analytically as the Gaussian
    smoothing defect of the homogeneous kernel.  In the continuum limit
    the two pieces sum to m(x) : M exactly.
    """
    from .spectral import SpectralVectorField, leray_project

    origin = grid.center if origin is None else np.asarray(origin, dtype=np.float64)
    alpha = kernel.alpha
    M = np.asarray(M, dtype=np.float64)

    dvec = np.stack(
        [1j * (grid.xi[0] * M[i, 0] + grid.xi[1] * M[i, 1] + grid.xi[2] * M[i, 2])
         for i in range(3)]
    ).astype(np.complex128)
    dvec *= grid.nyquist_free
    proj = leray_project(SpectralVectorField(grid, dvec))
    sym = -proj.data * grid.power(-alpha)
    damp = np.exp(-0.5 * split_width * split_width * grid.k2)
    phase = grid.shift_phase(origin)
    low = np.stack(
        [scalar_to_real(sym[i] * damp * phase) for i in range(3)]
    ) / grid.cell_volume

    L = grid.box_length
    r = grid.radius_from(origin)
    far = r >= 4.0 * split_width  # series valid once sigma << |x|
    idx = np.argwhere(far)
    pos = grid.x_axis[idx] - origin[None, :]
    pos = (pos + L / 2) % L - L / 2
    defect = kernel.contract_smoothing_defect(pos, M, split_width)
    out = low
    for c in range(3):
        out[c][far] += defect[:, c]
    return out


def profile_decomposition(
    u: RealVectorField,
    u0: RealVectorField,
    M: np.ndarray,
    kernel: HomogeneousKernel,
    origin=None,
    window: tuple | None = None,
    nbins: int = 12,
    statistic: str = "mean",
) -> RadialProfile:
    """Shell profile of |u - u0 - m(x) : M| (the far-field remainder).

    The profile term is evaluated torus-consistently (see
    ``profile_term_on_grid``), so the remainder measures the genuine
    higher-order far-field content rather than the lattice rendering of
    the leading term.
    """
    grid = u.grid
    if not grid.same_as(u0.grid):
        raise ValueError("u and u0 must live on the same grid")
    origin = grid.center if origin is None else np.asarray(origin, dtype=np.float64)
    L = grid.box_length
    if window is None:
        # remainder is informative between the source support and the radius
        # where the box's lowest modes quantize the far field (~L/6)
        window = (0.075 * L, 0.166 * L)

    if np.any(M != 0.0):
        prof = profile_term_on_grid(M, kernel, grid, origin=origin)
    else:
        prof = np.zeros_like(u.data)
    rem = u.data - u0.data - prof
    mag = np.sqrt(np.sum(rem**2, axis=0))
    return radial_profile(mag, grid, origin=origin, window=window, nbins=nbins,
                          statistic=statistic)


# ---------------------------------------------------------------------------
# moment-matrix criteria


def bv_polynomial(A: np.ndarray, xi, i: int) -> float:
    """Cubic form whose identical vanishing characterizes scalar matrices:

    Q_i(xi) = sum_jk (|xi|^2 (d_jk xi_i + d_ik xi_j + d_ij xi_k)
                      - 5 xi_i xi_j xi_k) A_jk,  i 0-based.
    """
    A = np.asarray(A, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    r2 = float(np.dot(xi, xi))
    trA = float(np.trace(A))
    Axi = A @ xi
    quad = float(xi @ Axi)
    return float(
        r2 * (trA * xi[i] + 2.0 * Axi[i]) - 5.0 * xi[i] * quad
    )


def _bv_sample_directions(per_axis: int = 20) -> np.ndarray:
    t = np.linspace(-1.0, 1.0, per_axis)
    g = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    g = g[np.linalg.norm(g, axis=1) > 1e-9]
    return g


def bv_scalar_test(A: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff the cubic forms vanish on a deterministic frequency sample,
    equivalently iff A is proportional to the identity."""
    A = np.asarray(A, dtype=np.float64)
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.linalg.norm(A))):
        raise ValueError("moment matrix must be symmetric")
    normA = np.linalg.norm(A)
    if normA == 0.0:
        return True
    xis = _bv_sample_directions(20)
    r2 = np.sum(xis**2, axis=1)
    trA = np.trace(A)
    Axi = xis @ A.T
    quad = np.sum(xis * Axi, axis=1)
    worst = 0.0
    for i in range(3):
        q = r2 * (trA * xis[:, i] + 2.0 * Axi[:, i]) - 5.0 * xis[:, i] * quad
        worst = max(worst, float(np.max(np.abs(q) / (r2**1.5 * normA))))
    return worst < tol


def nonexistence_certificate(
    solution: SteadySolution,
    kernel: HomogeneousKernel,
    deviation_floor: float = 0.01,
    bound_floor: float = 1e-4,
) -> dict:
    """Finite-volume evidence that the leading far-field term cannot vanish.

    deviation: normalized scalar deviation of the velocity moment matrix.
    raw_deviation: the unnormalized Frobenius deviation (scales like the
    square of the force amplitude).
    leading_lower_bound: min over sphere directions of |m(x/|x|) : M|,
    the directional coefficient of the |x|^{alpha-4} lower bound.
    The certificate is affirmative when the deviation clears its floor and
    the bound clears ``bound_floor`` relative to its sphere maximum.
    """
    from .spectral import to_real

    u = to_real(solution.velocity)
    M = moment_matrix(u)
    dev = scalar_deviation(M)
    raw = scalar_deviation(M, normalized=False)
    prof = kernel.contract_directions(kernel.sphere_points, M)
    mags = np.linalg.norm(prof, axis=1)
    lower = float(np.min(mags))
    upper = float(np.max(mags))
    affirmative = bool(
        dev >= deviation_floor and upper > 0 and lower >= bound_floor * upper
    )
    return {
        "deviation": float(dev),
        "raw_deviation": float(raw),
        "leading_lower_bound": lower,
        "profile_sphere_max": upper,
        "affirmative": affirmative,
    }


# ---------------------------------------------------------------------------
# localized energy functional


def _cutoff(r: np.ndarray, R: float) -> np.ndarray:
    """Smooth radial template: 1 on r < R/2, 0 on r >= R (C^2 smoothstep)."""
    t = np.clip((r - R / 2.0) / (R / 2.0), 0.0, 1.0)
    return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


def caccioppoli_energy(
    u: RealVectorField,
    pressure_hat: np.ndarray,
    R: float,
    alpha: float,
    origin=None,
) -> dict:
    """Localized energy balance terms for the cutoff phi_R.

    local_energy: integral over the ball B_{R/2} of |(-Lap)^{alpha/4} u|^2.
    flux_term: integral of grad(phi_R) . (|u|^2/2 + P) u.
    commutator_term: integral of L u . (phi_R L u - L(phi_R u)) with
    L = (-Lap)^{alpha/4}.  slack = local_energy - flux - commutator
    (reported, not assumed to have a sign: quadrature effects remain).
    """
    grid = u.grid
    if R > grid.box_length / 4 * (1 + 1e-12):
        raise InvalidRadius(f"cutoff radius {R} exceeds box_length/4")
    origin = grid.center if origin is None else np.asarray(origin, dtype=np.float64)
    r = grid.radius_from(origin)
    phi = _cutoff(r, R)
    h3 = grid.cell_volume

    half = grid.power(alpha / 2.0)
    lam_u = np.stack(
        [scalar_to_real(half * scalar_to_spectral(u.data[c])) for c in range(3)]
    )
    ball = r <= R / 2.0
    local = h3 * float(np.sum(lam_u[:, ball] ** 2))

    pressure = scalar_to_real(pressure_hat)
    usq = np.sum(u.data**2, axis=0)
    gphi = np.gradient(phi, grid.spacing, edge_order=2)
    flux = h3 * float(
        np.sum((usq / 2.0 + pressure) * sum(gphi[a] * u.data[a] for a in range(3)))
    )

    lam_phi_u = np.stack(
        [scalar_to_real(half * scalar_to_spectral(phi * u.data[c])) for c in range(3)]
    )
    comm = h3 * float(np.sum(lam_u * (phi * lam_u - lam_phi_u)))

    return {
        "local_energy": local,
        "flux_term": flux,
        "commutator_term": comm,
        "slack": local - flux - comm,
    }
