"""Mild-solution time integrator for the fractional parabolic system.

The integrator is the steady solver's stationarity oracle: a converged
steady state is an exact fixed point of it, so the largest entry of the
drift history ``evolve_mild`` returns measures discretization inconsistency.
Also hosts the semigroup-estimate checks (smoothing rate, kernel masses), the
masses weighted sums over the octant j = 0..n/2 of each axis (``Lattice.octant``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidTimeStep, NumericalBlowup
from .spaces import lp_norm
from .spectral import (
    Grid,
    Lattice,
    SpectralVectorField,
    l2_norm,
    leray_project,
    octant_parts,
    octant_to_real,
    projected_advection,
    scalar_to_real,
    scalar_to_spectral,
    to_real,
)


def stable_dt(v0: SpectralVectorField) -> float:
    """Advective step bound 0.5 h / max|v| (the linear part is exact)."""
    vmax = float(np.max(to_real(v0).magnitude()))
    if vmax == 0.0:
        return np.inf
    return 0.5 * v0.grid.grid.spacing / vmax


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    small = np.abs(z) < 1e-7
    zs = z[~small]
    out[~small] = np.expm1(zs) / zs
    out[small] = 1.0 + z[small] / 2.0
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, 0.5)
    small = np.abs(z) < 1e-5
    zs = z[~small]
    out[~small] = (np.expm1(zs) - zs) / (zs * zs)
    out[small] = 0.5 + z[small] / 6.0
    return out


def evolve_mild(
    v0: SpectralVectorField,
    f: SpectralVectorField,
    alpha: float,
    T: float,
    dt: float,
) -> tuple[SpectralVectorField, list]:
    """Second-order exponential integrator for the mild formulation; returns
    the state at time T and the drift history, the relative L^2 distance to
    v0 after each step (0.0 at t = 0).

    Each step treats the dissipation semigroup exactly and the Duhamel
    integral of P f - P div(v (x) v) with a trapezoidal (two-stage)
    quadrature.  Divergence-free and Hermitian structure are preserved at
    multiplier level.
    """
    if dt <= 0 or T <= 0:
        raise InvalidTimeStep("need positive T and dt")
    bound = stable_dt(v0)
    if dt > bound:
        raise InvalidTimeStep(
            f"dt={dt} exceeds the advective stability bound {bound:.3e}"
        )
    g = v0.grid
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        n_steps = int(np.ceil(T / dt))

    z = -dt * g.power(alpha)
    E = np.exp(z)
    p1 = dt * _phi1(z)
    p2 = dt * _phi2(z)

    pf = leray_project(f).data
    pf[:, 0, 0, 0] = 0.0

    def nonlinear(vdata):
        adv = projected_advection(SpectralVectorField(g, vdata))
        return pf - adv.data

    v0_l2 = l2_norm(v0)
    f_l2 = l2_norm(SpectralVectorField(g, pf))
    guard = 1e6 * max(v0_l2, f_l2, 1e-300)

    v = v0.data.copy()
    drift_history = [0.0]
    for step in range(1, n_steps + 1):
        n_v = nonlinear(v)
        a = E * v + p1 * n_v
        n_a = nonlinear(a)
        v = a + p2 * (n_a - n_v)
        v[:, 0, 0, 0] = 0.0
        t = step * dt

        state = SpectralVectorField(g, v)
        norm = l2_norm(state)
        if not np.isfinite(norm) or norm > guard:
            raise NumericalBlowup(f"trajectory norm {norm:.3e} at t={t:.3g}")
        drift = (
            l2_norm(SpectralVectorField(g, v - v0.data)) / v0_l2 if v0_l2 > 0 else norm
        )
        drift_history.append(drift)
    return SpectralVectorField(g, v), drift_history


def smoothing_check(f, p: float, alpha: float, times, grid: Grid) -> dict:
    """sup over times of t^{3/(alpha p)} ||exp(-t(-Lap)^{alpha/2}) f||_inf,
    and its ratio to the discrete L^p norm of f, for scalar samples f (n, n, n)
    or vector samples (3, n, n, n)."""
    arr = np.asarray(f, dtype=np.float64)
    hat = scalar_to_spectral(arr)
    power = Lattice.half(grid).power(alpha)
    sup = 0.0
    for t in times:
        if not (0.0 < t <= 10.0):
            raise ValueError("sample times must lie in (0, 10]")
        smoothed = scalar_to_real(hat * np.exp(-t * power))
        sup = max(sup, t ** (3.0 / (alpha * p)) * lp_norm(smoothed, np.inf, grid.cell_volume))
    fnorm = lp_norm(arr, p, grid.cell_volume)
    return {"sup_weighted": sup, "lp_norm": fnorm, "ratio": sup / fnorm if fnorm else np.inf}


def kernel_l1_check(alpha: float, times, n: int = 128, box: float = 8.0) -> dict:
    """Scaled L^1 masses of the semigroup kernel, its gradient, and the
    projected-divergence kernel tensor, per sample time.

    Columns: ||p(t)||_1, t^{1/alpha} ||grad p(t)||_1, t^{1/alpha} ||K(t)||_1.
    Self-similarity makes each column time-independent in the continuum.
    p = ifftn(m), m = exp(-t |xi|^alpha), and the ten fully symmetric parts
    C_abc = ifftn(1j xi_a xi_b xi_c m/|xi|^2) of the kernel tensor, m's Nyquist
    rows zeroed, are even or odd along each axis, so each is formed and sampled
    on the octant alone (``Lattice.octant``, p by ``octant_to_real``, the parts
    by ``octant_parts``).  Both tensor columns come from C: grad_k p = sum_l
    C_llk, the sum of the parts odd along axis k alone, and |K|_F^2 = |C|_F^2 +
    |grad p|^2 for K_ijk = C_ijk - delta_ij grad_k p.  |p|, |grad p| and |K|_F
    are unchanged by reflections, so each lattice sum is the octant sum
    weighted 1 on the j = 0 and j = n/2 planes of each axis and 2 elsewhere.
    """
    octant = Lattice.octant(Grid(n, box))
    h3, half = octant.grid.cell_volume, n // 2 + 1
    power, nyquist_free, k2_inv = octant.power(alpha), octant.nyquist_free, octant.power(-2.0)
    weight = np.full(half, 2.0)
    weight[[0, -1]] = 1.0

    def mass(a):
        return h3 * float(weight @ (a @ weight) @ weight)

    rows = {"t": [], "p_mass": [], "grad_p_mass_scaled": [], "K_mass_scaled": []}
    for t in times:
        mult = np.exp(-t * power)
        rows["t"].append(t)
        rows["p_mass"].append(mass(np.abs(octant_to_real(mult, (0, 0, 0)) / h3)))

        csq, grad = np.zeros((half,) * 3), np.zeros((3,) + (half,) * 3)
        for abc, C in octant_parts(mult * nyquist_free * k2_inv, octant):
            odd = [c for c in range(3) if abc.count(c) % 2]
            if len(odd) == 1:  # C_llk, l = k or not: a term of grad_k p
                grad[odd[0]] += C
            np.square(C, out=C)
            C *= len(set(itertools.permutations(abc)))
            csq += C
        gsq = np.square(grad, out=grad).sum(axis=0)
        rows["grad_p_mass_scaled"].append(t ** (1.0 / alpha) * mass(np.sqrt(gsq)))
        csq += gsq
        rows["K_mass_scaled"].append(t ** (1.0 / alpha) * mass(np.sqrt(csq)))
    return {k: np.asarray(v) for k, v in rows.items()}
