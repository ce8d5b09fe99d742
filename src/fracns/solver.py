"""Fixed-point construction of steady states and its diagnostics.

The steady problem is solved by iterating

    u_{n+1} = u_0 + B(u_n, u_n),   u_0 = (-Lap)^{-alpha/2} P f,

with B the lifted advection map from :mod:`fracns.spectral`.  The force is
held on the box of modes the 2/3 rule keeps (``Lattice.dealias_cube``), and
so are u_0, every iterate and the solution: the map, the step and both norms
run on the force's cube, and the residual, the pressure and the rescaled pair
of the scaling check are formed there too.  Each function here takes spectral
fields held on a cube, and ``weak_lorentz_norm`` real samples.  Smallness is
never hard-coded: ``contraction_metrics`` measures the contraction product
4 * delta * C_B of a solution (delta = weak-Lorentz size of the lifted force,
C_B the empirical bilinear constant) for the runs that report it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import Diverged, InvalidAlpha, InvalidGrid, NotConverged
from .spaces import lorentz_quasinorm
from .spectral import (
    Grid,
    Lattice,
    RealVectorField,
    SpectralVectorField,
    _advection_divergence,
    _by_slabs,
    _MapScratch,
    apply_bilinear,
    fractional_power,
    is_integer,
    is_real,
    l2_norm,
    leray_project,
    parseval_l2,
    projected_advection,
    to_real,
)


# an iterate larger than this multiple of the lifted force has left the small-data regime
DIVERGENCE_FACTOR = 1e3

ALPHA_SOLVE_RANGE = (1.0, 2.5)


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    tol_rel: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        lo, hi = ALPHA_SOLVE_RANGE
        if not (is_real(self.alpha) and lo < self.alpha < hi):
            raise InvalidAlpha(f"solver requires alpha in ({lo}, {hi}), got {self.alpha!r}")
        if not (is_real(self.tol_rel) and 0.0 < self.tol_rel < 1.0):
            raise ValueError(f"tol_rel must lie in (0, 1), got {self.tol_rel!r}")
        if not (is_integer(self.max_iter) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class SolverDiagnostics:
    iterations: int
    residual_history: list = field(default_factory=list)  # successive-change norms
    difference_ratios: list = field(default_factory=list)


@dataclass
class SteadySolution:
    velocity: SpectralVectorField
    lift: SpectralVectorField  # u_0, the lifted force, on the velocity's lattice
    diagnostics: SolverDiagnostics

    @cached_property
    def samples(self) -> RealVectorField:
        """The velocity's real samples, taken on first read and kept."""
        return to_real(self.velocity)


def weak_lorentz_norm(u: RealVectorField, alpha: float) -> float:
    """Discrete L^{3/(alpha-1), inf} estimator of |u| (the scale-invariant size)
    from the real samples ``u``."""
    return lorentz_quasinorm(u, 3.0 / (alpha - 1.0), np.inf, u.grid.cell_volume)


def lift_force(f: SpectralVectorField, alpha: float) -> SpectralVectorField:
    """u_0 = (-Lap)^{-alpha/2} P f; rejects forces with nonzero mean."""
    return fractional_power(leray_project(f), -alpha)


def solve_steady(f: SpectralVectorField, config: SolverConfig) -> SteadySolution:
    """Iterate the quadratic fixed-point map on the dealias cube ``f`` is held on
    until the relative L^2 change drops below ``tol_rel``.

    Raises ``Diverged`` when an iterate exceeds ``DIVERGENCE_FACTOR`` times
    the size of the lifted force (smallness violated), and ``NotConverged``
    when the iteration budget runs out.
    """
    alpha, cube = config.alpha, f.grid
    u0 = lift_force(f, alpha)
    u0_l2 = l2_norm(u0)
    diag = SolverDiagnostics(iterations=0)

    if u0_l2 == 0.0:
        diag.residual_history.append(0.0)
        return SteadySolution(u0, u0, diag)

    u = u0.data.copy()
    prev_diff = None
    scratch = _MapScratch(cube)  # every map of the solve works in it

    def step(s):  # new = u0 + B(u, u); u is retired: it holds the step
        n = new[:, s]
        n += u0.data[:, s]
        np.subtract(n, u[:, s], out=u[:, s])

    for it in range(1, config.max_iter + 1):
        new = apply_bilinear(SpectralVectorField(cube, u), alpha, _scratch=scratch).data
        _by_slabs(step, cube.spectral_shape[0])
        new_l2 = parseval_l2(cube, cube.lattice_sum(new, new))
        diff = parseval_l2(cube, cube.lattice_sum(u, u))
        diag.iterations = it
        diag.residual_history.append(diff)
        if new_l2 > DIVERGENCE_FACTOR * u0_l2:
            raise Diverged(
                f"iterate norm {new_l2:.3e} exceeded {DIVERGENCE_FACTOR:.1e} x "
                f"||u0|| after {it} iterations"
            )
        if prev_diff is not None and prev_diff > 1e-13 * new_l2 and prev_diff > 0:
            diag.difference_ratios.append(diff / prev_diff)
        prev_diff = diff
        u = new
        if diff <= config.tol_rel * new_l2:
            break
    else:
        raise NotConverged(
            f"no convergence to tol_rel={config.tol_rel} in {config.max_iter} iterations"
        )
    return SteadySolution(SpectralVectorField(cube, u), u0, diag)


def contraction_metrics(solution: SteadySolution, f: SpectralVectorField, alpha: float) -> dict:
    """The measured smallness data of a solution u for the force ``f``, under
    its report names: the weak-Lorentz sizes delta of the lifted force and of u,
    the empirical bilinear constant C_B = |B(u, u)| / |u|^2 in that norm, the
    contraction product 4 delta C_B, whether u lies in the ball of radius
    2 delta, and the residual of u.  The lift and the samples of u are the
    solution's own.  B(u, u), quadratic in u, is scaled by a power of two for its
    norm (``_scale_to_unit``), so at tiny forces its squares cannot underflow."""
    u = solution.velocity
    adv = projected_advection(u)
    res = residual(u, f, alpha, adv=adv)
    # B(u, u) = -(-Lap)^(-alpha/2) adv, whose sign the norm ignores
    b = fractional_power(adv, -alpha)
    del adv  # neither is held while the norms take their samples
    scale = _scale_to_unit(b.data)
    b_lorentz = weak_lorentz_norm(to_real(b), alpha) * scale
    del b
    delta = weak_lorentz_norm(to_real(solution.lift), alpha)
    u_lorentz = weak_lorentz_norm(solution.samples, alpha)
    c_b = b_lorentz / u_lorentz**2 if u_lorentz > 0 else 0.0
    return {
        "lifted_force_lorentz_norm": delta,
        "empirical_bilinear_constant": c_b,
        "contraction_product": 4.0 * delta * c_b,
        "solution_lorentz_norm": u_lorentz,
        "two_ball_ok": u_lorentz <= 2.0 * delta * (1.0 + 1e-6),
        "residual": res,
    }


def _residual_terms(u, f, alpha, adv=None):
    """The terms (-Lap)^{alpha/2} u, P div(u (x) u) and P f of the residual."""
    diss = fractional_power(u, alpha)
    if adv is None:
        adv = projected_advection(u)
    pf = leray_project(f)
    return diss, adv, pf


def _residual_field(diss, adv, pf) -> np.ndarray:
    """diss + adv - pf, summed in place in diss's (fresh) array."""
    r = diss.data
    r += adv.data
    r -= pf.data
    return r


def _scale_to_unit(coeffs: np.ndarray) -> float:
    """Divide complex ``coeffs`` in place by the power of two that brings their
    largest real or imaginary part into [1, 2), and return it: their squares
    cannot underflow, and transforms, squares and roots scale back exactly.
    The parts are divided, not the complex field: numpy divides by a complex
    number through its reciprocal, which overflows at a subnormal scale."""
    parts = coeffs.view(np.float64)
    scale = 2.0 ** (int(np.frexp(max(parts.max(), -parts.min()))[1]) - 1)
    parts /= scale
    return scale


def residual(u: SpectralVectorField, f: SpectralVectorField, alpha: float, adv=None) -> float:
    """Discrete L^2 norm of (-Lap)^{alpha/2} u + P div(u (x) u) - P f; ``adv``,
    the projected advection of ``u``, is formed here unless the caller has it.
    The norm is taken scaled by a power of two (``_scale_to_unit``)."""
    r = _residual_field(*_residual_terms(u, f, alpha, adv))
    r[:, 0, 0, 0] = 0.0
    scale = _scale_to_unit(r)
    return l2_norm(SpectralVectorField(u.grid, r)) * scale


def recover_pressure(u: SpectralVectorField, f: SpectralVectorField) -> np.ndarray:
    """Pressure from velocity and force held on one dealias cube, as a mean-free
    scalar spectral field on that cube: p = 1j xi . (D - f) / |xi|^2, the
    longitudinal part of the momentum balance, D the divergence of the dealiased
    u (x) u.  xi . f is taken apart from xi . D: for a divergence-free f, D - f
    would add rounding of size |xi| |f|.  The dealias mask zeroes p outside it."""
    cube = u.grid
    d = _advection_divergence(u).data
    xi, fc = cube.xi, f.data
    p_hat = 1j * (xi[0] * d[0] + xi[1] * d[1] + xi[2] * d[2]
                  - (xi[0] * fc[0] + xi[1] * fc[1] + xi[2] * fc[2]))
    p_hat *= cube.leray_factor
    p_hat *= cube.dealias_mask
    return p_hat


def rescale_pair(u: SpectralVectorField, f: SpectralVectorField, alpha: float, lam: int):
    """Realize (u_lam, f_lam) on the grid with box L/lam and the same mode count.

    u_lam(x) = lam^{alpha-1} u(lam x) and f_lam(x) = lam^{2alpha-1} f(lam x);
    with N unchanged the frequency lattices align mode for mode, so the
    rescaling is exact at coefficient level, on the dealias cube of the rescaled
    grid.
    """
    g = u.grid.grid
    g2 = Lattice.dealias_cube(Grid(g.n, g.box_length / lam))
    u2 = SpectralVectorField(g2, lam ** (alpha - 1.0) * u.data)
    f2 = SpectralVectorField(g2, lam ** (2.0 * alpha - 1.0) * f.data)
    return u2, f2


def scaling_check(
    u: SpectralVectorField, f: SpectralVectorField, alpha: float, lam: int
) -> float:
    """Max relative discrepancy between the residual field of the rescaled
    pair and lam^{2alpha-1} times the original residual field.

    The discrepancy is normalized by the largest coefficient among the
    rescaled residual's constituent terms, so it measures covariance of
    the discrete operators rather than the (possibly tiny) residual itself.
    """
    if lam < 2 or u.grid.grid.n % lam != 0:
        raise InvalidGrid(f"lambda must be an integer >= 2 dividing n, got {lam}")

    r1 = _residual_field(*_residual_terms(u, f, alpha))
    u2, f2 = rescale_pair(u, f, alpha, lam)
    terms = _residual_terms(u2, f2, alpha)
    scale = max(np.max(np.abs(t.data)) for t in terms)
    r2 = _residual_field(*terms)
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(r2 - lam ** (2.0 * alpha - 1.0) * r1)) / scale)
