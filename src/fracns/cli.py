"""Batch experiment driver.

One experiment per invocation: parse a JSON config (flag overrides win),
validate everything up front, dispatch, and emit a self-describing JSON
report plus CSV artifacts.  All randomness flows from the single config
seed, and outputs are written atomically, so identical (config, seed)
runs produce byte-identical files.  Wall time is printed to stderr rather
than serialized, to keep the reports reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import asymptotics, evolve, forces, solver, spaces, spectral
from .errors import DegenerateInput, Diverged, FracnsError, NotConverged

EXPERIMENTS = ("solve", "decay", "profile", "nonexist", "evolve", "norms", "kernel")

EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGED = 4
EXIT_NOT_CONVERGED = 5

# 1000 times the default evolve run's 100 steps
MAX_EVOLVE_STEPS = 10**5

# exit code and stderr prefix of a run error, by class; any other error exits 3
_RUN_ERRORS = {Diverged: (EXIT_DIVERGED, "diverged"),
               NotConverged: (EXIT_NOT_CONVERGED, "not converged")}


def _finite_positive(x) -> bool:
    return spectral.is_real(x) and bool(np.isfinite(x)) and x > 0


@dataclass
class RunConfig:
    experiment: str = "solve"
    n: int = 128
    box_length: float = 32.0
    alpha: float = 1.5
    force: forces.ForceSpec = field(default_factory=forces.ForceSpec)
    tol_rel: float = 1e-12
    max_iter: int = 200
    seed: int = 0
    output_dir: str = "."
    # experiment-specific knobs
    window: tuple | None = None
    nbins: int = 12
    evolve_T: float = 1.0
    evolve_dt: float = 0.01
    kernel_n: int = 128
    kernel_times: tuple = (0.05, 0.1, 0.2, 0.4)
    kernel_box: tuple = (256, 16.0)

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for seed in (self.seed, self.force.seed):
            if not (spectral.is_integer(seed) and seed >= 0):
                raise ValueError(f"seeds must be nonnegative integers, got {seed!r}")
        grid = spectral.Grid(self.n, self.box_length)
        cfg = solver.SolverConfig(self.alpha, tol_rel=self.tol_rel, max_iter=self.max_iter)
        uses_force = self.experiment in ("solve", "decay", "profile", "nonexist", "evolve")
        if uses_force and self.force.r1 >= grid.dealias_radius:
            raise ValueError(
                f"force annulus r1={self.force.r1} outside the dealias sphere "
                f"(radius {grid.dealias_radius:.4g})"
            )
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        w = self.window
        # lo > 0: a log-log fit cannot read the center sample r = 0
        if w is not None and not (len(w) == 2 and all(map(spectral.is_real, w))
                                  and 0 < w[0] < w[1] <= self.box_length / 4):
            raise ValueError("fit window must be two numbers 0 < lo < hi <= box_length/4, "
                             f"got {w}")
        if self.experiment == "nonexist" and not self.force.amplitude > 0:
            raise ValueError("nonexist fits deviations over amplitudes: need amplitude > 0")
        if self.experiment in ("decay", "profile") and not (
                spectral.is_integer(self.nbins) and 8 <= self.nbins <= self.n**3):
            # more bins than samples leaves some bins empty by construction
            raise ValueError("the decay fit needs an integer nbins from 8 to n^3, "
                             f"got {self.nbins!r}")
        if self.experiment == "evolve" and not (
                _finite_positive(self.evolve_T) and _finite_positive(self.evolve_dt)
                and self.evolve_T / self.evolve_dt <= MAX_EVOLVE_STEPS):
            raise ValueError("evolve_T and evolve_dt must be finite and positive, with a step "
                             f"count evolve_T/evolve_dt of at most {MAX_EVOLVE_STEPS}, got "
                             f"{self.evolve_T!r} and {self.evolve_dt!r}")
        if not all(isinstance(v, (list, tuple)) for v in (self.kernel_times, self.kernel_box)):
            raise ValueError("kernel_times and kernel_box must be lists, got "
                             f"{self.kernel_times!r} and {self.kernel_box!r}")
        if self.experiment in ("profile", "nonexist", "kernel"):
            spectral.check_grid(self.kernel_n, 1.0)
            asymptotics.kernel_shell_sites(self.kernel_n)
        if self.experiment == "kernel":
            if len(self.kernel_box) != 2:
                raise ValueError(f"kernel_box must be [n, box], got {list(self.kernel_box)}")
            spectral.check_grid(*self.kernel_box)
            if not (self.kernel_times and all(map(_finite_positive, self.kernel_times))):
                raise ValueError(
                    f"kernel times must be finite and positive, got {self.kernel_times}")
        json.dumps(asdict(self), allow_nan=False)  # the report must echo the config as JSON
        return grid, cfg

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "force" in d:
            d["force"] = forces.ForceSpec(**d["force"])
        return cls(**d)


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header: str, rows) -> str:
    """Write ``header`` and one line per row, each cell through ``_fmt`` (None
    left empty), with LF line endings; returns the file's name."""
    lines = [header] + [",".join("" if x is None else _fmt(x) for x in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")
    return os.path.basename(path)


def emit_radial_csv(profile: asymptotics.RadialProfile, path: str) -> str:
    """Write a radial profile: header r,value,fit_lo,fit_hi; 17 significant
    digits; the fit columns are empty without a fit; empty profiles produce
    a header-only file.  Returns the file's name."""
    rr, vv = profile.bin_centers, profile.bin_values
    lo_curve = hi_curve = [None] * len(rr)
    if np.isfinite(profile.fitted_exponent) and len(rr) > 0:
        e, s = profile.fitted_exponent, profile.fit_stderr
        r_anchor = float(np.exp(np.mean(np.log(rr))))
        v_anchor = float(np.exp(np.mean(np.log(np.maximum(vv, 1e-300)))))
        lo_curve = v_anchor * (rr / r_anchor) ** (-(e + s))
        hi_curve = v_anchor * (rr / r_anchor) ** (-(e - s))
    return _write_csv(path, "r,value,fit_lo,fit_hi", zip(rr, vv, lo_curve, hi_curve))


# ---------------------------------------------------------------------------
# experiments


def _solve_pipeline(config: RunConfig):
    grid, cfg = config.validate()
    f = forces.make_force(config.force, grid, config.alpha)
    sol = solver.solve_steady(f, cfg)
    return grid, cfg, f, sol


def _solution_metrics(sol, f, alpha, metrics):
    d = sol.diagnostics
    metrics["iterations"] = d.iterations
    metrics.update(solver.contraction_metrics(sol, f, alpha))
    metrics["final_step_change"] = d.residual_history[-1]


def _run_solve(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, cfg, f, sol = _solve_pipeline(config)
    _solution_metrics(sol, f, config.alpha, metrics)
    metrics["velocity_l2"] = spectral.l2_norm(sol.velocity)
    return metrics, artifacts


def _run_decay(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, cfg, f, sol = _solve_pipeline(config)
    _solution_metrics(sol, f, config.alpha, metrics)
    prof = asymptotics.radial_profile(spectral.real_magnitude(sol.velocity), grid,
                                      window=config.window, nbins=config.nbins)
    prof = asymptotics.fit_decay_exponent(prof)
    metrics["fitted_exponent"] = prof.fitted_exponent
    metrics["fit_stderr"] = prof.fit_stderr
    metrics["expected_exponent"] = 4.0 - config.alpha
    artifacts.append(emit_radial_csv(prof, os.path.join(outdir, "decay_profile.csv")))
    return metrics, artifacts


def _run_profile(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, cfg, f, sol = _solve_pipeline(config)
    _solution_metrics(sol, f, config.alpha, metrics)
    u = sol.samples
    u0 = spectral.to_real(sol.lift)
    M = forces.moment_matrix(sol.velocity)
    kernel = asymptotics.build_kernel(config.alpha, refinement_grid_n=config.kernel_n)

    prof_u = asymptotics.fit_decay_exponent(
        asymptotics.radial_profile(u.magnitude(), grid, window=config.window,
                                   nbins=config.nbins)
    )
    rem = asymptotics.fit_decay_exponent(
        asymptotics.profile_decomposition(u, u0, M, kernel, window=config.window,
                                          nbins=config.nbins)
    )
    metrics["fitted_exponent"] = prof_u.fitted_exponent
    metrics["remainder_exponent"] = rem.fitted_exponent
    metrics["remainder_stderr"] = rem.fit_stderr
    metrics["kernel_bound_constant"] = kernel.bound_constant
    metrics["moment_deviation"] = forces.scalar_deviation(M)
    artifacts.append(emit_radial_csv(prof_u, os.path.join(outdir, "decay_profile.csv")))
    artifacts.append(emit_radial_csv(rem, os.path.join(outdir, "remainder_profile.csv")))
    return metrics, artifacts


def _run_nonexist(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, cfg = config.validate()
    kernel = asymptotics.build_kernel(config.alpha, refinement_grid_n=config.kernel_n)

    aniso_spec = config.force
    if np.allclose(aniso_spec.anisotropy, (1.0, 1.0, 1.0)):
        aniso_spec = replace(aniso_spec, anisotropy=(2.0, 1.0, 1.0))
    rows = []
    # make_force scales its force to the amplitude, so the eta/2 and eta/4 forces are
    # the eta force halved and quartered, which is exact above the subnormal range
    f_eta = forces.make_force(aniso_spec, grid, config.alpha)
    for divisor in (1, 2, 4):
        fvec = spectral.SpectralVectorField(f_eta.grid, f_eta.data / divisor)
        sol = solver.solve_steady(fvec, cfg)
        cert = asymptotics.nonexistence_certificate(sol, kernel)
        rows.append((aniso_spec.amplitude / divisor, cert))
        tag = f"eta_over_{divisor}"
        metrics[f"deviation_{tag}"] = cert["deviation"]
        metrics[f"raw_deviation_{tag}"] = cert["raw_deviation"]
        metrics[f"lower_bound_{tag}"] = cert["leading_lower_bound"]
        metrics[f"affirmative_{tag}"] = float(cert["affirmative"])
    del f_eta  # not held while the isotropic force is built
    etas = np.array([r[0] for r in rows])
    raws = np.array([r[1]["raw_deviation"] for r in rows])
    if zero := [float(eta) for eta, raw in zip(etas, raws) if not raw > 0.0]:
        raise DegenerateInput(f"the raw deviation is 0 at amplitude {zero}, "
                              "so deviation_slope (a fit to its log) is undefined")
    slope = np.polyfit(np.log(etas), np.log(raws), 1)[0]
    metrics["deviation_slope"] = float(slope)

    iso_spec = replace(aniso_spec, anisotropy=(1.0, 1.0, 1.0), symmetrize=True)
    fiso = forces.make_force(iso_spec, grid, config.alpha)
    sol_iso = solver.solve_steady(fiso, cfg)
    cert_iso = asymptotics.nonexistence_certificate(sol_iso, kernel)
    metrics["deviation_isotropic"] = cert_iso["deviation"]
    metrics["affirmative_isotropic"] = float(cert_iso["affirmative"])

    artifacts.append(_write_csv(
        os.path.join(outdir, "nonexistence.csv"),
        "eta,deviation,raw_deviation,lower_bound,affirmative",
        ((eta, c["deviation"], c["raw_deviation"], c["leading_lower_bound"], c["affirmative"])
         for eta, c in rows),
    ))
    return metrics, artifacts


def _run_evolve(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, cfg, f, sol = _solve_pipeline(config)
    _solution_metrics(sol, f, config.alpha, metrics)
    _, drift = evolve.evolve_mild(sol.velocity, f, config.alpha, config.evolve_T,
                                  config.evolve_dt)
    metrics["max_drift"] = float(np.max(drift))
    metrics["final_drift"] = float(drift[-1])
    artifacts.append(_write_csv(
        os.path.join(outdir, "drift_history.csv"), "t,drift",
        ((i * config.evolve_dt, d) for i, d in enumerate(drift)),
    ))
    return metrics, artifacts


def _run_norms(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, cfg = config.validate()
    rng = np.random.default_rng(config.seed)
    h3 = grid.cell_volume
    n = grid.n

    worst = 0.0
    for _ in range(100):
        fld = rng.standard_normal((n, n, n))
        p = float(rng.uniform(1.0, 6.0))
        lq = spaces.lorentz_quasinorm(fld, p, p, h3)
        lp = spaces.lp_norm(fld, p, h3)
        worst = max(worst, abs(lq - lp) / lp)
    metrics["lorentz_pp_vs_lp_max_rel_err"] = worst

    ratios = []
    x = grid.radius_from(grid.center)
    for _ in range(100):
        c1 = grid.box_length * rng.uniform(0.3, 0.7, size=3)
        c2 = grid.box_length * rng.uniform(0.3, 0.7, size=3)
        w1 = rng.uniform(0.05, 0.15) * grid.box_length
        w2 = rng.uniform(0.05, 0.15) * grid.box_length
        f1 = np.exp(-(grid.radius_from(c1) ** 2) / (2 * w1**2))
        f2 = np.exp(-(grid.radius_from(c2) ** 2) / (2 * w2**2))
        ratios.append(spaces.young_check(f1, f2, grid, 3.0, 1.5, 1.5, 3.0, 1.5, 1.5))
    metrics["young_ratio_max"] = float(np.max(ratios))
    metrics["young_ratio_mean"] = float(np.mean(ratios))

    p = 4.0
    prof = np.maximum(x, grid.spacing) ** (-3.0 / p)
    radii = [grid.box_length / 16, grid.box_length / 8, grid.box_length / 4]
    vals = [spaces.morrey_norm(prof, p, R, grid) for R in radii]
    metrics["morrey_scale_ratio"] = float(np.max(vals) / np.min(vals))
    # |x|^(3/p) prof is 1 on every cell but the center, which the sup excludes
    metrics["weighted_sup_power_law"] = spaces.weighted_sup_norm(prof, 3.0 / p, grid)
    metrics["smoothing_rate_ratio"] = evolve.smoothing_check(
        prof, p, config.alpha, (0.1, 0.3, 1.0), grid)["ratio"]
    return metrics, artifacts


def _run_kernel(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    config.validate()
    kernel = asymptotics.build_kernel(config.alpha, refinement_grid_n=config.kernel_n)
    metrics["bound_constant"] = kernel.bound_constant
    metrics["degree"] = kernel.degree
    kn, kbox = config.kernel_box
    tab = evolve.kernel_l1_check(config.alpha, config.kernel_times, n=kn, box=kbox)
    for i, t in enumerate(tab["t"]):
        metrics[f"p_mass_t{i}"] = float(tab["p_mass"][i])
        metrics[f"grad_p_scaled_t{i}"] = float(tab["grad_p_mass_scaled"][i])
        metrics[f"K_scaled_t{i}"] = float(tab["K_mass_scaled"][i])
    km = tab["K_mass_scaled"]
    if zero := [float(t) for t, k in zip(tab["t"], km) if not k > 0.0]:
        raise DegenerateInput(f"the K mass is 0 at t = {zero}, "
                              "so K_scaled_variation (max/min - 1) is undefined")
    metrics["K_scaled_variation"] = float(km.max() / km.min() - 1.0)
    columns = ("t", "p_mass", "grad_p_mass_scaled", "K_mass_scaled")
    artifacts.append(_write_csv(
        os.path.join(outdir, "kernel_masses.csv"), ",".join(columns),
        zip(*(tab[c] for c in columns)),
    ))
    return metrics, artifacts


_RUNNERS = {
    "solve": _run_solve,
    "decay": _run_decay,
    "profile": _run_profile,
    "nonexist": _run_nonexist,
    "evolve": _run_evolve,
    "norms": _run_norms,
    "kernel": _run_kernel,
}


def _write_report(config: RunConfig, metrics: dict, artifacts: list, error=None):
    """Write ``report.json`` (schema 1) into the run's output directory."""
    payload = {
        "schema": 1,
        "experiment": config.experiment,
        "config_echo": asdict(config),
        "metrics": {k: metrics[k] for k in sorted(metrics)},
        "artifacts": artifacts,
        "error": error,
    }
    path = os.path.join(config.output_dir or ".", "report.json")
    _atomic_write(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def run(config: RunConfig) -> dict:
    """Dispatch one experiment, write its report and artifacts, and return its metrics."""
    outdir = config.output_dir or "."
    os.makedirs(outdir, exist_ok=True)
    metrics, artifacts = _RUNNERS[config.experiment](config, outdir)
    metrics = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
               for k, v in metrics.items()}
    if bad := sorted(k for k, v in metrics.items() if not np.isfinite(v)):
        raise FracnsError(f"non-finite metrics: {', '.join(bad)}")
    _write_report(config, metrics, artifacts)
    return metrics


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="fracns",
        description="Run one verification experiment for the fractional steady-flow solver.",
    )
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", help="JSON config file; flags override its values")
    ap.add_argument("--alpha", type=float)
    ap.add_argument("--n", type=int)
    ap.add_argument("--box-length", type=float, dest="box_length")
    ap.add_argument("--amplitude", type=float)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--output-dir", dest="output_dir")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else 0

    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
            if not isinstance(base, dict):
                raise ValueError("the config must be a JSON object")
        except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return EXIT_VALIDATION
    base["experiment"] = args.experiment
    for key in ("alpha", "n", "box_length", "seed", "output_dir"):
        val = getattr(args, key)
        if val is not None:
            base[key] = val
    if args.amplitude is not None:
        force = dict(base.get("force", {}))
        force["amplitude"] = args.amplitude
        base["force"] = force
    if "output_dir" not in base:
        base["output_dir"] = os.environ.get("FRACNS_OUTPUT_DIR", ".")

    try:
        config = RunConfig.from_dict(base)
        config.validate()
    except (FracnsError, ValueError, TypeError, MemoryError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    t0 = time.perf_counter()
    try:
        metrics = run(config)
    except (FracnsError, MemoryError) as e:
        code, prefix = next((v for cls, v in _RUN_ERRORS.items() if isinstance(e, cls)),
                            (EXIT_VALIDATION, "error"))
        _write_report(config, {}, [], error=f"{type(e).__name__}: {e}")
        print(f"{prefix}: {e}", file=sys.stderr)
        return code

    print(f"done: {config.experiment} in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    for k in sorted(metrics):
        print(f"  {k} = {metrics[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
