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
import numbers
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import asymptotics, evolve, forces, solver, spaces, spectral
from .errors import Diverged, FracnsError, NotConverged

EXPERIMENTS = ("solve", "decay", "profile", "nonexist", "evolve", "norms", "kernel")

EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGED = 4
EXIT_NOT_CONVERGED = 5


@dataclass
class RunConfig:
    experiment: str = "solve"
    n: int = 128
    box_length: float = 32.0
    alpha: float = 1.5
    dealias: bool = True
    force: forces.ForceSpec = field(default_factory=forces.ForceSpec)
    tol_rel: float = 1e-12
    max_iter: int = 200
    divergence_factor: float = 1e3
    seed: int = 0
    output_dir: str = "."
    emit_csv: bool = True
    emit_json: bool = True
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
            if not (isinstance(seed, numbers.Integral) and seed >= 0):
                raise ValueError(f"seeds must be nonnegative integers, got {seed!r}")
        grid = spectral.Grid(self.n, self.box_length)
        params = spectral.FracParams(self.alpha, self.dealias)
        cfg = solver.SolverConfig(
            params,
            tol_rel=self.tol_rel,
            max_iter=self.max_iter,
            divergence_factor=self.divergence_factor,
        )
        uses_force = self.experiment in ("solve", "decay", "profile", "nonexist", "evolve")
        if (
            uses_force
            and self.force.kind == "annulus_ring"
            and self.force.r1 >= grid.dealias_radius
        ):
            raise ValueError(
                f"force annulus r1={self.force.r1} outside the dealias sphere "
                f"(radius {grid.dealias_radius:.4g})"
            )
        w = self.window
        if w is not None and not (len(w) == 2 and all(isinstance(x, numbers.Real) for x in w)
                                  and w[1] <= self.box_length / 4):
            raise ValueError(f"fit window must be two numbers within box_length/4, got {w}")
        if self.experiment == "nonexist" and not self.force.amplitude > 0:
            raise ValueError("nonexist fits deviations over amplitudes: need amplitude > 0")
        if self.experiment in ("profile", "nonexist", "kernel"):
            spectral.check_grid(self.kernel_n, 1.0)
        if self.experiment == "kernel":
            if len(self.kernel_box) != 2:
                raise ValueError(f"kernel_box must be [n, box], got {list(self.kernel_box)}")
            spectral.check_grid(*self.kernel_box)
            if not (self.kernel_times
                    and all(np.isfinite(t) and t > 0 for t in self.kernel_times)):
                raise ValueError(
                    f"kernel times must be finite and positive, got {self.kernel_times}")
        return grid, params, cfg

    def to_dict(self):
        d = asdict(self)
        d["force"] = self.force.to_dict()
        d["window"] = list(self.window) if self.window else None
        d["kernel_times"] = list(self.kernel_times)
        d["kernel_box"] = list(self.kernel_box)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "force" in d:
            d["force"] = forces.ForceSpec.from_dict(d["force"])
        if d.get("window"):
            d["window"] = tuple(d["window"])
        if "kernel_times" in d:
            d["kernel_times"] = tuple(d["kernel_times"])
        if "kernel_box" in d:
            d["kernel_box"] = tuple(d["kernel_box"])
        return cls(**d)


@dataclass
class RunReport:
    schema: int
    experiment: str
    config_echo: dict
    metrics: dict
    artifacts: list
    error: str | None = None
    wall_time: float = 0.0  # in-memory only; excluded from the serialized report

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "experiment": self.experiment,
            "config_echo": self.config_echo,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "artifacts": self.artifacts,
            "error": self.error,
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


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


def emit_radial_csv(profile: asymptotics.RadialProfile, path: str):
    """Write a radial profile: header r,value,fit_lo,fit_hi; 17 significant
    digits; LF line endings; empty profiles produce a header-only file."""
    lines = ["r,value,fit_lo,fit_hi"]
    rr, vv = profile.bin_centers, profile.bin_values
    have_fit = np.isfinite(profile.fitted_exponent) and len(rr) > 0
    if have_fit:
        e, s = profile.fitted_exponent, profile.fit_stderr
        r_anchor = float(np.exp(np.mean(np.log(rr))))
        v_anchor = float(np.exp(np.mean(np.log(np.maximum(vv, 1e-300)))))
        lo_curve = v_anchor * (rr / r_anchor) ** (-(e + s))
        hi_curve = v_anchor * (rr / r_anchor) ** (-(e - s))
    for i in range(len(rr)):
        if have_fit:
            lines.append(
                f"{_fmt(rr[i])},{_fmt(vv[i])},{_fmt(lo_curve[i])},{_fmt(hi_curve[i])}"
            )
        else:
            lines.append(f"{_fmt(rr[i])},{_fmt(vv[i])},,")
    _atomic_write(path, "\n".join(lines) + "\n")


def parse_radial_csv(path: str):
    rows = []
    with open(path) as fh:
        header = fh.readline()
        assert header.strip() == "r,value,fit_lo,fit_hi"
        for line in fh:
            parts = line.strip().split(",")
            rows.append((float(parts[0]), float(parts[1])))
    return rows


# ---------------------------------------------------------------------------
# experiments


def _solve_pipeline(config: RunConfig):
    grid, params, cfg = config.validate()
    f = forces.make_force(config.force, grid, config.alpha)
    sol = solver.solve_steady(f, cfg)
    return grid, params, cfg, f, sol


def _solution_metrics(sol, metrics):
    d = sol.diagnostics
    metrics["iterations"] = d.iterations
    metrics["residual"] = d.residual
    metrics["lifted_force_lorentz_norm"] = d.lifted_force_lorentz_norm
    metrics["empirical_bilinear_constant"] = d.empirical_bilinear_constant
    metrics["contraction_product"] = d.contraction_product
    metrics["solution_lorentz_norm"] = d.solution_lorentz_norm
    metrics["two_ball_ok"] = float(d.two_ball_ok)
    metrics["final_step_change"] = d.residual_history[-1] if d.residual_history else 0.0


def _run_solve(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, params, cfg, f, sol = _solve_pipeline(config)
    _solution_metrics(sol, metrics)
    metrics["velocity_l2"] = spectral.l2_norm(sol.velocity)
    return metrics, artifacts


def _run_decay(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, params, cfg, f, sol = _solve_pipeline(config)
    _solution_metrics(sol, metrics)
    u = spectral.to_real(sol.velocity)
    prof = asymptotics.radial_profile(
        u.magnitude(), grid, window=config.window, nbins=config.nbins
    )
    prof = asymptotics.fit_decay_exponent(prof)
    metrics["fitted_exponent"] = prof.fitted_exponent
    metrics["fit_stderr"] = prof.fit_stderr
    metrics["expected_exponent"] = 4.0 - config.alpha
    if config.emit_csv:
        path = os.path.join(outdir, "decay_profile.csv")
        emit_radial_csv(prof, path)
        artifacts.append("decay_profile.csv")
    return metrics, artifacts


def _run_profile(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, params, cfg, f, sol = _solve_pipeline(config)
    _solution_metrics(sol, metrics)
    u = spectral.to_real(sol.velocity)
    u0 = spectral.to_real(solver.lift_force(f, params))
    M = forces.moment_matrix(u)
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
    if config.emit_csv:
        emit_radial_csv(prof_u, os.path.join(outdir, "decay_profile.csv"))
        emit_radial_csv(rem, os.path.join(outdir, "remainder_profile.csv"))
        artifacts += ["decay_profile.csv", "remainder_profile.csv"]
    return metrics, artifacts


def _run_nonexist(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, params, cfg = config.validate()
    kernel = asymptotics.build_kernel(config.alpha, refinement_grid_n=config.kernel_n)

    aniso_spec = config.force
    if np.allclose(aniso_spec.anisotropy, (1.0, 1.0, 1.0)):
        aniso_spec = replace(aniso_spec, anisotropy=(2.0, 1.0, 1.0))
    rows = []
    for divisor in (1, 2, 4):
        spec = replace(aniso_spec, amplitude=aniso_spec.amplitude / divisor)
        fvec = forces.make_force(spec, grid, config.alpha)
        sol = solver.solve_steady(fvec, cfg)
        cert = asymptotics.nonexistence_certificate(sol, kernel)
        rows.append((spec.amplitude, cert))
        tag = f"eta_over_{divisor}"
        metrics[f"deviation_{tag}"] = cert["deviation"]
        metrics[f"raw_deviation_{tag}"] = cert["raw_deviation"]
        metrics[f"lower_bound_{tag}"] = cert["leading_lower_bound"]
        metrics[f"affirmative_{tag}"] = float(cert["affirmative"])
    etas = np.array([r[0] for r in rows])
    raws = np.array([r[1]["raw_deviation"] for r in rows])
    slope = np.polyfit(np.log(etas), np.log(raws), 1)[0]
    metrics["deviation_slope"] = float(slope)

    iso_spec = replace(aniso_spec, anisotropy=(1.0, 1.0, 1.0), symmetrize=True)
    fiso = forces.make_force(iso_spec, grid, config.alpha)
    sol_iso = solver.solve_steady(fiso, cfg)
    cert_iso = asymptotics.nonexistence_certificate(sol_iso, kernel)
    metrics["deviation_isotropic"] = cert_iso["deviation"]
    metrics["affirmative_isotropic"] = float(cert_iso["affirmative"])

    if config.emit_csv:
        lines = ["eta,deviation,raw_deviation,lower_bound,affirmative"]
        for eta, cert in rows:
            lines.append(
                f"{_fmt(eta)},{_fmt(cert['deviation'])},{_fmt(cert['raw_deviation'])},"
                f"{_fmt(cert['leading_lower_bound'])},{int(cert['affirmative'])}"
            )
        path = os.path.join(outdir, "nonexistence.csv")
        _atomic_write(path, "\n".join(lines) + "\n")
        artifacts.append("nonexistence.csv")
    return metrics, artifacts


def _run_evolve(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, params, cfg, f, sol = _solve_pipeline(config)
    _solution_metrics(sol, metrics)
    traj = evolve.evolve_mild(
        sol.velocity, f, params, config.evolve_T, config.evolve_dt, store_every=10**9
    )
    drift = np.asarray(traj.drift_history)
    metrics["max_drift"] = float(np.max(drift))
    metrics["final_drift"] = float(drift[-1])
    if config.emit_csv:
        lines = ["t,drift"]
        for i, d in enumerate(drift):
            lines.append(f"{_fmt(i * config.evolve_dt)},{_fmt(d)}")
        path = os.path.join(outdir, "drift_history.csv")
        _atomic_write(path, "\n".join(lines) + "\n")
        artifacts.append("drift_history.csv")
    return metrics, artifacts


def _run_norms(config: RunConfig, outdir: str):
    metrics, artifacts = {}, []
    grid, params, cfg = config.validate()
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
    vals = [
        spaces.morrey_norm(prof, p, [R], [grid.center], grid) for R in radii
    ]
    metrics["morrey_scale_ratio"] = float(np.max(vals) / np.min(vals))
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
    metrics["K_scaled_variation"] = float(km.max() / km.min() - 1.0)
    if config.emit_csv:
        lines = ["t,p_mass,grad_p_mass_scaled,K_mass_scaled"]
        for i in range(len(tab["t"])):
            lines.append(
                f"{_fmt(tab['t'][i])},{_fmt(tab['p_mass'][i])},"
                f"{_fmt(tab['grad_p_mass_scaled'][i])},{_fmt(tab['K_mass_scaled'][i])}"
            )
        path = os.path.join(outdir, "kernel_masses.csv")
        _atomic_write(path, "\n".join(lines) + "\n")
        artifacts.append("kernel_masses.csv")
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


def run(config: RunConfig) -> RunReport:
    """Dispatch one experiment and write its report and artifacts."""
    t0 = time.perf_counter()
    outdir = config.output_dir or "."
    os.makedirs(outdir, exist_ok=True)
    report = RunReport(
        schema=1,
        experiment=config.experiment,
        config_echo=config.to_dict(),
        metrics={},
        artifacts=[],
    )
    metrics, artifacts = _RUNNERS[config.experiment](config, outdir)
    report.metrics = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                      for k, v in metrics.items()}
    report.artifacts = artifacts
    report.wall_time = time.perf_counter() - t0
    if config.emit_json:
        _atomic_write(os.path.join(outdir, "report.json"), report.to_json())
    return report


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

    try:
        report = run(config)
    except Diverged as e:
        _emit_error_report(config, "Diverged", str(e))
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except NotConverged as e:
        _emit_error_report(config, "NotConverged", str(e))
        print(f"not converged: {e}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (FracnsError, MemoryError) as e:
        _emit_error_report(config, type(e).__name__, str(e))
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    print(f"done: {config.experiment} in {report.wall_time:.1f}s", file=sys.stderr)
    for k in sorted(report.metrics):
        print(f"  {k} = {report.metrics[k]}")
    return 0


def _emit_error_report(config: RunConfig, name: str, message: str):
    report = RunReport(
        schema=1,
        experiment=config.experiment,
        config_echo=config.to_dict(),
        metrics={},
        artifacts=[],
        error=f"{name}: {message}",
    )
    if config.emit_json:
        _atomic_write(os.path.join(config.output_dir or ".", "report.json"),
                      report.to_json())


if __name__ == "__main__":
    sys.exit(main())
