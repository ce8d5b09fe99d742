"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1, 2, 3, 8 and 9 read the metrics of the experiments themselves:
each builds a ``cli.RunConfig``, calls ``cli.run`` in a temp directory and
applies its bounds to the metrics the run reports.  The flagship profile
runs (criteria 1-2) use the pinned 128^3 grid with box length 32 and the
default force, and are shared through a module-scoped fixture; the other
runs are at desk scale.  Criteria 5, 6 and 7 check the operators directly.
Run with `pytest -v -s` to see the per-criterion lines.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from fracns import asymptotics, cli, forces, solver, spaces, spectral
from fracns.errors import Diverged, NotConverged

ALPHAS = (1.2, 1.5, 2.0, 2.4)


def _report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def _run(outdir, **fields):
    """The metrics of one ``cli.run`` of the config ``fields`` (a ``force`` dict
    holds the ForceSpec fields that differ from the defaults), which writes its
    report into ``outdir``."""
    return cli.run(cli.RunConfig.from_dict(dict(fields, output_dir=str(outdir))))


@pytest.fixture(scope="module")
def profile_runs(tmp_path_factory):
    """The flagship profile run at each pinned alpha, with its wall time."""
    runs = {}
    for alpha in ALPHAS:
        t0 = time.perf_counter()
        metrics = _run(tmp_path_factory.mktemp(f"profile_{alpha}"), experiment="profile",
                       n=128, box_length=32.0, alpha=alpha)
        runs[alpha] = (metrics, time.perf_counter() - t0)
    return runs


def test_criterion_1_decay_law(profile_runs):
    lines = []
    ok = True
    for alpha in ALPHAS:
        metrics, wall = profile_runs[alpha]
        got = metrics["fitted_exponent"]
        want = 4.0 - alpha
        good = abs(got - want) <= 0.15
        fast = wall <= 300.0
        ok &= good and fast
        lines.append(
            f"alpha={alpha}: exponent {got:.3f} vs {want:.1f} "
            f"(|diff| {abs(got-want):.3f} <= 0.15: {good}; "
            f"runtime {wall:.0f}s <= 300s: {fast})"
        )
    assert _report(1, ok, "far-field decay law 4-alpha; " + " | ".join(lines))


def test_criterion_2_asymptotic_profile(profile_runs):
    lines = []
    ok = True
    for alpha in ALPHAS:
        rem = profile_runs[alpha][0]["remainder_exponent"]
        floor = (4.0 - alpha) + 0.5
        if alpha in (1.2, 1.5):
            floor = max(floor, min(9.0 - 3.0 * alpha, 4.0) - 0.5)
        good = rem >= floor
        ok &= good
        lines.append(f"alpha={alpha}: remainder exponent {rem:.3f} >= {floor:.2f}: {good}")
    assert _report(2, ok, "asymptotic-profile remainder; " + " | ".join(lines))


def test_criterion_3_nonexistence_mechanism(tmp_path):
    m = _run(tmp_path, experiment="nonexist", n=64, box_length=32.0, alpha=1.5, kernel_n=96,
             force={"amplitude": 0.2, "r0": 0.6, "r1": 4.0, "seed": 11,
                    "anisotropy": (2.0, 1.0, 1.0)})
    slope = m["deviation_slope"]
    slope_ok = 1.7 <= slope <= 2.3
    affirm_ok = all(m[f"affirmative_eta_over_{d}"] == 1.0 for d in (1, 2, 4))
    iso_ok = m["deviation_isotropic"] < 1e-6 and m["affirmative_isotropic"] == 0.0

    ok = slope_ok and affirm_ok and iso_ok
    assert _report(
        3,
        ok,
        f"deviation slope {slope:.3f} in [1.7, 2.3]: {slope_ok}; "
        f"certificates affirmative at eta, eta/2, eta/4: {affirm_ok}; "
        f"symmetrized force deviation {m['deviation_isotropic']:.2e} < 1e-6 "
        f"and certificate withheld: {iso_ok}",
    )


def test_criterion_4_picard_contraction():
    alpha = 2.0
    grid = spectral.Grid(32, 16.0)
    spec = forces.ForceSpec(kind="annulus_ring", amplitude=0.05, r0=0.8, r1=3.5, seed=3)
    f = forces.make_force(spec, grid, alpha)
    cfg = solver.SolverConfig(alpha)
    sol = solver.solve_steady(f, cfg)
    d = sol.diagnostics
    m = solver.contraction_metrics(sol, f, alpha)
    product, res = m["contraction_product"], m["residual"]

    product_ok = product < 0.5
    ratio_ok = max(d.difference_ratios) <= product + 0.1
    scale = spectral.l2_norm(
        spectral.fractional_power(sol.velocity, alpha)
    ) + spectral.l2_norm(spectral.leray_project(f))
    residual_ok = res < 1e-8 * scale

    big = forces.make_force(
        forces.ForceSpec(kind="annulus_ring", amplitude=0.05 * 1e4, r0=0.8, r1=3.5, seed=3),
        grid, alpha,
    )
    try:
        solver.solve_steady(big, cfg)
        blowup_ok = False
    except (Diverged, NotConverged):
        blowup_ok = True

    ok = product_ok and ratio_ok and residual_ok and blowup_ok
    assert _report(
        4,
        ok,
        f"contraction product {product:.3f} < 0.5: {product_ok}; "
        f"max difference ratio {max(d.difference_ratios):.3f} <= product+0.1: {ratio_ok}; "
        f"residual {res:.2e} < 1e-8 * scale: {residual_ok}; "
        f"amplitude x1e4 diverges: {blowup_ok}",
    )


def test_criterion_5_scaling_invariance():
    # at alpha = 1.5 the powers lambda^(alpha-1) and lambda^(2 alpha-1) of lambda = 2
    # are not powers of two, so the rescaled residual rounds and the check has a subject
    alpha = 1.5
    spec = forces.ForceSpec(kind="annulus_ring", amplitude=0.05, r0=0.8, r1=3.5, seed=3)
    f = forces.make_force(spec, spectral.Grid(32, 16.0), alpha)
    sol = solver.solve_steady(f, solver.SolverConfig(alpha))
    d = solver.scaling_check(sol.velocity, f, alpha, 2)
    ok = d < 1e-9
    assert _report(5, ok, f"scaling discrepancy {d:.2e} < 1e-9 at lambda=2")


def test_criterion_6_kernel_correctness():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        xi = rng.standard_normal(3)
        lam = float(rng.uniform(0.1, 10.0))
        a = float(rng.uniform(1.05, 3.95))
        i, j, k = rng.integers(0, 3, size=3)
        lhs = spectral.bilinear_symbol(lam * xi, a, i, j, k)
        rhs = lam ** (1.0 - a) * spectral.bilinear_symbol(xi, a, i, j, k)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    symbol_ok = worst < 1e-12

    kernel = asymptotics.build_kernel(1.5, refinement_grid_n=128)
    x = rng.standard_normal((50, 3))
    m0 = kernel.evaluate(x)
    m1 = kernel.evaluate(2.0 * x)
    homog_err = np.max(np.abs(m1 - 2.0 ** (kernel.alpha - 4.0) * m0)) / np.max(np.abs(m0))
    homog_ok = homog_err < 1e-12

    from test_asymptotics import oseen_type_oracle

    ker2 = asymptotics.build_kernel(2.0, refinement_grid_n=128)
    dirs = asymptotics.fibonacci_sphere(500)
    got = ker2.evaluate_directions(dirs)
    want = oseen_type_oracle(dirs)
    cls_err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    classical_ok = cls_err < 0.02

    ok = symbol_ok and homog_ok and classical_ok
    assert _report(
        6,
        ok,
        f"symbol homogeneity worst {worst:.2e} < 1e-12: {symbol_ok}; "
        f"kernel homogeneity {homog_err:.2e} < 1e-12: {homog_ok}; "
        f"alpha=2 sphere values vs closed form {cls_err:.4f} < 0.02: {classical_ok}",
    )


def test_criterion_7_moment_matrix_equivalence():
    rng = np.random.default_rng(5)
    agree = 0
    trials = 1000
    for t in range(trials):
        if t % 3 == 0:
            A = float(rng.standard_normal()) * np.eye(3)
        elif t % 3 == 1:
            B = rng.standard_normal((3, 3))
            A = B + B.T
        else:
            B = rng.standard_normal((3, 3)) * 1e-8
            A = np.eye(3) + B + B.T
        direct = (
            np.linalg.norm(A) == 0.0
            or np.linalg.norm(A - (np.trace(A) / 3.0) * np.eye(3))
            < 1e-9 * np.linalg.norm(A)
        )
        agree += asymptotics.bv_scalar_test(A) == direct
    ok = agree == trials
    assert _report(7, ok, f"polynomial vs direct scalar test agreement {agree}/{trials}")


def test_criterion_8_stationarity_and_kernel_masses(tmp_path):
    drift = _run(tmp_path / "evolve", experiment="evolve", n=32, box_length=16.0, alpha=2.0,
                 evolve_T=1.0, evolve_dt=0.02,
                 force={"amplitude": 0.05, "r0": 0.8, "r1": 3.5, "seed": 3})["max_drift"]
    drift_ok = drift < 1e-6

    # kernel_n 16 keeps the kernel fit, which this criterion does not read, cheap
    times = (0.05, 0.1, 0.2, 0.4)
    tab2 = _run(tmp_path / "kernel_2", experiment="kernel", alpha=2.0, kernel_n=16,
                kernel_times=times, kernel_box=(128, 8.0))
    mass_ok = all(abs(tab2[f"p_mass_t{i}"] - 1.0) < 1e-6 for i in range(len(times)))

    variation = _run(tmp_path / "kernel_15", experiment="kernel", alpha=1.5, kernel_n=16,
                     kernel_times=times, kernel_box=(256, 16.0))["K_scaled_variation"]
    sweep_ok = variation < 0.15

    ok = drift_ok and mass_ok and sweep_ok
    assert _report(
        8,
        ok,
        f"steady-state drift {drift:.2e} < 1e-6 over T=1: {drift_ok}; "
        f"heat-kernel mass 1 +- 1e-6: {mass_ok}; "
        f"alpha=1.5 scaled divergence-kernel mass variation {variation:.3f} < 0.15: {sweep_ok}",
    )


def test_criterion_9_norm_machinery(tmp_path):
    m = _run(tmp_path, experiment="norms", n=32, box_length=16.0, seed=9)
    worst = m["lorentz_pp_vs_lp_max_rel_err"]
    lorentz_ok = worst < 1e-10

    gind = spectral.Grid(16, 4.0)
    field = np.zeros(16**3)
    field[:128] = 3.0  # volume exactly 2 at h^3 = 1/64
    field = field.reshape(16, 16, 16)
    exact_ok = True
    exact_ok &= spaces.distribution_function(field, 1.0, gind.cell_volume) == 2.0
    for p in (1.0, 2.0, 3.5):
        got = spaces.lorentz_quasinorm(field, p, np.inf, gind.cell_volume)
        exact_ok &= abs(got - 3.0 * 2.0 ** (1.0 / p)) < 1e-12
    table = spaces.rearrangement(field, gind.cell_volume)
    exact_ok &= table(1.0) == 3.0 and table(2.0) == 0.0

    young_ok = m["young_ratio_max"] < 10.0
    morrey_ok = m["morrey_scale_ratio"] < 2.0

    ok = lorentz_ok and exact_ok and young_ok and morrey_ok
    assert _report(
        9,
        ok,
        f"Lorentz (p,p) vs L^p worst rel err {worst:.2e} < 1e-10: {lorentz_ok}; "
        f"indicator closed forms exact: {exact_ok}; "
        f"Young ratios bounded (max {m['young_ratio_max']:.2f}): {young_ok}; "
        f"Morrey scale ratio {m['morrey_scale_ratio']:.2f} < 2: {morrey_ok}",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "experiment": "decay",
        "n": 32,
        "box_length": 16.0,
        "alpha": 1.5,
        "force": {"kind": "annulus_ring", "amplitude": 0.05, "r0": 0.8, "r1": 3.5,
                  "seed": 3},
        "seed": 1,
    }
    # the child imports this checkout's package whether or not it is installed
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        path = tmp_path / f"cfg_{tag}.json"
        payload = dict(cfg, output_dir=str(outdir))
        path.write_text(json.dumps(payload))
        proc = subprocess.run(
            [sys.executable, "-m", "fracns.cli", "decay", "--config", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(outdir)

    csv_same = (outputs[0] / "decay_profile.csv").read_bytes() == (
        outputs[1] / "decay_profile.csv"
    ).read_bytes()
    r1 = json.loads((outputs[0] / "report.json").read_text())
    r2 = json.loads((outputs[1] / "report.json").read_text())
    r1["config_echo"]["output_dir"] = r2["config_echo"]["output_dir"] = ""
    json_same = r1 == r2
    ok = csv_same and json_same
    assert _report(
        10, ok,
        f"byte-identical CSV re-run: {csv_same}; identical report (modulo output path): {json_same}",
    )
