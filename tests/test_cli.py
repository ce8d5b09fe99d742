import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracns
from conftest import whole_range_profile
from fracns import cli
from fracns.asymptotics import RadialProfile, fit_decay_exponent
from fracns.cli import (
    EXIT_DIVERGED,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunConfig,
    emit_radial_csv,
    main,
    run,
)


def parse_radial_csv(path):
    """The (r, value) rows of a radial-profile CSV written by ``emit_radial_csv``."""
    rows = []
    with open(path) as fh:
        assert fh.readline().strip() == "r,value,fit_lo,fit_hi"
        for line in fh:
            parts = line.strip().split(",")
            rows.append((float(parts[0]), float(parts[1])))
    return rows


def small_config(tmp_path, experiment="solve", **over):
    base = dict(
        experiment=experiment,
        n=24,
        box_length=16.0,
        alpha=1.5,
        force={"amplitude": 0.05, "r0": 0.8, "r1": 2.8, "seed": 3},
        output_dir=str(tmp_path),
        seed=1,
    )
    base.update(over)
    return RunConfig.from_dict(base)


class TestRadialCsv:
    def test_empty_profile_header_only(self, tmp_path):
        prof = RadialProfile(np.array([]), np.array([]), (1.0, 2.0))
        path = str(tmp_path / "empty.csv")
        emit_radial_csv(prof, path)
        with open(path, "rb") as fh:
            content = fh.read()
        assert content == b"r,value,fit_lo,fit_hi\n"

    def test_bin_count_lines(self, tmp_path):
        radii = np.linspace(1, 2, 8)
        prof = fit_decay_exponent(whole_range_profile(radii, radii**-2.0))
        path = str(tmp_path / "p.csv")
        emit_radial_csv(prof, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 9

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        radii = np.sort(rng.uniform(1, 3, 10))
        values = rng.uniform(0.1, 2.0, 10)
        prof = fit_decay_exponent(whole_range_profile(radii, values))
        path = str(tmp_path / "rt.csv")
        emit_radial_csv(prof, path)
        rows = parse_radial_csv(path)
        for (r, v), r0, v0 in zip(rows, radii, values):
            assert r == r0 and v == v0  # 17 significant digits round-trip doubles

    def test_lf_endings(self, tmp_path):
        radii = np.linspace(1, 2, 8)
        prof = fit_decay_exponent(whole_range_profile(radii, radii**-1.0))
        path = str(tmp_path / "lf.csv")
        emit_radial_csv(prof, path)
        raw = open(path, "rb").read()
        assert b"\r" not in raw


class TestRun:
    def test_solve_zero_force(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.force = type(cfg.force)(amplitude=0.0, r0=0.8, r1=2.8, seed=3)
        metrics = run(cfg)
        assert metrics["residual"] == 0.0
        assert metrics["velocity_l2"] == 0.0

    def test_solve_small(self, tmp_path):
        metrics = run(small_config(tmp_path))
        assert metrics["residual"] < 1e-10
        assert os.path.exists(tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == 1
        assert "wall_time" not in payload  # reports must be bit-reproducible
        assert payload["config_echo"]["n"] == 24
        assert payload["metrics"] == metrics

    def test_decay_pipeline(self, tmp_path):
        cfg = small_config(tmp_path, experiment="decay", n=32, box_length=16.0)
        metrics = run(cfg)
        assert "fitted_exponent" in metrics
        assert (tmp_path / "decay_profile.csv").exists()

    def test_evolve_pipeline(self, tmp_path):
        cfg = small_config(tmp_path, experiment="evolve", evolve_T=0.1, evolve_dt=0.02)
        metrics = run(cfg)
        assert metrics["max_drift"] < 1e-6
        assert (tmp_path / "drift_history.csv").exists()

    def test_norms_pipeline(self, tmp_path):
        metrics = run(small_config(tmp_path, experiment="norms", n=16))
        assert metrics["lorentz_pp_vs_lp_max_rel_err"] < 1e-10
        assert metrics["morrey_scale_ratio"] < 2.0
        assert metrics["weighted_sup_power_law"] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < metrics["smoothing_rate_ratio"] < 5.0


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cfg1 = small_config(d1, experiment="decay", n=32)
        cfg2 = small_config(d2, experiment="decay", n=32)
        run(cfg1)
        run(cfg2)
        for name in ("decay_profile.csv",):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        r1 = json.loads((d1 / "report.json").read_text())
        r2 = json.loads((d2 / "report.json").read_text())
        r1["config_echo"]["output_dir"] = r2["config_echo"]["output_dir"] = ""
        assert r1 == r2

    def test_reports_independent_of_the_slab_split(self, tmp_path, monkeypatch):
        # the map's elementwise passes run by slabs of rows, on the calling thread
        # and the pool (spectral._by_slabs); each element gets the same float
        # operations however the rows are split, so no byte of the outputs moves
        monkeypatch.setattr(fracns.spectral, "_SLAB_ROWS", 1)  # split a 32^3 cube too
        outputs = []
        for slabs in (1, 2, 3):
            monkeypatch.setattr(fracns.spectral, "_WORKERS", slabs)
            out = tmp_path / str(slabs)
            run(RunConfig.from_dict({"experiment": "decay", "n": 32, "box_length": 8.0,
                                     "force": {"seed": 7, "r1": 2.0}, "output_dir": str(out)}))
            report = (out / "report.json").read_text().replace(json.dumps(str(out)), '""')
            outputs.append((report, (out / "decay_profile.csv").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_reports_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS splits a threaded reduction by its thread count, which follows
        # the host's cores; the solver stack calls no BLAS, so the bits do not.
        # Each child gets its own thread count in its own environment.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 32, "box_length": 8.0, "force": {"seed": 7, "r1": 2.0}}))
        src = str(pathlib.Path(fracns.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        metrics = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            for experiment in ("decay", "solve"):
                out = tmp_path / f"{experiment}-{threads}"
                subprocess.run([sys.executable, "-m", "fracns.cli", experiment, "--config",
                                str(cfg), "--output-dir", str(out)],
                               env=env, check=True, capture_output=True, timeout=120)
                report = json.loads((out / "report.json").read_text())
                metrics[experiment, threads] = report["metrics"]
        for experiment in ("decay", "solve"):
            assert metrics[experiment, "1"] == metrics[experiment, "2"], experiment


class TestMainEntry:
    def test_unknown_experiment_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_validation_error_exit(self, tmp_path):
        cfg = {"n": 24, "box_length": 16.0, "alpha": 9.0,
               "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == EXIT_VALIDATION

    def test_flag_overrides_win(self, tmp_path):
        cfg = {
            "n": 24,
            "box_length": 16.0,
            "alpha": 1.5,
            "force": {"amplitude": 0.05, "r0": 0.8, "r1": 2.8, "seed": 3},
            "output_dir": str(tmp_path),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(path), "--alpha", "2.0"])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config_echo"]["alpha"] == 2.0

    def test_diverged_exit_code(self, tmp_path):
        cfg = {
            "n": 24,
            "box_length": 16.0,
            "alpha": 2.0,
            "force": {"amplitude": 500.0, "r0": 0.8, "r1": 2.8, "seed": 3},
            "output_dir": str(tmp_path),
            "max_iter": 50,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(path)])
        assert code == EXIT_DIVERGED
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["error"].startswith("Diverged")

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACNS_OUTPUT_DIR", str(tmp_path))
        cfg = {
            "n": 24,
            "box_length": 16.0,
            "alpha": 1.5,
            "force": {"amplitude": 0.05, "r0": 0.8, "r1": 2.8, "seed": 3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == 0
        assert (tmp_path / "report.json").exists()

    def test_out_of_memory_in_run_reports_error(self, tmp_path, monkeypatch):
        def exhausted(config, outdir):
            raise MemoryError("cannot allocate the velocity field")

        monkeypatch.setitem(cli._RUNNERS, "solve", exhausted)
        code = main(["solve", "--output-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["error"] == "MemoryError: cannot allocate the velocity field"

    def test_degenerate_force_error_report(self, tmp_path):
        force = {"amplitude": 0.1, "r1": 3.0, "seed": 4, "symmetrize": True}
        cfg = {"n": 16, "box_length": 4.0, "force": force, "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == EXIT_VALIDATION
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["error"].startswith("DegenerateInput")

    def test_force_too_large_for_its_norm_rejected_without_warning(self, tmp_path):
        # the smallest box check_grid takes, with the annulus at 0.6 to 3.0 lattice
        # steps: the raw force's squares overflowed its L^2 norm and the Leray pass
        force = {"r0": 8.377149812156101e101, "r1": 4.188574906078051e102}
        cfg = {"n": 16, "box_length": 4.500231306401164e-102, "force": force,
               "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(path)]) == EXIT_VALIDATION
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["error"].startswith("DegenerateInput") and "scale" in payload["error"]
        assert payload["metrics"] == {}

    @pytest.mark.parametrize("box", [1e-100, 1e-90])
    def test_force_scaled_too_large_for_its_norm_rejected_without_warning(self, tmp_path, box):
        # the raw force passes its scale check, but scaling it to the amplitude
        # multiplies it by ~1e53; unchecked, the solve ends on a non-finite residual
        force = {"r0": 0.6 * 2 * np.pi / box, "r1": 3.0 * 2 * np.pi / box}
        cfg = {"n": 16, "box_length": box, "force": force, "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(path)]) == EXIT_VALIDATION
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["error"].startswith("DegenerateInput") and "amplitude" in payload["error"]
        assert payload["metrics"] == {}

    def test_non_finite_metric_error_report(self, tmp_path):
        # at t = 1000 the kernel mass is 0, so K_scaled_variation is inf
        cfg = {"kernel_n": 16, "kernel_box": [16, 4.0], "kernel_times": [0.1, 1000.0],
               "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["kernel", "--config", str(path)]) == EXIT_VALIDATION

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert payload["metrics"] == {}
        assert "K_scaled_variation" in payload["error"]

    def test_zero_kernel_mass_writes_no_artifact(self, tmp_path, monkeypatch):
        # the run stops at the zero K mass: no division by it, no kernel_masses.csv
        cfg = {"alpha": 2.0, "kernel_times": [0.1, 1000.0], "kernel_n": 16,
               "kernel_box": [16, 4.0]}
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FRACNS_OUTPUT_DIR", raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["kernel", "--config", str(path)])
        assert code == EXIT_VALIDATION
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["error"].startswith("DegenerateInput") and "K mass is 0" in payload["error"]
        assert payload["artifacts"] == [] and payload["metrics"] == {}
        assert not (tmp_path / "kernel_masses.csv").exists()

    def test_nonexist_zero_raw_deviation_rejected_without_warning(self, tmp_path):
        # at amplitude 1e-300 every raw deviation would underflow to 0, whose log
        # the deviation slope's fit would take; the force's check rejects it first
        cfg = {"n": 16, "box_length": 8.0, "kernel_n": 16, "output_dir": str(tmp_path),
               "force": {"r0": 0.6, "r1": 2.0, "amplitude": 1e-300}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["nonexist", "--config", str(path)]) == EXIT_VALIDATION
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["error"].startswith("DegenerateInput") and "1e-300" in payload["error"]
        assert payload["artifacts"] == [] and payload["metrics"] == {}

    @pytest.mark.parametrize("amplitude", [1e-160, 1e-200])
    def test_force_too_small_for_its_norms_rejected(self, tmp_path, amplitude):
        # the lift's largest sample squares below the normal floats: unchecked, the
        # norms read 1.0001e-160 at 1e-160, and every norm and the iterations 0.0
        # at 1e-200
        cfg = {"n": 16, "box_length": 8.0, "output_dir": str(tmp_path),
               "force": {"r0": 0.6, "r1": 2.0, "amplitude": amplitude}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(path)]) == EXIT_VALIDATION
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["error"].startswith("DegenerateInput") and "too small" in payload["error"]
        assert payload["metrics"] == {}

    def test_small_force_keeps_exact_norms(self, tmp_path):
        # at 1e-150 the lift's squares are normal floats: the norms are those at
        # 1e-50, where the quadratic term is as negligible, scaled by 1e-100, and
        # B(u, u), of order 1e-300, keeps its bits too: the bilinear constant does
        # not depend on the amplitude
        norms = {}
        for amplitude in (1e-50, 1e-150):
            cfg = {"n": 16, "box_length": 8.0, "output_dir": str(tmp_path / str(amplitude)),
                   "force": {"r0": 0.6, "r1": 2.0, "amplitude": amplitude}}
            path = tmp_path / f"{amplitude}.json"
            path.write_text(json.dumps(cfg))
            assert main(["solve", "--config", str(path)]) == 0
            norms[amplitude] = json.loads((tmp_path / str(amplitude) / "report.json")
                                          .read_text())["metrics"]
        for key in ("lifted_force_lorentz_norm", "solution_lorentz_norm", "velocity_l2"):
            assert norms[1e-150][key] == pytest.approx(1e-100 * norms[1e-50][key], rel=1e-14)
        assert norms[1e-150]["lifted_force_lorentz_norm"] == pytest.approx(1e-150, rel=1e-15)
        constant = norms[1e-50]["empirical_bilinear_constant"]
        assert constant > 0 and norms[1e-150]["empirical_bilinear_constant"] == pytest.approx(
            constant, rel=1e-14)
        product = norms[1e-50]["contraction_product"]
        assert product > 0 and norms[1e-150]["contraction_product"] == pytest.approx(
            1e-100 * product, rel=1e-14)

    def test_out_of_memory_in_validation_exit(self, tmp_path, monkeypatch):
        def exhausted(self):
            raise MemoryError("cannot allocate the grid")

        monkeypatch.setattr(RunConfig, "validate", exhausted)
        assert main(["solve", "--output-dir", str(tmp_path)]) == EXIT_VALIDATION

    def _rejected_before_run(self, tmp_path, monkeypatch, experiment, cfg, flags=()):
        def unreachable(config, outdir):
            raise AssertionError("an invalid config reached the runner")

        monkeypatch.setitem(cli._RUNNERS, experiment, unreachable)
        # run from tmp_path, so that a config naming no output_dir would report there
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FRACNS_OUTPUT_DIR", raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([experiment, "--config", str(path), *flags])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "report.json").exists()

    def test_nonexist_zero_amplitude_rejected(self, tmp_path, monkeypatch):
        cfg = {"n": 16, "box_length": 8.0, "force": {"r1": 3.0, "amplitude": 0.0}}
        self._rejected_before_run(tmp_path, monkeypatch, "nonexist", cfg)

    @pytest.mark.parametrize("t", [-1.0, 0.0])
    def test_nonpositive_kernel_time_rejected(self, tmp_path, monkeypatch, t):
        cfg = {"kernel_n": 16, "kernel_box": [16, 4.0], "kernel_times": [0.1, t]}
        self._rejected_before_run(tmp_path, monkeypatch, "kernel", cfg)

    def test_config_not_an_object_rejected(self, tmp_path, monkeypatch):
        self._rejected_before_run(tmp_path, monkeypatch, "solve", [1, 2])

    @pytest.mark.parametrize(
        "experiment, cfg",
        [
            ("decay", {"nbins": 2.5}),
            ("decay", {"nbins": 3}),
            ("profile", {"nbins": 7}),
            ("solve", {"force": {"r1": 3.0, "anisotropy": [2, 1]}}),
            ("solve", {"force": {"r1": 3.0, "anisotropy": [2, 1, "x"]}}),
            ("evolve", {"evolve_dt": "x"}),
            ("evolve", {"evolve_T": 0.0}),
            ("solve", {"max_iter": 2.5}),
            ("solve", {"max_iter": 0}),
            ("solve", {"output_dir": 5}),
            ("decay", {"window": [1.5, 1.0]}),
            ("decay", {"window": [-0.5, 1.0]}),
            ("decay", {"window": [0, 1.0]}),
            ("profile", {"window": [0.0, 1.0]}),
            ("norms", {"box_length": float("inf")}),
            ("kernel", {"kernel_n": 16, "kernel_box": [16, float("inf")]}),
            ("solve", {"force": {"r1": 3.0, "amplitude": float("nan")}}),
            ("solve", {"force": {"r1": 3.0, "amplitude": float("inf")}}),
            ("solve", {"seed": True}),
            ("solve", {"force": {"r1": 3.0, "seed": True}}),
            ("solve", {"max_iter": True}),
            ("solve", {"box_length": True}),
            ("solve", {"force": {"r1": 3.0, "amplitude": True}}),
            ("solve", {"force": {"r0": True, "r1": 3.0}}),
            ("evolve", {"evolve_T": True}),
            ("decay", {"window": [True, 1.5]}),
            ("solve", {"force": {"r1": 3.0, "symmetrize": "false"}}),
            ("solve", {"force": {"r0": 0.7, "r1": float("inf")}}),
            ("solve", {"kernel_times": 5}),
            ("solve", {"kernel_box": 256}),
            ("solve", {"evolve_T": float("inf")}),
            ("evolve", {"evolve_T": 1e300, "evolve_dt": 1e-300}),
            ("decay", {"nbins": 2**70}),
            ("evolve", {"evolve_T": 1e6, "evolve_dt": 1e-3}),
            ("solve", {"force": {"kind": "gaussian_bump", "r1": 3.0}}),
            ("solve", {"force": {"kind": "plane_wave_pair", "r1": 3.0}}),
        ],
        ids=["nbins_fractional", "nbins_small", "profile_nbins_small", "anisotropy_two",
             "anisotropy_not_number", "evolve_dt_string", "evolve_T_zero",
             "max_iter_fractional", "max_iter_zero", "output_dir_not_string",
             "window_reversed", "window_negative_lo", "window_lo_zero",
             "profile_window_lo_zero", "box_length_infinite",
             "kernel_box_infinite", "amplitude_nan", "amplitude_infinite", "seed_bool",
             "force_seed_bool", "max_iter_bool", "box_length_bool", "amplitude_bool",
             "r0_bool", "evolve_T_bool", "window_bool", "symmetrize_string",
             "annulus_r1_infinite", "kernel_times_not_a_list", "kernel_box_not_a_list",
             "config_echo_not_json", "evolve_steps_overflow", "nbins_above_samples",
             "evolve_steps_above_ceiling", "kind_gaussian_bump", "kind_plane_wave_pair"],
    )
    def test_bad_knob_rejected(self, tmp_path, monkeypatch, experiment, cfg):
        cfg = {"n": 16, "box_length": 8.0, "force": {"r1": 3.0}, **cfg}
        self._rejected_before_run(tmp_path, monkeypatch, experiment, cfg)

    @pytest.mark.parametrize(
        "cfg, name",
        [
            ({"box_length": 1e300}, "box_length"),  # (L/n)^3 overflowed in Grid
            ({"box_length": 1e-300}, "box_length"),  # |xi|^2 overflowed in the force
            ({"alpha": "1.5"}, "alpha"),
            ({"tol_rel": "x"}, "tol_rel"),
        ],
        ids=["box_length_huge", "box_length_tiny", "alpha_string", "tol_rel_string"],
    )
    def test_bad_value_named_without_warning(self, tmp_path, monkeypatch, capsys, cfg, name):
        cfg = {"n": 16, "box_length": 8.0, "force": {"r1": 3.0}, **cfg}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._rejected_before_run(tmp_path, monkeypatch, "solve", cfg)
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["dealias", "emit_csv", "emit_json", "divergence_factor"])
    def test_retired_switch_rejected(self, tmp_path, monkeypatch, key):
        # the 2/3 rule, the CSVs and the report are not optional, the blow-up factor is fixed
        cfg = {"n": 16, "box_length": 8.0, "force": {"r1": 3.0}, key: False}
        self._rejected_before_run(tmp_path, monkeypatch, "solve", cfg)

    def test_window_not_two_numbers_rejected(self, tmp_path, monkeypatch):
        cfg = {"n": 16, "box_length": 8.0, "force": {"r1": 3.0}, "window": [1.0]}
        self._rejected_before_run(tmp_path, monkeypatch, "decay", cfg)

    @pytest.mark.parametrize(
        "experiment, cfg, flags",
        [
            ("norms", {"n": 16}, ["--seed", "-1"]),
            ("solve", {"n": 16, "box_length": 8.0, "force": {"r1": 3.0, "seed": -1}}, []),
        ],
        ids=["seed", "force_seed"],
    )
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, experiment, cfg, flags):
        self._rejected_before_run(tmp_path, monkeypatch, experiment, cfg, flags)

    @pytest.mark.parametrize(
        "experiment, cfg",
        [
            ("kernel", {"kernel_n": 16, "kernel_box": [256]}),
            ("kernel", {"kernel_n": 130.5, "kernel_box": [16, 4.0]}),
            ("kernel", {"kernel_n": 16, "kernel_box": [64.5, 8.0]}),
            ("kernel", {"kernel_n": 16, "kernel_box": [17, 8.0]}),
            ("kernel", {"kernel_n": 16, "kernel_box": [16, 0.0]}),
            ("profile", {"n": 16, "box_length": 8.0, "force": {"r1": 3.0}, "kernel_n": 130.5}),
            ("nonexist", {"n": 16, "box_length": 8.0, "force": {"r1": 3.0}, "kernel_n": 6}),
            # the read-off shell holds 20 sites for the fit's 23 unknowns
            ("kernel", {"kernel_n": 12, "kernel_box": [16, 4.0]}),
            ("profile", {"n": 16, "box_length": 8.0, "force": {"r1": 3.0}, "kernel_n": 12}),
        ],
        ids=["box_one_entry", "n_fractional", "box_n_fractional", "box_n_odd",
             "box_nonpositive", "profile_n_fractional", "nonexist_n_small",
             "kernel_fit_underdetermined", "profile_fit_underdetermined"],
    )
    def test_bad_kernel_grid_rejected(self, tmp_path, monkeypatch, experiment, cfg):
        self._rejected_before_run(tmp_path, monkeypatch, experiment, cfg)
