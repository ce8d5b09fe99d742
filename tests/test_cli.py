import json
import os

import numpy as np
import pytest

from fracns import cli
from fracns.asymptotics import RadialProfile, fit_decay_exponent
from fracns.cli import (
    EXIT_DIVERGED,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunConfig,
    emit_radial_csv,
    main,
    parse_radial_csv,
    run,
)


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
        prof = fit_decay_exponent((radii, radii**-2.0))
        path = str(tmp_path / "p.csv")
        emit_radial_csv(prof, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 9

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        radii = np.sort(rng.uniform(1, 3, 10))
        values = rng.uniform(0.1, 2.0, 10)
        prof = fit_decay_exponent((radii, values))
        path = str(tmp_path / "rt.csv")
        emit_radial_csv(prof, path)
        rows = parse_radial_csv(path)
        for (r, v), r0, v0 in zip(rows, radii, values):
            assert r == r0 and v == v0  # 17 significant digits round-trip doubles

    def test_lf_endings(self, tmp_path):
        radii = np.linspace(1, 2, 8)
        prof = fit_decay_exponent((radii, radii**-1.0))
        path = str(tmp_path / "lf.csv")
        emit_radial_csv(prof, path)
        raw = open(path, "rb").read()
        assert b"\r" not in raw


class TestRun:
    def test_solve_zero_force(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.force = type(cfg.force)(amplitude=0.0, r0=0.8, r1=2.8, seed=3)
        report = run(cfg)
        assert report.metrics["residual"] == 0.0
        assert report.metrics["velocity_l2"] == 0.0

    def test_solve_small(self, tmp_path):
        report = run(small_config(tmp_path))
        assert report.metrics["residual"] < 1e-10
        assert os.path.exists(tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == 1
        assert "wall_time" not in payload  # reports must be bit-reproducible
        assert payload["config_echo"]["n"] == 24

    def test_decay_pipeline(self, tmp_path):
        cfg = small_config(tmp_path, experiment="decay", n=32, box_length=16.0)
        report = run(cfg)
        assert "fitted_exponent" in report.metrics
        assert (tmp_path / "decay_profile.csv").exists()

    def test_evolve_pipeline(self, tmp_path):
        cfg = small_config(tmp_path, experiment="evolve", evolve_T=0.1, evolve_dt=0.02)
        report = run(cfg)
        assert report.metrics["max_drift"] < 1e-6
        assert (tmp_path / "drift_history.csv").exists()

    def test_norms_pipeline(self, tmp_path):
        report = run(small_config(tmp_path, experiment="norms", n=16))
        assert report.metrics["lorentz_pp_vs_lp_max_rel_err"] < 1e-10
        assert report.metrics["morrey_scale_ratio"] < 2.0


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

    def test_out_of_memory_in_validation_exit(self, tmp_path, monkeypatch):
        def exhausted(self):
            raise MemoryError("cannot allocate the grid")

        monkeypatch.setattr(RunConfig, "validate", exhausted)
        assert main(["solve", "--output-dir", str(tmp_path)]) == EXIT_VALIDATION

    def _rejected_before_run(self, tmp_path, monkeypatch, experiment, cfg, flags=()):
        def unreachable(config, outdir):
            raise AssertionError("an invalid config reached the runner")

        monkeypatch.setitem(cli._RUNNERS, experiment, unreachable)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([experiment, "--config", str(path), "--output-dir", str(tmp_path),
                     *flags])
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
        ],
        ids=["box_one_entry", "n_fractional", "box_n_fractional", "box_n_odd",
             "box_nonpositive", "profile_n_fractional", "nonexist_n_small"],
    )
    def test_bad_kernel_grid_rejected(self, tmp_path, monkeypatch, experiment, cfg):
        self._rejected_before_run(tmp_path, monkeypatch, experiment, cfg)
