"""Fast checks of the benchmark itself, on 16^3/32^3 configs."""

import glob
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

import run
import tracing
import worker
import workloads

SMALL = {
    "decay": {"experiment": "decay", "n": 32, "box_length": 16.0, "alpha": 2.0,
              "force": {"amplitude": 0.05, "r0": 0.8, "r1": 3.5, "seed": 3}},
    "kernel": {"experiment": "kernel", "n": 16, "box_length": 4.0, "alpha": 2.0,
               "kernel_n": 32, "kernel_box": [32, 8.0], "kernel_times": [0.05, 0.1]},
    "nonexist": {"experiment": "nonexist", "n": 32, "box_length": 16.0, "alpha": 1.5,
                 "kernel_n": 32,
                 "force": {"amplitude": 0.2, "r0": 0.6, "r1": 3.5, "seed": 11,
                           "anisotropy": [2.0, 1.0, 1.0]}},
}
REPEATED_COUNTS = ("solver.iterations", "fft.calls", "fft.points_m",
                   "spaces.lorentz_quasinorm.samples_m")


@pytest.fixture(scope="module")
def cli():
    return worker.import_fracns()


def traced_run(cli, experiment, out):
    config = cli.RunConfig.from_dict(dict(SMALL[experiment], output_dir=str(out)))
    config.validate()
    tracer = tracing.Tracer()
    with tracer:
        cli.run(config)
    return tracer


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_counts_repeat_exactly(cli, experiment, tmp_path):
    first = traced_run(cli, experiment, tmp_path / "a").layer_metrics()
    second = traced_run(cli, experiment, tmp_path / "b").layer_metrics()
    assert first["fft.calls"] > 0
    for key in REPEATED_COUNTS:
        assert first[key] == second[key], key


@pytest.mark.parametrize("experiment,workload", [
    ("decay", "decay-128"), ("kernel", "kernel-128"), ("nonexist", "nonexist-64")])
def test_expected_layers_are_hit(cli, experiment, workload, tmp_path):
    tracer = traced_run(cli, experiment, tmp_path)
    traced = worker.trace_result(tracer, workloads.WORKLOADS[workload])
    assert traced["problems"] == [] and tracer.missing == []


def test_blind_tracer_fails():
    traced = worker.trace_result(tracing.Tracer(), workloads.WORKLOADS["kernel-128"])
    assert len(traced["problems"]) == len(workloads.WORKLOADS["kernel-128"].expected_layers)


def test_wrappers_reach_imported_copies_and_are_removed(cli):
    from fracns import evolve, forces, solver, spectral

    original = spectral.to_real
    fft_originals = {name: getattr(scipy.fft, name) for name in ("rfftn", "irfftn")}
    tracer = tracing.Tracer()
    with tracer:
        for namespace in (spectral, solver, forces, evolve):
            assert namespace.to_real.__wrapped__ is original
        x = np.zeros((8, 8, 8))
        scipy.fft.irfftn(scipy.fft.rfftn(x), s=x.shape)
        np.fft.fftn(x)
    layers = tracer.layer_metrics()
    assert layers["fft.calls"] == 3
    assert layers["fft.points_m"] == 3 * 512 / 1e6
    for namespace in (spectral, solver, forces, evolve):
        assert namespace.to_real is original
    for name, fn in fft_originals.items():
        assert getattr(scipy.fft, name) is fn


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer._wrap("solver.residual", lambda: inner())
    inner = tracer._wrap("spectral.to_real", lambda: sum(range(10000)))
    outer()
    layers = tracer.layer_metrics()
    total, child = layers["solver.residual.s"], layers["spectral.to_real.s"]
    assert layers["solver.residual.self_s"] == pytest.approx(total - child)
    assert tracer.spans[1].parent == tracer.spans[0].id


def test_check_against_reference():
    w = workloads.WORKLOADS["decay-128"]
    ref = {"iterations": 19.0, "fitted_exponent": 2.54, "residual": 2e-12,
           "final_step_change": 8e-13}
    assert w.check(dict(ref), ref) == []
    assert w.check(dict(ref, iterations=20.0), ref)
    assert w.check(dict(ref, fitted_exponent=2.54 * (1 + 1e-10)), ref)
    assert w.check(dict(ref, residual=1.0), ref)
    assert w.check(dict(ref, residual=3e-12), ref) == []
    assert w.check({"iterations": 19.0}, ref)
    off = dict(ref, fitted_exponent=2.7)
    assert w.check(off, off)
    assert w.check(ref, None)


def test_reference_covers_every_workload_seed():
    reference = workloads.load_reference()
    for name, w in workloads.WORKLOADS.items():
        for seed in range(max(1, len(w.seeds))):
            metrics = reference[name][w.reference_key(seed)]
            assert w.check(metrics, metrics) == [], (name, seed)


def test_benchmark_json_names_what_run_reports(cli, tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    traced = {"layers": traced_run(cli, "kernel", tmp_path).layer_metrics(),
              "import_s": 0.5, "validate_s": 0.1, "cpu_s": 1.0, "wall_s": 1.0,
              "artifact_bytes": 10}
    reported = run.per_layer(traced, [traced], 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: m["unit"] for name, m in reported.items()}


BROKEN_FRACNS = {
    "import": {"__init__.py": "raise ImportError('broken on purpose')\n"},
    "validate": {
        "__init__.py": "",
        "cli.py": (
            "class RunConfig:\n"
            "    @classmethod\n"
            "    def from_dict(cls, d):\n"
            "        return cls()\n"
            "    def validate(self):\n"
            "        raise ValueError('invalid on purpose')\n"
        ),
    },
}


@pytest.mark.parametrize("broken", sorted(BROKEN_FRACNS))
def test_run_reports_failed_set_up(broken, tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in glob.glob(os.path.join(workloads.HERE, "*.py")) + [workloads.REFERENCE_PATH]:
        shutil.copy(path, bench)
    package = tmp_path / "src" / "fracns"
    package.mkdir(parents=True)
    for name, text in BROKEN_FRACNS[broken].items():
        (package / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nonexist-64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0
    assert result == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}
