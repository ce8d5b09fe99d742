"""The benchmark's workloads: one pinned ``fracns`` config each, plus the
checks a run's outputs must pass.

This module imports nothing from ``fracns``, so a worker can time the
package import itself.  Configs are plain dicts for
``cli.RunConfig.from_dict``; every field not named here keeps the CLI
default.

Why each workload exists is written next to it and in README.md.
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Force seeds a run may use.  The benchmark seed picks one of them
# (seed % len(pool)), so every run has a reference recorded for its exact
# input.  Each pool starts with the seed the acceptance suite pins.  Of
# force seeds 0-9, decay keeps those that, like seed 7, converge in 19
# iterations and pass the decay bound, so the seed changes the input but
# not the amount of work (README.md lists the others).  Every nonexist
# seed 0-15 takes 29 iterations over its four solves and passes.
DECAY_SEEDS = (7, 2, 3, 5, 8)
NONEXIST_SEEDS = (11, 0, 1, 2, 3, 4, 5, 6)

REL_TOL = 1e-12


def _decay_config(force_seed):
    # Flagship: the CLI defaults are 128^3, L=32, alpha=1.5 and the annulus
    # force with eta=1.25.  One long Picard solve on a ~100 MB spectral field.
    return {"experiment": "decay", "force": {"seed": force_seed}}


def _kernel_config(force_seed):
    # Criterion 8's kernel_l1_check call (alpha=2, 128^3, box 8) plus
    # build_kernel(2.0, 128).  No solver runs; the CLI's default
    # kernel_box=(256, 16) takes ~2 minutes and 2.8 GB, too long to repeat.
    return {"experiment": "kernel", "alpha": 2.0, "kernel_n": 128,
            "kernel_box": [128, 8.0]}


def _nonexist_config(force_seed):
    # Criterion 3: four short solves on cache-resident 64^3 fields, a
    # 24-rotation symmetrization, a 96^3 kernel and the certificates.
    return {
        "experiment": "nonexist", "n": 64, "box_length": 32.0, "alpha": 1.5,
        "kernel_n": 96,
        "force": {"kind": "annulus_ring", "amplitude": 0.2, "r0": 0.6,
                  "r1": 4.0, "seed": force_seed, "anisotropy": [2.0, 1.0, 1.0]},
    }


def _decay_bounds(m):
    return [f"fitted_exponent {m['fitted_exponent']!r} not within 0.15 of 2.5"
            ] if abs(m["fitted_exponent"] - 2.5) > 0.15 else []


def _kernel_bounds(m):
    return [f"{k} = {v!r} not within 1e-6 of 1"
            for k, v in sorted(m.items())
            if k.startswith("p_mass_t") and not abs(v - 1.0) < 1e-6]


def _nonexist_bounds(m):
    problems = [f"{k} = {m[k]!r}: certificate not affirmative"
                for k in ("affirmative_eta_over_1", "affirmative_eta_over_2",
                          "affirmative_eta_over_4") if m[k] != 1.0]
    if not 1.7 <= m["deviation_slope"] <= 2.3:
        problems.append(f"deviation_slope {m['deviation_slope']!r} not in [1.7, 2.3]")
    if m["affirmative_isotropic"] != 0.0:
        problems.append("isotropic certificate not withheld")
    return problems


class Workload:
    def __init__(self, name, config, seeds, bounds, ceilings, expected_layers):
        self.name = name
        self._config = config
        self.seeds = seeds
        self._bounds = bounds
        # metric -> absolute ceiling, for quantities at round-off level
        self.ceilings = ceilings
        # traced layers the workload cannot complete without; a traced run
        # that records zero calls to one of them has gone blind
        self.expected_layers = expected_layers

    def force_seed(self, seed: int):
        return self.seeds[seed % len(self.seeds)] if self.seeds else None

    def config(self, seed: int, output_dir: str) -> dict:
        d = self._config(self.force_seed(seed))
        d["output_dir"] = output_dir
        return d

    def reference_key(self, seed: int) -> str:
        fs = self.force_seed(seed)
        return "none" if fs is None else str(fs)

    def check(self, metrics: dict, reference: dict | None) -> list:
        """Problems with one run's report metrics; empty when it passes."""
        if reference is None:
            return [f"{self.name}: no reference recorded"]
        problems = []
        if set(metrics) != set(reference):
            problems.append(f"metric keys differ from the reference: "
                            f"{sorted(set(metrics) ^ set(reference))}")
        for key in sorted(set(metrics) & set(reference)):
            got, want = metrics[key], reference[key]
            if key in self.ceilings:
                if not abs(got) <= self.ceilings[key]:
                    problems.append(f"{key} = {got!r} above ceiling {self.ceilings[key]!r}")
            elif key == "iterations":
                if got != want:
                    problems.append(f"iterations {got!r} != reference {want!r}")
            elif not (math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want)):
                problems.append(f"{key} = {got!r} differs from reference {want!r}")
        if not problems:
            problems = self._bounds(metrics)
        return problems


_SOLVE_LAYERS = ("fft", "solver.solve_steady", "spectral.apply_bilinear",
                 "spaces.lorentz_quasinorm", "forces.make_force")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("decay-128", _decay_config, DECAY_SEEDS, _decay_bounds,
                 {"residual": 1e-10, "final_step_change": 1e-10},
                 _SOLVE_LAYERS + ("solver.residual", "asymptotics.radial_profile",
                                  "asymptotics.fit_decay_exponent")),
        Workload("kernel-128", _kernel_config, (), _kernel_bounds, {},
                 ("fft", "asymptotics.build_kernel", "evolve.kernel_l1_check")),
        Workload("nonexist-64", _nonexist_config, NONEXIST_SEEDS, _nonexist_bounds,
                 {"deviation_isotropic": 1e-6},
                 _SOLVE_LAYERS + ("forces.moment_matrix", "asymptotics.build_kernel",
                                  "asymptotics.nonexistence_certificate")),
    )
}


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)
