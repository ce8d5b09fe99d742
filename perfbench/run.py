"""Benchmark driver for fracns: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload decay-128 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each repetition is a fresh worker
process (worker.py) that imports fracns from ``src/``, validates the
workload's config and calls ``cli.run``.  A run makes as many whole
repetitions as bring its measured time closest to ``--seconds`` (at least
one, and at least ``MIN_REPS`` when that many fit in twice ``--seconds``);
extra set-up-only workers bring the set-up samples to ``SETUP_SAMPLES``.
Every repetition's outputs are checked against ``reference.json`` and the
workload's acceptance bounds.  A worker that cannot set up (fracns does
not import, or its config fails ``validate()``) counts as failed.

``--trace 0`` reports the end-to-end metrics (medians).  ``--trace 1``
adds one traced repetition and reports the per-layer metrics from it; its
wall time minus the untraced median is ``trace.overhead_s``.

The last line of standard output is the result object; the line before it
holds the samples, the environment record and any problems.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from envinfo import environment

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_SAMPLES = 7
MIN_REPS = 3
DEADLINE_S = 170.0  # a run must end within 180 s


def spawn(args, deadline) -> dict:
    """Run one worker; a crash or timeout comes back as a problem."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker timed out after {timeout:.0f} s"]}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"worker exited with code {proc.returncode}"]}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fracns", "__init__.py")):
        print(f"error: no fracns sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        result, info = measure(args, deadline, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info["env"] = environment(ROOT)
    for warning in info["env"]["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    for problem in info["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, deadline, tmp):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    reps, setups = [], []

    def worker(*extra):
        out = os.path.join(tmp, str(len(reps) + len(setups)))
        return spawn(base + ["--out", out] + list(extra), deadline)

    # whole repetitions, as many as bring the measured time closest to
    # --seconds; at least one, at least MIN_REPS when that many fit in twice
    # --seconds, and none that could overrun the deadline
    t0 = time.monotonic()
    while True:
        reps.append(worker())
        if "wall_s" not in reps[-1]:
            break
        elapsed = time.monotonic() - t0
        rep_s = elapsed / len(reps)
        few = len(reps) < MIN_REPS and MIN_REPS * rep_s <= 2 * args.seconds
        if ((elapsed + rep_s / 2 >= args.seconds and not few)
                or time.monotonic() + 2 * rep_s > deadline - 10.0):
            break
    traced = [worker("--trace")] if args.trace else []
    # set-up-only workers top up the set-up samples until the deadline; one
    # that cannot set up counts as failed, and the next would fail the same way
    while (sum("setup_s" in r for r in reps + traced + setups) < SETUP_SAMPLES
           and time.monotonic() < deadline):
        setups.append(worker("--setup-only"))
        if "setup_s" not in setups[-1]:
            break
    spans = os.path.join(tmp, str(len(reps)), "spans.csv")
    if traced and os.path.isfile(spans):
        shutil.copy(spans, os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.csv"))

    ran = reps + traced
    problems = [p for r in ran + setups for p in r.get("problems", [])]
    unset = [r for r in setups if "setup_s" not in r]
    failed = sum(1 for r in ran if r.get("problems") or "wall_s" not in r) + len(unset)
    good = [r for r in reps if "wall_s" in r]
    samples = {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": [r["setup_s"] for r in ran + setups if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    metrics = {}
    if good and not traced:
        metrics = {
            "wall_s": {"value": statistics.median(samples["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(samples["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]), "unit": "MiB"},
        }
    elif good and "wall_s" in traced[0]:
        metrics = per_layer(traced[0], ran, statistics.median(samples["wall_s"]))
    result = {"correct": not failed and bool(metrics), "attempted": len(ran) + len(unset),
              "failed": failed, "metrics": metrics}
    workload = workloads.WORKLOADS[args.workload]
    info = {"workload": args.workload, "seed": args.seed,
            "force_seed": workload.force_seed(args.seed), "samples": samples,
            "problems": problems}
    return result, info


def per_layer(traced, reps, untraced_wall):
    def med(key):
        return statistics.median(r[key] for r in reps if key in r)

    values = dict(traced["layers"])
    values.update({
        "proc.import_s": med("import_s"),
        "proc.validate_s": med("validate_s"),
        "proc.cpu_s": traced["cpu_s"],
        "proc.cpu_per_wall": traced["cpu_s"] / traced["wall_s"],
        "cli.artifact_bytes": traced["artifact_bytes"],
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
    })
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


UNITS = ((".calls", "count"), (".iterations", "count"), ("_bytes", "bytes"),
         ("_m", "millions"), (".cpu_per_wall", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "s")


if __name__ == "__main__":
    sys.exit(main())
