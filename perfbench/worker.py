"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload decay-128 --seed 0 --out DIR [--trace] [--setup-only]

Times ``import fracns`` through ``RunConfig.validate()`` (set-up), then
``cli.run(config)`` (wall), checks the report the run wrote, and prints one
JSON object as its last line of output.  ``run.py`` starts one of these per
repetition, so each set-up is a cold import and each peak RSS belongs to
one run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(workloads.HERE)
SRC = os.path.join(ROOT, "src")


def import_fracns():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fracns
    from fracns import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(fracns.__file__))) != SRC:
        raise ImportError(f"fracns imported from {fracns.__file__}, not from {SRC}")
    return cli


def read_outputs(output_dir: str):
    """The report as written to disk, and the bytes of it plus its artifacts."""
    path = os.path.join(output_dir, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    nbytes = os.path.getsize(path)
    for name in report["artifacts"]:
        nbytes += os.path.getsize(os.path.join(output_dir, name))
    return report, nbytes


def execute(cli, config, workload, reference, tracer=None) -> dict:
    """Run ``cli.run(config)`` once, timed, and check what it wrote."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer or contextlib.nullcontext():
        cli.run(config)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    report, nbytes = read_outputs(config.output_dir)
    problems = [f"report error: {report['error']}"] if report["error"] else []
    problems += workload.check(report["metrics"], reference)
    return {"wall_s": wall, "cpu_s": cpu, "artifact_bytes": nbytes,
            "problems": problems}


def trace_result(tracer, workload) -> dict:
    layers = tracer.layer_metrics()
    blind = [name for name in workload.expected_layers
             if name in tracer.missing or layers[f"{name}.calls"] == 0]
    problems = [f"traced layer {name} recorded no calls" for name in blind]
    for name in tracer.missing:
        print(f"warning: fracns has no {name}; its layer metrics read zero", file=sys.stderr)
    return {"layers": layers, "problems": problems}


def write_spans(tracer, path: str):
    with open(path, "w") as fh:
        fh.write("id,parent,name,start,end,work\n")
        for s in tracer.spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.id},{parent},{s.name},{s.start!r},{s.end!r},{s.work!r}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    cli = import_fracns()
    t1 = time.perf_counter()
    config = cli.RunConfig.from_dict(workload.config(args.seed, args.out))
    config.validate()
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "validate_s": t2 - t1, "setup_s": t2 - t0}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        reference = workloads.load_reference().get(workload.name, {}).get(
            workload.reference_key(args.seed))
        try:
            result.update(execute(cli, config, workload, reference, tracer))
        except Exception:
            traceback.print_exc()
            result["problems"] = [traceback.format_exc().strip().splitlines()[-1]]
        if tracer is not None:
            traced = trace_result(tracer, workload)
            result["layers"] = traced["layers"]
            result["problems"] += traced["problems"]
            write_spans(tracer, os.path.join(args.out, "spans.csv"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
