"""Record reference.json: the report metrics of every workload at every
force seed in its pool, from the fracns in this checkout's ``src``.

    python3 perfbench/record_reference.py [workload ...]

Run it only at a commit whose outputs are the agreed reference; the
benchmark then checks every run against these numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import workloads
from worker import import_fracns, read_outputs


def record(names) -> dict:
    cli = import_fracns()
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    os.makedirs(os.path.join(workloads.HERE, "_work"), exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        entries = {}
        for seed in range(max(1, len(workload.seeds))):
            out = tempfile.mkdtemp(dir=os.path.join(workloads.HERE, "_work"))
            try:
                cli.run(cli.RunConfig.from_dict(workload.config(seed, out)))
                report, _ = read_outputs(out)
            finally:
                shutil.rmtree(out)
            problems = workload.check(report["metrics"], report["metrics"])
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            entries[workload.reference_key(seed)] = report["metrics"]
            print(name, workload.reference_key(seed), report["metrics"], flush=True)
        reference[name] = entries
    return reference


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    ref = record(names)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
