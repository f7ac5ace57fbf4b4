"""Run one round of a workload in this fresh process and print its result.

Usage: python3 perfbench/child.py < spec.json (run.py builds the spec).
The spec's ``spawned`` is the parent's CLOCK_MONOTONIC reading just before
it started this process, so start-up and imports are timed from there.
The last line of standard output is the round's result as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy
    import workloads
    setup_s = time.monotonic() - spec["spawned"]

    name = spec["workload"]
    if spec["fault"]:
        workloads.inject_fault(name)
    tracer = None
    if spec["trace"]:
        import layers
        tracer = layers.install()
    os.chdir(spec["work_dir"])
    r = workloads.Round(spec, tracer)
    workloads.WORKLOADS[name](r)
    result = {
        "setup_s": setup_s,
        "maxrss_kb": r.maxrss_kb,
        "ops": [vars(op) for op in r.ops],
        "extra": r.extra,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        spans, counts = r.layer_totals
        samples = sum(op.samples for op in r.ops)
        result["layers"] = layers.metrics(spans, counts, samples, r.extra)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
