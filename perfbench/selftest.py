"""Self-test of the benchmark harness, at tiny input sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced and a
traced run print a well-formed result that is correct and carries every
end-to-end or per-layer metric with its unit, that the traced run shows
nonzero figures for the layers the workload exists to exercise
(``layers.EXERCISED``), and that a run against a
deliberately broken program (``--fault``) counts failed operations.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from layers import EXERCISED  # noqa: E402


def run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "3",
                           "--seconds", "1", "--size", "tiny", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(errors)
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            res = run("--workload", workload, "--trace", trace)
            where = f"{workload} --trace {trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append(f"{where}: correct={res['correct']} failed={res['failed']} "
                              f"attempted={res['attempted']}")
            for m in spec[kind]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{where}: metric {m['name']} missing or mis-labelled")
            if set(res["metrics"]) != {m["name"] for m in spec[kind]}:
                errors.append(f"{where}: metrics beyond BENCHMARK.json")
            if trace == "1":
                idle = [k for k in EXERCISED[workload]
                        if not res["metrics"].get(k, {}).get("value")]
                if idle:
                    errors.append(f"{where}: layers read 0 on their own workload: {idle}")
        broken = run("--workload", workload, "--trace", "0", "--fault")
        if broken["correct"] or broken["failed"] < 1:
            errors.append(f"{workload} --fault: the broken program passed "
                          f"({broken['failed']} of {broken['attempted']} failed)")
        print(f"{workload}: {'ok' if len(errors) == before else 'FAILED'}", flush=True)
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
