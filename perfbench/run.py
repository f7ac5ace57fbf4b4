"""symon benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (``src/symon`` beside this
directory).  Each round of the workload runs in a fresh child process
(child.py), one round after another, until ``--seconds`` have passed; a
round is one pass over the workload's operations (see workloads.py).  The
child's start-up and imports are the set-up time, its peak RSS is the
workload's memory.  Every output is checked; a failed check counts the
operation as failed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` alternates untraced and traced rounds and
prints the per-layer metrics: layer figures from the traced rounds, the
per-command throughput and time figures from the untraced ones, and
``trace.overhead_s``, the traced round's wall time minus the untraced one.
Metrics are medians over rounds.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds details: per-operation times, failures and the machine.

``--record-golden`` rewrites golden.json from the current sources: the
sha256 of every deterministic output, which every later run must match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "sets-build", "exact")
SIMULATE_T1 = ("hit-frequency", "independence", "mu-x", "borel-cantelli")
# A run must end within 180 s: no round starts after LAST_START_S, and
# every child is killed at DEADLINE_S.
LAST_START_S = 120
DEADLINE_S = 170


class RoundFailed(RuntimeError):
    pass


def run_child(spec: dict, timeout: float) -> dict:
    spec = dict(spec, spawned=time.monotonic())
    try:
        # The spec goes through stdin, not argv: Python copies argv onto the
        # C heap at start-up, and a few more bytes there (a longer seed or
        # path) moved the exact workload's peak RSS by 2 MB.
        proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=json.dumps(spec),
                              stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RoundFailed(f"round exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RoundFailed("round printed no result")


def wall(res: dict) -> float:
    return sum(op["seconds"] for op in res["ops"])


def command_metrics(res: dict) -> dict:
    """Per-command figures of one untraced round (0 where a command is absent)."""
    ops = {op["name"]: op for op in res["ops"]}

    def secs(*names):
        return sum(ops[n]["seconds"] for n in names if n in ops)

    def rate(*names, field="samples"):
        t = secs(*names)
        return sum(ops[n][field] for n in names if n in ops) / t if t else 0.0

    single = rate("hit-frequency")
    threads2 = rate("hit-frequency.threads2")
    return {
        "samples_per_s": rate(*SIMULATE_T1),
        "samples_per_s.threads2": threads2,
        "montecarlo.fanout.speedup": threads2 / single if single else 0.0,
        "keys_per_s": rate("build_union_set", field="items"),
        "verify_counts_s": secs("verify-counts"),
        "enumerate_s": secs("enumerate"),
        "series_s": secs("series-part-b", "series-part-a"),
        "dump_roundtrip_s": secs("special-set-build", "special-set-verify"),
        "cli.report_bytes": sum(op["stdout_bytes"] for op in res["ops"]),
    }


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def machine(first: dict | None) -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        meminfo = Path("/proc/meminfo").read_text()
        info["mem_total"] = next(line.split(":", 1)[1].strip()
                                 for line in meminfo.splitlines() if line.startswith("MemTotal"))
        cpuinfo = Path("/proc/cpuinfo").read_text()
        info["cpu_model"] = next(line.split(":", 1)[1].strip()
                                 for line in cpuinfo.splitlines() if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    if first is not None:
        info["python"] = first["python"]
        info["numpy"] = first["numpy"]
    return info


def measure(args, work: Path) -> tuple[dict, dict]:
    base = {"workload": args.workload, "size": args.size, "seed": args.seed,
            "fault": args.fault, "work_dir": str(work), "readme_seeds": False,
            "record": False}
    start = time.monotonic()
    rounds: list[tuple[bool, dict]] = []
    crashes: list[str] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        try:
            rounds.append((traced, run_child(dict(base, trace=traced),
                                             start + DEADLINE_S - time.monotonic())))
        except RoundFailed as exc:
            crashes.append(str(exc))
            break
        elapsed = time.monotonic() - start
        enough = not args.trace or len(rounds) >= 2
        if (elapsed >= args.seconds and enough) or elapsed >= LAST_START_S:
            break

    # Rounds of one run share their inputs, so their outputs must agree.
    first_digests: dict[str, dict] = {}
    for _, res in rounds:
        for op in res["ops"]:
            want = first_digests.setdefault(op["name"], op["digests"])
            if op["digests"] != want:
                op["problems"].append("output differs from the run's first round")

    children = [res for _, res in rounds]
    if args.workload == "simulate" and not crashes:
        try:
            children.append(run_child(dict(base, trace=bool(args.trace), readme_seeds=True),
                                      start + DEADLINE_S - time.monotonic()))
        except RoundFailed as exc:
            crashes.append(str(exc))

    ops = [op for res in children for op in res["ops"]]
    attempted = len(ops) + len(crashes)
    problems = crashes + [f"{op['name']}: {p}" for op in ops for p in op["problems"]]
    failed = sum(bool(op["problems"]) for op in ops) + len(crashes)

    plain = [res for traced, res in rounds if not traced]
    traced = [res for traced, res in rounds if traced]
    values: dict[str, float] = {}
    if plain:
        values["setup_s"] = statistics.median(res["setup_s"] for res in children)
        values["wall_s"] = statistics.median(wall(res) for res in plain)
        values["peak_rss_mb"] = statistics.median(res["maxrss_kb"] / 1024 for res in plain)
        per_command = [command_metrics(res) for res in plain]
        values.update({k: median_of(per_command, k) for k in per_command[0]})
    if plain and traced:
        layer_rows = [res["layers"] for res in traced]
        values.update({k: median_of(layer_rows, k) for k in layer_rows[0]})
        values["trace.overhead_s"] = (statistics.median(wall(res) for res in traced)
                                      - values["wall_s"])

    op_times: dict[str, list[float]] = {}
    for res in plain:
        for op in res["ops"]:
            op_times.setdefault(op["name"], []).append(op["seconds"])
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "rounds": len(plain), "traced_rounds": len(traced),
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
        "op_median_s": {k: statistics.median(v) for k, v in op_times.items()},
        "values": values,
        "machine": machine(children[0] if children else None),
    }
    return detail, {"attempted": attempted, "failed": failed, "values": values}


def record_golden(work: Path) -> int:
    golden = {}
    for size in ("full", "tiny"):
        for workload in WORKLOADS:
            spec = {"workload": workload, "size": size, "seed": 0, "fault": False,
                    "work_dir": str(work), "readme_seeds": True, "record": True,
                    "trace": False}
            res = run_child(spec, DEADLINE_S)
            for op in res["ops"]:
                if op["problems"]:
                    print(f"{workload}/{op['name']}: {op['problems']}", file=sys.stderr)
                    return 1
                for part, digest in op["digests"].items():
                    golden[f"{size}/{workload}/{op['name']}/{part}"] = digest
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-test")
    ap.add_argument("--fault", action="store_true",
                    help="break the program on purpose (self-test of the checks)")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symon" / "__init__.py").is_file():
        print(f"perfbench: no symon sources at {ROOT / 'src' / 'symon'}", file=sys.stderr)
        return 2
    if not args.record_golden and args.workload is None:
        ap.error("--workload is required")

    # fixed width, for the same reason the spec goes through stdin
    work = ROOT / ".perfbench_work" / f"{os.getpid():010d}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_golden:
            return record_golden(work)
        detail, outcome = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in outcome["values"]:
            metrics[m["name"]] = {"value": outcome["values"][m["name"]], "unit": m["unit"]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": outcome["failed"] == 0 and len(metrics) == len(wanted),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
