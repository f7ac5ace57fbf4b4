"""One round of a benchmark workload, run inside a fresh child process.

A round runs the workload's operations one after another (a closed loop
with a single client), times each with tracing off or on, and then checks
every output outside the timed region.  Each operation is one CLI command
through ``symon.cli.main`` or one public API call.

* ``simulate``: the README ``simulate`` commands, plus hit-frequency again
  with ``--threads 2``.  The per-sample pure-Python path (RNG, coset
  sampler, DirectMembership, stacked rank) does the work here and nowhere
  else.  Set-hit and fixed-vector commands share the sampler but use
  different event layers.
* ``sets-build``: an in-memory ``build_union_set``.  The write path of set
  materialization (shear conjugation, key packing, sort/dedup, RAM) with
  no RNG, no DirectMembership and no text I/O.
* ``exact``: verify-counts, an enumeration scan, both series reports and a
  dump written by ``special-set build`` and read back by ``special-set
  verify --rebuild``.  Exhaustive scanning, exact-rational rendering and
  the matrix text codec.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# A function the traced run wraps is called through its module
# (``specialsets.build_union_set``): the tracer rebinds names inside symon's
# modules only, so a name imported here would keep the unwrapped function.
from symon import _gf, cli, specialsets
from symon.analysis import density_ratio
from symon.montecarlo import common_fixed_upper_bound
from symon.specialsets import DirectMembership, union_cardinality
from symon.sympgroup import GroupContext, gsp_q_order, sample_uniform

# Input sizes.  "full" is what the benchmark measures; "tiny" is for the
# self-test.  Sizes are chosen so one round takes a few seconds and a run
# fits several rounds.
SIZES = {
    "full": {"samples": 2000, "bc_samples": 400, "union_ell": 5, "vc_ells": "3,5,7",
             "enumerate": ("2", "2"), "series_max": 3000, "dump": ("5", "core")},
    "tiny": {"samples": 200, "bc_samples": 40, "union_ell": 3, "vc_ells": "3",
             "enumerate": ("1", "3"), "series_max": 200, "dump": ("3", "core")},
}

# The README seeds of the simulate commands; golden digests use them.
README_SEEDS = {"hit-frequency": 42, "independence": 7, "mu-x": 3, "borel-cantelli": 11}
BC_ELLS = (3, 5, 7, 11, 13)
SIMULATE_Q = 2
UNION_Q = 2
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Op:
    name: str
    seconds: float = 0.0
    digests: dict = field(default_factory=dict)
    stdout_bytes: int = 0
    samples: int = 0      # sampled tuples drawn (simulate)
    items: int = 0        # keys built (sets-build)
    problems: list = field(default_factory=list)

    def record(self, part: str, data: bytes) -> None:
        self.digests[part] = hashlib.sha256(data).hexdigest()


class Round:
    def __init__(self, spec: dict, tracer=None):
        self.spec = spec
        self.size = SIZES[spec["size"]]
        self.seed = spec["seed"]
        self.tracer = tracer
        self.ops: list[Op] = []
        self.extra: dict = {}
        self.layer_totals = None
        self.maxrss_kb = None

    def timed(self, name: str, fn):
        op = Op(name)
        self.ops.append(op)
        t0 = perf_counter()
        try:
            value = fn()
        except Exception:
            value = None
            op.problems.append("raised: " + traceback.format_exc(limit=4))
        op.seconds = perf_counter() - t0
        return op, value

    def cli(self, name: str, argv: list[str], samples: int = 0):
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        op, rc = self.timed(name, call)
        text = buf.getvalue()
        op.record("stdout", text.encode())
        op.stdout_bytes = len(text.encode())
        op.samples = samples
        if rc != 0:
            op.problems.append(f"exit code {rc}")
        return op, text

    def measured(self) -> None:
        """Close the timed part: later calls are checks, not workload.

        The peak RSS is read here, so the memory the checks use is not
        counted as the workload's.
        """
        self.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.tracer is not None:
            self.layer_totals = self.tracer.totals()

    def compare_golden(self, prefix: str) -> None:
        if self.spec["record"]:
            return
        golden = json.loads(GOLDEN_PATH.read_text())
        for op in self.ops:
            for part, digest in op.digests.items():
                key = f"{prefix}/{op.name}/{part}"
                want = golden.get(key)
                if want is None:
                    op.problems.append(f"no golden digest for {key}")
                elif want != digest:
                    op.problems.append(f"{key} differs from the golden output")


def _report(op: Op, text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        op.problems.append("report is not JSON")
        return None


def _check_set_hit(op: Op, est: dict) -> None:
    """The estimate lies within 4 standard errors of its exact density."""
    name = est["event"]
    ells = [int(x) for x in name[name.index("(") + 1:-1].split(",")]
    p = math.prod(float(density_ratio(2, ell, SIMULATE_Q)) for ell in ells)
    n = est["n_samples"]
    se = math.sqrt(p * (1 - p) / n)
    if abs(est["estimate_float"] - p) > 4 * se:
        op.problems.append(f"{name}: estimate {est['estimate_float']} is more than "
                           f"4 SE ({se:.3g}) from the exact density {p:.6g}")


def simulate(r: Round) -> None:
    z = r.size
    if r.spec["readme_seeds"]:
        seeds = README_SEEDS
    else:
        seeds = {name: r.seed + k for k, name in enumerate(README_SEEDS)}
    n, bc = str(z["samples"]), z["bc_samples"]

    def cmd(name, *args, threads="1"):
        return ["simulate", name, *args, "--seed", str(seeds[name]), "--threads", threads]

    hit = ["--n", "5", "--q", str(SIMULATE_Q), "--samples", n]
    op1, t1 = r.cli("hit-frequency", cmd("hit-frequency", *hit), z["samples"])
    op2, t2 = r.cli("hit-frequency.threads2", cmd("hit-frequency", *hit, threads="2"),
                    z["samples"])
    op3, t3 = r.cli("independence", cmd("independence", "--n", "15", "--q", str(SIMULATE_Q),
                                        "--samples", n), z["samples"])
    op4, t4 = r.cli("mu-x", cmd("mu-x", "--g", "2", "--ell", "3", "--e", "2",
                                "--samples", n), z["samples"])
    op5, t5 = r.cli("borel-cantelli",
                    cmd("borel-cantelli", "--g", "2", "--q", str(SIMULATE_Q),
                        "--ells", ",".join(map(str, BC_ELLS)), "--e", "1",
                        "--samples", str(bc)), bc * len(BC_ELLS))
    r.measured()

    if (rep := _report(op1, t1)) is not None:
        _check_set_hit(op1, rep)
    if t2 != t1:
        op2.problems.append("--threads 2 report differs from --threads 1")
    if (rep := _report(op3, t3)) is not None:
        for est in rep["marginals"] + [rep["joint"]]:
            _check_set_hit(op3, est)
    if (rep := _report(op4, t4)) is not None:
        bound = float(common_fixed_upper_bound(GroupContext.of(2, 3), 3, 2))
        se = math.sqrt(bound * (1 - bound) / rep["n_samples"])
        if rep["estimate_float"] > bound + 4 * se:
            op4.problems.append(f"fixed-vector estimate {rep['estimate_float']} exceeds "
                                f"the bound {bound:.6g} + 4 SE")
    if (rep := _report(op5, t5)) is not None:
        for est in rep["per_ell"]:
            _check_set_hit(op5, est)
    if r.spec["readme_seeds"]:
        r.compare_golden(f"{r.spec['size']}/simulate")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _sorted_distinct(keys: np.ndarray) -> tuple[int, bool]:
    """Distinct rows by an adjacent-distinct scan, and whether rows strictly increase."""
    if keys.shape[0] == 0:
        return 0, True
    a, b = keys[:-1], keys[1:]
    differs = a != b
    distinct = 1 + int(np.count_nonzero(differs.any(axis=1)))
    first = differs.argmax(axis=1)
    rows = np.arange(a.shape[0])
    increasing = bool(differs.any(axis=1).all()) and bool(
        (b[rows, first] > a[rows, first]).all())
    return distinct, increasing


def sets_build(r: Round) -> None:
    ell = r.size["union_ell"]
    ctx = GroupContext.of(2, ell, UNION_Q)
    rss_before = _rss_bytes()
    op, s = r.timed("build_union_set", lambda: specialsets.build_union_set(ctx))
    r.measured()
    peak = r.maxrss_kb * 1024
    if s is None:
        return
    keys = s.keys
    op.items = keys.shape[0]
    op.record("keys", keys.tobytes())
    r.extra["sets.rss_over_key_bytes"] = (peak - rss_before) / keys.nbytes

    distinct, increasing = _sorted_distinct(keys)
    expected = union_cardinality(2, ell, UNION_Q)
    if distinct != expected:
        op.problems.append(f"{distinct} distinct keys, formula says {expected}")
    if s.cardinality != distinct:
        op.problems.append(f"set reports {s.cardinality} members, scan finds {distinct}")
    if not increasing:
        op.problems.append("keys are not strictly increasing")

    # read path (DirectMembership) against write path (materialized lookup)
    rng = random.Random(r.seed)
    direct = DirectMembership(ctx)
    picks = sorted(rng.sample(range(keys.shape[0]), min(64, keys.shape[0])))
    for flat in _gf.unpack_entries(keys[picks], ell, 16):
        rows = [[int(x) for x in flat[i * 4:(i + 1) * 4]] for i in range(4)]
        if not direct.contains_rows(rows):
            op.problems.append(f"built member {rows} rejected by DirectMembership")
    for _ in range(64):
        lam = rng.choice(ctx.multiplier_values(ell))
        mat = sample_uniform(ctx, lam, r.seed, rng.randrange(1 << 30))
        if direct.contains(mat) != s.contains(mat):
            op.problems.append(f"DirectMembership and the built set disagree on {mat.rows}")
    r.compare_golden(f"{r.spec['size']}/sets-build")


def exact(r: Round) -> None:
    z = r.size
    vc, vc_text = r.cli("verify-counts", ["verify-counts", "--ells", z["vc_ells"],
                                          "--q", "2,inf"])
    g, ell = z["enumerate"]
    en, en_text = r.cli("enumerate", ["enumerate", "--g", g, "--ell", ell])
    mx = str(z["series_max"])
    r.cli("series-part-b", ["series", "part-b", "--g", "2", "--e", "2", "--ell-max", mx])
    r.cli("series-part-a", ["series", "part-a", "--g", "2", "--q", "2", "--ell-max", mx,
                            "--format", "csv"])
    dump_ell, level = z["dump"]
    sb, _ = r.cli("special-set-build", ["special-set", "build", "--ell", dump_ell,
                                        "--level", level, "--lam", "1", "--out", "set.txt"])
    sv, sv_text = r.cli("special-set-verify", ["special-set", "verify", "--dump", "set.txt",
                                               "--rebuild"])
    r.measured()

    if (rep := _report(vc, vc_text)) is not None and rep["counts"]["fail"]:
        vc.problems.append(f"{rep['counts']['fail']} verify-counts checks failed")
    members = len(en_text.splitlines()) - 1
    order = gsp_q_order(GroupContext.of(int(g), int(ell)))
    if members != order:
        en.problems.append(f"enumerate printed {members} members, group order is {order}")
    for part in ("set.txt", "set.txt.json"):
        try:
            sb.record(part, Path(part).read_bytes())
        except OSError as exc:
            sb.problems.append(f"cannot read {part}: {exc}")
    if (rep := _report(sv, sv_text)) is not None and rep["status"] != "ok":
        sv.problems.append(f"verify status {rep['status']}: {rep['problems']}")
    r.compare_golden(f"{r.spec['size']}/exact")


WORKLOADS = {"simulate": simulate, "sets-build": sets_build, "exact": exact}


def inject_fault(workload: str) -> None:
    """Break the program on purpose, so the self-test can see checks fail."""
    if workload == "simulate":
        contains = DirectMembership.contains_rows
        DirectMembership.contains_rows = lambda self, rows: not contains(self, rows)
    else:
        unique = _gf.unique_keys
        _gf.unique_keys = lambda keys: unique(keys)[:-1]
