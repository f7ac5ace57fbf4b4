"""Command-line front door: verification suites, set dumps, series reports,
and seeded simulations, all emitting machine-readable JSON (or CSV for
series).

Exit codes: 0 success, 1 verification failure, 2 usage or budget error,
including an input file that cannot be read or parsed and an output file
that cannot be written, 3 internal error (any other exception, such as the
Monte Carlo engine disagreeing with its scalar oracle).
Every command is deterministic given its full flag set, including --threads:
reruns produce byte-identical reports.  Group orders and cardinalities are
emitted as decimal strings to stay lossless past 53-bit floats.

The enumeration budget of ``enumerate`` is its --budget flag, 10^8
candidates by default; the genus-1 scans of verify-counts always run under
that default.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .analysis import frac_str, int_str, part_a_series, part_b_series
from .modmat import Modulus, write_matrix_lines
from .montecarlo import (
    FixedVectorEvent,
    JointSetHitEvent,
    SetHitEvent,
    borel_cantelli_experiment,
    estimate_events,
)
from .specialsets import (
    FixedVectorSet,
    SetLevel,
    build_core_set,
    build_full_set,
    composite_union_cardinality,
    core_cardinality,
    count_without_eigenvalue_one,
    full_cardinality,
    no_eigenvalue_one_floor,
    union_cardinality,
)
from .sympgroup import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    GroupContext,
    INFINITY,
    gsp_q_order,
    parse_q,
    q_json,
    scan_entries,
    sp_order,
)


class UsageError(ValueError):
    pass


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def _open(path: str, mode: str = "r"):
    """open(), reporting a file that cannot be opened as a usage error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc.strerror or exc}") from None


def _emit(report: dict | Iterable[str], out: str | None = None) -> None:
    """Write a report into ``out``, or stdout, as it is encoded: a dict as
    ``json.dump(report, indent=2)`` would, a dict value that is an iterator as
    a list item by item, any other iterable line by line; nothing whole."""
    with _open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if not isinstance(report, dict):
            fh.writelines(line + "\n" for line in report)
            return
        fh.write("{")
        for k, (key, value) in enumerate(report.items()):
            fh.write(("," if k else "") + "\n  " + json.dumps(key) + ": ")
            if not isinstance(value, Iterator):
                fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
                continue
            sep = "["
            for item in value:
                fh.write(sep + "\n    " + json.dumps(item, indent=2).replace("\n", "\n    "))
                sep = ","
            fh.write("[]" if sep == "[" else "\n  ]")
        fh.write("\n}\n" if report else "}\n")


# -- verify-counts --

def _check(checks: list, name: str, expected, actual, ok: bool | None = None,
           **params) -> None:
    """Record one check; by default it holds when both sides print alike."""
    if ok is None:
        ok = str(expected) == str(actual)
    checks.append(dict(params, name=name, expected=str(expected), actual=str(actual),
                       status="ok" if ok else "fail"))


def cmd_verify_counts(args) -> int:
    ells = _parse_ints(args.ells)
    qs = [parse_q(x) for x in args.q.split(",") if x.strip()]
    if not ells:
        raise UsageError(f"--ells lists no prime, got {args.ells!r}")
    if not qs:
        raise UsageError(f"--q lists no value, got {args.q!r}")
    for ell in ells:
        SetLevel.UNION.require(GroupContext.of(2, ell), None, False)
    # the composite modulus rejects a repeated prime before the first check
    n = math.prod(ells)
    modulus = Modulus.of(n)
    composite = [GroupContext(2, modulus, q) for q in qs]
    checks: list[dict] = []

    for ell in ells:
        for gg in range(1, 5):
            lhs = sp_order(gg, ell)
            rhs = (ell ** (2 * gg) - 1) * ell ** (2 * gg - 1) * sp_order(gg - 1, ell)
            _check(checks, "order-recursion", lhs, rhs, g=gg, ell=ell)

    # g=1 enumeration oracle: the 2x2 scan is cheap at any grid prime
    for ell in ells:
        counts = np.zeros(ell, dtype=np.int64)
        for _, lams in scan_entries(GroupContext.of(1, ell)):
            counts += np.bincount(lams, minlength=ell)
        _check(checks, "order-enumeration", sp_order(1, ell), int(counts[1]),
               g=1, ell=ell, lam=1)
        for q in qs:
            values = GroupContext.of(1, ell, q).multiplier_values()
            total = int(sum(counts[v] for v in values))
            _check(checks, "class-order-enumeration",
                   gsp_q_order(GroupContext.of(1, ell, q)), total,
                   g=1, ell=ell, q=str(q_json(q)))

    lam_grid = {ell: sorted({v for q in qs
                             for v in GroupContext.of(2, ell, q).multiplier_values()})
                for ell in ells}

    for ell in ells:
        for lam in lam_grid[ell]:
            floor = no_eigenvalue_one_floor(ell, 1)
            actual = count_without_eigenvalue_one(ell, 1, lam)
            _check(checks, "block-availability", f">={floor}", actual, actual >= floor,
                   g=1, ell=ell, lam=lam)

    for ell in ells:
        for lam in lam_grid[ell]:
            ctx = GroupContext.of(2, ell)
            # each set is dropped after its count is read, so no two are resident
            _check(checks, "core-cardinality", core_cardinality(2, ell),
                   build_core_set(ctx, lam).cardinality, g=2, ell=ell, lam=lam)
            full_expected = full_cardinality(2, ell)
            if full_expected <= args.set_budget:
                _check(checks, "full-cardinality", full_expected,
                       build_full_set(ctx, lam).cardinality, g=2, ell=ell, lam=lam)
            else:
                checks.append({"g": 2, "ell": ell, "lam": lam,
                               "name": "full-cardinality",
                               "expected": str(full_expected), "actual": "",
                               "status": "skipped",
                               "note": f"materialization over --set-budget {args.set_budget}"})

    for q, ctx_n in zip(qs, composite):
        lhs = Fraction(composite_union_cardinality(2, n, q), gsp_q_order(ctx_n))
        rhs = Fraction(1)
        for ell in ells:
            rhs *= Fraction(union_cardinality(2, ell, q),
                            gsp_q_order(GroupContext.of(2, ell, q)))
        _check(checks, "composite-density-product", frac_str(lhs), frac_str(rhs),
               g=2, n=n, q=str(q_json(q)))

    counts = {"ok": sum(c["status"] == "ok" for c in checks),
              "fail": sum(c["status"] == "fail" for c in checks),
              "skipped": sum(c["status"] == "skipped" for c in checks)}
    report = {"command": "verify-counts", "g": 2, "ells": ells,
              "q": [str(q_json(q)) for q in qs], "checks": checks, "counts": counts}
    _emit(report, args.out)
    return 1 if counts["fail"] else 0


# -- special-set --

def cmd_special_set_build(args) -> int:
    q = parse_q(args.q)
    level = SetLevel(args.level)
    ctx = GroupContext.of(2, args.ell, q)
    if level is not SetLevel.UNION and args.lam is None:
        raise UsageError(f"--lam is required for level {level.value}")
    # validate before opening the outputs, and open both before the build, so
    # that neither failure costs a build; neither is truncated until the set
    # is built, so no failure empties an earlier dump
    level.require(ctx, args.lam, args.allow_large_ell)
    with _open(args.out, "a") as fh, _open(args.out + ".json", "a") as side:
        s = level.build(ctx, args.lam, args.allow_large_ell)
        for f in (fh, side):
            f.seek(0)
            f.truncate()
        lines = s.dump(fh)
        s.write_sidecar(side)
    report = {**s.sidecar(), "command": "special-set-build", "out": args.out, "lines": lines}
    _emit(report)
    return 0


def cmd_special_set_verify(args) -> int:
    side = args.dump + ".json"
    with _open(side) as fh:
        ctx, lam, level, claimed = FixedVectorSet.read_sidecar(fh, side)
    with _open(args.dump) as fh:
        try:
            s = FixedVectorSet.load(fh, ctx, lam, level)
        except ValueError as exc:
            s, problems = None, [str(exc)]
    if s is not None:
        problems, in_class = s.problems(claimed)
        if in_class and args.rebuild and not np.array_equal(level.build(ctx, lam, True).keys,
                                                            s.keys):
            problems.append("rebuild does not reproduce the dump")
    report = {"command": "special-set-verify", "dump": args.dump,
              "status": "ok" if not problems else "fail", "problems": problems}
    _emit(report, args.out)
    return 0 if not problems else 1


# -- series --

def cmd_series(args) -> int:
    if args.which == "part-a":
        q = parse_q(args.q)
        report = part_a_series(args.g, q, args.ell_max)
    else:
        report = part_b_series(args.g, args.e, args.ell_max)
    if args.format == "csv":
        _emit(report.csv_lines(), args.out)
    else:
        payload = report.as_report_dict()
        payload["command"] = f"series-{args.which}"
        _emit(payload, args.out)
    return 0


# -- simulate --

def cmd_simulate_hit_frequency(args) -> int:
    q = parse_q(args.q)
    ctx = GroupContext.of(2, args.n, q)
    primes = ctx.modulus.primes
    event = SetHitEvent(primes[0]) if len(primes) == 1 else JointSetHitEvent(primes)
    est = estimate_events(ctx, [event], 1, args.samples, args.seed, args.threads)[0]
    report = {"command": "simulate-hit-frequency", "g": 2, "n": args.n,
              "q": str(q_json(q)), "e": 1, "samples": args.samples, "seed": args.seed,
              **est.as_report_dict()}
    _emit(report, args.out)
    return 0


def cmd_simulate_independence(args) -> int:
    q = parse_q(args.q)
    ctx = GroupContext.of(2, args.n, q)
    ells = tuple(_parse_ints(args.ells)) if args.ells else ctx.modulus.primes
    if len(ells) < 2:
        raise UsageError("independence needs at least two primes")
    events = [SetHitEvent(ell) for ell in ells] + [JointSetHitEvent(tuple(ells))]
    ests = estimate_events(ctx, events, 1, args.samples, args.seed, args.threads)
    marginals, joint = ests[:-1], ests[-1]
    product = math.prod((m.estimate for m in marginals), start=Fraction(1))
    diff = abs(joint.estimate - product)
    se_sq = joint.std_error ** 2
    for k, m in enumerate(marginals):
        rest = math.prod((float(x.estimate) for j, x in enumerate(marginals) if j != k),
                         start=1.0)
        se_sq += (rest * m.std_error) ** 2
    combined_se = math.sqrt(se_sq)
    report = {
        "command": "simulate-independence", "g": 2, "n": args.n,
        "q": str(q_json(q)), "ells": list(ells), "samples": args.samples,
        "seed": args.seed,
        "marginals": [m.as_report_dict() for m in marginals],
        "joint": joint.as_report_dict(),
        "product_of_marginals": frac_str(product),
        "product_of_marginals_float": float(product),
        "abs_difference": frac_str(diff),
        "combined_std_error": combined_se,
        "within_4se": float(diff) <= 4.0 * combined_se,
    }
    _emit(report, args.out)
    return 0


def cmd_simulate_mu_x(args) -> int:
    q = parse_q(args.q)
    ctx = GroupContext.of(args.g, args.ell, q)
    est = estimate_events(ctx, [FixedVectorEvent(args.ell)], args.e,
                          args.samples, args.seed, args.threads)[0]
    report = {"command": "simulate-mu-x", "g": args.g, "ell": args.ell,
              "q": str(q_json(q)), "e": args.e, "samples": args.samples,
              "seed": args.seed, **est.as_report_dict()}
    _emit(report, args.out)
    return 0


def cmd_simulate_borel_cantelli(args) -> int:
    q = parse_q(args.q)
    ells = _parse_ints(args.ells)
    rep = borel_cantelli_experiment(args.g, q, ells, args.e, args.samples,
                                    args.seed, args.threads)
    payload = rep.as_report_dict()
    payload["command"] = "simulate-borel-cantelli"
    _emit(payload, args.out)
    return 0


# -- orders / enumerate --

def cmd_orders(args) -> int:
    q = parse_q(args.q)
    ctx = GroupContext.of(args.g, args.n, q)
    primes = list(ctx.modulus.primes)
    count = ctx.multiplier_count()
    report = {
        "command": "orders", "g": args.g, "n": args.n, "q": str(q_json(q)),
        "primes": primes,
        "sp_orders": {str(ell): int_str(sp_order(args.g, ell)) for ell in primes},
        "class_order": int_str(gsp_q_order(ctx)),
        "multiplier_count": count,
    }
    if q is not INFINITY:
        # for finite q the count is the order of q mod n
        report["q_order_mod_n"] = count
        # degenerate configuration: q acts trivially on multipliers
        report["q_is_trivial_mod_n"] = count == 1
    _emit(report, args.out)
    return 0


def cmd_enumerate(args) -> int:
    q = parse_q(args.q)
    ctx = GroupContext.of(args.g, args.ell, q)
    # the scan checks the budget when called, before --out is opened, so a
    # refused scan leaves an earlier --out as it was
    chunks = (entries.reshape(entries.shape[0], -1)
              for entries, _ in scan_entries(ctx, lam=args.lam, budget=args.budget))
    if not args.out:
        write_matrix_lines(sys.stdout, chunks, ctx.dim, args.ell)
        return 0
    with _open(args.out, "w") as fh:
        count = write_matrix_lines(fh, chunks, ctx.dim, args.ell)
    sys.stdout.write(json.dumps({"command": "enumerate", "count": count}) + "\n")
    return 0


# Flags and their add_argument keywords.  A command's entry in the table of
# build_parser may override them; every command also takes --threads and --out.
_FLAGS = {
    "--g": dict(type=int, default=2),
    "--n": dict(type=int, required=True),
    "--ell": dict(type=int, required=True),
    "--q": dict(default="inf"),
    "--e": dict(type=int),
    "--lam": dict(type=int, default=None),
    "--samples": dict(type=int, default=100_000),
    "--seed": dict(type=int, required=True),
    "--ell-max": dict(type=int, default=1000),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--threads": dict(type=int, default=1, help="worker threads; output is independent of this"),
    "--out": dict(help="write the report here instead of stdout"),
}

# top-level command -> (help, dest of its subcommands or None)
_TOP = {
    "verify-counts": ("run the exact-identity suite", None),
    "special-set": ("build or verify set dumps", "subcommand"),
    "series": ("exact-rational series reports", "which"),
    "simulate": ("seeded Monte Carlo experiments", "subcommand"),
    "orders": ("exact group orders", None),
    "enumerate": ("stream group members as a dump", None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symon",
        description="Exact checks, set dumps, series reports and seeded "
                    "simulations for symplectic similitude groups over Z/n.")
    # the handlers are looked up when the parser is built, so a wrapper
    # installed on this module's functions is the one that runs
    commands = [
        (("verify-counts",), cmd_verify_counts, [
            ("--ells", dict(default="3,5,7", help="comma-separated grid primes")),
            ("--q", dict(default="2,inf", help="comma-separated q values ('inf' allowed)")),
            ("--set-budget", dict(type=int, default=2_000_000,
                                  help="skip materializing layers larger than this"))]),
        (("special-set", "build"), cmd_special_set_build, [
            "--ell", "--q",
            ("--level", dict(choices=[l.value for l in SetLevel], default="union")),
            "--lam", ("--allow-large-ell", dict(action="store_true")),
            ("--out", dict(required=True, help=None))]),
        (("special-set", "verify"), cmd_special_set_verify, [
            ("--dump", dict(required=True)),
            ("--rebuild", dict(action="store_true",
                               help="also rebuild from scratch and compare"))]),
        (("series", "part-a"), cmd_series, ["--g", "--q", "--ell-max", "--format"]),
        (("series", "part-b"), cmd_series, [
            "--g", ("--e", dict(default=2)), "--ell-max", "--format"]),
        (("simulate", "hit-frequency"), cmd_simulate_hit_frequency, [
            "--n", "--q", "--samples", "--seed"]),
        (("simulate", "independence"), cmd_simulate_independence, [
            "--n", "--q", ("--ells", dict(default=None)), "--samples", "--seed"]),
        (("simulate", "mu-x"), cmd_simulate_mu_x, [
            "--g", "--ell", "--q", ("--e", dict(default=2)), "--samples", "--seed"]),
        (("simulate", "borel-cantelli"), cmd_simulate_borel_cantelli, [
            "--g", "--q", ("--ells", dict(required=True)), ("--e", dict(default=1)),
            ("--samples", dict(default=10_000)), "--seed"]),
        (("orders",), cmd_orders, ["--g", "--n", "--q"]),
        (("enumerate",), cmd_enumerate, [
            ("--g", dict(default=1)), "--ell", "--q", "--lam",
            ("--budget", dict(type=int, default=DEFAULT_BUDGET))]),
    ]
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for path, func, flags in commands:
        top, rest = path[0], path[1:]
        if top not in groups:
            help_text, dest = _TOP[top]
            groups[top] = sub.add_parser(top, help=help_text)
            if dest:
                groups[top] = groups[top].add_subparsers(dest=dest, required=True)
        p = groups[top].add_parser(rest[0]) if rest else groups[top]
        flags = [(f, {}) if isinstance(f, str) else f for f in flags]
        flags += [(f, {}) for f in ("--threads", "--out") if f not in dict(flags)]
        for flag, overrides in flags:
            p.add_argument(flag, **{**_FLAGS.get(flag, {}), **overrides})
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.threads < 1:
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        if not 0 <= getattr(args, "seed", 0) < 1 << 64:
            raise UsageError(f"--seed must lie in [0, 2**64), got {args.seed}")
        return args.func(args)
    except (BudgetExceeded, ValueError) as exc:   # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # a fault in symon itself, not in the input
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
