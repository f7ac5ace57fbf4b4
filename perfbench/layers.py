"""Which symon functions the traced run wraps, and the per-layer metrics.

Metric names follow ``<module>.<function>.<stat>``; ``gf`` stands for
``symon._gf`` because a metric name may not start with an underscore.
Stats: ``s`` is inclusive seconds, ``self_s`` excludes enclosed spans,
``calls`` counts calls; all are totals over one round of the workload.
A layer that a workload does not run reads 0 there.
"""

from __future__ import annotations

import os

from tracer import Tracer


def _rows(args, result):
    return {"rows": args[0].shape[0]}


def _unique(args, result):
    return {"rows_in": args[0].shape[0], "rows_out": result.shape[0]}


def _kept(args, chunk):
    return {"kept": chunk[0].shape[0]}


def _hits(args, result):
    return {"hits": int(bool(result))}


def _dump(args, result):
    fh = args[1]
    fh.flush()
    return {"lines": result, "bytes": os.fstat(fh.fileno()).st_size}


# (span name, module, attribute, tally).  Per-element helpers such as
# CounterRng.below or modmat.matrix_line are left alone: a wrapper would
# cost more than the call and inflate the self time of every caller.
SPANS = [
    ("sympgroup.sample_entries", "symon.sympgroup", "sample_entries", None),
    ("sympgroup.multiplier", "symon.sympgroup", "multiplier", None),
    ("sympgroup.transvection", "symon.sympgroup", "transvection", None),
    ("sympgroup.scan_entries", "symon.sympgroup", "scan_entries", None),
    ("modmat.kernel_basis", "symon.modmat", "kernel_basis", None),
    ("modmat.rank_mod", "symon.modmat", "rank_mod", None),
    ("specialsets.DirectMembership.init", "symon.specialsets",
     "DirectMembership.__init__", None),
    ("specialsets.DirectMembership.contains_rows", "symon.specialsets",
     "DirectMembership.contains_rows", _hits),
    ("specialsets.build_core_set", "symon.specialsets", "build_core_set", None),
    ("specialsets.build_full_set", "symon.specialsets", "build_full_set", None),
    ("specialsets.build_union_set", "symon.specialsets", "build_union_set", None),
    ("specialsets.count_without_eigenvalue_one", "symon.specialsets",
     "count_without_eigenvalue_one", None),
    ("specialsets.FixedVectorSet.dump", "symon.specialsets", "FixedVectorSet.dump", _dump),
    ("specialsets.FixedVectorSet.load", "symon.specialsets", "FixedVectorSet.load", None),
    ("gf.pack_entries", "symon._gf", "pack_entries", _rows),
    ("gf.unique_keys", "symon._gf", "unique_keys", _unique),
    ("gf.scan_similitudes", "symon._gf", "scan_similitudes", _kept),
    ("gf.index_to_entries", "symon._gf", "index_to_entries", _rows),
    ("gf.similitude_check", "symon._gf", "similitude_check", None),
    ("gf.batch_rank", "symon._gf", "batch_rank", None),
    ("gf.batch_det_minus_identity", "symon._gf", "batch_det_minus_identity", None),
    ("analysis.part_a_series", "symon.analysis", "part_a_series", None),
    ("analysis.part_b_series", "symon.analysis", "part_b_series", None),
    ("analysis.SeriesReport.as_report_dict", "symon.analysis",
     "SeriesReport.as_report_dict", None),
    ("analysis.SeriesReport.csv_lines", "symon.analysis", "SeriesReport.csv_lines", None),
    ("cli.enumerate", "symon.cli", "cmd_enumerate", None),
]

COUNTERS = [("prng.next64", "symon.prng", "CounterRng.next64")]

# The per-layer metrics each workload exists to exercise: in a traced run
# of that workload every one of them must be nonzero (selftest.py checks
# this), so a wrapper that never fires cannot go unseen.
EXERCISED = {
    "simulate": [
        "samples_per_s", "samples_per_s.threads2", "montecarlo.fanout.speedup",
        "sympgroup.sample_entries.self_s", "sympgroup.sample_entries.calls",
        "prng.next64.calls", "prng.draws_per_sample",
        "specialsets.DirectMembership.contains_rows.self_s",
        "specialsets.DirectMembership.contains_rows.calls",
        "specialsets.DirectMembership.contains_rows.hit_ratio",
        "modmat.kernel_basis.s", "sympgroup.multiplier.s",
        "specialsets.DirectMembership.init_s", "modmat.rank_mod.s", "modmat.rank_mod.calls",
    ],
    "sets-build": [
        "keys_per_s", "specialsets.build_union_set.self_s", "sympgroup.transvection.calls",
        "sympgroup.scan_entries.s", "gf.pack_entries.s", "gf.pack_entries.rows",
        "gf.unique_keys.s", "gf.unique_keys.rows_in", "gf.unique_keys.rows_out",
        "sets.rss_over_key_bytes",
    ],
    "exact": [
        "verify_counts_s", "enumerate_s", "series_s", "dump_roundtrip_s",
        "gf.scan_similitudes.s", "gf.scan_similitudes.candidates",
        "gf.scan_similitudes.kept_ratio", "cli.enumerate.render_s",
        "analysis.part_b_series.s", "analysis.part_a_series.s",
        "analysis.SeriesReport.as_report_dict.s", "analysis.SeriesReport.csv_lines.s",
        "cli.report_bytes", "specialsets.FixedVectorSet.dump.s",
        "specialsets.FixedVectorSet.dump.lines", "specialsets.FixedVectorSet.dump.bytes",
        "specialsets.FixedVectorSet.load.s", "gf.similitude_check.s", "gf.batch_rank.s",
        "gf.batch_det_minus_identity.s", "specialsets.build_full_set.s",
        "specialsets.build_core_set.s", "specialsets.count_without_eigenvalue_one.s",
    ],
}


def install() -> Tracer:
    tracer = Tracer()
    for name, module, attr, tally in SPANS:
        tracer.patch(module, attr, lambda fn, name=name, tally=tally: tracer.span(name, fn, tally))
    for name, module, attr in COUNTERS:
        tracer.patch(module, attr, lambda fn, name=name: tracer.counter(name, fn))
    return tracer


def metrics(spans: dict, counts: dict, samples: int, extra: dict) -> dict:
    """Per-layer metrics of one round from the tracer's totals.

    ``samples`` is the number of sampled tuples the round drew; ``extra``
    holds figures the workload measured itself.
    """
    def rec(name):
        return spans.get(name, (0, 0.0, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    contains = "specialsets.DirectMembership.contains_rows"
    candidates = counts.get("gf.index_to_entries.rows", 0)
    return {
        "sympgroup.sample_entries.self_s": rec("sympgroup.sample_entries")[2],
        "sympgroup.sample_entries.calls": rec("sympgroup.sample_entries")[0],
        "prng.next64.calls": counts.get("prng.next64", 0),
        "prng.draws_per_sample": ratio(counts.get("prng.next64", 0), samples),
        f"{contains}.self_s": rec(contains)[2],
        f"{contains}.calls": rec(contains)[0],
        f"{contains}.hit_ratio": ratio(counts.get(f"{contains}.hits", 0), rec(contains)[0]),
        "modmat.kernel_basis.s": rec("modmat.kernel_basis")[1],
        "sympgroup.multiplier.s": rec("sympgroup.multiplier")[1],
        "specialsets.DirectMembership.init_s": rec("specialsets.DirectMembership.init")[1],
        "modmat.rank_mod.s": rec("modmat.rank_mod")[1],
        "modmat.rank_mod.calls": rec("modmat.rank_mod")[0],
        "specialsets.build_union_set.self_s": rec("specialsets.build_union_set")[2],
        "sympgroup.transvection.calls": rec("sympgroup.transvection")[0],
        "sympgroup.scan_entries.s": rec("sympgroup.scan_entries")[1],
        "gf.pack_entries.s": rec("gf.pack_entries")[1],
        "gf.pack_entries.rows": counts.get("gf.pack_entries.rows", 0),
        "gf.unique_keys.s": rec("gf.unique_keys")[1],
        "gf.unique_keys.rows_in": counts.get("gf.unique_keys.rows_in", 0),
        "gf.unique_keys.rows_out": counts.get("gf.unique_keys.rows_out", 0),
        "sets.rss_over_key_bytes": extra.get("sets.rss_over_key_bytes", 0.0),
        "gf.scan_similitudes.s": rec("gf.scan_similitudes")[1],
        "gf.scan_similitudes.candidates": candidates,
        "gf.scan_similitudes.kept_ratio": ratio(counts.get("gf.scan_similitudes.kept", 0),
                                                candidates),
        # cmd_enumerate's own time once the scan it drives is taken out
        "cli.enumerate.render_s": rec("cli.enumerate")[2],
        "analysis.part_b_series.s": rec("analysis.part_b_series")[1],
        "analysis.part_a_series.s": rec("analysis.part_a_series")[1],
        "analysis.SeriesReport.as_report_dict.s": rec("analysis.SeriesReport.as_report_dict")[1],
        "analysis.SeriesReport.csv_lines.s": rec("analysis.SeriesReport.csv_lines")[1],
        "specialsets.FixedVectorSet.dump.s": rec("specialsets.FixedVectorSet.dump")[1],
        "specialsets.FixedVectorSet.dump.lines":
            counts.get("specialsets.FixedVectorSet.dump.lines", 0),
        "specialsets.FixedVectorSet.dump.bytes":
            counts.get("specialsets.FixedVectorSet.dump.bytes", 0),
        "specialsets.FixedVectorSet.load.s": rec("specialsets.FixedVectorSet.load")[1],
        "gf.similitude_check.s": rec("gf.similitude_check")[1],
        "gf.batch_rank.s": rec("gf.batch_rank")[1],
        "gf.batch_det_minus_identity.s": rec("gf.batch_det_minus_identity")[1],
        "specialsets.build_full_set.s": rec("specialsets.build_full_set")[1],
        "specialsets.build_core_set.s": rec("specialsets.build_core_set")[1],
        "specialsets.count_without_eigenvalue_one.s":
            rec("specialsets.count_without_eigenvalue_one")[1],
    }
