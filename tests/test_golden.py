"""Byte-level golden outputs of the CLI.

Criterion 13 checks that reports agree across reruns and ``--threads``
values, which a change that alters every report alike would still pass.
These digests pin the exact bytes: the stdout of every criterion-13 case,
five series reports long enough for multi-thousand-digit rationals, and the
ell=3, q=2 union dump with its sidecar.  They were recorded from
the code before the simplification pass and must not move under a
refactor; a deliberate change of output re-records them.  The ``--help``
digests of every command pin the visible CLI surface the same way, so a
flag that appears, disappears or changes its help text shows up here.
The key digests of two in-memory builds, recorded from the code before the
one-pass set build, pin the materialized keys themselves: the ell=5, q=2
union the benchmark builds, and an ell=7 full layer, a size the benchmark
does not run.  Two core-layer key digests, at ell=11, lambda=2 and
ell=13, lambda=1, recorded from the per-block core build before the
one-pass build replaced it, pin the core layer at the largest sizes under
the default cap.  The Monte Carlo pins, recorded from the per-sample scalar
loop before the batch engine replaced it, hold the exact hit counts of the
criterion 9-11 estimates at their 100k samples and the digests of two
borel-cantelli reports, so the engine is held byte-identical at the sizes
the criteria use and not only at the 1k-2k samples of the CLI cases.
Those two reports are at q = inf; the finite-q borel-cantelli digests, at
q = 2 and 4 in both regimes, pin the cyclic multiplier draw as well.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from symon.montecarlo import (
    FixedVectorEvent,
    JointSetHitEvent,
    SetHitEvent,
    borel_cantelli_experiment,
    estimate_events,
)
from symon.specialsets import build_core_set, build_full_set, build_union_set
from symon.sympgroup import INFINITY, GroupContext
from test_acceptance import CLI_CASES

STDOUT_SHA256 = {
    "orders --g 2 --n 15 --q 2":
        "8c2a2ebdf1472c891cc42e69b4ff4b5e54c48cf0ee108eb81864de87e6a85c80",
    "verify-counts --ells 3 --q 2,inf":
        "be29828520c010529128a52bc0c7fc7bf8a2df5bbf5ce0c03e5bbadce4ca668c",
    "series part-a --g 2 --q 2 --ell-max 200":
        "b4a31d4341fa1fa5733a0a4912231b0c8ce9204ff552e568099dab316a9d90a4",
    "series part-b --g 2 --e 2 --ell-max 200":
        "0fbf5ec173e1c5fa702f695743cedaad8c04d3c60fe95be7c8489b13e8d6a7f9",
    "enumerate --g 1 --ell 5":
        "aadee747a3982e40a02eefbf6318ad7a99a77b1d889c80b497ecfd00401f4b87",
    "simulate hit-frequency --n 5 --q 2 --samples 2000 --seed 42":
        "1b23120570c311a6fce66645a01904cfdbb987ce982e26b6009326bc49633049",
    "simulate independence --n 15 --q 2 --samples 1000 --seed 7":
        "05e681fda1e5734fd127cbf7d969bdc7cf39783b2efaba97dc3d7dae1c0d39eb",
    "simulate mu-x --g 2 --ell 3 --e 2 --samples 2000 --seed 3":
        "e5ccf699906eceee7669319eec00d650cfafe3ce6c2ee5807ba057b2ed4535ea",
    "simulate borel-cantelli --g 2 --q 2 --ells 3,5,7 --e 1 --samples 1000 --seed 11":
        "5cd47d1fd857495229c022a5132f9d428dcbc925cb42c6394a144f1eac499e7a",
}
# recorded with Python 3.11; argparse wraps help at the terminal width,
# which COLUMNS fixes
HELP_SHA256 = {
    "": "311c54ae64d3c1248f7c31c385f2da47dde623335720943a4ff5e17d1bb34a84",
    "verify-counts": "0c05208f1f4251610906d2c5a95fba7d7dc57b06775b679cca08507789a7a5b3",
    "special-set": "e970982f3f526f14d87b2fcba766fe6235f41c396c686d92d2f121698afa4de0",
    "special-set build": "c099030c2c185c12981081c12ee295dfc44766ca77c9a9c775fbc54f17a24aab",
    "special-set verify": "3a98cd17fe83a373401e7d7497656df110b4351106b010b100594b278234f085",
    "series": "c52ed5951432cbbd19fd288a8bbf9d9924900dd8bda50455f4dc63be1eaf3394",
    "series part-a": "0b97391732d102fab5935e0f76a479d5781996088bc7f4af8c448fe7d38b3286",
    "series part-b": "6ecc0bf234b9ea4f3bf91cfb04efd0c82f274f57d0a328937c184e3dae655e20",
    "simulate": "c1cf0d13897a4ab256fadcc876f7493ccfbc60f39e9a48c4c9e84a12bc05eed7",
    "simulate hit-frequency":
        "013a1e4e054a0f3a416b0ecd1b69e94f367db54ccbe161daa7be4d4442cd259c",
    "simulate independence":
        "38b6581f4512d19922320bd1e130833878e241fc896fe2ac96cf1f9711f8ae50",
    "simulate mu-x": "bde60ee5494774114414f4cb2a00380747faa97d86c26a4012481b8acee65c18",
    "simulate borel-cantelli":
        "8bd98635b19a5ace056a778bdd6ef5d4927024adf73491abe777671d423bfd17",
    "orders": "c1722eb765614b69dbab0828db4d3b5a7fa345b0b0581b495df44cf03a0d0c42",
    "enumerate": "250f2d6c1412211b8d84e70c13d15b1741e924cb03ebdffda00ac589f6d7ccaa",
}
# two series reports at --ell-max 3000, recorded from the code that
# rendered them with str(int) before int_str; their largest integers run to
# 13,195 digits, so every level of int_str's divide and conquer shows here
SERIES_3000_SHA256 = {
    "series part-b --g 2 --e 2 --ell-max 3000 --format csv":
        "a2df0b099fdd2d5dec5134b3bbbdcfb1086e63cc7ba1997e0f6d975a8e44dfa0",
    "series part-a --g 2 --q 2 --ell-max 3000":
        "fd2346bf1a1bfed926108949a414ac2909f539782c0b3ee3b4c70d73584a2d37",
}
# three more series reports, recorded from the code that converted every
# partial sum from scratch with int_str, before the partials were carried
# along the running sum; the 10**4 report's partials run to 40,321 digits
SERIES_RUNNING_SUM_SHA256 = {
    "series part-b --g 2 --e 2 --ell-max 3000":
        "7988ad0d04f0c96a22a41eb2344d8a03cc660df4bde5efb90b489ef3b3b58c61",
    "series part-a --g 2 --q 2 --ell-max 3000 --format csv":
        "285ccd03ad42696b004a295811bab810d7d44b8166eadcd6cef17bc6e78baad4",
    "series part-b --g 2 --e 2 --ell-max 10000":
        "641cc4adb40e5176b25d97aab792e8c1e280f8181007baad46970bdcc4e851bb",
}
UNION_DUMP_SHA256 = "00b15351a59a46817d663e2895da0cdff3ca3dbc9527d53c670e8cb442610952"
UNION_SIDECAR_SHA256 = "94e7734ac66c62f5d4441225a5781b198597eb473cf4f335eb1eb1ba6ee0e34c"
UNION_5_Q2_KEYS_SHA256 = "3f78d249bd7459a4f453975820d71f39925b612d483c82a422eb45f21fba3e0b"
FULL_7_LAM1_KEYS_SHA256 = "7bfd227b7399f07d6fa234afe8370272147d13d8e357954af58d673c71c93103"
# (ell, lam) -> sha256 of build_core_set(GroupContext.of(2, ell), lam).keys
CORE_KEYS_SHA256 = {
    (11, 2): "9d6bca36801842f1a69ac1fa84f44353efe6e9be07dcf4eb8aaf3a2aaa568e9f",
    (13, 1): "5e727a3faaee958be059b4a47bea924eb796389f8f1c2e7cc7b9b2de57181ded",
}
# (g, n, q, e, events, seed) -> hits per event, at the criteria's 100k samples
CRITERIA_HITS = [
    (2, 5, 2, 1, [SetHitEvent(5)], 1009, [9692]),
    (2, 15, 2, 1, [SetHitEvent(3), SetHitEvent(5), JointSetHitEvent((3, 5))], 415,
     [7849, 9765, 750]),
    (2, 3, INFINITY, 2, [FixedVectorEvent(3)], 271828, [651]),
    (1, 3, INFINITY, 2, [FixedVectorEvent(3)], 314159, [6199]),
]
# sha256 of the sorted-key JSON of borel_cantelli_experiment(2, inf,
# (3, 5, 7, 11, 13), e, 20000, 2718).as_report_dict(), by e
BOREL_CANTELLI_SHA256 = {
    1: "7c021d1b7d8a0cbdb049c1937df65de9a12363156a50035f8df58e83f5045d5d",
    2: "7df46bff9550e51160566c06f199d6623bcc4b160a926c35f4b553e10e89fac2",
}
# sha256 of the sorted-key JSON of borel_cantelli_experiment(g, q, ells, e,
# 300, 100 g + 10 q + e).as_report_dict() at finite q, by (g, q, e), with
# ells (3, 5, 7, 11, 13) for g = 1 and (3, 5, 7, 11) for g = 2; set hits
# (e = 1) are defined from g = 2 on.  Recorded before the borel-cantelli
# draws moved onto the per-prime sampler of estimate_events.
BOREL_CANTELLI_FINITE_Q_SHA256 = {
    (1, 2, 2): "e4c8ec72fdfcd60e7ba4237ebebf4d18d705a60f1c889bf0bd49f32395dd6493",
    (1, 2, 3): "60babe0b9fa20aa30949dccf5d14a92adef01610f6ca30f7ae7c978be4008b22",
    (1, 4, 2): "9be16399435e9f74c5b49c1958b72aa71fc9f86bd1d1005c8be5b4dee70c1f8a",
    (1, 4, 3): "5b6270ac559d337225c8b2343e945ae7244e23661e574dbdfb7fccfa2415844d",
    (2, 2, 1): "9a3f1921393580d0dedbe6dc57d39aa8e16f8e59b0e26f533da6b8ec5585d889",
    (2, 2, 2): "46a4b97af6e58c136368f59fcccfa022fb82524e4918c7832d5094412d468b05",
    (2, 2, 3): "98592d73ed268a6c2989043f473ff0db6de89a7e3a8cfd79e26eebbfd66ea011",
    (2, 4, 1): "85a778727ae9a4c8aa7c4a60b4cc30a82d3b878a8d88cda10d5f14cabfbf3cac",
    (2, 4, 2): "aeb0eb975a432a4bfc9c018ccdc01d1ee8ca623db7ffca5aadb6937117592556",
    (2, 4, 3): "25ee690c645ad168de8f1fc6c3da6445389dcdce8829821567163bd8b7fcf8e3",
}


def _stdout(*args) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "symon.cli", *args], capture_output=True,
                          env={**os.environ, "COLUMNS": "80"})
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_criterion_13_case_is_pinned():
    assert {" ".join(case) for case in CLI_CASES} == set(STDOUT_SHA256)


@pytest.mark.parametrize("case", CLI_CASES, ids=" ".join)
def test_cli_stdout_matches_golden(case):
    assert _sha(_stdout(*case)) == STDOUT_SHA256[" ".join(case)]


SERIES_SHA256 = {**SERIES_3000_SHA256, **SERIES_RUNNING_SUM_SHA256}


@pytest.mark.parametrize("case", SERIES_SHA256)
def test_long_series_report_matches_golden(case):
    assert _sha(_stdout(*case.split())) == SERIES_SHA256[case]


def test_union_dump_matches_golden(tmp_path):
    out = tmp_path / "set3.txt"
    _stdout("special-set", "build", "--ell", "3", "--q", "2", "--level", "union",
            "--out", str(out))
    assert _sha(out.read_bytes()) == UNION_DUMP_SHA256
    assert _sha((tmp_path / "set3.txt.json").read_bytes()) == UNION_SIDECAR_SHA256


@pytest.mark.parametrize("command", HELP_SHA256, ids=lambda c: c or "symon")
def test_help_text_matches_golden(command):
    assert _sha(_stdout(*command.split(), "--help")) == HELP_SHA256[command]


def test_union_keys_match_golden():
    keys = build_union_set(GroupContext.of(2, 5, 2)).keys
    assert _sha(keys.tobytes()) == UNION_5_Q2_KEYS_SHA256


def test_full_layer_keys_match_golden():
    keys = build_full_set(GroupContext.of(2, 7), 1).keys
    assert _sha(keys.tobytes()) == FULL_7_LAM1_KEYS_SHA256


@pytest.mark.parametrize("ell,lam", sorted(CORE_KEYS_SHA256), ids=lambda v: str(v))
def test_core_layer_keys_match_golden(ell, lam):
    keys = build_core_set(GroupContext.of(2, ell), lam).keys
    assert _sha(keys.tobytes()) == CORE_KEYS_SHA256[(ell, lam)]


@pytest.mark.parametrize("g,n,q,e,events,seed,hits", CRITERIA_HITS,
                         ids=["crit09", "crit10", "crit11-g2", "crit11-g1"])
def test_criteria_estimates_match_golden(g, n, q, e, events, seed, hits):
    ests = estimate_events(GroupContext.of(g, n, q), events, e, 100_000, seed)
    assert [est.hits for est in ests] == hits


@pytest.mark.parametrize("e", sorted(BOREL_CANTELLI_SHA256))
def test_borel_cantelli_report_matches_golden(e):
    rep = borel_cantelli_experiment(2, INFINITY, (3, 5, 7, 11, 13), e, 20_000, 2718)
    text = json.dumps(rep.as_report_dict(), sort_keys=True)
    assert _sha(text.encode()) == BOREL_CANTELLI_SHA256[e]


@pytest.mark.parametrize("g,q,e", sorted(BOREL_CANTELLI_FINITE_Q_SHA256),
                         ids=lambda v: str(v))
def test_borel_cantelli_finite_q_matches_golden(g, q, e):
    ells = (3, 5, 7, 11, 13) if g == 1 else (3, 5, 7, 11)
    rep = borel_cantelli_experiment(g, q, ells, e, 300, 100 * g + 10 * q + e)
    text = json.dumps(rep.as_report_dict(), sort_keys=True)
    assert _sha(text.encode()) == BOREL_CANTELLI_FINITE_Q_SHA256[(g, q, e)]
