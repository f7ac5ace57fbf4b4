import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from symon import cli, specialsets
from symon.analysis import int_str, primes_upto
from symon.specialsets import DirectMembership, build_core_set
from symon.sympgroup import GroupContext, gsp_q_order
from test_specialsets import CORE_NON_MEMBERS, core_non_member, duplicate_first_block


def run_cli(*args, check=True, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "symon.cli", *args],
                          capture_output=True, text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_orders_report():
    out = json.loads(run_cli("orders", "--g", "2", "--n", "15", "--q", "2").stdout)
    assert out["sp_orders"] == {"3": "51840", "5": "9360000"}
    assert out["class_order"] == str(4 * 51840 * 9360000)
    assert out["q_order_mod_n"] == 4
    inf = json.loads(run_cli("orders", "--g", "2", "--n", "3", "--q", "inf").stdout)
    assert inf["class_order"] == "103680"


def test_verify_counts_small_grid():
    proc = run_cli("verify-counts", "--ells", "3", "--q", "2,inf")
    report = json.loads(proc.stdout)
    assert report["counts"]["fail"] == 0
    names = {c["name"] for c in report["checks"]}
    assert {"order-recursion", "order-enumeration", "class-order-enumeration",
            "block-availability", "core-cardinality", "full-cardinality",
            "composite-density-product"} <= names


def test_verify_counts_rejects_ell_2():
    proc = run_cli("verify-counts", "--ells", "2,3", "--q", "2", check=False)
    assert proc.returncode == 2
    assert "ell-2" in proc.stderr or "(ell-2)" in proc.stderr


@pytest.mark.parametrize("argv,named", [
    (["--ells", "3", "--q", ","], "--q"),
    (["--ells", "3", "--q", " "], "--q"),
    (["--ells", "", "--q", "2"], "--ells"),
    (["--ells", ",", "--q", "2"], "--ells"),
])
def test_verify_counts_rejects_an_empty_list(argv, named, monkeypatch, capsys):
    # an empty --q once exited 0 having checked no set
    monkeypatch.setattr(cli, "_check", lambda *args, **kw: pytest.fail("a check ran"))
    assert named in assert_main_input_error(["verify-counts", *argv], capsys)


def test_verify_counts_tamper_negative_control(monkeypatch, capsys):
    # a closed formula that is off by one must fail the check against it
    formula = cli.core_cardinality
    monkeypatch.setattr(cli, "core_cardinality", lambda *args: formula(*args) + 1)
    assert cli.main(["verify-counts", "--ells", "3", "--q", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert report["counts"]["fail"] >= 1 and failed == {"core-cardinality"}


def test_verify_counts_fails_on_a_repeated_conjugate_block(monkeypatch, capsys):
    duplicate_first_block(monkeypatch)
    assert cli.main(["verify-counts", "--ells", "3", "--q", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert failed == {"full-cardinality"}


def test_special_set_build_verify_rebuild(tmp_path):
    out = tmp_path / "set3.txt"
    proc = run_cli("special-set", "build", "--ell", "3", "--q", "2",
                   "--level", "union", "--out", str(out))
    built = json.loads(proc.stdout)
    assert built["cardinality"] == "8208"
    assert built["lines"] == 8208
    text = out.read_text()
    assert text.splitlines()[0] == "# dim=4 mod=3"
    assert len(text.splitlines()) == 1 + 8208
    sidecar = json.loads((tmp_path / "set3.txt.json").read_text())
    assert sidecar["cardinality"] == "8208"
    assert sidecar["seed-independent"] is True

    # deterministic rebuild: byte-identical dump
    out2 = tmp_path / "again.txt"
    run_cli("special-set", "build", "--ell", "3", "--q", "2",
            "--level", "union", "--out", str(out2))
    assert out2.read_text() == text

    proc = run_cli("special-set", "verify", "--dump", str(out), "--rebuild")
    assert json.loads(proc.stdout)["status"] == "ok"


def test_special_set_verify_catches_corruption(tmp_path):
    out = tmp_path / "core.txt"
    run_cli("special-set", "build", "--ell", "3", "--q", "inf",
            "--level", "core", "--lam", "1", "--out", str(out))
    lines = out.read_text().splitlines()
    lines[1] = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"   # identity is not a core member
    out.write_text("\n".join(lines) + "\n")
    proc = run_cli("special-set", "verify", "--dump", str(out), check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["problems"]


@pytest.mark.parametrize("ell,lam", CORE_NON_MEMBERS)
def test_verify_rejects_a_core_shaped_non_member(tmp_path, capsys, ell, lam):
    # a similitude that fixes exactly e_1 but lies outside the core (its
    # block is not pooled, or its corner is the excluded value) swapped in
    # for a member keeps the count: the member check alone must fail it
    dump = tmp_path / "core.txt"
    assert cli.main(["special-set", "build", "--ell", str(ell), "--q", "inf", "--level", "core",
                     "--lam", str(lam), "--out", str(dump)]) == 0
    lines = dump.read_text().splitlines()
    lines[1] = ",".join(map(str, core_non_member(build_core_set(GroupContext.of(2, ell), lam))))
    dump.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["special-set", "verify", "--dump", str(dump)]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == [
        "a core member's block is not pooled or its corner is excluded"]


def test_special_set_requires_lam_for_core():
    proc = run_cli("special-set", "build", "--ell", "3", "--q", "inf",
                   "--level", "core", "--out", "/tmp/unused.txt", check=False)
    assert proc.returncode == 2


def test_series_part_a_usage_error():
    proc = run_cli("series", "part-a", "--g", "1", "--q", "2", check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("ell_max", ["1", "-5"])
@pytest.mark.parametrize("which", ["part-a", "part-b"])
def test_series_below_the_first_prime_is_empty(which, ell_max, capsys):
    # no prime lies at or below --ell-max, so the report has no rows
    assert cli.main(["series", which, "--ell-max", ell_max]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rows"] == [] and rep["ell_max"] == int(ell_max)


def test_series_reports(tmp_path):
    proc = run_cli("series", "part-a", "--g", "2", "--q", "2", "--ell-max", "100")
    rep = json.loads(proc.stdout)
    assert rep["rows"][0]["ell"] == 3
    partials = [int(r["partial_num"]) / int(r["partial_den"]) for r in rep["rows"]]
    assert all(b > a for a, b in zip(partials, partials[1:]))

    csv = run_cli("series", "part-b", "--g", "2", "--e", "2", "--ell-max", "100",
                  "--format", "csv").stdout
    lines = csv.splitlines()
    assert lines[0].startswith("ell,")
    assert len(lines) == 1 + 25   # 25 primes up to 100
    out = tmp_path / "b.json"
    run_cli("series", "part-b", "--g", "2", "--e", "2", "--ell-max", "100",
            "--out", str(out))
    rep = json.loads(out.read_text())
    assert "tail_bound" in rep


def test_simulate_hit_frequency_prime_and_composite():
    rep = json.loads(run_cli("simulate", "hit-frequency", "--n", "5", "--q", "2",
                             "--samples", "2000", "--seed", "42").stdout)
    assert rep["event"] == "set-hit(5)"
    assert abs(rep["estimate_float"] - rep["exact_value_float"]) <= 5 * rep["std_error"]
    rep = json.loads(run_cli("simulate", "hit-frequency", "--n", "15", "--q", "2",
                             "--samples", "500", "--seed", "42").stdout)
    assert rep["event"] == "joint-set-hit(3,5)"


def test_simulate_independence():
    rep = json.loads(run_cli("simulate", "independence", "--n", "15", "--q", "2",
                             "--samples", "2000", "--seed", "7").stdout)
    assert len(rep["marginals"]) == 2
    assert rep["within_4se"] in (True, False)
    prod = rep["product_of_marginals_float"]
    joint = rep["joint"]["estimate_float"]
    assert abs(joint - prod) <= 6 * rep["combined_std_error"] + 1e-9


def test_simulate_mu_x_and_borel_cantelli():
    rep = json.loads(run_cli("simulate", "mu-x", "--g", "2", "--ell", "3",
                             "--e", "2", "--samples", "1500", "--seed", "3").stdout)
    assert rep["estimate_float"] <= rep["bound_float"] + 4 * rep["std_error"]
    rep = json.loads(run_cli("simulate", "borel-cantelli", "--g", "2", "--q", "2",
                             "--ells", "3,5", "--e", "1", "--samples", "800",
                             "--seed", "11").stdout)
    assert rep["regime"] == "part-a"
    assert sum(rep["hit_histogram"].values()) == 800


def test_enumerate_stream_and_budget():
    proc = run_cli("enumerate", "--g", "1", "--ell", "3", "--lam", "1")
    lines = proc.stdout.splitlines()
    assert lines[0] == "# dim=2 mod=3"
    assert len(lines) == 1 + 24
    proc = run_cli("enumerate", "--g", "2", "--ell", "7", "--budget", "1000",
                   check=False)
    assert proc.returncode == 2


def test_enumerate_out_matches_stdout(tmp_path, capsys):
    argv = ["enumerate", "--g", "1", "--ell", "5", "--lam", "2"]
    assert cli.main(argv) == 0
    streamed = capsys.readouterr().out
    out = tmp_path / "members.txt"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == {"command": "enumerate", "count": 120}
    assert out.read_text() == streamed and len(streamed.splitlines()) == 1 + 120


def test_enumerate_over_budget_leaves_out_alone(tmp_path, capsys):
    out = tmp_path / "kept.txt"
    out.write_bytes(b"earlier bytes\n")
    argv = ["enumerate", "--g", "2", "--ell", "7", "--budget", "1000", "--out", str(out)]
    assert "budget is 1000" in assert_main_input_error(argv, capsys)
    assert out.read_bytes() == b"earlier bytes\n"


def test_enumerate_past_the_scan_ceiling_leaves_out_alone(tmp_path, capsys):
    # 32771**4 > 2**60 candidates: refused at once whatever --budget says
    out = tmp_path / "kept.txt"
    out.write_bytes(b"earlier bytes\n")
    argv = ["enumerate", "--g", "1", "--ell", "32771", "--budget", str(10 ** 19),
            "--out", str(out)]
    assert "ceiling of 2**60" in assert_main_input_error(argv, capsys)
    assert out.read_bytes() == b"earlier bytes\n"


def test_budget_env_var_is_ignored():
    # --budget alone sets enumerate's budget: SYMON_BUDGET=1000 no longer
    # refuses the 7^4 = 2401 candidates of GL_2(F_7), whose 2016 members print
    proc = run_cli("enumerate", "--g", "1", "--ell", "7",
                   env_extra={"SYMON_BUDGET": "1000"})
    assert len(proc.stdout.splitlines()) == 1 + 2016


def test_verify_rejects_a_sidecar_of_another_pool(tmp_path):
    # a real union dump, relabelled: there is one block pool, so any other
    # pool name is an input error
    out = tmp_path / "union.txt"
    built = json.loads(run_cli("special-set", "build", "--ell", "3", "--q", "2",
                               "--level", "union", "--out", str(out)).stdout)
    assert built["strategy"] == "lex-canonical"
    side = tmp_path / "union.txt.json"
    side.write_text(side.read_text().replace('"lex-canonical"', '"explicit-g2"'))
    proc = run_cli("special-set", "verify", "--dump", str(out), check=False)
    assert_input_error(proc)
    assert "explicit-g2" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("orders", "--g", "2", "--n", "15", "--q", "2"),
    ("series", "part-b", "--g", "2", "--e", "2", "--ell-max", "50"),
    ("simulate", "hit-frequency", "--n", "5", "--q", "2",
     "--samples", "400", "--seed", "1"),
])
def test_rerun_is_byte_identical(argv):
    assert run_cli(*argv).stdout == run_cli(*argv).stdout


def assert_input_error(proc):
    """Exit 2 (usage error, not verification failure) with one error line."""
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("ells,named", [("3,15", "15"), ("", "prime")])
def test_borel_cantelli_needs_a_list_of_primes(ells, named):
    proc = run_cli("simulate", "borel-cantelli", "--g", "2", "--q", "inf", "--ells", ells,
                   "--e", "2", "--samples", "50", "--seed", "1", check=False)
    assert_input_error(proc)
    assert named in proc.stderr


def test_independence_rejects_a_repeated_prime():
    proc = run_cli("simulate", "independence", "--n", "15", "--q", "2", "--ells", "3,3",
                   "--samples", "300", "--seed", "7", check=False)
    assert_input_error(proc)
    assert "joint-set-hit(3,3)" in proc.stderr


def test_verify_missing_dump_is_input_error(tmp_path):
    assert_input_error(run_cli("special-set", "verify", "--dump",
                               str(tmp_path / "missing.txt"), check=False))


def test_verify_sidecar_without_q_is_input_error(tmp_path):
    out = tmp_path / "core.txt"
    run_cli("special-set", "build", "--ell", "3", "--level", "core", "--lam", "1",
            "--out", str(out))
    side = tmp_path / "core.txt.json"
    sidecar = json.loads(side.read_text())
    del sidecar["q"]
    side.write_text(json.dumps(sidecar))
    proc = run_cli("special-set", "verify", "--dump", str(out), check=False)
    assert_input_error(proc)
    assert "q" in proc.stderr


def assert_main_input_error(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1, err
    return err


EVERY_COMMAND = [
    ["verify-counts", "--ells", "3"],
    ["special-set", "build", "--ell", "3", "--level", "core", "--lam", "1",
     "--out", "/nonexistent/dir/x.txt"],
    ["special-set", "verify", "--dump", "/nonexistent/dir/x.txt"],
    ["series", "part-a", "--ell-max", "10"],
    ["series", "part-b", "--ell-max", "10"],
    ["simulate", "hit-frequency", "--n", "5", "--q", "2", "--samples", "10", "--seed", "1"],
    ["simulate", "independence", "--n", "15", "--q", "2", "--samples", "10", "--seed", "1"],
    ["simulate", "mu-x", "--ell", "3", "--samples", "10", "--seed", "1"],
    ["simulate", "borel-cantelli", "--ells", "3", "--samples", "10", "--seed", "1"],
    ["orders", "--n", "15"],
    ["enumerate", "--ell", "3"],
]


@pytest.mark.parametrize("argv,named", [
    (["verify-counts", "--ells", "2,3"], "(ell-2)"),
    (["verify-counts", "--ells", "6"], "prime modulus"),
    (["verify-counts", "--ells", "3,17"], "--allow-large-ell"),
    (["verify-counts", "--ells", "7,7", "--q", "2"], "modulus 49 is not squarefree"),
    (["special-set", "build", "--ell", "17", "--level", "core", "--lam", "1",
      "--out", "/nonexistent/dir/x.txt"], "--allow-large-ell"),
    (["series", "part-a", "--g", "1", "--q", "2"], "g >= 2"),
    (["series", "part-b", "--e", "1"], "e >= 2"),
    (["simulate", "independence", "--n", "15", "--ells", "3,7", "--samples", "10",
      "--seed", "1"], "7 is not a prime factor of the modulus 15"),
], ids=["ell-2", "ell-6", "ell-17", "ell-7-repeated", "build-ell-17", "part-a-g-1", "part-b-e-1",
        "independence-ell-7"])
def test_library_rules_are_input_errors(argv, named, monkeypatch, capsys):
    # verify-counts checks every ell before its first check
    monkeypatch.setattr(cli, "_check", lambda *args, **kw: pytest.fail("a check ran"))
    assert named in assert_main_input_error(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["verify-counts", "--g", "2"],
    ["verify-counts", "--budget", "100000"],
    ["special-set", "build", "--g", "2", "--ell", "3", "--out", "/nonexistent/dir/x.txt"],
    ["simulate", "hit-frequency", "--g", "2", "--n", "5", "--seed", "1"],
    ["simulate", "hit-frequency", "--e", "1", "--n", "5", "--seed", "1"],
    ["simulate", "independence", "--g", "2", "--n", "15", "--seed", "1"],
], ids=lambda argv: " ".join(argv[:3]))
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: " ".join(argv[:2]))
def test_threads_below_one_is_input_error(argv, threads, capsys):
    assert "--threads" in assert_main_input_error(argv + ["--threads", threads], capsys)


SIMULATE = ["simulate", "hit-frequency", "--n", "5", "--q", "2", "--samples", "10"]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_is_input_error(seed, capsys):
    assert "--seed" in assert_main_input_error(SIMULATE + ["--seed", str(seed)], capsys)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_seed_at_the_64_bit_ends_is_accepted(seed, capsys):
    assert cli.main(SIMULATE + ["--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == seed


@pytest.mark.parametrize("argv", [
    ("orders", "--g", "2", "--n", "15", "--q", "2"),
    ("enumerate", "--g", "1", "--ell", "3"),
    ("special-set", "build", "--ell", "3", "--level", "core", "--lam", "1"),
])
def test_unwritable_out_is_input_error(argv):
    assert_input_error(run_cli(*argv, "--out", "/nonexistent/dir/x.json", check=False))


IDENTITY_4 = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"


def write_dump(path, header, lines, **sidecar):
    path.write_text("\n".join([header, *lines]) + "\n")
    fields = {"q": "inf", "level": "union", "strategy": "lex-canonical"}
    (path.parent / (path.name + ".json")).write_text(json.dumps({**fields, **sidecar}))


@pytest.mark.parametrize("g,n,header,line", [
    (2, 100000007, "# dim=4 mod=100000007", IDENTITY_4),
    (3, 7, "# dim=6 mod=7", ",".join("1" if i % 7 == 0 else "0" for i in range(36))),
], ids=["g2-n100000007", "g3-n7"])
def test_verify_rejects_unmaterializable_sidecar(tmp_path, g, n, header, line):
    # listing every unit mod 100000007 took GBs; the 6x6 case hit a traceback
    dump = tmp_path / "one.txt"
    write_dump(dump, header, [line], g=g, n=n, cardinality="1")
    proc = run_cli("special-set", "verify", "--dump", str(dump), check=False)
    assert_input_error(proc)
    assert proc.stdout == ""


def test_verify_checks_count_against_formula(tmp_path):
    # the identity is a similitude with multiplier 1 fixing every vector, and
    # the sidecar agrees with the dump; only the closed formula disagrees
    dump = tmp_path / "identity.txt"
    write_dump(dump, "# dim=4 mod=7", [IDENTITY_4], g=2, n=7, cardinality="1")
    proc = run_cli("special-set", "verify", "--dump", str(dump), check=False)
    assert proc.returncode == 1
    problems = json.loads(proc.stdout)["problems"]
    assert problems == ["cardinality mismatch: dump has 1, the closed formula gives "
                        "145706400"]


@pytest.fixture
def build_calls(monkeypatch):
    """Counts special-set builds; the stand-in builds nothing."""
    calls = []
    for name in ("build_core_set", "build_full_set", "build_union_set"):
        monkeypatch.setattr(specialsets, name, lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("blocked", ["out", "sidecar"])
def test_build_opens_outputs_before_building(tmp_path, capsys, build_calls, blocked):
    out = tmp_path / "set.txt"
    if blocked == "out":
        out = tmp_path / "missing" / "set.txt"
    else:
        out.write_bytes(b"earlier bytes\n")
        (tmp_path / "set.txt.json").mkdir()
    argv = ["special-set", "build", "--ell", "5", "--q", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert build_calls == []
    assert capsys.readouterr().err.startswith("error: cannot open")
    if blocked == "sidecar":
        assert out.read_bytes() == b"earlier bytes\n"


def test_failed_build_leaves_outputs_alone(tmp_path, monkeypatch, capsys):
    out = tmp_path / "kept.txt"
    out.write_bytes(b"earlier bytes\n")
    (tmp_path / "kept.txt.json").write_bytes(b"{}\n")

    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr(specialsets, "build_union_set", out_of_memory)
    assert cli.main(["special-set", "build", "--ell", "5", "--q", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "internal error: MemoryError: \n"
    assert out.read_bytes() == b"earlier bytes\n"
    assert (tmp_path / "kept.txt.json").read_bytes() == b"{}\n"


@pytest.mark.parametrize("argv", [
    ("--ell", "2"),
    ("--ell", "37"),
    ("--lam", "5", "--ell", "5", "--level", "core"),
    ("--lam", "2", "--ell", "5", "--q", "4", "--level", "core"),
    ("--lam", "3", "--ell", "5", "--q", "4", "--level", "full"),
])
def test_failed_build_validation_leaves_out_alone(tmp_path, capsys, build_calls, argv):
    out = tmp_path / "kept.txt"
    out.write_bytes(b"earlier bytes\n")
    assert cli.main(["special-set", "build", *argv, "--out", str(out)]) == 2
    assert build_calls == []
    assert out.read_bytes() == b"earlier bytes\n"
    assert not (tmp_path / "kept.txt.json").exists()
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["orders", "--n", "2305843009213693951"],                # 2**61 - 1
    ["orders", "--n", "4611686039902224373"],                # (2**31 - 1)(2**31 + 11)
    ["orders", "--n", "4611686014132420609"],                # (2**31 - 1)**2
    ["orders", "--n", "2305843009213693951", "--q", "3"],
    ["orders", "--n", "18446744073709551629"],               # the prime 2**64 + 13
    ["orders", "--n", "1267650600228159595702478963633"],    # (2**50 - 27)(2**50 - 35)
], ids=lambda argv: " ".join(argv[1:]))
def test_orders_at_large_moduli_answers_quickly(argv, capsys):
    refused = {"4611686014132420609": "not squarefree",
               "18446744073709551629": "2**64 or more",
               "1267650600228159595702478963633": "2**64 or more"}
    start = time.perf_counter()
    if argv[2] in refused:
        assert refused[argv[2]] in assert_main_input_error(argv, capsys)
    else:
        assert cli.main(argv) == 0 and json.loads(capsys.readouterr().out)["n"] == int(argv[2])
    assert time.perf_counter() - start < 1.0


def test_orders_at_a_large_prime_lists_no_units(child_peak):
    # counting the units mod 10000019 by listing them peaked at 414 MB
    proc, peak_kib = child_peak("from symon.cli import main\n"
                                "sys.exit(main(['orders', '--g', '2', '--n', '10000019']))\n")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "c55309be6e96b560c79324670d4fec4b42cb7758bfddce07d79eaed411fa2502"
    assert peak_kib < 100 * 1024


def test_series_csv_is_written_as_it_is_encoded(tmp_path, child_peak):
    # joining the 48 MB of lines into one string before writing peaked at 173 MB
    argv = ["series", "part-b", "--g", "2", "--e", "2", "--ell-max", "10000",
            "--format", "csv", "--out", str(tmp_path / "f")]
    _, peak_kib = child_peak(f"from symon.cli import main\nsys.exit(main({argv!r}))\n")
    assert hashlib.sha256((tmp_path / "f").read_bytes()).hexdigest() == \
        "087c5ca80b84c395a529b6051bc6f72a5327519b5a0ae40831efdde8e9180ec2"
    assert peak_kib < 100 * 1024


def test_verify_rejects_lam_outside_the_class_of_q(tmp_path):
    # 2 is no power of 4 mod 3; the dump itself is a valid lam-2 core layer,
    # and no lam-2 layer of the q=4 class exists to rebuild
    dump = tmp_path / "core.txt"
    run_cli("special-set", "build", "--ell", "3", "--level", "core", "--lam", "2",
            "--out", str(dump))
    side = tmp_path / "core.txt.json"
    side.write_text(json.dumps(dict(json.loads(side.read_text()), q=4)))
    for flags in ((), ("--rebuild",)):
        proc = run_cli("special-set", "verify", "--dump", str(dump), *flags, check=False)
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout)["problems"] == [
            "lam 2 is not in the multiplier class of q=4 mod 3"]


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\nsecond line")
    monkeypatch.setattr(cli, "cmd_orders", broken)
    assert cli.main(["orders", "--g", "2", "--n", "5"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom second line\n"


def test_batch_oracle_mismatch_exits_3(monkeypatch, capsys):
    # the benchmark's fault: a negated scalar membership test must not pass
    contains = DirectMembership.contains_rows
    monkeypatch.setattr(DirectMembership, "contains_rows",
                        lambda self, rows: not contains(self, rows))
    rc = cli.main(["simulate", "hit-frequency", "--n", "5", "--q", "2", "--samples", "300",
                   "--seed", "42"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: OracleMismatch: ")


@pytest.mark.parametrize("g,ell", [("3", "1999"), ("1", "70001")])
def test_simulate_rejects_primes_past_the_sampler_range(g, ell, capsys):
    # at g = 3, ell = 1999 the draw range ell**6 - 1 exceeds 2**64, where
    # the scalar sampler never accepts a draw (it used to hang here)
    argv = ["simulate", "mu-x", "--g", g, "--ell", ell, "--e", "1", "--samples", "5",
            "--seed", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: batch sampling at g=")


def test_set_hits_run_to_the_lane_sampler_cap(capsys):
    # DirectMembership decides pool membership in closed form, so a set hit
    # runs past ell = 97, where its pool scan once stopped it; the lane
    # sampler's cap ell**4 <= 2**63 (ell <= 55,103) is the only limit left
    for ell, rc in (("101", 0), ("65521", 2)):
        for argv in (["simulate", "hit-frequency", "--n", ell, "--q", "2", "--samples", "10",
                      "--seed", "1"],
                     ["simulate", "borel-cantelli", "--ells", f"3,{ell}", "--e", "1",
                      "--samples", "10", "--seed", "1"]):
            assert cli.main(argv) == rc
            captured = capsys.readouterr()
            if rc == 0:
                assert json.loads(captured.out) and captured.err == ""
            else:
                assert captured.out == ""
                assert captured.err == ("error: batch sampling at g=2 needs ell < 65536 and "
                                        "ell**4 <= 2**63, got ell=65521\n")


@pytest.fixture(scope="module")
def core_dump(tmp_path_factory):
    """The ell=3, lam=1 core dump as built: its lines and its sidecar text."""
    out = tmp_path_factory.mktemp("core") / "core.txt"
    run_cli("special-set", "build", "--ell", "3", "--q", "inf", "--level", "core",
            "--lam", "1", "--out", str(out))
    return out.read_text().splitlines(), (out.parent / "core.txt.json").read_text()


def verify_edited_core_dump(tmp_path, core_dump, edit, *flags):
    """special-set verify on the core dump with its lines edited, sidecar kept."""
    lines, sidecar = core_dump
    dump = tmp_path / "core.txt"
    dump.write_text("\n".join(edit(list(lines))) + "\n")
    (tmp_path / "core.txt.json").write_text(sidecar)
    return run_cli("special-set", "verify", "--dump", str(dump), *flags, check=False)


def _with_entries(line, edits):
    """A dump line with the tokens at the given positions replaced."""
    vals = line.split(",")
    for k, v in edits.items():
        vals[k] = v
    return ",".join(vals)


def test_verify_rejects_non_canonical_entries(tmp_path, core_dump):
    # 4 and -2 reduce to the member's own 1 and 1 mod 3, so a reader that
    # reduces entries mod n loads the very same set; the format asks for
    # entries in [0, n), and a dump that breaks it must not verify
    first = core_dump[0][1].split(",")
    assert first[0] == "1" and first[5] == "1"

    def edit(ls):
        return ls[:1] + [_with_entries(ls[1], {0: "4", 5: "-2"})] + ls[2:]

    proc = verify_edited_core_dump(tmp_path, core_dump, edit, "--rebuild")
    assert proc.returncode == 1, proc.stdout
    report = json.loads(proc.stdout)
    assert report["status"] == "fail" and report["problems"]
    assert proc.stderr == ""


CORRUPT_DUMPS = {
    "ragged-line": lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0]] + ls[3:],
    "float-token": lambda ls: ls[:2] + [_with_entries(ls[2], {3: "3.0"})] + ls[3:],
    "letter-token": lambda ls: ls[:2] + [_with_entries(ls[2], {3: "x"})] + ls[3:],
    "trailing-comma": lambda ls: ls[:2] + [ls[2] + ","] + ls[3:],
    "comment-in-body": lambda ls: ls[:100] + ["# dim=4 mod=3"] + ls[100:],
    "header-mod-differs": lambda ls: ["# dim=4 mod=5"] + ls[1:],
    "header-dim-differs": lambda ls: ["# dim=2 mod=3"] + ls[1:],
    "header-only": lambda ls: ls[:1],
    # tokens that read as the entries they replace (line 2 starts "1,0,"),
    # so the set loads unchanged, but that no canonical dump holds
    "leading-zero": lambda ls: ls[:1] + [_with_entries(ls[1], {0: "01"})] + ls[2:],
    "plus-sign": lambda ls: ls[:1] + [_with_entries(ls[1], {0: "+1"})] + ls[2:],
    "leading-space": lambda ls: ls[:1] + [_with_entries(ls[1], {0: " 1"})] + ls[2:],
    "trailing-space": lambda ls: ls[:1] + [_with_entries(ls[1], {0: "1 "})] + ls[2:],
    "minus-zero": lambda ls: ls[:1] + [_with_entries(ls[1], {1: "-0"})] + ls[2:],
    "crlf-line-end": lambda ls: ls[:1] + [ls[1] + "\r"] + ls[2:],
}


@pytest.mark.parametrize("corrupt", CORRUPT_DUMPS)
def test_verify_reports_a_corrupt_dump(tmp_path, core_dump, corrupt):
    # a verification failure (exit 1, problems listed), never an internal
    # error, and nothing on stderr: no traceback and no numpy warning
    proc = verify_edited_core_dump(tmp_path, core_dump, CORRUPT_DUMPS[corrupt])
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "fail" and report["problems"]
    assert proc.stderr == ""


def test_orders_print_past_the_default_digit_cap():
    # the 46 primes up to 200 at g = 8: the class order has 11,218 digits,
    # past CPython's default int-to-str cap of 4,300
    n = math.prod(primes_upto(200))
    out = json.loads(run_cli("orders", "--g", "8", "--n", str(n)).stdout)
    assert len(out["class_order"]) == 11_218
    assert out["class_order"] == int_str(gsp_q_order(GroupContext.of(8, n)))


def test_cli_uses_only_public_library_names():
    # the CLI parses, opens files and prints; what a layer is, and how its
    # files are read and checked, stays behind the library's public names
    tree = ast.parse(Path(cli.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            private += [a.name for a in node.names if a.name.startswith("symon._")]
        elif isinstance(node, ast.ImportFrom) and (node.level or
                                                   (node.module or "").startswith("symon")):
            module = node.module or ""
            if module.startswith("_") or module.startswith("symon._"):
                private.append(module)
            private += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


SIDECAR_KEYS = ["g", "n", "q", "level", "strategy", "cardinality", "lam"]
WRONG_TYPES = st.sampled_from([None, True, 2.5, "", "x", [], {}, -1])


def _garble(lines, data):
    at = data.draw(st.sampled_from([k for k, line in enumerate(lines) if line]))
    pos = data.draw(st.integers(0, len(lines[at]) - 1))
    new = data.draw(st.sampled_from("0123456789,-x. #=").filter(lambda c: c != lines[at][pos]))
    lines[at] = lines[at][:pos] + new + lines[at][pos + 1:]


def _duplicate(lines, data):
    at = data.draw(st.integers(0, len(lines) - 1))
    lines.insert(data.draw(st.integers(1, len(lines))), lines[at])


def _cut_line(lines, data):
    at = data.draw(st.sampled_from([k for k, line in enumerate(lines) if line]))
    lines[at] = lines[at][:data.draw(st.integers(0, len(lines[at]) - 1))]


def _cut_file(lines, data):
    del lines[data.draw(st.integers(0, len(lines) - 1)):]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_verify_survives_a_corrupted_core_dump(core_dump, tmp_path_factory, data):
    # every corruption is an input error (2, one error line) or a
    # verification failure (1); none is an internal error (3) or passes
    lines, sidecar_text = core_dump
    lines, sidecar = list(lines), json.loads(sidecar_text)
    edits = data.draw(st.lists(st.sampled_from(["drop", "retype", "garble", "duplicate",
                                                "cut-line", "cut-file"]),
                               min_size=1, max_size=3))
    for edit in edits:
        if edit in ("drop", "retype"):
            key = data.draw(st.sampled_from([k for k in SIDECAR_KEYS if k in sidecar]))
            if edit == "drop":
                del sidecar[key]
            else:
                sidecar[key] = data.draw(WRONG_TYPES)
        elif any(lines):    # an edit that emptied the dump leaves nothing to edit
            {"garble": _garble, "duplicate": _duplicate, "cut-line": _cut_line,
             "cut-file": _cut_file}[edit](lines, data)
    # two edits can cancel, say a line duplicated last and the last line cut,
    # or a line duplicated and the copy cut to an empty line, which the
    # reader skips past the header (an empty first line is still corrupt)
    assume((lines[:1] + [line for line in lines[1:] if line], sidecar)
           != (list(core_dump[0]), json.loads(sidecar_text)))
    dump = tmp_path_factory.mktemp("fuzz") / "core.txt"
    dump.write_text("".join(line + "\n" for line in lines))
    (dump.parent / "core.txt.json").write_text(json.dumps(sidecar))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["special-set", "verify", "--dump", str(dump), "--rebuild"])
    assert rc in (1, 2), (edits, rc, err.getvalue())
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), err.getvalue()
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    else:
        assert json.loads(out.getvalue())["problems"]
