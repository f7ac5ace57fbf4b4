import dataclasses
import decimal
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from symon import analysis
from symon.analysis import (
    SeriesReport,
    SeriesRow,
    admissible_primes,
    density_ratio,
    int_str,
    nth_root_floor,
    part_a_series,
    part_b_series,
    part_b_term,
    pow_enclosure,
    primes_upto,
)
from symon.montecarlo import SetHitEvent, estimate_events
from symon.specialsets import DirectMembership, build_full_set, union_cardinality
from symon.sympgroup import GroupContext, INFINITY, gsp_q_order, sp_order


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []
    assert len(primes_upto(10_000)) == 1229


@given(st.integers(0, 10**40), st.integers(1, 9))
@settings(max_examples=120, deadline=None)
def test_nth_root_floor(x, n):
    r = nth_root_floor(x, n)
    assert r ** n <= x < (r + 1) ** n


def test_pow_enclosure_exact_square():
    lo, hi = pow_enclosure(49, 1, 2)
    assert lo <= 7 <= hi
    assert hi - lo <= Fraction(1, 10**17)
    lo, hi = pow_enclosure(49, -1, 2)
    assert lo <= Fraction(1, 7) <= hi


def test_density_examples():
    assert density_ratio(2, 5, 2) == Fraction(909000, 9360000) == Fraction(101, 1040)
    assert density_ratio(2, 5, INFINITY) == Fraction(101, 1040)
    assert density_ratio(2, 3, 2) == Fraction(4104, 51840)
    with pytest.raises(ValueError):
        density_ratio(2, 2, INFINITY)
    with pytest.raises(ValueError):
        density_ratio(1, 5, 2)
    with pytest.raises(ValueError):
        density_ratio(2, 5, 5)


def test_density_matches_materialized():
    # density_ratio, the closed-formula count, the count of the pool that
    # DirectMembership decides against and the exact value a set-hit
    # estimate reports must all be the density of one and the same set
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for q in (2, INFINITY):
            ctx = GroupContext.of(2, ell, q)
            ratio = density_ratio(2, ell, q)
            assert ratio == Fraction(union_cardinality(2, ell, q), gsp_q_order(ctx))
            assert ratio == Fraction(DirectMembership(ctx).cardinality, gsp_q_order(ctx))
            est = estimate_events(ctx, [SetHitEvent(ell)], 1, 10, 1)[0]
            assert est.exact_value == ratio
    for ell in (3, 5):
        ratio = Fraction(union_cardinality(2, ell, 2),
                         gsp_q_order(GroupContext.of(2, ell, 2)))
        assert density_ratio(2, ell, 2) == ratio
        s = build_full_set(GroupContext.of(2, ell, 2), 2)
        assert density_ratio(2, ell, 2) == Fraction(s.cardinality, sp_order(2, ell))


def test_admissible_primes():
    assert admissible_primes(2, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert admissible_primes(9, 20) == [5, 7, 11, 13, 17, 19]
    assert admissible_primes(INFINITY, 10) == [3, 5, 7]


def test_part_a_series_shape():
    rep = part_a_series(2, 2, 200)
    assert rep.kind == "part-a"
    assert all(r.ell != 2 for r in rep.rows)
    sums = [r.partial for r in rep.rows]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert sums[-1] == sum(r.term for r in rep.rows)
    for r in rep.rows:
        assert 0 < r.term < 1
        assert 0 < r.diagnostic < 1
        assert r.diagnostic == r.term * r.ell
    with pytest.raises(ValueError):
        part_a_series(1, 2, 100)


def test_part_a_diagnostic_increasing_from_3():
    rep = part_a_series(2, INFINITY, 500)
    diag = [r.diagnostic for r in rep.rows]
    assert all(b > a for a, b in zip(diag, diag[1:]))


def test_part_b_term_spot_values():
    # (2g)th root contract: term encloses pref / s^(e/2g) from above within 1e-12
    for g, e, ell in ((2, 2, 5), (1, 2, 3), (2, 3, 7), (3, 2, 5)):
        term = part_b_term(g, e, ell)
        pref = Fraction(ell ** (2 * g) - 1, ell - 1)
        s = sp_order(g, ell)
        # term >= pref * s^(-e/2g):   (term/pref)^(2g) * s^e >= 1
        assert (term / pref) ** (2 * g) * s ** e >= 1
        # term <= (1 + 1e-12) * exact
        shrunk = term / (1 + Fraction(1, 10**12))
        assert (shrunk / pref) ** (2 * g) * s ** e <= 1
    # the g=1, e=2 case reduces to pref / s exactly: 4/24
    t = part_b_term(1, 2, 3)
    assert abs(t - Fraction(1, 6)) <= Fraction(1, 10**12)


def test_part_b_diag_decreasing_toward_one():
    rep = part_b_series(2, 2, 500)
    rows = [r for r in rep.rows if r.ell >= 5]
    diag = [r.diagnostic for r in rows]
    assert all(a > b for a, b in zip(diag, diag[1:]))
    assert all(d > 1 for d in diag)
    for r in rows:
        # diagnostic is term * ell^2 here
        assert abs(r.diagnostic - r.term * r.ell ** 2) <= r.diagnostic / 10**12


def test_part_b_envelope_and_domination():
    rep2 = part_b_series(2, 2, 300)
    for r in rep2.rows:
        if r.ell >= 5:
            assert r.term < Fraction(2, r.ell ** 2)
    rep3 = part_b_series(2, 3, 300)
    t2 = {r.ell: r.term for r in rep2.rows}
    for r in rep3.rows:
        assert r.term < t2[r.ell]


def test_part_b_tail_bound_brackets_later_terms():
    rep = part_b_series(2, 2, 2000)
    cut = part_b_series(2, 2, 100)
    later = sum(r.term for r in rep.rows if r.ell > 100)
    assert later <= cut.tail_bound


def test_report_dict_and_csv():
    rep = part_b_series(2, 2, 30)
    d = rep.as_report_dict()
    assert d["kind"] == "part-b" and d["e"] == 2 and "q" not in d
    assert len(d["rows"]) == len(rep.rows)
    assert "tail_bound" in d
    lines = list(rep.csv_lines())
    assert lines[0].startswith("ell,term_num")
    assert len(lines) == 1 + len(rep.rows)
    da = part_a_series(2, 2, 30).as_report_dict()
    assert da["q"] == 2 and "e" not in da


def test_part_b_rejects_small_e():
    with pytest.raises(ValueError):
        part_b_series(2, 1, 100)
    with pytest.raises(ValueError):
        part_b_term(2, 1, 5)


LEAF = 2048     # the width below which int_str is plain str


def _random_int(bits, seed):
    return random.Random(seed).getrandbits(bits)


# the sizes int_str's divide and conquer splits at: ints around the leaf
# width and around its power-of-two multiples, powers of ten (long runs of
# zero digits in the low half), and random ints up to about 10**5 digits
BIG_INTS = st.one_of(
    st.integers(-10**40, 10**40),
    st.builds(lambda k, d: 2 ** k + d, st.sampled_from([LEAF << j for j in range(6)])
              | st.integers(LEAF - 70, LEAF + 70), st.integers(-2, 2)),
    st.builds(lambda k, d: 10 ** k + d, st.integers(600, 30_000), st.integers(-1, 1)),
    st.builds(_random_int, st.integers(0, 332_000), st.integers(0, 2**32)),
)


@given(BIG_INTS, st.booleans())
@settings(max_examples=120, deadline=None)
@example(0, False)
@example(2 ** LEAF, True)
@example(2 ** (LEAF << 3) - 1, False)
@example(10 ** 100_000, False)
def test_int_str_matches_str(n, negate):
    n = -n if negate else n
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)     # the oracle str() needs the cap lifted
    try:
        want = str(n)
    finally:
        sys.set_int_max_str_digits(cap)
    assert int_str(n) == want


def test_int_str_leaves_the_digit_cap_and_decimal_context_alone():
    cap = sys.get_int_max_str_digits()
    ctx = decimal.getcontext()
    prec, traps = ctx.prec, dict(ctx.traps)
    text = int_str(7 ** 20_000)        # 16,902 digits, past the default cap of 4,300
    assert len(text) == 16_902 and text.startswith("9136")
    assert sys.get_int_max_str_digits() == cap
    assert decimal.getcontext() is ctx and (ctx.prec, dict(ctx.traps)) == (prec, traps)


def test_import_keeps_the_interpreter_digit_cap():
    code = ("import sys\n"
            "before = sys.get_int_max_str_digits()\n"
            "import symon, symon.analysis, symon.cli\n"
            "print(before, sys.get_int_max_str_digits())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    before, after = proc.stdout.split()
    assert after == before


def _int_str_rows(rep):
    """Every row's fields, each integer converted from scratch by int_str."""
    return [[str(r.ell)] + [int_str(x) for f in (r.term, r.partial, r.diagnostic)
                            for x in (f.numerator, f.denominator)] for r in rep.rows]


def _rendered_rows(rep):
    """The same fields as the JSON report and as the CSV report print them."""
    as_dict = [[str(row["ell"]), row["term_num"], row["term_den"], row["partial_num"],
                row["partial_den"], *row["diagnostic"].split("/")]
               for row in rep.as_report_dict()["rows"]]
    as_csv = [line.split(",") for line in list(rep.csv_lines())[1:]]
    return as_dict, as_csv


def _no_conversion(*args):
    raise AssertionError("a partial sum was converted from scratch")


SERIES_CASES = (
    [("a", g, q, 600) for g in (2, 3) for q in (2, 3, 4, INFINITY)]
    + [("b", g, e, 600) for g in (1, 2, 3) for e in (2, 3, 4)]
    + [("a", 2, 3, 3), ("a", 2, 2, 3), ("b", 2, 2, 1), ("b", 2, 2, 2), ("b", 1, 3, 60)]
)


@pytest.mark.parametrize("kind,g,param,ell_max", SERIES_CASES, ids=str)
def test_carried_partials_match_int_str(kind, g, param, ell_max, monkeypatch):
    series = part_a_series if kind == "a" else part_b_series
    rep = series(g, param, ell_max)
    want = _int_str_rows(rep)
    # the running sum starts at 0/1, so no partial of a computed series is
    # converted from scratch; 11 of these cases pass int_str's 2048-bit leaf
    monkeypatch.setattr(analysis, "_to_decimal", _no_conversion)
    as_dict, as_csv = _rendered_rows(rep)
    assert as_dict == want
    assert as_csv == want


def _fallback_cases():
    rep = part_b_series(2, 2, 600)
    rows = list(rep.rows)
    bumped = dataclasses.replace(rows[50], partial=rows[50].partial + Fraction(1, 7))
    return {
        "reversed": rows[::-1],
        "mid-series": rows[40:],
        "one-perturbed": rows[:50] + [bumped] + rows[51:],
    }


@pytest.mark.parametrize("case", ["reversed", "mid-series", "one-perturbed"])
def test_partials_not_a_running_sum_fall_back_to_int_str(case):
    rows = _fallback_cases()[case]
    rep = dataclasses.replace(part_b_series(2, 2, 5), rows=tuple(rows))
    assert max(r.partial.denominator.bit_length() for r in rows) > LEAF
    want = _int_str_rows(rep)
    as_dict, as_csv = _rendered_rows(rep)
    assert as_dict == want
    assert as_csv == want


RATIONALS = st.one_of(
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-10**700, 10**700), st.integers(1, 10**700)),
)


@given(st.lists(st.tuples(RATIONALS, st.none() | RATIONALS), max_size=12))
@settings(max_examples=80, deadline=None)
def test_partials_of_arbitrary_rows_match_int_str(steps):
    # each row adds its term to the running sum, or jumps to an unrelated
    # partial; signs, zeros and ints past the leaf width all occur
    rows, partial = [], Fraction(0)
    for ell, (term, jump) in enumerate(steps):
        partial = partial + term if jump is None else jump
        rows.append(SeriesRow(ell, term, partial, term))
    rep = SeriesReport("part-b", 1, len(rows), None, 2, tuple(rows), None)
    want = _int_str_rows(rep)
    assert list(_rendered_rows(rep)) == [want, want]
