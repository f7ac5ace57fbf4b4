import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symon import _gf, montecarlo
from symon.modmat import ModMatrix, Modulus, minus_identity, rank_mod, reduce_mod
from symon.montecarlo import (
    FixedVectorEvent,
    JointSetHitEvent,
    OracleMismatch,
    SampleTuple,
    SetHitEvent,
    borel_cantelli_experiment,
    common_fixed_upper_bound,
    estimate_event,
    estimate_events,
    exact_common_fixed_fraction,
    has_common_fixed_vector,
    sample_tuple,
)
from symon.prng import CounterLanes, CounterRng
from symon.specialsets import DirectMembership, build_full_set, build_union_set
from symon.sympgroup import (
    GroupContext,
    INFINITY,
    enumerate_group,
    is_member,
    multiplier,
    sample_entries,
    sample_entries_lanes,
    stabilizer_matrix,
    StabilizerParams,
)


def test_sample_tuple_membership_and_multipliers():
    ctx = GroupContext.of(2, 15, 2)
    powers = set(ctx.multiplier_values())
    for index in range(200):
        sig = sample_tuple(ctx, 2, 99, index)
        for el in sig.elements:
            assert is_member(ctx, el)
            assert multiplier(ctx, el) in powers


def test_sample_tuple_determinism():
    ctx = GroupContext.of(2, 15, 2)
    assert sample_tuple(ctx, 3, 5, 17) == sample_tuple(ctx, 3, 5, 17)
    assert sample_tuple(ctx, 3, 5, 17) != sample_tuple(ctx, 3, 5, 18)


def test_event_all_identity():
    ctx = GroupContext.of(2, 15, 2)
    eye = ModMatrix.identity(Modulus.of(15), 4)
    sig = SampleTuple(ctx, (eye, eye), 0, 0)
    assert has_common_fixed_vector(sig, 3)
    assert has_common_fixed_vector(sig, 5)
    with pytest.raises(ValueError):
        has_common_fixed_vector(sig, 7)


def test_set_members_trigger_event():
    # single-slot tuples whose element is in the set always fix a vector;
    # exhaustive over the materialized layer
    ctx = GroupContext.of(2, 3, 2)
    s = build_full_set(ctx, 2)
    count = 0
    for m in s:
        sig = SampleTuple(ctx, (m,), 0, 0)
        assert has_common_fixed_vector(sig, 3)
        count += 1
    assert count == 4104


def test_fixed_point_free_pair():
    # one matrix fixes only the e1 line, the other only the shear image of
    # it, so the pair has trivial common fixed space
    ctx = GroupContext.of(2, 3)
    m3 = Modulus.of(3)
    blk = ModMatrix.from_rows(m3, [[0, 1], [2, 0]])   # det 1, no eigenvalue 1
    a = stabilizer_matrix(ctx, StabilizerParams(1, 1, (0, 0), blk))
    from symon.sympgroup import transvection
    from symon.modmat import mat_mul
    t = transvection(ctx, (0, 0), 1)
    tinv = transvection(ctx, (0, 0), -1)
    b = mat_mul(mat_mul(tinv, a), t)
    sig = SampleTuple(ctx, (a, b), 0, 0)
    assert not has_common_fixed_vector(sig, 3)


def brute_force_fraction(g, ell, q, e):
    """Oracle: enumerate all e-tuples and test ranks directly."""
    ctx = GroupContext.of(g, ell, q)
    mats = [m.rows for m in enumerate_group(ctx)]
    dim = 2 * g
    hits = 0
    for tup in itertools.product(mats, repeat=e):
        stacked = []
        for rows in tup:
            for i, row in enumerate(rows):
                stacked.append([(x - (1 if i == j else 0)) % ell
                                for j, x in enumerate(row)])
        hits += rank_mod(stacked, ell) < dim
    return Fraction(hits, len(mats) ** e)


@pytest.mark.parametrize("ell,q,e", [(3, INFINITY, 1), (3, INFINITY, 2), (5, 2, 2)])
def test_exact_fraction_against_brute_force(ell, q, e):
    ctx = GroupContext.of(1, ell, q)
    assert exact_common_fixed_fraction(ctx, ell, e) == brute_force_fraction(1, ell, q, e)


def test_exact_fraction_known_value():
    assert exact_common_fixed_fraction(GroupContext.of(1, 3), 3, 2) == Fraction(141, 2304)


def test_exact_fraction_monotone_in_e():
    ctx = GroupContext.of(1, 5, 2)
    vals = [exact_common_fixed_fraction(ctx, 5, e) for e in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_exact_fraction_below_union_bound():
    for ell in (3, 5, 7):
        for e in (1, 2, 3):
            ctx = GroupContext.of(1, ell)
            assert exact_common_fixed_fraction(ctx, ell, e) \
                <= common_fixed_upper_bound(ctx, ell, e)


def test_exact_fraction_rejects_higher_genus():
    with pytest.raises(ValueError):
        exact_common_fixed_fraction(GroupContext.of(2, 3), 3, 2)


def test_union_bound_value_and_monotonicity():
    ctx = GroupContext.of(2, 3)
    b = common_fixed_upper_bound(ctx, 3, 2)
    # 40 / sqrt(103680): check via exact squaring, allowing enclosure slack
    assert b ** 2 * 103680 >= 40 ** 2
    assert (b / (1 + Fraction(1, 10**12))) ** 2 * 103680 <= 40 ** 2
    bounds = [common_fixed_upper_bound(ctx, 3, e) for e in (1, 2, 3, 4)]
    assert all(a > b_ for a, b_ in zip(bounds, bounds[1:]))


def test_estimate_events_threads_invariant(small_chunks):
    # 7 chunks, so every thread count up to 4 splits them among its workers
    ctx = GroupContext.of(2, 15, 2)
    events = [SetHitEvent(3), SetHitEvent(5), JointSetHitEvent((3, 5))]
    assert -(-400 // montecarlo.CHUNK) == 7
    one = estimate_events(ctx, events, 1, 400, 123, threads=1)
    for threads in (2, 3, 4):
        assert estimate_events(ctx, events, 1, 400, 123, threads=threads) == one
    assert all(e.hits for e in one)


def test_estimate_exact_attachments():
    ctx = GroupContext.of(2, 5, 2)
    est = estimate_event(ctx, SetHitEvent(5), 1, 500, 3)
    assert est.exact_value == Fraction(101, 1040)
    assert est.bound is None
    est = estimate_event(GroupContext.of(1, 3), FixedVectorEvent(3), 2, 500, 3)
    assert est.exact_value == Fraction(141, 2304)
    assert est.bound is not None
    est = estimate_event(GroupContext.of(2, 3), FixedVectorEvent(3), 2, 300, 3)
    assert est.exact_value is None and est.bound is not None


def test_estimate_tracks_exact_value():
    ctx = GroupContext.of(1, 3)
    est = estimate_event(ctx, FixedVectorEvent(3), 2, 20_000, 2026)
    assert abs(float(est.estimate) - float(est.exact_value)) <= 4 * est.std_error


def test_set_hit_requires_slot_one():
    ctx = GroupContext.of(2, 5, 2)
    with pytest.raises(ValueError):
        estimate_event(ctx, SetHitEvent(5), 2, 100, 1)


@pytest.mark.parametrize("ell", [7, 15])
def test_event_prime_must_be_a_prime_factor(ell):
    with pytest.raises(ValueError, match=f"^{ell} is not a prime factor of the modulus 15$"):
        estimate_events(GroupContext.of(2, 15, 2), [FixedVectorEvent(ell)], 2, 10, 1)


@pytest.fixture
def small_chunks(monkeypatch):
    # several chunks per run, so chunk edges and per-chunk replays are hit
    monkeypatch.setattr(montecarlo, "CHUNK", 64)


def _manual_set_hits(ctx, seed, n):
    """Per-index slot-one set hits at every prime, through sample_tuple."""
    testers = {ell: DirectMembership(ctx.restrict(ell)) for ell in ctx.modulus.primes}
    return [{ell: testers[ell].contains(reduce_mod(sample_tuple(ctx, 1, seed, i).elements[0], ell))
             for ell in testers} for i in range(n)]


def test_estimate_event_matches_manual_replay(small_chunks):
    # the estimator consumes the same per-index streams as sample_tuple
    ctx = GroupContext.of(2, 3, 2)
    n = 300
    manual = sum(hit[3] for hit in _manual_set_hits(ctx, 44, n))
    est = estimate_event(ctx, SetHitEvent(3), 1, n, 44)
    assert est.hits == manual


def test_joint_estimates_match_manual_replay(small_chunks):
    ctx = GroupContext.of(2, 15, 2)
    n = 300
    hits = _manual_set_hits(ctx, 45, n)
    events = [SetHitEvent(3), SetHitEvent(5), JointSetHitEvent((3, 5))]
    ests = estimate_events(ctx, events, 1, n, 45)
    assert [est.hits for est in ests] == [sum(h[3] for h in hits), sum(h[5] for h in hits),
                                          sum(h[3] and h[5] for h in hits)]
    assert ests[2].hits > 0


@pytest.mark.parametrize("g,n,q,e", [(1, 3, INFINITY, 2), (2, 3, 2, 1), (1, 15, 2, 1)])
def test_fixed_vector_estimates_match_manual_replay(small_chunks, g, n, q, e):
    ctx = GroupContext.of(g, n, q)
    samples = 300
    events = [FixedVectorEvent(ell) for ell in ctx.modulus.primes]
    ests = estimate_events(ctx, events, e, samples, 46)
    sigs = [sample_tuple(ctx, e, 46, i) for i in range(samples)]
    assert [est.hits for est in ests] == [sum(has_common_fixed_vector(sig, ev.ell) for sig in sigs)
                                          for ev in events]
    assert all(est.hits > 0 for est in ests)


@pytest.mark.parametrize("q,e", [(2, 1), (INFINITY, 2)])
def test_borel_cantelli_matches_manual_replay(small_chunks, q, e):
    ells = (3, 5, 7)
    n = 200
    rep = borel_cantelli_experiment(2, q, ells, e, n, 47)
    ctxs = {ell: GroupContext.of(2, ell, q) for ell in ells}
    testers = {ell: DirectMembership(ctxs[ell]) for ell in ells}
    hist, per_ell = {}, dict.fromkeys(ells, 0)
    for index in range(n):
        rng = CounterRng(47, index)
        count = 0
        for ell in ells:
            values = ctxs[ell].multiplier_values()
            mats = [sample_entries(2, ell, values[rng.below(len(values))], rng) for _ in range(e)]
            if e == 1:
                hit = testers[ell].contains_rows(mats[0])
            else:
                hit = rank_mod([r for m in mats for r in minus_identity(m, ell)], ell) < 4
            per_ell[ell] += hit
            count += hit
        hist[count] = hist.get(count, 0) + 1
    assert rep.hist == hist
    assert [est.hits for est in rep.per_ell] == [per_ell[ell] for ell in ells]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([3, 5, 7, 13, 15, 35]),
       st.sampled_from([2, INFINITY]), st.integers(1, 3), st.integers(0, 2**64 - 1),
       st.integers(0, 2**63))
def test_lane_sampler_matches_sample_tuple(g, n, q, e, seed, start):
    ctx = GroupContext.of(g, n, q)
    indexes = [start + k for k in range(24)]
    lanes = CounterLanes(seed, np.array(indexes, dtype=np.uint64))
    by_prime = montecarlo._draw_lanes_by_prime(ctx, e, lanes)
    assert not lanes.rejected.any()
    for k, index in enumerate(indexes):
        sig = sample_tuple(ctx, e, seed, index)
        for ell in ctx.modulus.primes:
            for slot, el in enumerate(sig.elements):
                got = by_prime[ell][slot][..., k].tolist()
                assert got == [list(r) for r in reduce_mod(el, ell).rows]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5, 7, 13, 15, 35]), st.sampled_from([2, INFINITY]),
       st.integers(0, 2**64 - 1))
def test_lane_membership_matches_contains_rows(n, q, seed):
    ctx = GroupContext.of(2, n, q)
    for ell in ctx.modulus.primes:
        direct = DirectMembership(ctx.restrict(ell))
        lanes = CounterLanes(seed, np.arange(400, dtype=np.uint64))
        values = np.array(ctx.restrict(ell).multiplier_values())
        a = sample_entries_lanes(2, ell, values[lanes.below(len(values))], lanes)
        # non-similitudes and similitudes with a multiplier outside the class
        a[..., ::9] = (a[..., ::9] + np.eye(4, dtype=np.int64)[..., None]) % ell
        a[:, 0, 1::9] = a[:, 0, 1::9] * 2 % ell
        got = direct.contains_lanes(a)
        assert got.tolist() == [direct.contains_rows(m.tolist()) for m in np.moveaxis(a, -1, 0)]


@pytest.mark.parametrize("ell,q,members", [(3, 2, None), (3, INFINITY, None), (5, 2, 10_000)])
def test_lane_membership_on_materialized_members(ell, q, members):
    ctx = GroupContext.of(2, ell, q)
    keys = build_union_set(ctx).keys
    if members is not None:
        pick = np.random.default_rng(ell).choice(keys.shape[0], members, replace=False)
        keys = keys[np.sort(pick)]
    a = _gf.unpack_entries(keys, ell, 16).reshape(-1, 4, 4)
    direct = DirectMembership(ctx)
    assert direct.contains_lanes(np.moveaxis(a, 0, -1)).all()
    assert all(direct.contains_rows(m.tolist()) for m in a)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([3, 5, 7, 13, 15, 35]),
       st.integers(1, 3), st.integers(0, 2**64 - 1))
def test_lane_stacked_rank_matches_rank_mod(g, n, e, seed):
    ctx = GroupContext.of(g, n)
    lanes = CounterLanes(seed, np.arange(60, dtype=np.uint64))
    by_prime = montecarlo._draw_lanes_by_prime(ctx, e, lanes)
    for ell, slots in by_prime.items():
        # repeating slot one makes the event about one matrix, so it occurs
        slots = [slots[0]] * e if seed % 2 else slots
        eye = np.eye(ctx.dim, dtype=np.int64)[..., None]
        ranks = _gf.batch_rank(np.concatenate([m - eye for m in slots]), ell)
        for k in range(60):
            rows = [r for m in slots for r in minus_identity(m[..., k].tolist(), ell)]
            assert int(ranks[k]) == rank_mod(rows, ell)


def test_rejected_lanes_rerun_through_the_scalar_path(small_chunks, monkeypatch):
    ctx = GroupContext.of(2, 15, 2)
    events = [SetHitEvent(3), SetHitEvent(5), JointSetHitEvent((3, 5))]
    n = 150                                   # chunks [0, 64), [64, 128), [128, 150)
    want = estimate_events(ctx, events, 1, n, 48)
    hits = _manual_set_hits(ctx, 48, n)
    assert [est.hits for est in want] == [sum(h[3] for h in hits), sum(h[5] for h in hits),
                                          sum(h[3] and h[5] for h in hits)]
    flagged = [0, 5, 63, 64, 127, 128, 149]   # first and last lanes of every chunk

    class Flagging(CounterLanes):
        """Lanes whose chosen indexes draw from the rejection zone every time."""

        def __init__(self, seed, indexes):
            super().__init__(seed, indexes)
            self.mark = np.isin(indexes.astype(np.int64), flagged)

        def below(self, n):
            value = super().below(n)
            self.rejected |= self.mark
            return np.where(self.mark, (value + 1) % n, value)   # a rejected draw means nothing

    replayed = []

    def recording_rng(seed, index):
        replayed.append(index)
        return CounterRng(seed, index)

    monkeypatch.setattr(montecarlo, "CounterLanes", Flagging)
    monkeypatch.setattr(montecarlo, "CounterRng", recording_rng)
    assert estimate_events(ctx, events, 1, n, 48) == want
    assert set(flagged) <= set(replayed)


def test_oracle_disagreement_raises(monkeypatch):
    contains = DirectMembership.contains_rows
    monkeypatch.setattr(DirectMembership, "contains_rows",
                        lambda self, rows: not contains(self, rows))
    with pytest.raises(OracleMismatch, match="sample index"):
        estimate_event(GroupContext.of(2, 5, 2), SetHitEvent(5), 1, 200, 42)


def test_borel_cantelli_rejects_an_empty_range():
    with pytest.raises(ValueError, match="at least one prime"):
        borel_cantelli_experiment(2, 2, [], 1, 50, 9)
    with pytest.raises(ValueError, match="15 is not a prime"):
        borel_cantelli_experiment(2, INFINITY, [3, 15], 2, 50, 9)


def test_borel_cantelli_part_a_small():
    ells = [3, 5]
    n = 2000
    rep = borel_cantelli_experiment(2, 2, ells, 1, n, 31)
    assert rep.regime == "part-a"
    expected = float(rep.expected_mean)
    sigma = math.sqrt(sum(float(d) * (1 - float(d)) for d in
                          (Fraction(4104, 51840), Fraction(101, 1040))) / n)
    assert abs(rep.mean_hits - expected) <= 4 * sigma
    assert rep.threshold == 5
    assert sum(rep.hist.values()) == n
    assert abs(rep.frac_tail_hit + rep.frac_zero_tail - 1.0) < 1e-12


def test_borel_cantelli_part_b_small():
    rep = borel_cantelli_experiment(2, INFINITY, [3, 5], 2, 1500, 8)
    assert rep.regime == "part-b"
    n = 1500
    slack = 4 * math.sqrt(rep.mean_hits / n + 1e-9)
    assert rep.mean_hits <= float(rep.expected_mean) + slack


def test_borel_cantelli_threads_invariant(small_chunks):
    assert -(-400 // montecarlo.CHUNK) == 7
    one = borel_cantelli_experiment(2, 2, [3, 5], 1, 400, 5, threads=1)
    for threads in (2, 3, 4):
        assert borel_cantelli_experiment(2, 2, [3, 5], 1, 400, 5, threads=threads) == one
    assert len(one.hist) > 1


@pytest.mark.parametrize("events", [1, 5, 8, 9, 70])
@pytest.mark.parametrize("rows", [1, 2, 300])
def test_outcome_count_matches_unique_rows(events, rows):
    # _tally counts a chunk's outcome rows through a void view of their
    # packed bits; the reference is np.unique over the bool rows themselves.
    # Sparse, even and dense hits, with an all-False and an all-True column
    rng = np.random.default_rng(events * 1000 + rows)
    for density in (0.02, 0.5, 0.97):
        out = rng.random((rows, events)) < density
        out[:, 0] = False
        out[:, -1] = True
        keys, counts = np.unique(out, axis=0, return_counts=True)
        want = dict(zip(map(tuple, keys.tolist()), counts.tolist()))
        got = montecarlo._count_rows(out)
        assert got == want and sum(got.values()) == rows
        assert all(type(x) is bool for key in got for x in key)
        assert all(len(key) == events for key in got)
