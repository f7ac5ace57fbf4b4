import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from symon.modmat import ModMatrix, ModVector, Modulus, mat_mul, mat_vec
from symon.prng import CounterRng
from symon.sympgroup import (
    BudgetExceeded,
    GroupContext,
    INFINITY,
    NotSimilitude,
    StabilizerParams,
    enumerate_group,
    form_matrix,
    gsp_q_order,
    is_member,
    multiplicative_order,
    multiplier,
    pairing,
    sample_uniform,
    scan_entries,
    sp_order,
    stabilizer_matrix,
    transvection,
)

M3 = Modulus.of(3)
M5 = Modulus.of(5)


def e_vec(modulus, dim, i):
    return ModVector.from_entries(modulus, [1 if j == i else 0 for j in range(dim)])


def test_form_matrix():
    j = form_matrix(2, M3)
    assert j.rows == ((0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1), (0, 0, 2, 0))


def test_pairing_examples():
    ctx = GroupContext.of(2, 5)
    assert pairing(ctx, e_vec(M5, 4, 0), e_vec(M5, 4, 1)) == 1
    assert pairing(ctx, e_vec(M5, 4, 0), e_vec(M5, 4, 2)) == 0
    rng = CounterRng(8, 0)
    v = ModVector.from_entries(M5, [rng.below(5) for _ in range(4)])
    assert pairing(ctx, v, v) == 0
    w = ModVector.from_entries(M5, [rng.below(5) for _ in range(4)])
    assert (pairing(ctx, v, w) + pairing(ctx, w, v)) % 5 == 0


def test_multiplier_examples():
    ctx = GroupContext.of(2, 5)
    assert multiplier(ctx, ModMatrix.identity(M5, 4)) == 1
    for lam in (1, 2, 3, 4):
        d = ModMatrix.from_rows(M5, [[1, 0, 0, 0], [0, lam, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 0, lam]])
        assert multiplier(ctx, d) == lam
    with pytest.raises(NotSimilitude):
        multiplier(ctx, ModMatrix.from_rows(M5, [[1, 0, 0, 0], [0, 1, 0, 0],
                                                 [0, 0, 1, 0], [0, 0, 0, 2]]))


def test_is_member_examples():
    ctx2 = GroupContext.of(2, 5, 2)
    a = ModMatrix.from_rows(M5, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    assert is_member(ctx2, a)
    ctx4 = GroupContext.of(2, 5, 4)
    b = ModMatrix.from_rows(M5, [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
    assert ctx4.multiplier_values() == (4, 1)
    assert not is_member(ctx4, b)
    assert is_member(ctx4, ModMatrix.identity(M5, 4))
    # diag(1, 1, 1, 2) scales the two planes by different factors
    c = ModMatrix.from_rows(M5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    assert not is_member(GroupContext.of(2, 5), c)


def test_sp_order_small_brute_force():
    # 2x2 case: count matrices with det 1 by full scan
    for ell in (2, 3, 5, 7):
        count = sum(1 for m in itertools.product(range(ell), repeat=4)
                    if (m[0] * m[3] - m[1] * m[2]) % ell == 1)
        assert count == sp_order(1, ell)
    assert sp_order(2, 3) == 51840
    assert sp_order(0, 13) == 1


def test_order_recursion():
    for g in (1, 2, 3, 4):
        for ell in (2, 3, 5, 7, 11, 13):
            assert sp_order(g, ell) == (ell ** (2 * g) - 1) * ell ** (2 * g - 1) * sp_order(g - 1, ell)


def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 15) == 4
    assert multiplicative_order(4, 5) == 2
    with pytest.raises(ValueError):
        multiplicative_order(3, 15)


def test_gsp_q_order_examples():
    assert gsp_q_order(GroupContext.of(2, 3)) == 2 * 51840
    assert gsp_q_order(GroupContext.of(2, 15, 2)) == 4 * 51840 * 9360000
    assert gsp_q_order(GroupContext.of(1, 5)) == 4 * 120
    # oracle: enumerate GL2(F5) and count
    count = sum(1 for _ in enumerate_group(GroupContext.of(1, 5)))
    assert count == 480


def test_enumerate_counts_and_budget():
    assert sum(1 for _ in enumerate_group(GroupContext.of(1, 3), lam=1)) == 24
    assert sum(1 for _ in enumerate_group(GroupContext.of(2, 2), lam=1)) == 720
    with pytest.raises(BudgetExceeded):
        list(enumerate_group(GroupContext.of(2, 7), budget=10**6))
    # q = 2 mod 7 admits the multipliers {1, 2, 4}: 3 is a unit outside the
    # class, so the scan restricted to it is empty; 14 is no unit mod 7
    ctx = GroupContext.of(1, 7, 2)
    assert sum(1 for _ in enumerate_group(ctx, lam=2)) == sp_order(1, 7)
    assert list(enumerate_group(ctx, lam=3)) == []
    assert list(scan_entries(ctx, lam=3)) == []
    with pytest.raises(ValueError, match="not a unit mod 7"):
        scan_entries(ctx, lam=14)
    with pytest.raises(ValueError, match="not a unit mod 7"):
        list(enumerate_group(ctx, lam=0))


def test_enumerate_order_is_lexicographic():
    mats = list(enumerate_group(GroupContext.of(1, 3)))
    flats = [m.flat() for m in mats]
    assert flats == sorted(flats)
    assert len(set(flats)) == len(flats)
    for m in mats:
        assert is_member(GroupContext.of(1, 3), m)


def test_transvection_examples():
    ctx = GroupContext.of(2, 5)
    assert transvection(ctx, (0, 0), 0) == ModMatrix.identity(M5, 4)
    t = transvection(ctx, (0, 0), 1)
    assert mat_vec(t, e_vec(M5, 4, 0)).entries == (1, 1, 0, 0)


@given(st.sampled_from([3, 5, 7]), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_transvection_preserves_form(ell, alpha_seed, beta):
    ctx = GroupContext.of(2, ell)
    rng = CounterRng(alpha_seed, 0)
    alpha = (rng.below(ell), rng.below(ell))
    t = transvection(ctx, alpha, beta % ell)
    assert multiplier(ctx, t) == 1


def test_transvection_inverse():
    ctx = GroupContext.of(2, 7)
    t = transvection(ctx, (3, 5), 2)
    tinv = transvection(ctx, (3, 5), -2)
    assert mat_mul(t, tinv) == ModMatrix.identity(Modulus.of(7), 4)


def test_stabilizer_identity_params():
    ctx = GroupContext.of(2, 3)
    params = StabilizerParams(1, 0, (0, 0), ModMatrix.identity(M3, 2))
    assert stabilizer_matrix(ctx, params) == ModMatrix.identity(M3, 4)


def test_stabilizer_output_properties():
    ctx = GroupContext.of(2, 5)
    rng = CounterRng(31, 0)
    checked = 0
    while checked < 50:
        lam = 1 + rng.below(4)
        # random 2x2 block with det lam
        rows = [[rng.below(5) for _ in range(2)] for _ in range(2)]
        if (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % 5 != lam:
            continue
        block = ModMatrix.from_rows(M5, rows)
        params = StabilizerParams(lam, rng.below(5), (rng.below(5), rng.below(5)), block)
        m = stabilizer_matrix(ctx, params)
        assert mat_vec(m, e_vec(M5, 4, 0)) == e_vec(M5, 4, 0)
        assert multiplier(ctx, m) == lam
        checked += 1


def test_stabilizer_rejects_bad_block():
    ctx = GroupContext.of(2, 3)
    with pytest.raises(NotSimilitude):
        stabilizer_matrix(ctx, StabilizerParams(2, 0, (0, 0), ModMatrix.identity(M3, 2)))


def _general_transvection(ctx, v, beta):
    # independent oracle helper: x -> x + beta * e(x, v) * v for any v
    ell = ctx.modulus.n
    d = ctx.dim
    cols = []
    for i in range(d):
        e_i = [1 if j == i else 0 for j in range(d)]
        c = pairing(ctx, ModVector.from_entries(ctx.modulus, e_i),
                    ModVector.from_entries(ctx.modulus, v))
        cols.append([(e_i[j] + beta * c * v[j]) % ell for j in range(d)])
    return ModMatrix.from_rows(ctx.modulus, [[cols[j][i] for j in range(d)] for i in range(d)])


@pytest.mark.parametrize("g,ell", [(1, 3), (1, 5), (2, 3)])
def test_orbit_size_against_bfs(g, ell):
    # breadth-first closure of e_1 under all shears, which generate the group
    ctx = GroupContext.of(g, ell)
    modulus = ctx.modulus
    d = 2 * g
    gens = []
    for v in itertools.product(range(ell), repeat=d):
        if any(v):
            for beta in range(1, ell):
                gens.append(_general_transvection(ctx, list(v), beta))
    start = e_vec(modulus, d, 0)
    seen = {start.entries}
    frontier = [start]
    while frontier:
        nxt = []
        for vec in frontier:
            for t in gens:
                w = mat_vec(t, vec)
                if w.entries not in seen:
                    seen.add(w.entries)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == ell ** d - 1


def test_sample_uniform_membership_and_determinism():
    ctx = GroupContext.of(2, 5, 2)
    a = sample_uniform(ctx, 2, 123, 9)
    assert a == sample_uniform(ctx, 2, 123, 9)
    assert a != sample_uniform(ctx, 2, 123, 10)
    for index in range(300):
        m = sample_uniform(ctx, 2, 7, index)
        assert multiplier(ctx, m) == 2
        assert is_member(ctx, m)


def test_sample_uniform_covers_small_group():
    # 24 elements of the det-1 coset at ell=3; 2000 draws must visit all
    ctx = GroupContext.of(1, 3)
    seen = {sample_uniform(ctx, 1, 55, i).rows for i in range(2000)}
    assert len(seen) == 24


def test_context_validation():
    with pytest.raises(ValueError):
        GroupContext.of(2, 15, 3)        # q shares a factor with n
    with pytest.raises(ValueError):
        GroupContext.of(2, 5, 6)         # q not a prime power
    with pytest.raises(ValueError):
        GroupContext.of(0, 5)
    ctx = GroupContext.of(2, 15, 2)
    assert ctx.restrict(5).modulus.n == 5
    for ell in (7, 15):
        with pytest.raises(ValueError, match=f"^{ell} is not a prime factor of the modulus 15$"):
            ctx.restrict(ell)
    assert ctx.multiplier_values() == (2, 4, 8, 1)
    assert [u for u in range(15) if ctx.multiplier_mask()[u]] == [1, 2, 4, 8]
    assert GroupContext.of(1, 5).multiplier_values() == (1, 2, 3, 4)
    assert math.prod(GroupContext.of(1, 5, INFINITY).multiplier_values()) % 5 == 4


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("n", [3, 5, 7, 15, 105])
@pytest.mark.parametrize("q", [2, 4, INFINITY])
def test_multiplier_count_matches_listed_values(g, n, q):
    ctx = GroupContext.of(g, n, q)
    assert ctx.multiplier_count() == len(ctx.multiplier_values())
    for ell in ctx.modulus.primes:
        assert ctx.restrict(ell).multiplier_count() == len(ctx.multiplier_values(ell))
