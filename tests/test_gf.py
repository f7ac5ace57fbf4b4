import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symon import _gf
from symon.modmat import ModMatrix, Modulus, det, kernel_basis, rank_mod, rref_mod
from symon.prng import CounterRng
from symon.sympgroup import GroupContext, NotSimilitude, multiplier, transvection


def rand_entries(n, dd, p, seed):
    rng = CounterRng(seed, 0)
    return np.array([[rng.below(p) for _ in range(dd)] for _ in range(n)],
                    dtype=np.int64)


def test_inverse_table():
    for p in (2, 3, 7, 13, 31):
        inv = _gf.inverse_table(p)
        assert inv[0] == 0
        for x in range(1, p):
            assert inv[x] * x % p == 1


@pytest.mark.parametrize("p", [3, 13, 17, 31])
def test_pack_unpack_round_trip(p):
    flat = rand_entries(500, 16, p, p)
    keys = _gf.pack_entries(flat, p)
    words = 1 if p ** 16 < 2 ** 63 else 2
    assert keys.shape == (500, words)
    assert (_gf.unpack_entries(keys, p, 16) == flat).all()


def reference_keys(flat, p):
    """Keys in Python ints: ceil(D / W) base-p digits per word, most significant first."""
    n, dd = flat.shape
    words = _gf.pack_words(p, dd)
    per = -(-dd // words)
    keys = []
    for row in flat.tolist():
        key = []
        for w in range(words):
            word = 0
            for digit in row[w * per:(w + 1) * per]:
                word = word * p + digit
            key.append(word)
        keys.append(key)
    return np.array(keys, dtype=np.uint64).reshape(n, words)


@pytest.mark.parametrize("dd", [4, 16])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 509])
def test_pack_entries_matches_python_int_reference(p, dd):
    # at p = 509 a word holds 6 digits but a float64 piece only 5
    flat = rand_entries(200, dd, p, 5 * p + dd)
    flat[0] = p - 1                      # the largest word: every digit at p - 1
    flat[1, ::2] = p - 1
    flat[2] = 0
    keys = _gf.pack_entries(flat, p)
    assert keys.dtype == np.uint64
    assert (keys == reference_keys(flat, p)).all()
    if dd == 16 and p <= 31:
        assert keys.shape[1] == (1 if p <= 13 else 2)
        assert _gf.piece_digits(p) >= 8
    assert p ** _gf.piece_digits(p) < 2 ** 53 <= p ** (_gf.piece_digits(p) + 1)


@pytest.mark.parametrize("p", [13, 17])
def test_key_order_matches_lexicographic(p):
    flat = rand_entries(400, 16, p, 3 * p)
    packed = _gf.pack_entries(flat, p)
    keys = _gf.unique_keys(packed)
    # distinct rows are sorted in place and come back as the input array
    assert keys is packed and keys.shape[0] == 400
    back = _gf.unpack_entries(keys, p, 16)
    as_tuples = [tuple(row) for row in back]
    assert as_tuples == sorted(as_tuples)


@pytest.mark.parametrize("p", [13, 17])
def test_unique_keys_compacts_duplicates(p):
    flat = rand_entries(300, 16, p, 11 * p)
    flat = np.concatenate([flat, flat[::3], flat[:1]])
    keys = _gf.unique_keys(_gf.pack_entries(flat, p))
    assert keys.shape[1] == (1 if p == 13 else 2)
    assert (_gf.unpack_entries(keys, p, 16) == np.unique(flat, axis=0)).all()


@pytest.mark.parametrize("p", [13, 17, 31])
def test_searchsorted_keys_membership(p):
    flat = rand_entries(300, 16, p, 7 * p)
    keys = _gf.unique_keys(_gf.pack_entries(flat, p))
    hits = _gf.searchsorted_keys(keys, _gf.pack_entries(flat, p))
    assert hits.all()
    other = rand_entries(300, 16, p, 7 * p + 1)
    expect = {tuple(r) for r in flat}
    got = _gf.searchsorted_keys(keys, _gf.pack_entries(other, p))
    for row, hit in zip(other, got):
        assert bool(hit) == (tuple(row) in expect)
    empty = np.empty((0, keys.shape[1]), dtype=np.uint64)
    assert _gf.searchsorted_keys(empty, keys).tolist() == [False] * keys.shape[0]


@pytest.mark.parametrize("p,d", [(3, 2), (7, 4), (13, 4)])
def test_batch_det_against_scalar(p, d):
    flat = rand_entries(200, d * d, p, p + d)
    batch = flat.reshape(-1, d, d)
    dets = _gf.batch_det(batch, p)
    modulus = Modulus.of(p)
    for mat, bd in zip(batch, dets):
        m = ModMatrix.from_rows(modulus, [[int(x) for x in row] for row in mat])
        assert det(m) == int(bd)


@pytest.mark.parametrize("p,shape", [(3, (4, 4)), (5, (4, 4)), (7, (6, 3))])
def test_batch_rank_against_scalar(p, shape):
    r, c = shape
    flat = rand_entries(200, r * c, p, 17 * p + r)
    batch = flat.reshape(-1, r, c)
    ranks = _gf.batch_rank(batch, p)
    for mat, br in zip(batch, ranks):
        rows = [[int(x) for x in row] for row in mat]
        assert rank_mod(rows, p) == int(br)


def test_batch_rank_degenerate_cases():
    p = 5
    zeros = np.zeros((3, 4, 4), dtype=np.int64)
    assert (_gf.batch_rank(zeros, p) == 0).all()
    eye = np.broadcast_to(np.eye(4, dtype=np.int64), (3, 4, 4)).copy()
    assert (_gf.batch_rank(eye, p) == 4).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 10**6))
def test_batch_rref_and_kernels_match_scalar(p, r, c, seed):
    flat = rand_entries(60, r * c, p, seed)
    flat[::3, :c] = 0                     # lanes of lower rank
    flat[1::4, -c:] = flat[1::4, :c]
    batch = flat.reshape(-1, r, c)
    reduced, pivots = _gf.batch_rref(batch, p)
    for k in range(c + 1):
        kernels, ranks = _gf.batch_kernel_basis(batch, p, k)
        for i, mat in enumerate(batch):
            rows = mat.tolist()
            if k == 0:
                want, piv = rref_mod(rows, p)
                assert reduced[i].tolist() == want
                assert pivots[i].tolist() == piv + [-1] * (r - len(piv))
            assert int(ranks[i]) == rank_mod(rows, p)
            if c - ranks[i] == k:
                assert kernels[i].tolist() == kernel_basis(rows, p)


@pytest.mark.parametrize("p,g", [(3, 1), (5, 2), (7, 2)])
def test_similitude_check_against_scalar(p, g):
    dim = 2 * g
    flat = rand_entries(300, dim * dim, p, 23 * p + g)
    batch = flat.reshape(-1, dim, dim)
    lam, ok = _gf.similitude_check(batch, p)
    ctx = GroupContext.of(g, p)
    modulus = Modulus.of(p)
    for mat, l_, ok_ in zip(batch, lam, ok):
        m = ModMatrix.from_rows(modulus, [[int(x) for x in row] for row in mat])
        try:
            want = multiplier(ctx, m)
            assert bool(ok_) and int(l_) == want
        except NotSimilitude:
            assert not bool(ok_)


def _core_shaped(ell, free):
    """A 4x4 matrix with the zero pattern of a core member; free fills the rest."""
    it = iter(free)
    c = np.zeros((4, 4), dtype=np.int64)
    c[0, 0] = 1
    for i, j in [(0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (3, 1),
                 (2, 2), (2, 3), (3, 2), (3, 3)]:
        c[i, j] = next(it) % ell
    return c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjugate_into_matches_scalar_conjugation(data):
    ell = data.draw(st.sampled_from([3, 5, 7, 13, 17, 31]))
    ctx = GroupContext.of(2, ell)
    residue = st.integers(0, ell - 1)
    cores = data.draw(st.lists(st.lists(residue, min_size=10, max_size=10),
                               min_size=1, max_size=5))
    shears = data.draw(st.lists(st.tuples(residue, residue, residue), min_size=1, max_size=4))
    flat = np.array([_core_shaped(ell, free).ravel() for free in cores])
    ts = [(transvection(ctx, (a3, a4), beta), transvection(ctx, (a3, a4), -beta))
          for a3, a4, beta in shears]
    ops = _gf.conjugation_operators([(np.array(t.rows), np.array(tinv.rows))
                                     for t, tinv in ts])
    n = flat.shape[0]
    out = np.empty((n * len(ts), _gf.pack_words(ell, 16)), dtype=np.uint64)
    _gf.conjugate_into(flat, ops, ell, out)
    got = _gf.unpack_entries(out, ell, 16)
    modulus = Modulus.of(ell)
    for j, (t, tinv) in enumerate(ts):
        for i in range(n):
            c = ModMatrix.from_flat(modulus, flat[i])
            assert tuple(got[j * n + i]) == (tinv @ c @ t).flat()


@pytest.mark.parametrize("ell", [3, 5, 13, 31])
def test_conjugation_operators_match_kron_stack(ell):
    # the one-einsum stack against one np.kron per pair, on random shears
    ctx = GroupContext.of(2, ell)
    rng = CounterRng(ell, 1)
    pairs = []
    for _ in range(40):
        alpha, beta = (rng.below(ell), rng.below(ell)), rng.below(ell)
        pairs.append((np.array(transvection(ctx, alpha, beta).rows),
                      np.array(transvection(ctx, alpha, -beta).rows)))
    want = np.concatenate([np.kron(tinv, t.T).T for t, tinv in pairs], axis=1)
    got = _gf.conjugation_operators(pairs)
    assert got.dtype == np.float64 and got.shape == (16, 16 * len(pairs))
    assert np.array_equal(got, want)


def test_conjugate_into_guards_its_int32_bound():
    flat = np.zeros((1, 16), dtype=np.int64)
    ops = np.zeros((16, 16))
    out = np.empty((1, _gf.pack_words(509, 16)), dtype=np.uint64)
    _gf.conjugate_into(flat, ops, 509, out)   # 16 * 508**3 < 2**31
    assert (out == 0).all()
    with pytest.raises(ValueError, match="int32"):
        _gf.conjugate_into(flat, ops, 521, out)
