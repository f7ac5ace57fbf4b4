import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symon import _gf
from symon.modmat import (
    ModMatrix, Modulus, det, kernel_basis, minus_identity, rank_mod, rref_mod,
)
from symon.prng import CounterLanes, CounterRng
from symon.sympgroup import (
    GroupContext, NotSimilitude, form_matrix, multiplier, sample_entries, sample_entries_lanes,
    transvection,
)


def rand_entries(n, dd, p, seed):
    rng = CounterRng(seed, 0)
    return np.array([[rng.below(p) for _ in range(dd)] for _ in range(n)],
                    dtype=np.int64)


def test_inverse_table():
    for p in (2, 3, 7, 13, 31, 55103, 65521):
        inv = _gf.inverse_table(p)
        assert inv[0] == 0
        assert (inv[1:] * np.arange(1, p) % p == 1).all()
        assert not inv.flags.writeable
        assert _gf.inverse_table(p) is inv


def referenced_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_gf_kernel_has_a_caller_in_the_package():
    # a kernel or private helper kept only for its test is a second
    # implementation to maintain: every _gf function and every top-level
    # _-prefixed function of the package must be named by other code in it
    src = Path(_gf.__file__).parent
    modules = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    for name, tree in modules.items():
        outside = set().union(*(referenced_names(t) for n, t in modules.items() if n != name))
        for f in tree.body:
            if isinstance(f, ast.FunctionDef) and (name == "_gf.py" or f.name.startswith("_")):
                inside = set().union(*(referenced_names(node) for node in tree.body
                                       if node is not f))
                assert f.name in outside | inside, f"{name}: {f.name} has no caller in src/symon"


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
def test_pack_entries_matches_python_int_reference(p, dd, monkeypatch):
    # at p = 509 a word holds 6 digits but a float64 piece only 5; 200 rows
    # in slices of 64 and products of 5 rows end both on a partial block
    monkeypatch.setattr(_gf, "PACK_ROWS", 64)
    monkeypatch.setattr(_gf, "GEMM_ROWS", 5)
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
@given(st.sampled_from([2, 3, 5, 7, 13, 31, 65521]), st.integers(1, 12), st.integers(1, 8),
       st.integers(0, 10**6))
def test_batch_rank_matches_rank_mod(p, r, c, seed):
    # r and c reach the stacks of mu-x at g = 2 ((4e, 4)) and of g = 3 ((6e, 6))
    flat = rand_entries(60, r * c, p, seed)
    flat[::3, :c] = 0                     # lanes of lower rank
    flat[1::4, -c:] = flat[1::4, :c]
    batch = flat.reshape(-1, r, c)
    batch[2::5, :, 0] = 0                 # a column without a pivot
    ranks = _gf.batch_rank(batch, p)
    for mat, rank in zip(batch, ranks):
        assert int(rank) == rank_mod(mat.tolist(), p)


KERNEL_PRIMES = [2, 3, 5, 7, 13, 31, 65521]


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_det_minus_identity_matches_the_scalar_det(p, g):
    # chi(1) on sampled similitudes against the scalar det(A - I): one
    # multiplier per matrix, then one for the whole batch with I and -I
    # appended (lam = 1; at p = 31, -I has every principal minor at its
    # maximum, 30**2), and in int16, the layer check's dtype, for p <= 31
    dim, modulus = 2 * g, Modulus.of(p)
    rng = CounterRng(p + g, 0)
    eye = np.eye(dim, dtype=np.int64)
    per_row = np.arange(40) % (p - 1) + 1
    mixed = np.array([sample_entries(g, p, int(lam), rng) for lam in per_row])
    one = np.concatenate([[sample_entries(g, p, 1, rng) for _ in range(20)],
                          [eye, (p - 1) * eye]])
    for batch, lam in ((mixed, per_row), (one, 1)):
        want = [det(ModMatrix.from_rows(modulus, minus_identity(rows, p)))
                for rows in batch.tolist()]
        assert _gf.batch_det_minus_identity(batch, lam, p).tolist() == want
        if p <= 31:
            narrow = _gf.batch_det_minus_identity(batch.astype(np.int16),
                                                  np.asarray(lam, dtype=np.int16), p)
            assert narrow.dtype == np.int16 and narrow.tolist() == want
    assert 0 in want        # I, in the lam = 1 batch


@pytest.mark.parametrize("c", [4, 6])
@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_rank2_kernel_basis_matches_kernel_basis(p, c):
    # for every pivot pair (p1, p2), RREF rows with those pivots times random
    # invertible 2x2 matrices, then uniformly random lanes
    rng = np.random.default_rng(7 * p + c)
    lanes = []
    for p1, p2 in itertools.combinations(range(c), 2):
        for _ in range(6):
            rref = rng.integers(0, p, size=(2, c))
            rref[0, :p1 + 1] = [0] * p1 + [1]
            rref[:, p2] = [0, 1]
            rref[1, :p2] = 0
            while True:
                m = rng.integers(0, p, size=(2, 2))
                if (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % p:
                    break
            lanes.append(m @ rref % p)
    w = np.concatenate([np.array(lanes), rng.integers(0, p, size=(200, 2, c))])
    got = _gf.rank2_kernel_basis(w, p)
    assert got.shape == (w.shape[0], c - 2, c)
    pivot_pairs = set()
    for i, mat in enumerate(w.tolist()):
        _, piv = rref_mod(mat, p)
        if len(piv) == 2:
            pivot_pairs.add(tuple(piv))
            assert got[i].tolist() == kernel_basis(mat, p)
    assert pivot_pairs == set(itertools.combinations(range(c), 2))


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_line_matches_kernel_basis(p):
    # lanes of rank 4, rank 3 with v[0] != 0, rank 3 with v[0] = 0, rank <= 2
    rng = np.random.default_rng(p)
    n = 120
    b = rng.integers(0, p, size=(4, n, 4, 4))
    v = rng.integers(0, p, size=(2, n, 4))
    v[0, :, 0] = 1
    v[1, :, 0], v[1, :, 1] = 0, 1
    # put v[k] in the kernel of b[k + 1]: column k, where v[k] is 1, absorbs the rest
    for k in range(2):
        rest = [j for j in range(4) if j != k]
        b[k + 1, :, :, k] = -np.einsum("nij,nj->ni", b[k + 1][:, :, rest], v[k][:, rest]) % p
    b[3, :, 2:] = b[3, :, :1] * rng.integers(0, p, size=(n, 2, 1)) % p
    b = b.reshape(4 * n, 4, 4)
    ok, line = _gf.kernel_line(b, p)
    kinds = []
    for i, mat in enumerate(b.tolist()):
        ker = kernel_basis(mat, p)
        want = len(ker) == 1 and ker[0][0] != 0
        kinds.append((len(ker), want))
        assert bool(ok[i]) == want
        if want:
            assert line[i].tolist() == [x * pow(ker[0][0], -1, p) % p for x in ker[0]]
    kinds = [kinds[k * n:(k + 1) * n] for k in range(4)]
    assert (0, False) in kinds[0] and (1, True) in kinds[1] and (1, False) in kinds[2]
    assert all(nullity >= 2 for nullity, _ in kinds[3])


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


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 31])
def test_batch_kernels_match_scalar_oracles_on_similitudes(ell, g):
    # real similitudes, and the same with one entry bumped (near-misses)
    dim, n = 2 * g, 150
    lanes = CounterLanes(ell + g, np.arange(n, dtype=np.uint64))
    lam = lanes.below(ell - 1) + 1
    sims = sample_entries_lanes(g, ell, lam, lanes)
    near = sims.reshape(n, -1).copy()
    at = lanes.below(dim * dim)
    near[np.arange(n), at] += lanes.below(ell - 1) + 1
    batch = np.concatenate([sims, near.reshape(sims.shape) % ell])
    lams, ok = _gf.similitude_check(batch, ell)
    fixed = _gf.batch_det_minus_identity(batch, lams, ell)    # read on similitudes only
    ctx, modulus = GroupContext.of(g, ell), Modulus.of(ell)
    form = form_matrix(g, modulus)
    for k, rows in enumerate(batch.tolist()):
        m = ModMatrix.from_rows(modulus, rows)
        # the multiplier slot is the pairing of columns 0 and 1 on every lane
        transpose = ModMatrix.from_rows(modulus, list(zip(*rows)))
        assert int(lams[k]) == (transpose @ form @ m).rows[0][1]
        try:
            want = multiplier(ctx, m)
        except NotSimilitude:
            want = None
        assert bool(ok[k]) == (want is not None) and want in (None, int(lams[k]))
        if ok[k]:
            assert int(fixed[k]) == det(ModMatrix.from_rows(modulus, minus_identity(rows, ell)))
    assert ok[:n].all() and (lams[:n] == lam).all() and not ok[n:].all()
    assert (fixed[:n] == 0).any() and (fixed[:n] != 0).any()


# -- the narrow (int16) scan, unpack and kernels against their int64 references --

NARROW_PRIMES = [3, 5, 7, 11, 13, 17, 31]


def int64_scan(g, p, allowed):
    """The scan as it ran in int64: every candidate decoded by ``unpack_entries``
    and checked by the int64 kernel, in one batch."""
    dim = 2 * g
    idx = np.arange(p ** (dim * dim), dtype=np.int64)
    a = _gf.unpack_entries(idx[:, None], p, dim * dim).reshape(-1, dim, dim)
    lam, ok = _gf.similitude_check(a, p)
    ok &= allowed[lam]
    return a[ok], lam[ok]


@pytest.mark.parametrize("g,p", [(1, 2), (1, 3), (1, 5), (1, 7), (1, 11), (1, 13), (1, 17),
                                 (2, 2)])
def test_narrow_scan_matches_the_int64_scan(g, p):
    # (1, 17) spans two 2**16-candidate chunks; every other case fits one
    masks = [np.arange(p) == lam for lam in range(1, p)] + [np.arange(p) != 0]
    for allowed in masks:
        chunks = list(_gf.scan_similitudes(g, p, allowed))
        entries = np.concatenate([e for e, _ in chunks])
        mults = np.concatenate([m for _, m in chunks])
        want_entries, want_mults = int64_scan(g, p, allowed)
        assert entries.dtype == mults.dtype == np.int64 and entries.flags.c_contiguous
        assert np.array_equal(entries, want_entries) and np.array_equal(mults, want_mults)


def narrow_copy(batch, p):
    """``batch`` as the layer check sees it: packed, then ``unpack_digits``' int16."""
    n, dim, _ = batch.shape
    out = _gf.unpack_digits(_gf.pack_entries(batch.reshape(n, -1), p), p, dim * dim)
    return out.reshape(n, dim, dim)


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("p", NARROW_PRIMES)
def test_narrow_kernels_match_int64(p, g):
    dim, n = 2 * g, 256
    rng = np.random.default_rng(10 * p + g)
    lanes = CounterLanes(p, np.arange(n, dtype=np.uint64))
    sims = sample_entries_lanes(g, p, lanes.below(p - 1) + 1, lanes)
    wide = np.concatenate([rng.integers(0, p, (4 * n, dim, dim)), sims,
                           np.full((4, dim, dim), p - 1)])
    narrow = narrow_copy(wide, p)
    assert narrow.dtype == np.int16 and np.array_equal(narrow, wide)
    (lam, ok), (want_lam, want_ok) = (_gf.similitude_check(b, p) for b in (narrow, wide))
    assert lam.dtype == np.int16 and np.array_equal(lam, want_lam)
    assert np.array_equal(ok, want_ok) and ok[4 * n:-4].all()
    # det(A - I) only on the similitude lanes, where chi(1) gives it
    got = _gf.batch_det_minus_identity(narrow[ok], lam[ok], p)
    assert got.dtype == np.int16
    assert np.array_equal(got, _gf.batch_det_minus_identity(wide[ok], want_lam[ok], p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_reduce_mod_matches_the_remainder(dtype, p):
    # random values of both signs, the dtype's extremes (where p * (x // p)
    # wraps) and the all-(p-1) products and sums the kernels reduce
    info = np.iinfo(dtype)
    rng = np.random.default_rng(p)
    x = np.concatenate([rng.integers(info.min, info.max, 4096, endpoint=True),
                        np.arange(-3 * p, 3 * p), [info.min, info.min + 1, info.max - 1, info.max],
                        [(p - 1) ** 2, -(p - 1) ** 2, 6 * (p - 1) ** 2, p - 1]]).astype(dtype)
    got = _gf.reduce_mod(x, p)
    assert got.dtype == dtype and np.array_equal(got, x % p)
    y = x.copy()
    assert _gf.reduce_mod(y, p, out=y) is y and np.array_equal(y, got)


def test_reduce_mod_on_uint64_words():
    # CounterLanes.below's case: n * (u // n) <= u, so u - n * (u // n)
    # never wraps, from u = 0 to 2**64 - 1 and for n up to 2**63 - 1
    rng = np.random.default_rng(0)
    u = np.concatenate([rng.integers(0, 2**64, 4096, dtype=np.uint64),
                        np.array([0, 1, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)])
    for n in (2, 3, 65521, 2**40 + 3, 2**62 + 1, 2**63 - 1):
        n = np.uint64(n)
        got = _gf.reduce_mod(u.copy(), n)
        assert got.dtype == np.uint64 and np.array_equal(got, u % n)


def test_scan_dtype_widens_where_a_pairing_passes_int16():
    assert _gf.scan_dtype(1, 181) == np.int16      # 180**2 = 32,400 < 2**15
    assert _gf.scan_dtype(1, 191) == np.int32      # 190**2 = 36,100
    assert _gf.scan_dtype(2, 127) == np.int16 and _gf.scan_dtype(2, 131) == np.int32
    assert _gf.scan_dtype(1, 46349) == np.int64    # 46348**2 > 2**31
    for p in (181, 191):
        dtype = _gf.scan_dtype(1, p)
        # all entries p - 1, and diag(p - 1, p - 1), whose pairing is (p-1)**2
        wide = np.array([[[p - 1, p - 1], [p - 1, p - 1]], [[p - 1, 0], [0, p - 1]]])
        (lam, ok), (want_lam, want_ok) = (_gf.similitude_check(b, p)
                                          for b in (wide.astype(dtype), wide))
        assert lam.dtype == dtype and np.array_equal(lam, want_lam)
        assert np.array_equal(ok, want_ok) and want_ok.tolist() == [False, True]
        # det(A - I) on the similitude lane only
        assert np.array_equal(_gf.batch_det_minus_identity(wide.astype(dtype)[ok], lam[ok], p),
                              _gf.batch_det_minus_identity(wide[ok], want_lam[ok], p))
    # at 191 int16 would not do: the pairing of diag(190, 190) wraps
    diag = np.array([[[190, 0], [0, 190]]])
    assert _gf.similitude_check(diag.astype(np.int16), 191)[0][0] != 190 ** 2 % 191
    # digits past int16 are decoded in int64
    top = np.array([0, 32771 ** 4 - 1])
    assert np.array_equal(_gf.index_to_entries(top, 32771, 4), [[0] * 4, [32770] * 4])


@pytest.mark.parametrize("dd", [4, 16])
@pytest.mark.parametrize("p", NARROW_PRIMES)
def test_unpack_digits_matches_unpack_entries(p, dd):
    rng = np.random.default_rng(p + dd)
    flat = np.concatenate([rng.integers(0, p, (2000, dd)), np.full((3, dd), p - 1),
                           np.zeros((1, dd), dtype=np.int64)])
    keys = _gf.pack_entries(flat, p)
    got = _gf.unpack_digits(keys, p, dd)
    assert got.dtype == np.int16 and np.array_equal(got, _gf.unpack_entries(keys, p, dd))
    # one-word keys from the scan's indices decode alike
    idx = np.append(np.arange(0, p ** 4, 1 + p ** 4 // 97), p ** 4 - 1)
    assert np.array_equal(_gf.index_to_entries(idx, p, 4),
                          _gf.unpack_entries(idx[:, None], p, 4))


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
    ell = data.draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
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
    n, m = flat.shape[0], len(ts)
    out = np.empty((n * m, _gf.pack_words(ell, 16)), dtype=np.uint64)
    _gf.conjugate_into(flat, ops, ell, out)
    got = _gf.unpack_entries(out, ell, 16)
    modulus = Modulus.of(ell)
    for j, (t, tinv) in enumerate(ts):
        for i in range(n):
            c = ModMatrix.from_flat(modulus, flat[i])
            assert tuple(got[i * m + j]) == (tinv @ c @ t).flat()


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 31])
def test_conjugate_into_tiles_match_a_per_shear_reference(p):
    # every tile boundary: n at rows - 1, rows, rows + 1 and past two tiles,
    # for stacks of 1, 18 and 100 operators and one wide enough that a tile
    # is a single row; p = 17 and 31 give 2-word keys
    rng = np.random.default_rng(p)
    for m in (1, 18, 100, _gf.TILE_BYTES // 64 + 1):
        rows = max(1, _gf.TILE_BYTES // (m * 16 * 4))
        ops = rng.integers(0, p, (16, 16 * m)).astype(np.float64)
        ops[:, :16] = p - 1
        for n in sorted({1, max(rows - 1, 1), rows, rows + 1, 2 * rows + 3}):
            flat = rng.integers(0, p, (n, 16), dtype=np.uint8)
            flat[0] = p - 1
            out = np.empty((n * m, _gf.pack_words(p, 16)), dtype=np.uint64)
            _gf.conjugate_into(flat, ops, p, out)
            per_shear = [_gf.pack_entries(flat.astype(np.int64) @ ops[:, j * 16:(j + 1) * 16]
                                          .astype(np.int64) % p, p) for j in range(m)]
            want = np.stack(per_shear, axis=1).reshape(n * m, -1)   # row i's conjugates together
            assert np.array_equal(out, want), (m, n)


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


def test_conjugate_into_guards_its_uint16_bound():
    # p = 61 is the largest prime with 16 * (p-1)**2 < 2**16; all-(p-1)
    # inputs reach that bound and must still give exact keys
    p = 61
    flat = np.full((3, 16), p - 1, dtype=np.int64)
    ops = np.full((16, 16), p - 1, dtype=np.float64)
    out = np.empty((3, _gf.pack_words(p, 16)), dtype=np.uint64)
    _gf.conjugate_into(flat, ops, p, out)
    assert np.array_equal(out, _gf.pack_entries((flat @ ops.astype(np.int64)) % p, p))
    with pytest.raises(ValueError, match="uint16"):
        _gf.conjugate_into(flat, ops, 67, out)
