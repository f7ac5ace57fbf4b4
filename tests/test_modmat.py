import io
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symon.modmat import (
    ModMatrix,
    ModVector,
    Modulus,
    NotInvertible,
    crt_lift,
    det,
    fixed_space,
    has_eigenvalue_one,
    mat_inv,
    mat_mul,
    mat_vec,
    LINES_PER_CHUNK,
    prime_factors,
    rank_mod,
    read_matrix_lines,
    reduce_mod,
    write_matrix_lines,
)
from symon.prng import CounterRng

M5 = Modulus.of(5)
M7 = Modulus.of(7)
M15 = Modulus.of(15)


def rand_matrix(modulus, dim, rng):
    return ModMatrix.from_rows(
        modulus, [[rng.below(modulus.n) for _ in range(dim)] for _ in range(dim)])


def test_modulus_factorization():
    assert Modulus.of(15).primes == (3, 5)
    assert Modulus.of(2).primes == (2,)
    with pytest.raises(ValueError):
        Modulus.of(12)        # not squarefree
    with pytest.raises(ValueError):
        Modulus.of(1)


def trial_division(n):
    """(p, k) pairs of n >= 2 by trial division to sqrt(n): the oracle."""
    out, p = [], 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1 if p == 2 else 2
    return out + [(n, 1)] * (n > 1)


def test_prime_factors_match_trial_division():
    for n in range(2, 10 ** 5):
        assert list(prime_factors(n)) == trial_division(n), n
    # 40-bit composites with a prime factor in [2**10, 2**16), so that the
    # cofactor left after the small trial division goes through rho
    rng = random.Random(16)
    small = [p for p in range(1 << 10, 1 << 16) if trial_division(p) == [(p, 1)]]
    for _ in range(200):
        a = rng.choice(small)
        n = a * rng.randrange((1 << 39) // a, (1 << 40) // a)
        assert list(prime_factors(n)) == trial_division(n), n


def test_prime_factors_stop_at_the_factoring_limit():
    # the part left after the primes below 2**10 must be below 2**64
    assert list(prime_factors(2 ** 64 - 59)) == [(2 ** 64 - 59, 1)]   # largest prime < 2**64
    assert list(prime_factors(3 * 1021 ** 7)) == [(3, 1), (1021, 7)]  # past 2**64, no cofactor
    for n in (2 ** 64 + 13, (2 ** 61 - 1) * (2 ** 31 - 1), 2 * 1031 * (2 ** 64 - 59)):
        with pytest.raises(ValueError, match=r"2\*\*64 or more"):
            list(prime_factors(n))


def test_identity_multiplication():
    rng = CounterRng(3, 0)
    a = rand_matrix(M5, 3, rng)
    assert mat_mul(ModMatrix.identity(M5, 3), a) == a
    assert mat_mul(a, ModMatrix.identity(M5, 3)) == a


def test_hand_product_mod_5():
    a = ModMatrix.from_rows(M5, [[2, 0], [0, 3]])
    b = ModMatrix.from_rows(M5, [[1, 1], [0, 1]])
    assert mat_mul(a, b).rows == ((2, 2), (0, 3))


def test_inverse_round_trip_seeded():
    for ell in (3, 5, 7, 11):
        modulus = Modulus.of(ell)
        eye = ModMatrix.identity(modulus, 2)
        produced = 0
        index = 0
        while produced < 100:
            a = rand_matrix(modulus, 2, CounterRng(99, index))
            index += 1
            if det(a) == 0:
                continue
            produced += 1
            assert mat_mul(a, mat_inv(a)) == eye
            assert mat_mul(mat_inv(a), a) == eye


def test_inverse_examples():
    assert mat_inv(ModMatrix.identity(M5, 2)) == ModMatrix.identity(M5, 2)
    a = ModMatrix.from_rows(M5, [[0, 1], [4, 0]])
    inv = mat_inv(a)
    assert inv.rows == ((0, 4), (1, 0))
    assert mat_mul(a, inv) == ModMatrix.identity(M5, 2)
    with pytest.raises(NotInvertible):
        mat_inv(ModMatrix.from_rows(M15, [[3, 0], [0, 1]]))


def test_composite_inverse_round_trip():
    eye = ModMatrix.identity(M15, 3)
    produced = 0
    index = 0
    while produced < 50:
        a = rand_matrix(M15, 3, CounterRng(5, index))
        index += 1
        try:
            inv = mat_inv(a)
        except NotInvertible:
            continue
        produced += 1
        assert mat_mul(a, inv) == eye


def test_fixed_space_examples():
    m3 = Modulus.of(3)
    eye4 = ModMatrix.identity(m3, 4)
    assert len(fixed_space(eye4)) == 4
    d = ModMatrix.from_rows(M5, [[2, 0], [0, 3]])
    assert fixed_space(d) == []
    assert not has_eigenvalue_one(d)
    uni = ModMatrix.from_rows(M7, [[1, 1], [0, 1]])
    assert has_eigenvalue_one(uni)
    assert has_eigenvalue_one(ModMatrix.identity(M7, 2))
    with pytest.raises(ValueError):
        fixed_space(ModMatrix.identity(M15, 2))


@given(st.sampled_from([3, 5, 7]), st.integers(0, 10**9), st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_fixed_space_properties(ell, seed, dim):
    modulus = Modulus.of(ell)
    a = rand_matrix(modulus, dim, CounterRng(seed, 0))
    basis = fixed_space(a)
    shifted = [[(x - (1 if i == j else 0)) % ell for j, x in enumerate(row)]
               for i, row in enumerate(a.rows)]
    assert len(basis) == dim - rank_mod(shifted, ell)
    for v in basis:
        assert mat_vec(a, v) == v
    assert has_eigenvalue_one(a) == (len(basis) > 0)


def test_crt_examples():
    m3, m5 = Modulus.of(3), Modulus.of(5)
    lift = crt_lift([ModMatrix.identity(m3, 2), ModMatrix.identity(m5, 2)])
    assert lift == ModMatrix.identity(M15, 2)
    lift = crt_lift([ModMatrix.from_rows(m3, [[2]]), ModMatrix.from_rows(m5, [[3]])])
    assert lift.rows == ((8,),)
    assert reduce_mod(lift, 5).rows == ((3,),)
    assert reduce_mod(lift, 3).rows == ((2,),)
    assert reduce_mod(crt_lift([ModMatrix.identity(m3, 2), ModMatrix.identity(m5, 2)]), 3) \
        == ModMatrix.identity(m3, 2)
    with pytest.raises(ValueError):
        crt_lift([ModMatrix.identity(m3, 2), ModMatrix.identity(m3, 2)])
    for ell in (7, 15):
        with pytest.raises(ValueError, match=f"^{ell} is not a prime factor of the modulus 15$"):
            reduce_mod(ModMatrix.identity(M15, 2), ell)


def test_crt_round_trip_seeded():
    for index in range(100):
        a = rand_matrix(M15, 2, CounterRng(17, index))
        assert crt_lift([reduce_mod(a, 3), reduce_mod(a, 5)]) == a


@given(st.sampled_from([6, 15, 30, 105, 1155, 46410]), st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_crt_round_trip_any_squarefree(n, seed):
    modulus = Modulus.of(n)
    a = rand_matrix(modulus, 3, CounterRng(seed, 1))
    parts = [reduce_mod(a, ell) for ell in modulus.primes]
    assert crt_lift(parts) == a


def test_det_matches_prime_field():
    # det over Z/15 agrees with det over each factor
    for index in range(20):
        a = rand_matrix(M15, 3, CounterRng(23, index))
        d = det(a)
        for ell in (3, 5):
            assert d % ell == det(reduce_mod(a, ell))


def test_serialization_round_trip():
    mats = [rand_matrix(M15, 2, CounterRng(4, i)) for i in range(10)]
    buf = io.StringIO()
    assert write_matrix_lines(buf, [np.array([m.flat() for m in mats])], 2, 15) == 10
    buf.seek(0)
    back = [ModMatrix.from_flat(M15, flat) for chunk in read_matrix_lines(buf, 2, 15)
            for flat in chunk.tolist()]
    assert back == mats


def test_serialization_format():
    buf = io.StringIO()
    write_matrix_lines(buf, [np.array([[1, 2, 3, 4]]), np.empty((0, 4), dtype=np.int64),
                             np.array([[14, 0, 10, 9]])], 2, 15)
    assert buf.getvalue() == "# dim=2 mod=15\n1,2,3,4\n14,0,10,9\n"


@pytest.mark.parametrize("rows", [0, 1, 2 * LINES_PER_CHUNK, 2 * LINES_PER_CHUNK + 77])
def test_matrix_lines_round_trip_across_chunks(rows):
    # chunk boundaries on both sides: the writer gets uneven chunks, the
    # reader ends exactly on a chunk boundary or inside one; no warning
    # (numpy's "input contained no data") may escape
    entries = np.random.default_rng(rows).integers(0, 13, size=(rows, 16))
    buf = io.StringIO()
    pieces = np.array_split(entries, [5, 70_000]) if rows else [entries]
    assert write_matrix_lines(buf, pieces, 4, 13) == rows
    buf.seek(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chunks = list(read_matrix_lines(buf, 4, 13))
    assert all(c.shape[0] <= LINES_PER_CHUNK for c in chunks)
    back = np.concatenate(chunks) if chunks else np.empty((0, 16), dtype=np.int64)
    assert np.array_equal(back, entries)


def test_read_matrix_lines_skips_empty_lines():
    buf = io.StringIO("# dim=2 mod=5\n\n1,2,3,4\n\n\n0,0,0,4\n\n")
    chunks = list(read_matrix_lines(buf, 2, 5))
    assert np.concatenate(chunks).tolist() == [[1, 2, 3, 4], [0, 0, 0, 4]]
    # a body of empty lines only is an empty dump, read without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(read_matrix_lines(io.StringIO("# dim=2 mod=5\n\n\n"), 2, 5)) == []


@pytest.mark.parametrize("text", [
    "# dim=2 mod=7\n1,2,3,4\n",            # header disagrees
    "# dim=3 mod=5\n1,2,3,4\n",
    "",                                       # no header
    "1,2,3,4\n",
    "# dim=2 mod=5\n1,2,3\n",               # every line too short
    "# dim=2 mod=5\n1,2,3,4\n1,2,3\n",     # ragged
    "# dim=2 mod=5\n1,2,3,4,0\n",
    "# dim=2 mod=5\n1,2,3.0,4\n",           # not an integer
    "# dim=2 mod=5\n1,2,x,4\n",
    "# dim=2 mod=5\n1,2,3,4,\n",
    "# dim=2 mod=5\n1,2,3,4\n# dim=2 mod=5\n",
    "# dim=2 mod=5\n1,2,3,4\n  \n",
    "# dim=2 mod=5\n1,2,3,5\n",             # not canonical
    "# dim=2 mod=5\n1,-2,3,4\n",
    "# dim=2 mod=5\n1,2,3,99999999999999999999\n",
], ids=lambda t: repr(t[:40]))
def test_read_matrix_lines_rejects(text):
    with pytest.raises(ValueError):
        list(read_matrix_lines(io.StringIO(text), 2, 5))
