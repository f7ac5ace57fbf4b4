"""Vectorized GF(p) kernels on numpy batches of small matrices.

Internal module: arrays here are raw ``int64`` stacks of shape (N, d, d)
with entries already reduced mod p; the entry arrays that ``pack_entries``
and ``conjugate_into`` read may have any integer dtype, ``uint8`` included.
The scalar, exact public API lives in ``modmat``; these kernels exist so
that exhaustive enumerations, million-element set constructions and Monte
Carlo batches run at C speed.

Integer bounds, kernel by kernel (entries in [0, p) on input):

* ``batch_det``: at d = 4 each 2x2 minor is reduced before the products of
  two minors are summed, so every intermediate stays below 6 * p**2.
* ``pairings``, ``similitude_check``: products of two entries, summed
  over at most d terms: below d * p**2.
* ``batch_rref`` (and ``batch_rank``, ``batch_kernel_basis``): entries
  stay within p + c * p**2 for c columns before the final reduction.
* ``pack_entries``: a word holds at most k base-p digits with p**k < 2**63
  by construction (``pack_words``).  It is summed in pieces of at most
  ``piece_digits(p)`` digits, each a float64 dot product below 2**53 and so
  exact in any summation order; the pieces are joined in uint64 without
  exceeding the word's p**k.  A piece holds at least 8 digits for p <= 31.
  Rows are packed ``PACK_ROWS`` at a time, so the float64 copy of the
  entries stays at PACK_ROWS * D * 8 bytes (8 MiB at D = 16) however many
  rows are packed.
* ``conjugate_into``: float64 sums of at most D * (p-1)**3, exact because
  they stay below 2**53.  They are reduced in uint16 while that bound is
  below 2**16 (p <= 13 at D = 16) and in uint32 below 2**31; see its
  docstring.

The int64 bounds hold far beyond any modulus whose scan fits the
enumeration budget; ``conjugate_into`` checks its bound and raises
``ValueError`` past 2**31 (p > 512 at D = 16, above the materialization
cap).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def inverse_table(p: int) -> np.ndarray:
    """inv[x] = x^-1 mod p for x in [1, p); inv[0] = 0."""
    inv = np.zeros(p, dtype=np.int64)
    inv[1:] = [pow(x, -1, p) for x in range(1, p)]
    return inv


def batch_det(a: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a (N, d, d) batch, closed-form for d = 2 and 4."""
    d = a.shape[-1]
    if d == 2:
        return (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]) % p
    if d == 4:
        # Laplace expansion along the first two rows: pair each 2x2 minor of
        # rows (0,1) with the complementary minor of rows (2,3).
        def top(i, j):
            return (a[:, 0, i] * a[:, 1, j] - a[:, 0, j] * a[:, 1, i]) % p

        def bot(i, j):
            return (a[:, 2, i] * a[:, 3, j] - a[:, 2, j] * a[:, 3, i]) % p

        return (
            top(0, 1) * bot(2, 3)
            - top(0, 2) * bot(1, 3)
            + top(0, 3) * bot(1, 2)
            + top(1, 2) * bot(0, 3)
            - top(1, 3) * bot(0, 2)
            + top(2, 3) * bot(0, 1)
        ) % p
    raise NotImplementedError(f"batch_det supports d = 2 and 4, got {d}")


def batch_det_minus_identity(a: np.ndarray, p: int) -> np.ndarray:
    """det(a - I) mod p, the eigenvalue-one detector."""
    d = a.shape[-1]
    b = (a - np.eye(d, dtype=np.int64)) % p
    return batch_det(b, p)


def batch_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms over GF(p) of a (N, r, c) batch.

    Returns (reduced, pivots): ``reduced`` is the (N, r, c) batch of RREFs,
    equal lane by lane to ``modmat.rref_mod`` (the RREF is unique), and
    ``pivots[i, k]`` is the pivot column of row k of lane i, or -1 past the
    lane's rank.  Each column pass takes, on every lane at once, the first
    unused row that is nonzero there as the pivot row, scales it to a
    leading 1 and clears the column in every other row; the pivot rows are
    put in order once at the end.  Only the pivot row and the column
    multipliers are reduced inside the loop, so an entry drifts by less
    than p**2 per column and the batch is reduced once after the loop.
    """
    a = np.array(a, dtype=np.int64) % p
    n, nrows, ncols = a.shape
    inv = inverse_table(p)
    flat = a.reshape(n * nrows, ncols)
    first_row = np.arange(n) * nrows
    used = np.zeros((n, nrows), dtype=bool)
    pivot_of_row = np.full(n * nrows, -1, dtype=np.int64)
    for c in range(ncols):
        col = a[:, :, c] % p
        usable = (col != 0) & ~used
        at = first_row + usable.argmax(axis=1)
        live = usable.reshape(-1)[at]
        if not live.any():
            continue
        top = flat[at] % p
        top = top * inv[top[:, c]][:, None] % p
        col *= live[:, None]
        col.reshape(-1)[at] = 0
        a -= col[:, :, None] * top[:, None, :]
        at, top = at[live], top[live]
        flat[at] = top
        used.reshape(-1)[at] = True
        pivot_of_row[at] = c
    a %= p
    pivots = pivot_of_row.reshape(n, nrows)
    order = np.argsort(np.where(pivots >= 0, pivots, ncols), axis=1, kind="stable")
    return (np.take_along_axis(a, order[:, :, None], axis=1),
            np.take_along_axis(pivots, order, axis=1))


def batch_rank(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) of a (N, r, c) batch."""
    return (batch_rref(a, p)[1] >= 0).sum(axis=1)


def batch_kernel_basis(a: np.ndarray, p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Right kernels of a (N, r, c) batch in the canonical form of ``modmat.kernel_basis``.

    Returns (basis, rank): ``basis[i]`` is the (k, c) kernel basis of lane i
    when that lane has nullity k (one vector per free column, ascending,
    with a 1 there and minus the RREF entries at the pivots), and holds
    meaningless rows otherwise; ``rank`` lets the caller tell the two apart.
    """
    reduced, pivots = batch_rref(a, p)
    n, nrows, ncols = a.shape
    lanes = np.arange(n)
    # column ncols is a sink for the -1 slots of lanes past their rank
    is_pivot = np.zeros((n, ncols + 1), dtype=bool)
    is_pivot[lanes[:, None], pivots] = True
    free = np.argsort(is_pivot[:, :ncols], axis=1, kind="stable")[:, :k]
    basis = np.zeros((n, k, ncols), dtype=np.int64)
    for t in range(k):
        basis[lanes, t, free[:, t]] = 1
    for row in range(nrows):
        at = np.flatnonzero(pivots[:, row] >= 0)
        for t in range(k):
            basis[at, t, pivots[at, row]] = -reduced[at, row, free[at, t]] % p
    return basis, (pivots >= 0).sum(axis=1)


# -- packing matrices into sortable integer keys --
#
# Entries are packed row-major, base p, most significant first, so the
# integer order of keys equals lexicographic order of entry tuples.  One
# 64-bit word holds up to floor(63 / log2(p)) entries; wider matrices are
# split across several words and compared left to right.

PACK_ROWS = 1 << 16     # rows per float64 slice in pack_entries


def pack_words(p: int, count: int) -> int:
    """Number of 64-bit words needed to pack `count` base-p digits."""
    per = 1
    while p ** (per + 1) < (1 << 63):
        per += 1
    return -(-count // per)


def piece_digits(p: int) -> int:
    """Largest k with p**k < 2**53: k base-p digits sum exactly in float64."""
    k = 1
    while p ** (k + 1) < (1 << 53):
        k += 1
    return k


def pack_entries(flat: np.ndarray, p: int) -> np.ndarray:
    """Pack (N, D) entry arrays into (N, W) uint64 key arrays.

    ``flat`` may have any integer dtype; its entries must lie in [0, p).
    Each word is built from pieces of at most ``piece_digits(p)`` digits.
    A piece is one float64 matrix-vector product (BLAS), exact because its
    value is below p**k < 2**53; the pieces are joined in uint64 as
    ``word * p**width + piece``.  Each slice of ``PACK_ROWS`` rows is cast
    to float64 and packed into ``out`` on its own.
    """
    n, dd = flat.shape
    words = pack_words(p, dd)
    per = -(-dd // words)
    k = piece_digits(p)
    out = np.zeros((n, words), dtype=np.uint64)
    for start in range(0, n, PACK_ROWS):
        a = flat[start:start + PACK_ROWS].astype(np.float64)
        dst = out[start:start + PACK_ROWS]
        for w in range(words):
            end = min((w + 1) * per, dd)
            for lo in range(w * per, end, k):
                width = min(k, end - lo)
                powers = float(p) ** np.arange(width - 1, -1, -1)
                piece = (a[:, lo:lo + width] @ powers).astype(np.uint64)
                if lo > w * per:
                    piece += dst[:, w] * np.uint64(p ** width)
                dst[:, w] = piece
    return out


def unpack_entries(keys: np.ndarray, p: int, dd: int) -> np.ndarray:
    """Invert pack_entries back to (N, D) int64 entry arrays."""
    n, words = keys.shape
    per = -(-dd // words)
    out = np.zeros((n, dd), dtype=np.int64)
    for w in range(words):
        k = min(per, dd - w * per)
        vals = keys[:, w].astype(np.int64)
        for j in range(k - 1, -1, -1):
            out[:, w * per + j] = vals % p
            vals //= p
    return out


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sort (N, W) key rows lexicographically in place and drop repeats.

    Returns ``keys`` itself when its rows are distinct, else a compacted
    copy of the sorted rows.  Distinct rows are counted by comparing each
    sorted row with the one before, so the count is measured, not assumed.
    """
    n = keys.shape[0]
    if keys.shape[1] == 1:
        keys[:, 0].sort()
    else:
        keys[:] = keys[np.lexsort(keys.T[::-1])]
    # compare slice by slice, so the scan adds no (N,)-sized temporary
    step = 1 << 20
    repeats = 0
    for lo in range(1, n, step):
        hi = min(lo + step, n)
        repeats += int(np.count_nonzero((keys[lo:hi] == keys[lo - 1:hi - 1]).all(axis=1)))
    if not repeats:
        return keys
    keep = np.ones(n, dtype=bool)
    keep[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return keys[keep]


def searchsorted_keys(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership mask of query key rows in lexicographically sorted keys."""
    if sorted_keys.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=bool)
    if sorted_keys.shape[1] == 1:
        pos = np.searchsorted(sorted_keys[:, 0], queries[:, 0])
        pos = np.minimum(pos, sorted_keys.shape[0] - 1)
        return sorted_keys[pos, 0] == queries[:, 0]
    # multi-word rows: byte-wise void comparison matches the numeric
    # lexicographic order only after a big-endian re-encoding
    void = np.dtype((np.void, sorted_keys.dtype.itemsize * sorted_keys.shape[1]))
    hay = np.ascontiguousarray(sorted_keys.astype(">u8")).view(void).ravel()
    ned = np.ascontiguousarray(queries.astype(">u8")).view(void).ravel()
    pos = np.searchsorted(hay, ned)
    pos = np.minimum(pos, hay.shape[0] - 1)
    return hay[pos] == ned


# -- conjugation of a batch by a fixed family of matrices --
#
# With row-major flattening, vec(A C B) = (A kron B^T) vec(C), so one
# conjugation C -> T^-1 C T of every row of an (N, d*d) batch is a single
# dense product with the d*d x d*d operator kron(T^-1, T^T)^T.

def conjugation_operators(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Stack kron(T^-1, T^T)^T over the (T, T^-1) pairs into a (D, D*m) float64 array.

    Columns [j*D, (j+1)*D) hold the operator of the j-th pair, D = d*d:
    entry (a*d + b, j*D + c*d + e) is T^-1[c, a] * T[b, e] of that pair, one
    einsum over the whole stack.
    """
    t, tinv = (np.array(stack, dtype=np.float64) for stack in zip(*pairs))
    m, d, _ = t.shape
    return np.einsum("jca,jbe->abjce", tinv, t).reshape(d * d, m * d * d)


def conjugate_into(flat: np.ndarray, ops: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write the packed keys of T^-1 C T for every row C of flat and every T of ops.

    ``flat`` is an (N, D) batch of entries in [0, p) of any integer dtype,
    ``ops`` the stack that ``conjugation_operators`` built from m pairs with
    entries in [0, p), and ``out`` an (N*m, W) uint64 array: rows
    [j*N, (j+1)*N) receive the keys (``pack_entries``) of the conjugates by
    the j-th pair.

    Exactness: an operator entry is a product of two entries of T^-1 and T,
    so each output entry is a sum of D nonnegative terms, each at most
    (p-1)**3.  At g = 2 (D = 16) and the hard cap p = 31 that sum is below
    16 * 30**3 = 432,000, so it is exact in float64 (below 2**53) whatever
    order BLAS sums in.  The sums are cast to uint16 while D * (p-1)**3 <
    2**16 (p <= 13 at D = 16) and to uint32 otherwise, and reduced there as
    e - p * (e // p), which never leaves [0, e].  The reduced entries are
    packed by ``pack_entries``.  Raises ValueError when D * (p-1)**3 >=
    2**31.
    """
    n, dd = flat.shape
    bound = dd * (p - 1) ** 3
    if bound >= 1 << 31:
        raise ValueError(f"conjugation sums at p={p}, D={dd} may not fit int32")
    small = np.uint16 if bound < 1 << 16 else np.uint32
    a = flat.astype(np.float64)
    for j in range(ops.shape[1] // dd):
        entries = (a @ ops[:, j * dd:(j + 1) * dd]).astype(small)
        entries -= p * (entries // p)
        out[j * n:(j + 1) * n] = pack_entries(entries, p)


# -- exhaustive candidate scan --

def index_to_entries(idx: np.ndarray, p: int, dd: int) -> np.ndarray:
    """Base-p digits of idx, most significant first: the row-major entries
    (one-word keys of ``unpack_entries``, as a scan in budget has p**dd < 2**63)."""
    return unpack_entries(idx[:, None], p, dd)


def pairings(a: np.ndarray, p: int, i: int, j: int) -> np.ndarray:
    """Standard symplectic pairing of columns i and j of a (N, 2g, 2g) batch."""
    g = a.shape[-1] // 2
    acc = np.zeros(a.shape[0], dtype=np.int64)
    for b in range(g):
        acc += a[:, 2 * b, i] * a[:, 2 * b + 1, j] - a[:, 2 * b + 1, i] * a[:, 2 * b, j]
    return acc % p


def similitude_check(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix (multiplier, is-similitude) over a (N, 2g, 2g) batch.

    The multiplier slot is meaningful only where the mask is True.
    """
    dim = a.shape[-1]
    lam = pairings(a, p, 0, 1)
    ok = lam != 0
    for i in range(dim):
        for j in range(i + 1, dim):
            if (i, j) == (0, 1):
                continue
            e = pairings(a, p, i, j)
            if i % 2 == 0 and j == i + 1:
                ok &= e == lam
            else:
                ok &= e == 0
    return lam, ok


def scan_similitudes(g: int, p: int, allowed: np.ndarray):
    """Scan all p**(2g)^2 candidate matrices in row-major lexicographic order.

    Yields (entries, multipliers) array pairs for the candidates that are
    symplectic similitudes whose multiplier is allowed.  ``allowed`` is a
    boolean mask over residues [0, p).  Candidates are checked 2^20 at a time.
    """
    dim = 2 * g
    dd = dim * dim
    total = p ** dd
    step = 1 << 20
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        a = index_to_entries(idx, p, dd).reshape(-1, dim, dim)
        lam, ok = similitude_check(a, p)
        ok &= allowed[lam]
        if ok.any():
            yield np.compress(ok, a, axis=0), np.compress(ok, lam)
