"""Vectorized GF(p) kernels on numpy batches of small matrices.

Internal module: the scalar, exact public API lives in ``modmat``; these
kernels exist so that exhaustive enumerations, million-element set
constructions and Monte Carlo batches run at C speed.  They share one
contract; each kernel's docstring states its own integer bound.

* Layout.  Every arithmetic kernel takes and returns lanes last: a (d, d, N)
  stack or the (D, N) row-major entries of N matrices, each entry one
  contiguous vector, reduced to [0, p) on input unless the kernel says
  otherwise.  Rows come first only where matrices leave the arithmetic:
  (N, W) uint64 keys, whose integer order is the entries' lex order, the
  (N, D) rows of the key GEMMs (``pack_entries``, ``conjugate_into``), the
  members ``scan_similitudes`` yields, the text codec and ``ModMatrix``.
* Dtype.  ``similitude_check`` and ``batch_det_minus_identity`` compute in
  the dtype they are given, so the caller picks one that holds the bound:
  the scan and the layer check pass ``int16`` entries, ``NARROW_ROWS``
  rows at a time (2 MiB at D = 16).  ``batch_rank`` and the lane kernels
  work in ``int64``; ``pack_entries`` and ``conjugate_into`` read any
  integer dtype, ``uint8`` included.
* Reduction.  The kernels reduce their batches mod p through
  ``reduce_mod``, as x - p * (x // p), in place (``out=x``) where x is a
  fresh array, and not through numpy's integer ``%`` by a scalar, which is
  not vectorized.  The lane kernels in the other modules follow the same
  rule.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

NARROW_ROWS = 1 << 16   # rows per int16 batch in the scan and the layer check


@functools.cache
def inverse_table(p: int) -> np.ndarray:
    """inv[x] = x^-1 mod p for x in [1, p); inv[0] = 0.  Cached, read-only.
    x**(p-2) for prime p, squared and multiplied in int64 (exact for p < 2**31)."""
    x, inv = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64)
    for bit in f"{p - 2:b}":
        inv = inv * inv % p
        if bit == "1":
            inv = inv * x % p
    inv[0] = 0
    inv.flags.writeable = False
    return inv


def reduce_mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p in the dtype of x, as x - p * (x // p), into ``out`` if given.

    The same values as ``x % p``, negative x included (both floor), but
    numpy vectorizes integer floor division by a scalar and not the
    remainder: on 65,536 int16 entries this is about 20 times faster.  An
    intermediate that wraps in a narrow dtype still gives the exact
    residue, since the result lies in [0, p).  ``out=x`` reduces in place,
    with the quotient as the only temporary.  A Python int is reduced by
    ``%``, so scalar callers keep ints."""
    if not isinstance(x, np.ndarray):
        return x % p
    q = x // p
    q *= p
    return np.subtract(x, q, out=out)


def batch_det_minus_identity(a: np.ndarray, lam, p: int) -> np.ndarray:
    """det(a - I) mod p, the eigenvalue-one detector, for a (2g, 2g, N) batch
    of similitudes of multiplier lam (an int, or one per matrix) at g = 1 or 2,
    in the dtype of a.

    det(a - I) is chi(1), chi the characteristic polynomial of a.  From
    a^T J a = lam J, a = lam J^-1 a^-T J, so a is similar to lam a^-T and,
    with det a = lam**g, chi(x) = lam**-g x**2g chi(lam / x): the
    coefficients are palindromic up to powers of lam.  With t the trace and
    c2 the sum of the six principal 2x2 minors, chi(x) = x**4 - t x**3 +
    c2 x**2 - lam t x + lam**2 at g = 2, so chi(1) = 1 - t(1 + lam) + c2 +
    lam**2; at g = 1, chi(1) = 1 - t + lam.  This holds only on similitudes
    of multiplier lam: on any other matrix the value need not be det(a - I).

    Bound: at g = 2, with t <= 4(p-1), 1 + lam <= p, six principal minors
    and lam**2, |chi(1)| <= 1 + 4p(p-1) + 7(p-1)**2 before it is reduced
    (10,021 at p = 31): exact in ``int16`` for p <= 53, which covers the
    layer check (p <= 31) on ``int16`` entries and multipliers.  At g = 1,
    1 - t + lam is at most 3p in magnitude.
    """
    diag = [a[i, i] for i in range(a.shape[0])]
    t = sum(diag)
    if len(diag) == 2:
        return reduce_mod(1 - t + lam, p)
    c2 = sum(diag[i] * diag[j] - a[i, j] * a[j, i]
             for i, j in itertools.combinations(range(4), 2))
    return reduce_mod(1 - t * (1 + lam) + c2 + lam * lam, p)


def batch_rank(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) of a (r, c, N) batch, by fraction-free forward elimination
    on one reduced int64 copy of its columns, (c, r, N).

    At column j every lane's pivot row ``top`` is its first row nonzero there,
    and every row becomes row * t - row[j] * top with t = top[j] (1 where the
    column is zero).  That zeroes column j, never read again, and the pivot
    row, so the rank is the number of columns with a pivot.  Both products lie
    in [0, (p-1)**2] and are reduced after their difference: exact for p < 2**31.
    """
    cols = np.array(a.transpose(1, 0, 2), dtype=np.int64, order="C")
    reduce_mod(cols, p, out=cols)
    rank = np.zeros(cols.shape[2], dtype=np.int64)
    for j in range(cols.shape[0]):
        i = first_nonzero(cols[j])
        t = take_lanes(cols[j], i)
        rank += t != 0
        rest = cols[j + 1:]
        top = take_lanes(rest, i)
        rest *= np.maximum(t, 1)
        rest -= cols[j] * top[:, None]
        reduce_mod(rest, p, out=rest)
    return rank


def first_nonzero(x: np.ndarray) -> np.ndarray:
    """Per lane of a (c, N) array, the first i with x[i] != 0, else c - 1."""
    i = np.full(x.shape[1], x.shape[0] - 1)
    for r in range(x.shape[0] - 2, -1, -1):
        i = np.where(x[r] != 0, r, i)
    return i


def take_lanes(x: np.ndarray, i: np.ndarray) -> np.ndarray:
    """x[..., i[..., k], k] for each lane k of a (..., c, N) array; i is (N,) or (m, N)."""
    c, n = x.shape[-2:]
    return np.take(x.reshape(*x.shape[:-2], c * n), i * n + np.arange(n), axis=-1)


@functools.cache
def _pivot_tables(c: int) -> tuple[np.ndarray, np.ndarray]:
    """At k = p1 * c + p2, p1 < p2: the free columns, and each column's place in (free, p1, p2)."""
    order = np.array([[j for j in range(c) if j not in divmod(k, c)] + [*divmod(k, c)]
                      if k // c < k % c else [*range(c)] for k in range(c * c)]).T
    return order[:c - 2], np.argsort(order, axis=0)


def rank2_kernel_basis(w: np.ndarray, p: int) -> np.ndarray:
    """The kernel bases ``modmat.kernel_basis`` gives for a batch of rank-2
    2 x c matrices, entry-major: (c - 2, c, N) for w (2, c, N) in [0, p).

    With minors m(i, j) = w0[i] w1[j] - w0[j] w1[i], the pivots are the first
    nonzero column p1 and the first j with m(p1, j) != 0, p2; free column f
    gets e_f + (m(p2, f) e_p1 - m(p1, f) e_p2) / m(p1, p2), formed in the
    column order (free, p1, p2) and gathered into place.  Below p**3 in int64.
    """
    _, c, n = w.shape
    p1 = first_nonzero(w[0] | w[1])
    a = take_lanes(w, p1)
    m1 = reduce_mod(a[0] * w[1] - w[0] * a[1], p)      # m(p1, j) for every j
    p2 = first_nonzero(m1)
    b = take_lanes(w, p2)
    scale = inverse_table(p)[take_lanes(m1, p2)]
    free, pos = (np.take(table, p1 * c + p2, axis=1) for table in _pivot_tables(c))
    wf = take_lanes(w, free)
    basis = np.empty((c - 2, c, n), dtype=np.int64)
    basis[:, :c - 2] = np.eye(c - 2, dtype=np.int64)[:, :, None]
    np.multiply(b[0] * wf[1] - wf[0] * b[1], scale, out=basis[:, c - 2])
    np.multiply(take_lanes(m1, free), p - scale, out=basis[:, c - 1])
    reduce_mod(basis[:, c - 2:], p, out=basis[:, c - 2:])
    return take_lanes(basis, pos)


def kernel_line(b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(ok, line) for an entry-major (4, 4, N) batch b with entries in
    (-p, p): ``ok`` marks the lanes of rank 3 whose kernel vector has
    v[0] != 0, and ``line``, (4, N), is v / v[0] there.

    adj = v w^T with w != 0 at rank 3 and adj = 0 below, so ``ok`` is det = 0
    with row 0 of adj nonzero, and v is column j of adj for the first j with
    adj[0, j] != 0.  Cofactor (r, c) expands along row r ^ 1 with the 2x2
    minors of the other row pair, per lane for column j; (-1)**j cancels.
    In int64: a cofactor is below 6 * p**3 (< 2**51 for p < 2**16).
    """
    n, pairs = b.shape[2], list(itertools.combinations(range(4), 2))
    # minors[m, r]: the 2x2 minor of rows (2r, 2r + 1) at the m-th column pair
    minors = np.empty((6, 2, n), dtype=np.int64)
    for (m, (i, j)), r in itertools.product(enumerate(pairs), (0, 2)):
        np.subtract(b[r, i] * b[r + 1, j], b[r, j] * b[r + 1, i], out=minors[m, r // 2])

    def cofactor(row, minor, c):
        # (-1)**c times the 3x3 minor without column c, expanded along row
        rest = [k for k in range(4) if k != c]
        t = [row[k] * minor[pairs.index(tuple(x for x in rest if x != k))] for k in rest]
        return t[0] - t[1] + t[2] if c % 2 == 0 else t[1] - t[0] - t[2]

    row = reduce_mod(np.stack([(-1) ** r * cofactor(b[r ^ 1], minors[:, 1 - r // 2], 0)
                               for r in range(4)]), p)
    det = reduce_mod(sum(b[r, 0] * row[r] for r in range(4)), p)     # along column 0
    j = first_nonzero(row)
    pick = np.take(b, (j ^ 1) * 4 * n + np.arange(0, 4 * n, n)[:, None] + np.arange(n))
    minor = take_lanes(minors, (j < 2).astype(np.int64))      # row j ^ 1 and its minors
    line = reduce_mod(np.stack([cofactor(pick, minor, c) for c in range(4)]), p)
    return (det == 0) & (line[0] != 0), reduce_mod(line * inverse_table(p)[line[0]], p)


# -- packing matrices into sortable integer keys --
#
# Entries are packed row-major, base p, most significant first, so the
# integer order of keys equals lexicographic order of entry tuples.  One
# 64-bit word holds up to floor(63 / log2(p)) entries; wider matrices are
# split across several words and compared left to right.

PACK_ROWS = 1 << 16     # rows per float64 slice in pack_entries: see its docstring
GEMM_ROWS = 1 << 12     # rows per digits @ powers product in _pack_into: likewise


@functools.cache
def _digits_below(p: int, bits: int) -> int:
    """Largest k with p**k < 2**bits, and at least 1."""
    k = 1
    while p ** (k + 1) < (1 << bits):
        k += 1
    return k


def pack_words(p: int, count: int) -> int:
    """Number of 64-bit words needed to pack `count` base-p digits."""
    return -(-count // _digits_below(p, 63))


def piece_digits(p: int) -> int:
    """Largest k with p**k < 2**53: k base-p digits sum exactly in float64."""
    return _digits_below(p, 53)


@functools.cache
def _pack_plan(p: int, dd: int) -> tuple[np.ndarray, tuple[tuple[tuple[int, np.uint64], ...], ...]]:
    """How ``_pack_into`` packs D base-p digits: (powers, words).

    Column c of the (D, P) float64 ``powers`` holds p**(width-1), ..., p**0 at
    the digits of piece c and zeros elsewhere.  ``words[w]`` lists word w's
    pieces, most significant first, as (column, p**width).  Cached,
    read-only, built on the first call for each (p, D).
    """
    words = pack_words(p, dd)
    per = -(-dd // words)
    k = piece_digits(p)
    columns, plan = [], []
    for w in range(words):
        end = min((w + 1) * per, dd)
        pieces = []
        for lo in range(w * per, end, k):
            width = min(k, end - lo)
            column = np.zeros(dd)
            column[lo:lo + width] = float(p) ** np.arange(width - 1, -1, -1)
            pieces.append((len(columns), np.uint64(p ** width)))
            columns.append(column)
        plan.append(tuple(pieces))
    powers = np.stack(columns, axis=1)
    powers.flags.writeable = False
    return powers, tuple(plan)


def _pack_into(digits: np.ndarray, plan: tuple, out: np.ndarray) -> None:
    """Pack the (R, D) float64 digits, in [0, p), into the (R, W) uint64 rows
    of out, by the ``_pack_plan(p, D)`` given as ``plan``.

    One float64 product with the plan's power columns, ``GEMM_ROWS`` rows
    at a time, sums every piece at once, exact in any summation order
    because a piece is below p**k < 2**53; the pieces of a word are joined
    in uint64 as ``word * p**width + piece``, never past the word's
    p**k < 2**63 (``pack_words``).  A product is at most GEMM_ROWS * D * P
    multiply-adds for P pieces (2**17 at D = 16 and p <= 31, where P <= 2),
    below the size from which OpenBLAS threads it: on a 2-core Xeon the
    threaded call can stall for milliseconds (at p = 5, packing 82,320 rows
    took up to 7.9 ms with one product per slice, about 1 ms with 2**12-row
    products).
    """
    powers, words = plan
    pieces = np.empty((digits.shape[0], powers.shape[1]))
    for start in range(0, digits.shape[0], GEMM_ROWS):
        rows = slice(start, start + GEMM_ROWS)
        np.matmul(digits[rows], powers, out=pieces[rows])
    for w, ((c, _), *rest) in enumerate(words):
        out[:, w] = pieces[:, c]
        for c, scale in rest:
            out[:, w] *= scale
            out[:, w] += pieces[:, c].astype(np.uint64)


def pack_entries(flat: np.ndarray, p: int) -> np.ndarray:
    """Pack (N, D) entry arrays into (N, W) uint64 key arrays.

    ``flat`` may have any integer dtype; its entries must lie in [0, p).
    Each slice of ``PACK_ROWS`` rows is cast to float64 and packed into
    the output by ``_pack_into``, so the float64 copy stays at
    PACK_ROWS * D * 8 bytes (8 MiB at D = 16).  The slice stays that large:
    2**12-row slices, each a separate 512 KiB allocation, left the C heap
    larger and raised the peak RSS of a union-layer build by 0.7 MB.
    """
    n, dd = flat.shape
    plan = _pack_plan(p, dd)
    out = np.empty((n, pack_words(p, dd)), dtype=np.uint64)
    for start in range(0, n, PACK_ROWS):
        _pack_into(flat[start:start + PACK_ROWS].astype(np.float64), plan,
                   out[start:start + PACK_ROWS])
    return out


def unpack_entries(keys: np.ndarray, p: int, dd: int) -> np.ndarray:
    """Invert pack_entries back to (N, D) int64 entry arrays, one divmod per digit.

    The reference decoder of the tests and the benchmark; the package
    decodes by ``unpack_digits``."""
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


@functools.cache
def _digit_table(p: int) -> np.ndarray:
    """(k, p**k) int16, column v the k base-p digits of v, most significant
    first, for the largest k with p**k < 2**10 (at least 1).  Cached,
    read-only; p <= 2**15.  A row of 2**10 digits stays in L1 cache."""
    k = _digits_below(p, 10)
    v = np.arange(p ** k)
    table = np.empty((k, p ** k), dtype=np.int16)
    for j in range(k - 1, -1, -1):
        table[j] = v % p
        v //= p
    table.flags.writeable = False
    return table


def unpack_digits(keys: np.ndarray, p: int, dd: int) -> np.ndarray:
    """Invert pack_entries into (D, N) int16 entries, lanes last, for p <= 2**15.

    A word is split into pieces of k digits by one division each, and a
    piece's digits are gathered from ``_digit_table`` into their entries' rows.
    """
    n, words = keys.shape
    per = -(-dd // words)
    table = _digit_table(p)
    k = table.shape[0]
    base = p ** k
    out = np.empty((dd, n), dtype=np.int16)
    for w in range(words):
        vals = keys[:, w].astype(np.int64)
        # digits [lo, hi) of the word, least significant piece first
        for hi in range(min(per, dd - w * per), 0, -k):
            lo = max(hi - k, 0)
            if lo:
                quot = vals // base
                piece, vals = vals - quot * base, quot
            else:
                piece = vals
            for j in range(lo, hi):
                np.take(table[k - hi + j], piece, out=out[w * per + j], mode="clip")
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

TILE_BYTES = 128 << 10  # float32 product bytes per row tile in conjugate_into


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
    entries in [0, p), and ``out`` an (N*m, W) uint64 array.  Rows are
    row-major: rows [i*m, (i+1)*m) receive the keys (as ``pack_entries``
    packs them) of row i's conjugates, by pair 0, ..., m-1.

    Tiles: ``rows = max(1, TILE_BYTES // (m * D * 4))`` rows of flat at a
    time go through one float32 product with the whole (D, m*D) stack, so
    a tile's product is at most TILE_BYTES (20 rows at m = 100, D = 16) and
    its GEMM at most 2**19 multiply-adds (rows * m*D * D).  That keeps
    OpenBLAS on its single-threaded path and the tile in L2 cache.  On a
    2-core Xeon OpenBLAS threads a GEMM from between 0.82M and 1.02M
    multiply-adds, slower per row at these sizes: a 40-row, 256 KiB tile at
    m = 100 lost the whole gain.  The
    product is cast to uint16, reduced there in place, widened to float64
    digits and packed by ``_pack_into`` straight into out, whose rows for a
    tile are contiguous.  The float32 product, its uint16 copy and quotient
    and the float64 digits (4 + 2 + 2 + 8 bytes a product entry, at most
    4 * TILE_BYTES = 512 KiB while rows > 1) are allocated once per call and
    reused for every tile.

    Exactness: ``ops`` is reduced mod p once, so each output entry is a sum
    of D nonnegative integer terms, each at most (p-1)**2.  At g = 2 (D = 16)
    and the hard cap p = 31 that sum is at most 16 * 30**2 = 14,400, so it
    is exact in float32 (below 2**24) whatever order BLAS sums in, and it
    fits uint16 (below 2**16), where it is reduced as e - p * (e // p),
    which never leaves [0, e].  Raises ValueError when D * (p-1)**2 >= 2**16.
    """
    n, dd = flat.shape
    if dd * (p - 1) ** 2 >= 1 << 16:
        raise ValueError(f"conjugation sums at p={p}, D={dd} may not fit uint16")
    width = ops.shape[1]
    m = width // dd
    rows = max(1, TILE_BYTES // (width * 4))
    ops = (ops % p).astype(np.float32)
    a = np.empty((rows, dd), dtype=np.float32)
    prod = np.empty((rows, width), dtype=np.float32)
    e, q = np.empty((2, rows, width), dtype=np.uint16)
    digits = np.empty((rows * m, dd), dtype=np.float64)
    plan = _pack_plan(p, dd)
    for start in range(0, n, rows):
        t = min(rows, n - start)
        if t < rows:        # the last tile only
            a, prod, e, q, digits = a[:t], prod[:t], e[:t], q[:t], digits[:t * m]
        a[:] = flat[start:start + t]
        np.matmul(a, ops, out=prod)
        e[:] = prod
        np.floor_divide(e, p, out=q)    # reduce_mod, in place in the workspaces
        q *= p
        e -= q
        digits[:] = e.reshape(t * m, dd)
        _pack_into(digits, plan, out[start * m:(start + t) * m])


# -- exhaustive candidate scan --

def index_to_entries(idx: np.ndarray, p: int, dd: int) -> np.ndarray:
    """Base-p digits of idx, most significant first: the (D, N) row-major
    entries, as ``unpack_digits`` gives them.  ``sympgroup.scan_entries`` keeps
    p**dd < 2**60, so an index is a one-word key and p < 2**15."""
    return unpack_digits(idx[:, None], p, dd)


def scan_dtype(g: int, p: int) -> type:
    """int16 where it holds g * (p-1)**2, the bound on ``similitude_check``'s
    pairings at genus g, else int32.  Under the scan's p**(4g**2) < 2**60
    that bound is below 2**31: p < 2**15 at g = 1, p <= 13 at g = 2."""
    return np.int16 if g * (p - 1) ** 2 < 1 << 15 else np.int32


def similitude_check(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix (multiplier, is-similitude) over a (2g, 2g, N) batch, in
    the dtype of a, which must hold g * (p-1)**2: a pairing sums g minors
    (1,800 at g = 2, p <= 31).  The scan picks it by ``scan_dtype``.

    The multiplier slot is meaningful only where the mask is True.
    """
    def pairing(i, j):
        # the row pairs' 2x2 minors at columns (i, j), summed as g vectors
        minors = a[0::2, i] * a[1::2, j] - a[0::2, j] * a[1::2, i]
        return reduce_mod(sum(minors), p)

    lam = pairing(0, 1)
    ok = lam != 0
    for i, j in itertools.combinations(range(a.shape[0]), 2):
        if (i, j) != (0, 1):
            ok &= pairing(i, j) == (lam if i % 2 == 0 and j == i + 1 else 0)
    return lam, ok


def scan_similitudes(g: int, p: int, allowed: np.ndarray):
    """Scan all p**(2g)^2 candidate matrices in row-major lexicographic order.

    Yields (entries, multipliers) int64 array pairs for the candidates that
    are symplectic similitudes whose multiplier is allowed.  ``allowed`` is
    a boolean mask over residues [0, p).  Candidates are checked
    ``NARROW_ROWS`` at a time, decoded by ``index_to_entries`` and checked
    in ``scan_dtype(g, p)`` (int16 while g * (p-1)**2 < 2**15); only the
    kept members are widened, into (N, 2g, 2g) rows.
    """
    dim = 2 * g
    dd = dim * dim
    total = p ** dd
    dtype = scan_dtype(g, p)
    for start in range(0, total, NARROW_ROWS):
        idx = np.arange(start, min(start + NARROW_ROWS, total), dtype=np.int64)
        a = index_to_entries(idx, p, dd).astype(dtype, copy=False).reshape(dim, dim, -1)
        lam, ok = similitude_check(a, p)
        ok &= allowed[lam]
        if ok.any():
            rows = np.compress(ok, a, axis=-1).transpose(2, 0, 1)
            yield rows.astype(np.int64, order="C"), np.compress(ok, lam).astype(np.int64)
