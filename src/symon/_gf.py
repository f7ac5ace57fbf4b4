"""Vectorized GF(p) kernels on numpy batches of small matrices.

Internal module: arrays here are raw integer stacks of shape (N, d, d)
with entries already reduced mod p.  The elementwise kernels
(``row_pair_minors``, ``similitude_check``, ``batch_det_minus_identity``)
compute in the dtype they are given, so the caller picks one that holds
the bound below; ``batch_rank`` and the lane kernels work in ``int64``;
``pack_entries`` and ``conjugate_into`` read any integer dtype, ``uint8``
included.  The scalar, exact public API lives in ``modmat``; these kernels
exist so that exhaustive enumerations, million-element set constructions
and Monte Carlo batches run at C speed.

Integer bounds, kernel by kernel (entries in [0, p) on input):

* ``row_pair_minors``: an unreduced minor has magnitude at most (p-1)**2.
* ``similitude_check``: a pairing sums g minors, so at most g * (p-1)**2
  (1,800 at g = 2, p <= 31).  The candidate scan runs it on ``int16``
  digits while g * (p-1)**2 < 2**15 (``scan_dtype``), on ``int32`` past
  that (g = 1, p >= 191, say) and on ``int64`` past 2**31.
* ``batch_det_minus_identity``: chi(1) = 1 - t(1+lam) + c2 + lam**2 at
  g = 2 sums a trace t <= 4(p-1) times 1 + lam <= p, six principal minors
  and lam**2, so |chi(1)| <= 1 + 4p(p-1) + 7(p-1)**2 before it is reduced
  (10,021 at p = 31): exact in ``int16`` for p <= 53, which covers the
  layer check (p <= 31) on the ``int16`` entries of ``unpack_digits`` and
  ``similitude_check``'s ``int16`` multipliers.  At g = 1, 1 - t + lam is
  at most 3p in magnitude.
* ``unpack_digits`` and ``index_to_entries``: a digit is below p, so it
  fits ``int16`` for p <= 2**15; past that the scan decodes in int64.
  The scan and the layer check decode and check ``NARROW_ROWS`` (2**16)
  rows at a time, so a batch of ``int16`` entries stays at 2 MiB at D = 16.
* ``batch_rank`` reduces its (N, r, c) input itself; both products of a
  step lie in [0, (p-1)**2] and are reduced after their difference, so
  every intermediate is below p**2 in magnitude, exact in int64 for
  p < 2**31.
* ``rank2_kernel_basis``: a minor times an inverse is below p**3 (2**48 at
  p < 2**16); ``kernel_line``: on entries in (-p, p) a minor is below
  2 * p**2 and a cofactor, three entries times minors, below 6 * p**3
  (< 2**51 for p < 2**16), and it is reduced before it is scaled.
* ``pack_entries``: a word holds at most k base-p digits with p**k < 2**63
  by construction (``pack_words``).  It is summed in pieces of at most
  ``piece_digits(p)`` digits, each a float64 dot product below 2**53 and so
  exact in any summation order; the pieces are joined in uint64 without
  exceeding the word's p**k.  A piece holds at least 8 digits for p <= 31.
  Rows are packed ``PACK_ROWS`` at a time, so the float64 copy of the
  entries stays at PACK_ROWS * D * 8 bytes (8 MiB at D = 16) however many
  rows are packed.  The ``digits @ powers`` product runs ``GEMM_ROWS``
  (2**12) rows at a time: at most 2**12 * D * P multiply-adds for P
  pieces (2**17 at D = 16 and p <= 31, where P <= 2), below the size from
  which OpenBLAS threads it.  On a 2-core Xeon the threaded call can stall
  for milliseconds: at p = 5, packing 82,320 rows took up to 7.9 ms with
  one product per slice and about 1 ms with 2**12-row products.  The
  slice itself stays large: 2**12-row float64 slices, each a separate
  512 KiB allocation, left the C heap larger and raised the peak RSS of a
  union-layer build by 0.7 MB.
* ``conjugate_into``: the operator is reduced mod p first, so an output
  entry is a float32 sum of D terms in [0, (p-1)**2], at most D * (p-1)**2
  (14,400 at D = 16, p = 31).  That is exact in float32 (below 2**24) and
  fits uint16 (below 2**16), where it is reduced; see its docstring.

The kernels reduce mod p through ``reduce_mod``, as x - p * (x // p), in
place (``out=x``) where x is a fresh array: numpy's integer ``%`` by a
scalar is not vectorized.  That covers ``similitude_check``,
``batch_det_minus_identity``, ``batch_rank`` (its input copy and every
elimination step), ``rank2_kernel_basis`` and ``kernel_line``, and the
lane kernels outside this module: ``prng.CounterLanes.below``,
``sympgroup.sample_entries_lanes`` (its digits, its pivot entry and its
kernel change of basis) with ``_combine_lanes`` and ``_pair_lanes``,
``sympgroup.transvection_lanes`` (which takes ``contains_lanes``'s alpha
and beta unreduced) and ``specialsets.DirectMembership.contains_lanes``
(both conjugation products).
``CounterLanes.below`` reduces uint64 draws u by n < 2**63: n * (u // n)
is at most u, so u - n * (u // n) never wraps, and the residue reads as
the same value in int64.

Shear conjugation runs in row tiles (``conjugate_into``): ``rows =
max(1, TILE_BYTES // (m * D * 4))`` batch rows at a time go through one
float32 GEMM against the whole (D, m*D) stack of m operators, so a tile's
product stays within ``TILE_BYTES`` (128 KiB) and its GEMM within
rows * m*D * D <= 2**19 multiply-adds.  On a 2-core Xeon, OpenBLAS
threads a GEMM from somewhere between 0.82M and 1.02M multiply-adds, and
at these sizes its threaded path is slower per row: a 40-row, 256 KiB
tile at m = 100 lost the whole gain.  Its workspaces (16 bytes per product
entry, 512 KiB while rows > 1) are allocated once per call and reused for
every tile.  Keys are written row-major, row i's m conjugates at
[i*m, (i+1)*m), so a tile's keys are one contiguous block.  ``pack_entries``
and the tile loop share one packer, ``_pack_into``.

The int64 bounds hold far beyond any modulus whose scan fits the
enumeration budget; ``conjugate_into`` checks its bound and raises
``ValueError`` once D * (p-1)**2 reaches 2**16 (p >= 67 at D = 16, above
the materialization cap of 31).
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
    with the quotient as the only temporary."""
    q = x // p
    q *= p
    return np.subtract(x, q, out=out)


def row_pair_minors(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """Unreduced 2x2 minors at columns (i, j) of the row pairs (2b, 2b+1) of
    a (N, 2g, 2g) batch, as an (N, g) array; the caller reduces them."""
    return a[:, 0::2, i] * a[:, 1::2, j] - a[:, 0::2, j] * a[:, 1::2, i]


def batch_det_minus_identity(a: np.ndarray, lam, p: int) -> np.ndarray:
    """det(a - I) mod p, the eigenvalue-one detector, for a (N, 2g, 2g) batch
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
    """
    diag = [a[:, i, i] for i in range(a.shape[-1])]
    t = sum(diag)
    if len(diag) == 2:
        return reduce_mod(1 - t + lam, p)
    c2 = sum(diag[i] * diag[j] - a[:, i, j] * a[:, j, i]
             for i, j in itertools.combinations(range(4), 2))
    return reduce_mod(1 - t * (1 + lam) + c2 + lam * lam, p)


def batch_rank(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) of a (N, r, c) batch, by fraction-free forward elimination.

    At column j every lane takes its first row that is nonzero there as the
    pivot row ``top``, and every row becomes row * t - row[j] * top with
    t = top[j] (t = 1 on a lane with no such row, whose column j is zero).
    The step zeroes column j, which is never read again, so only the
    columns after it are updated, in place.  It zeroes the pivot row too,
    so no row is a pivot twice, and the rank is the number of columns that
    found a pivot.
    """
    a = np.array(a, dtype=np.int64)
    reduce_mod(a, p, out=a)
    lanes = np.arange(a.shape[0])
    rank = np.zeros(a.shape[0], dtype=np.int64)
    for j in range(a.shape[2]):
        top = a[lanes, (a[:, :, j] != 0).argmax(axis=1), j:]
        rank += top[:, 0] != 0
        rest = a[:, :, j + 1:]
        rest *= np.maximum(top[:, :1], 1)[:, :, None]
        rest -= a[:, :, j, None] * top[:, None, 1:]
        reduce_mod(rest, p, out=rest)
    return rank


def rank2_kernel_basis(w: np.ndarray, p: int) -> np.ndarray:
    """The right kernels of a rank-2 (N, 2, c) batch, as ``modmat.kernel_basis``
    gives them, in an (N, c - 2, c) array.

    Free column f gets e_f - r1[f] e_p1 - r2[f] e_p2, with the RREF rows read
    off the 2x2 minors m: p1 is the first nonzero column, p2 the first j with
    m(p1, j) != 0, and r1[f] = m(f, p2) / m(p1, p2), r2[f] = m(p1, f) / m(p1, p2).
    """
    n, _, c = w.shape
    at = np.arange(n)
    m = np.zeros((n, c, c), dtype=np.int64)
    for i, j in itertools.combinations(range(c), 2):
        m[:, i, j] = row_pair_minors(w, i, j)[:, 0]
        m[:, j, i] = -m[:, i, j]
    p1 = ((w[:, 0] != 0) | (w[:, 1] != 0)).argmax(axis=1)
    top = reduce_mod(m[at, p1], p)
    p2 = (top != 0).argmax(axis=1)
    scale = inverse_table(p)[top[at, p2]][:, None]
    t = np.arange(c - 2)
    free = t + (t >= p1[:, None]) + (t >= p2[:, None] - 1)    # skips p1 < p2
    basis = np.eye(c, dtype=np.int64)[free]
    for col, minors in ((p1, m[at, :, p2]), (p2, top)):
        r = -np.take_along_axis(minors, free, 1)
        r *= scale
        basis[at[:, None], t, col[:, None]] = reduce_mod(r, p, out=r)
    return basis


def kernel_line(b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(ok, line) for a (N, 4, 4) batch with entries in (-p, p): ``ok`` marks the
    lanes of rank 3 whose kernel vector has v[0] != 0, and ``line`` is v / v[0].

    adj = v w^T with w != 0 at rank 3 and adj = 0 below, so ``ok`` is det = 0
    with row 0 of adj nonzero, and v is column j of adj for its first j with
    adj[0, j] != 0.
    """
    n = b.shape[0]
    at = np.arange(n)
    minors = {(i, j): row_pair_minors(b, i, j) for i, j in itertools.combinations(range(4), 2)}
    # adj[:, j, i] is cofactor (i, j): the minor without row i and column j,
    # expanded along row i ^ 1, takes its 2x2 minors from the other row pair
    adj = np.empty_like(b)
    for i, j in itertools.product(range(4), repeat=2):
        rest = [k for k in range(4) if k != j]
        t = [b[:, i ^ 1, k] * minors[tuple(c for c in rest if c != k)][:, 1 - i // 2]
             for k in rest]
        adj[:, j, i] = t[0] - t[1] + t[2] if (i + j) % 2 == 0 else t[1] - t[0] - t[2]
    row = reduce_mod(adj[:, 0], p)
    det = reduce_mod((b[:, :, 0] * row).sum(axis=1), p)     # expansion along column 0
    j = (row != 0).argmax(axis=1)
    pivot = row[at, j]
    line = adj[at, :, j]        # a gather: a copy, reduced in place
    reduce_mod(line, p, out=line)
    line *= inverse_table(p)[pivot][:, None]
    return (det == 0) & (pivot != 0), reduce_mod(line, p, out=line)


# -- packing matrices into sortable integer keys --
#
# Entries are packed row-major, base p, most significant first, so the
# integer order of keys equals lexicographic order of entry tuples.  One
# 64-bit word holds up to floor(63 / log2(p)) entries; wider matrices are
# split across several words and compared left to right.

PACK_ROWS = 1 << 16     # rows per float64 slice in pack_entries: see the module docstring
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
    at a time, sums every piece at once, exact because a piece is below
    p**k < 2**53; the pieces of a word are joined in uint64 as
    ``word * p**width + piece``.
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
    the output by ``_pack_into``.
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

    The reference decoder, and the one for digits past ``int16`` (p > 2**15);
    ``unpack_digits`` is the fast one."""
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
    """Invert pack_entries into (N, D) int16 entries, for p <= 2**15.

    A word is split into pieces of k digits by one division each, and a
    piece's digits are gathered from ``_digit_table``.  The result is the
    transpose of a (D, N) entry-major array, so each entry is a contiguous
    vector and the elementwise kernels read it at unit stride: twice as
    fast as on (N, D) rows in ``similitude_check``.
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
    return out.T


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
    OpenBLAS on its single-threaded path, faster at these sizes than its
    threaded one (see the module docstring), and the tile in L2 cache.  The
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
    """Base-p digits of idx, most significant first: the row-major entries,
    as ``unpack_digits`` gives them (one-word keys, as a scan in budget has
    p**dd < 2**63), or as int64 rows where digits pass ``int16``."""
    if p > 1 << 15:
        return unpack_entries(idx[:, None], p, dd)
    return unpack_digits(idx[:, None], p, dd)


def scan_dtype(g: int, p: int) -> type:
    """The narrowest of int16, int32 and int64 that holds g * (p-1)**2, the
    bound on ``similitude_check``'s pairings at genus g."""
    bound = g * (p - 1) ** 2
    return next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def similitude_check(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix (multiplier, is-similitude) over a (N, 2g, 2g) batch, in
    the dtype of a, which must hold g * (p-1)**2.

    The multiplier slot is meaningful only where the mask is True.
    """
    # a pairing sums the row pairs' minors; sum() over the transpose adds
    # the g columns as vectors, several times faster than .sum(axis=1)
    lam = reduce_mod(sum(row_pair_minors(a, 0, 1).T), p)
    ok = lam != 0
    for i, j in itertools.combinations(range(a.shape[-1]), 2):
        if (i, j) != (0, 1):
            e = reduce_mod(sum(row_pair_minors(a, i, j).T), p)
            ok &= e == (lam if i % 2 == 0 and j == i + 1 else 0)
    return lam, ok


def scan_similitudes(g: int, p: int, allowed: np.ndarray):
    """Scan all p**(2g)^2 candidate matrices in row-major lexicographic order.

    Yields (entries, multipliers) int64 array pairs for the candidates that
    are symplectic similitudes whose multiplier is allowed.  ``allowed`` is
    a boolean mask over residues [0, p).  Candidates are checked
    ``NARROW_ROWS`` at a time, decoded by ``index_to_entries`` and checked
    in ``scan_dtype(g, p)`` (int16 while g * (p-1)**2 < 2**15); only the
    kept rows are widened.
    """
    dim = 2 * g
    dd = dim * dim
    total = p ** dd
    dtype = scan_dtype(g, p)
    for start in range(0, total, NARROW_ROWS):
        idx = np.arange(start, min(start + NARROW_ROWS, total), dtype=np.int64)
        a = index_to_entries(idx, p, dd).astype(dtype, copy=False).reshape(-1, dim, dim)
        lam, ok = similitude_check(a, p)
        ok &= allowed[lam]
        if ok.any():
            # a gather: np.compress walks the entry-major rows slowly
            kept = np.flatnonzero(ok)
            yield np.take(a, kept, axis=0).astype(np.int64), np.take(lam, kept).astype(np.int64)
