"""Families of similitudes forced to fix a nonzero vector.

The construction runs in three layers over F_ell (genus g >= 2):

* ``core`` -- matrices assembled through the e_1-stabilizer parameterization
  from a fixed pool of eigenvalue-one-free blocks, with one value of the
  free corner entry excluded (``_excluded_corner``).  Every core matrix
  fixes exactly the line through e_1.
* ``full`` -- the core together with all of its conjugates under the shear
  maps built on e_2 + span(e_3, ..., e_2g).  Distinct conjugators move the
  fixed line to distinct positions, so the closure has exactly
  (ell^(2g-2) * (ell-1) + 1) times the core's cardinality.
* ``union`` -- the disjoint union of full layers over every admissible
  multiplier of the context.

Cardinalities obey closed formulas which the materialized builders measure
independently (build, pack, deduplicate, count); the test suite pins the two
against each other.  There is one block pool per multiplier, reproducible
across runs and machines: the builders and ``DirectMembership`` both select
blocks by ``_in_pool``, which by the argument in ``DirectMembership`` keeps
the first ell (ell+1) (ell-2) eligible blocks of the genus-1 group's
lexicographic scan.  Dump sidecars name it ``POOL_NAME``.

This module also owns a layer's files: ``FixedVectorSet`` writes and reads
its dump and the dump's JSON sidecar, and checks a loaded dump.

Materialization is a g = 2 feature; for larger genus the module still
provides exact cardinalities and witness sampling by construction, but no
global membership decisions.
"""

from __future__ import annotations

import enum
import json
import math
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import _gf
from .modmat import (
    ModMatrix,
    kernel_basis,
    mat_inv,
    minus_identity,
    rank_mod,
    read_matrix_lines,
    reduce_mod,
    write_matrix_lines,
)
from .prng import CounterRng
from .sympgroup import (
    GroupContext,
    NotSimilitude,
    _Infinity,
    _require_unit,
    is_member,
    multiplier,
    parse_q,
    q_json,
    sample_entries,
    scan_entries,
    sp_order,
    stabilizer_matrix,
    StabilizerParams,
    transvection,
)

DEFAULT_ELL_CAP = 13
HARD_ELL_CAP = 31
POOL_NAME = "lex-canonical"    # the sidecar's "strategy" field


class SetLevel(enum.Enum):
    """A layer of the construction.  A union layer ignores lam; builders and
    formulas are looked up when called, so a patched or traced one is used."""
    CORE = "core"
    FULL = "full"
    UNION = "union"

    def require(self, ctx: GroupContext, lam: int | None, allow_large: bool) -> None:
        """ValueError unless this layer can be materialized and its lam is in class."""
        _require_materializable(ctx, allow_large)
        if self is not SetLevel.UNION:
            _require_in_class(ctx, lam)

    def build(self, ctx: GroupContext, lam: int | None, allow_large: bool) -> "FixedVectorSet":
        if self is SetLevel.UNION:
            return build_union_set(ctx, allow_large)
        return (build_core_set if self is SetLevel.CORE else build_full_set)(ctx, lam, allow_large)

    def cardinality(self, ctx: GroupContext) -> int:
        """The closed-formula cardinality of this layer."""
        n = ctx.modulus.n
        if self is SetLevel.UNION:
            return union_cardinality(ctx.g, n, ctx.q)
        return (core_cardinality if self is SetLevel.CORE else full_cardinality)(ctx.g, n)


def no_eigenvalue_one_floor(ell: int, g: int) -> int:
    """Guaranteed count of multiplier-fixed similitudes without eigenvalue 1.

    Equals ell^(2g-1) * (ell^2g - 1) * (ell-2) / (ell-1); an integer for
    every prime ell, and zero at ell = 2.
    """
    num = ell ** (2 * g - 1) * (ell ** (2 * g) - 1) * (ell - 2)
    if num % (ell - 1):
        raise AssertionError("floor formula did not divide out")
    return num // (ell - 1)


def count_without_eigenvalue_one(ell: int, g: int, lam: int) -> int:
    """Exact count of multiplier-lam similitudes with det(A - I) != 0.

    Exhaustive: scans the whole candidate space, so g <= 2 in practice.
    Raises BudgetExceeded past the default enumeration budget.
    """
    ctx = GroupContext.of(g, ell)
    return sum(int(np.count_nonzero(_gf.batch_det_minus_identity(a.transpose(1, 2, 0), lams, ell)))
               for a, lams in scan_entries(ctx, lam=lam))


# -- block pools --

def _block_count(ell: int, g: int) -> int:
    return no_eigenvalue_one_floor(ell, g - 1) * sp_order(g - 2, ell)


def _require_constructible(ctx: GroupContext) -> int:
    if not ctx.modulus.is_prime:
        raise ValueError("set construction requires a prime modulus")
    ell = ctx.modulus.n
    if ell == 2:
        raise ValueError(
            "ell=2 is rejected: the (ell-2) factor makes the eigenvalue-one-free "
            "floor zero, so the block pool and every derived set are empty")
    if ctx.g < 2:
        raise ValueError("set construction needs g >= 2")
    return ell


def _require_in_class(ctx: GroupContext, lam: int) -> int:
    """lam mod ell; ValueError unless lam is a unit in the multiplier class of
    ``ctx`` (for finite q, a power of q mod ell), where its layers lie."""
    ell = ctx.modulus.n
    unit = _require_unit(lam, ell)
    if not isinstance(ctx.q, _Infinity) and unit not in ctx.multiplier_values():
        raise ValueError(f"lam {lam} is not in the multiplier class of q={ctx.q} mod {ell}")
    return unit


def _blocks_entries(ctx: GroupContext, lams: Sequence[int]) -> list[np.ndarray]:
    """Block pools of the multipliers ``lams``, each a (2, 2, m) int64 array
    in the genus-1 scan order, from one scan by ``_in_pool`` (g = 2 only)."""
    ell = _require_constructible(ctx)
    if ctx.g != 2:
        raise ValueError("block pools are implemented for g = 2 only")
    lams = [_require_in_class(ctx, lam) for lam in lams]
    blocks, mults = (np.concatenate(parts)
                     for parts in zip(*scan_entries(GroupContext(1, ctx.modulus))))
    blocks = blocks.transpose(1, 2, 0)      # the scan's rows, lanes last
    pooled = _in_pool(blocks, mults, ell)[0]
    return [np.compress(pooled & (mults == lam), blocks, axis=-1) for lam in lams]


def select_blocks(ctx: GroupContext, lam: int) -> list[ModMatrix]:
    """The block pool of one multiplier, as matrices."""
    entries = _blocks_entries(ctx, [lam])[0]
    return [ModMatrix.from_flat(ctx.modulus, m.ravel()) for m in entries.transpose(2, 0, 1)]


# -- cardinality formulas --

def core_cardinality(g: int, ell: int) -> int:
    """ell^(2g-2) * (ell-1) * |block pool|."""
    return ell ** (2 * g - 2) * (ell - 1) * _block_count(ell, g)


def full_cardinality(g: int, ell: int) -> int:
    """(ell^(2g-2) * (ell-1) + 1) * core cardinality."""
    return (ell ** (2 * g - 2) * (ell - 1) + 1) * core_cardinality(g, ell)


def union_cardinality(g: int, ell: int, q: int | _Infinity) -> int:
    """Sum of full layers over the admissible multipliers mod ell.

    The per-multiplier cardinality does not depend on the multiplier, so
    this is (number of admissible multipliers) * full cardinality.
    """
    return GroupContext.of(g, ell, q).multiplier_count() * full_cardinality(g, ell)


def composite_union_cardinality(g: int, n: int, q: int | _Infinity) -> int:
    """Cardinality of the union-level set over squarefree composite n.

    Residues mod n with every reduction in the per-prime set and a single
    global multiplier: each choice of the global multiplier exponent
    contributes the product of per-prime full layers.
    """
    ctx = GroupContext.of(g, n, q)
    return ctx.multiplier_count() * math.prod(
        full_cardinality(g, ell) for ell in ctx.modulus.primes)


# -- materialized sets (g = 2) --

def _require_materializable(ctx: GroupContext, allow_large: bool) -> int:
    ell = _require_constructible(ctx)
    if ctx.g != 2:
        raise ValueError("materialization is implemented for g = 2 only; "
                         "use the cardinality formulas and witness samplers for larger g")
    return _require_below_cap(ell, allow_large)


def _require_below_cap(ell: int, allow_large: bool) -> int:
    cap = HARD_ELL_CAP if allow_large else DEFAULT_ELL_CAP
    if ell > cap:
        hint = "" if allow_large else (" (pass allow_large=True, or --allow-large-ell "
                                       "to special-set build, up to 31)")
        raise ValueError(f"ell={ell} exceeds the materialization cap {cap}{hint}")
    return ell


def _pool_inverses(blocks: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(det(I - B), (I - B)^-1) mod ell, (m,) and (2, 2, m), for a (2, 2, m) array
    of blocks B; where det(I - B) = 0 the inverse is meaningless, to be dropped."""
    (b11, b12), (b21, b22) = blocks
    det = _gf.reduce_mod((1 - b11) * (1 - b22) - b12 * b21, ell)
    minv = np.stack([1 - b22, b12, b21, 1 - b11]).reshape(2, 2, -1) * _gf.inverse_table(ell)[det]
    return det, _gf.reduce_mod(minv, ell, out=minv)


def _pool_cutoff(ell: int) -> tuple[int, int, int, int]:
    """The lex-last block, row-major, of the multiplier-1 pool (see DirectMembership)."""
    return (2, 1, 0, 2) if ell == 3 else (ell - 1, ell - 2, ell - 2, ell - 5)


def _in_pool(blocks: np.ndarray, lam: int | np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(Pool membership, (I - B)^-1) for a (2, 2, m) array of blocks B of
    multiplier lam, scalar or per block: det(I - B) != 0 and, at lam = 1, B
    at most ``_pool_cutoff`` (compared entry by entry: an int64 key of the
    four entries overflows past ell = 55,108).  DirectMembership argues it."""
    det, minv = _pool_inverses(blocks, ell)
    at_most = np.ones(blocks.shape[-1], dtype=bool)
    for k, c in reversed(list(enumerate(_pool_cutoff(ell)))):
        at_most = (blocks[k // 2, k % 2] < c) | ((blocks[k // 2, k % 2] == c) & at_most)
    return (det != 0) & ((lam != 1) | at_most), minv


def _excluded_corner(minv: Sequence[Sequence[int]], d: Sequence, b: Sequence, ell: int):
    """The corner value -b (I - B)^-1 d that the core leaves out.

    At lam = 1 it is the one value that would enlarge the fixed space, to
    span(e_1, e_2 + (I - B)^-1 d).  At lam != 1 every corner value fixes
    exactly the line through e_1: the second row of A is lam e_2^T, so a
    fixed vector has no e_2 part, and then none in the block, which has no
    eigenvalue 1.  The value is left out there all the same, so every
    multiplier keeps ell - 1 corner values.  ``minv`` holds the rows of
    (I - B)^-1; the entries of the vectors d and b may be ints or numpy
    arrays, which are then handled elementwise.
    """
    t = [_gf.reduce_mod(sum(m * x for m, x in zip(row, d)), ell) for row in minv]
    return _gf.reduce_mod(-sum(x * y for x, y in zip(b, t)), ell)


def _core_entries(ctx: GroupContext, lam: int, blocks: np.ndarray) -> np.ndarray:
    """The core layer of multiplier lam built on the 2x2 block pool ``blocks``.

    Returns an (N, 4, 4) ``uint8`` array, rows ordered by block, then by the
    pair (d1, d2), then by the corner entry d.  ``uint8`` holds every entry
    because materialization stops at ``HARD_ELL_CAP`` = 31 < 256.  The forced
    top-row entries b1, b2 and the excluded corner are computed for every
    block and pair at once; each (block, pair) row is then repeated over the
    ell corner values and the excluded one is dropped.
    """
    ell = ctx.modulus.n
    lam %= ell
    m = blocks.shape[-1]
    inv_lam = pow(lam, -1, ell)
    d1 = np.repeat(np.arange(ell, dtype=np.int64), ell)
    d2 = np.tile(np.arange(ell, dtype=np.int64), ell)
    (b11, b12), (b21, b22) = blocks[..., None]
    # (m, ell^2): forced top-row entries and the excluded corner value
    b1 = inv_lam * (d1 * b21 - d2 * b11) % ell
    b2 = inv_lam * (d1 * b22 - d2 * b12) % ell
    minv = _pool_inverses(blocks, ell)[1][..., None]
    excl = _excluded_corner(minv, (d1, d2), (b1, b2), ell)
    # one row per (block, pair), entry (i, j) in column 4i + j; column 1 is d
    row = np.zeros((m, ell * ell, 16), dtype=np.uint8)
    for col, value in ((0, 1), (2, b1), (3, b2), (5, lam), (9, d1), (13, d2),
                       (10, b11), (11, b12), (14, b21), (15, b22)):
        row[:, :, col] = value
    dgrid = np.arange(ell, dtype=np.int64)
    rows = np.repeat(row, ell, axis=1).reshape(m, ell * ell, ell, 16)
    rows[..., 1] = dgrid
    keep = (dgrid != excl[:, :, None]).ravel()
    return np.compress(keep, rows.reshape(-1, 16), axis=0).reshape(-1, 4, 4)


def _conjugator_pair(ctx: GroupContext, alpha, beta: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.array(transvection(ctx, alpha, beta).rows, dtype=np.int64)
    tinv = np.array(transvection(ctx, alpha, -beta).rows, dtype=np.int64)
    return t, tinv


class FixedVectorSet:
    """A materialized layer of the construction.

    The elements are held as sorted packed integer keys, so membership is a
    binary search and dumps are canonically ordered.  ``lam`` is the
    multiplier of a core or full layer and None for a union layer, whose
    multipliers are those of ``ctx.q``.
    """

    def __init__(self, ctx: GroupContext, lam: int | None, level: SetLevel,
                 keys: np.ndarray):
        self.ctx = ctx
        self.lam = lam
        self.level = level
        self.keys = keys

    @property
    def cardinality(self) -> int:
        """The measured count of the deduplicated keys."""
        return self.keys.shape[0]

    def contains_flat(self, flat: np.ndarray) -> np.ndarray:
        """Membership mask for an (N, dim*dim) int64 entry array."""
        q = _gf.pack_entries(np.asarray(flat, dtype=np.int64), self.ctx.modulus.n)
        return _gf.searchsorted_keys(self.keys, q)

    def contains(self, mat: ModMatrix) -> bool:
        if mat.modulus != self.ctx.modulus or mat.dim != self.ctx.dim:
            raise ValueError("matrix does not match the set's context")
        flat = np.array([mat.flat()], dtype=np.int64)
        return bool(self.contains_flat(flat)[0])

    def iter_entries(self) -> Iterator[np.ndarray]:
        """The members' entries in key order, (dim*dim, rows) int16 from
        ``_gf.unpack_digits``, ``_gf.NARROW_ROWS`` rows at a time."""
        dd, chunk = self.ctx.dim * self.ctx.dim, _gf.NARROW_ROWS
        for start in range(0, self.keys.shape[0], chunk):
            yield _gf.unpack_digits(self.keys[start:start + chunk], self.ctx.modulus.n, dd)

    def __iter__(self) -> Iterator[ModMatrix]:
        for block in self.iter_entries():
            for flat in block.T:
                yield ModMatrix.from_flat(self.ctx.modulus, flat)

    def dump(self, fh: TextIO) -> int:
        """Write the canonical sorted dump in the one-matrix-per-line format."""
        return write_matrix_lines(fh, (block.T for block in self.iter_entries()),
                                  self.ctx.dim, self.ctx.modulus.n)

    def sidecar(self) -> dict:
        info = {
            "g": self.ctx.g,
            "n": self.ctx.modulus.n,
            "q": q_json(self.ctx.q),
            "level": self.level.value,
            "strategy": POOL_NAME,
            "cardinality": str(self.cardinality),
            "seed-independent": True,
        }
        if self.lam is not None:
            info["lam"] = self.lam
        return info

    def write_sidecar(self, fh: TextIO) -> None:
        json.dump(self.sidecar(), fh, indent=2)
        fh.write("\n")

    @staticmethod
    def read_sidecar(fh: TextIO, name: str) -> tuple[GroupContext, int | None, SetLevel, str]:
        """(ctx, lam, level, cardinality as written) from the sidecar ``fh``;
        ValueError, naming ``name``, on a missing field, a g, n or lam that is
        not an int, a cardinality that is not a string of decimal digits,
        another pool, or a set too large to materialize."""
        try:
            info = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"sidecar {name} is not JSON: {exc}") from None
        if not isinstance(info, dict):
            raise ValueError(f"sidecar {name} is not a JSON object")
        fields = ["g", "n", "q", "level", "strategy", "cardinality"]
        if info.get("level") != SetLevel.UNION.value:
            fields.append("lam")
        missing = [k for k in fields if k not in info]
        if missing:
            raise ValueError(f"sidecar {name} lacks {', '.join(missing)}")
        if any(type(info.get(k, 0)) is not int for k in ("g", "n", "lam")):
            raise ValueError(f"sidecar {name}: g, n and lam must be integers")
        if not (type(claimed := info["cardinality"]) is str and claimed.isascii()
                and claimed.isdigit()):
            raise ValueError(f"sidecar {name}: cardinality must be a string of decimal digits")
        if info["strategy"] != POOL_NAME:
            raise ValueError(f"sidecar {name}: strategy must be {POOL_NAME!r}, "
                             f"got {info['strategy']!r}")
        level = SetLevel(info["level"])
        _require_below_cap(info["n"], allow_large=True)   # a large n gets the cap's message
        ctx = GroupContext.of(info["g"], info["n"], parse_q(str(info["q"])))
        _require_materializable(ctx, allow_large=True)
        lam = None if level is SetLevel.UNION else info["lam"]
        return ctx, lam, level, claimed

    def problems(self, claimed: str) -> tuple[list[str], bool]:
        """(What is wrong with this set as its layer, whether its lam is in class):
        its count against ``claimed`` and the formula, then every member.  The
        one member check: ``special-set verify`` and the acceptance suite use it.

        On a core layer the member check is exact, by the decomposition
        ``DirectMembership`` uses at e_1 (the block by ``_in_pool``, the corner
        by ``_excluded_corner``), so with its distinct keys and the formula's
        count a core passes only if it is the layer.  Full and union layers
        get the necessary checks only."""
        found: list[str] = []
        ell = self.ctx.modulus.n
        if str(self.cardinality) != claimed:
            found.append(f"cardinality mismatch: dump has {self.cardinality}, "
                         f"sidecar says {claimed}")
        formula = self.level.cardinality(self.ctx)
        if self.cardinality != formula:
            found.append(f"cardinality mismatch: dump has {self.cardinality}, "
                         f"the closed formula gives {formula}")
        in_class = True
        if self.lam is not None:
            try:
                _require_in_class(self.ctx, self.lam)
            except ValueError as exc:
                found.append(str(exc))
                in_class = False
        allowed = (self.ctx.multiplier_mask() if self.lam is None
                   else np.arange(ell) == self.lam % ell)
        dim = self.ctx.dim
        eye = np.eye(dim, dtype=np.int16)[:, :, None]
        # the kernels run on the int16 entries: at ell <= HARD_ELL_CAP a
        # pairing is at most 1,800 and chi(1) before reduction at most 10,021;
        # det(A - I) = chi(1) holds once every member is a similitude of lam
        for entries in self.iter_entries():
            a = entries.reshape(dim, dim, -1)
            lam, ok = _gf.similitude_check(a, ell)
            if not bool(ok.all()) or not bool(allowed[lam].all()):
                found.append("a member is not a similitude with an admissible multiplier")
                break
            if bool(np.any(_gf.batch_det_minus_identity(a, lam, ell) != 0)):
                found.append("a member fixes no nonzero vector")
                break
            if self.level is SetLevel.CORE:
                if bool(np.any(_gf.batch_rank(a - eye, ell) != dim - 1)):
                    found.append("a core member's fixed space is not one line")
                    break
                if not bool((a[:, 0] == eye[:, 0]).all()):
                    found.append("a core member does not fix e_1")
                    break
                # a similitude fixing e_1 has the stabilizer shape, so it is a
                # core member iff its block is pooled and its corner allowed
                pooled, minv = _in_pool(a[2:, 2:], lam, ell)
                excluded = _excluded_corner(minv, a[2:, 1], a[0, 2:], ell)
                if not bool((pooled & (a[0, 1] != excluded)).all()):
                    found.append("a core member's block is not pooled or its corner is excluded")
                    break
        return found, in_class

    @classmethod
    def load(cls, fh: TextIO, ctx: GroupContext, lam: int | None,
             level: SetLevel) -> "FixedVectorSet":
        """Read a dump written by ``dump``; raises ValueError on a malformed one.

        Each chunk of lines is packed to keys as it is read, so the entries
        of the whole dump are never held at once.
        """
        n = ctx.modulus.n
        packed = [np.empty((0, _gf.pack_words(n, ctx.dim * ctx.dim)), dtype=np.uint64)]
        packed += (_gf.pack_entries(chunk, n) for chunk in read_matrix_lines(fh, ctx.dim, n))
        rows = sum(p.shape[0] for p in packed)
        keys = _gf.unique_keys(np.concatenate(packed))
        if keys.shape[0] != rows:
            raise ValueError("dump contains duplicate matrices")
        return cls(ctx, lam, level, keys)


def build_core_set(ctx: GroupContext, lam: int,
                   allow_large: bool = False) -> FixedVectorSet:
    """Materialize the core layer for one multiplier (g = 2)."""
    ell = _require_materializable(ctx, allow_large)
    entries = _core_entries(ctx, lam, _blocks_entries(ctx, [lam])[0])
    keys = _gf.unique_keys(_gf.pack_entries(entries.reshape(entries.shape[0], -1), ell))
    return FixedVectorSet(ctx, lam % ell, SetLevel.CORE, keys)


def _construction_keys(ctx: GroupContext, lams: Sequence[int]) -> np.ndarray:
    """Unsorted keys of every matrix the full layers of ``lams`` are built from.

    One key array, sized by the construction's row count (core rows times
    conjugators + 1), receives each core and its conjugates under every
    shear; ``_gf.unique_keys`` then sorts it in place and measures the
    distinct count, which is never read from the closed formula.
    """
    ell = ctx.modulus.n
    dd = ctx.dim * ctx.dim
    cores = [_core_entries(ctx, lam, blocks).reshape(-1, dd)
             for lam, blocks in zip(lams, _blocks_entries(ctx, lams))]
    ops = _gf.conjugation_operators([_conjugator_pair(ctx, (a3, a4), beta)
                                     for a3 in range(ell) for a4 in range(ell)
                                     for beta in range(1, ell)])
    per_core = ops.shape[1] // dd + 1     # the core row itself and its conjugates
    keys = np.empty((per_core * sum(core.shape[0] for core in cores),
                     _gf.pack_words(ell, dd)), dtype=np.uint64)
    at = 0
    for core in cores:
        n = core.shape[0]
        keys[at:at + n] = _gf.pack_entries(core, ell)
        _gf.conjugate_into(core, ops, ell, keys[at + n:at + per_core * n])
        at += per_core * n
    return keys


def build_full_set(ctx: GroupContext, lam: int,
                   allow_large: bool = False) -> FixedVectorSet:
    """Materialize the full (conjugation-closed) layer for one multiplier."""
    ell = _require_materializable(ctx, allow_large)
    keys = _gf.unique_keys(_construction_keys(ctx, [lam]))
    return FixedVectorSet(ctx, lam % ell, SetLevel.FULL, keys)


def build_union_set(ctx: GroupContext, allow_large: bool = False) -> FixedVectorSet:
    """Materialize the union over all admissible multipliers of the context."""
    ell = _require_materializable(ctx, allow_large)
    keys = _gf.unique_keys(_construction_keys(ctx, ctx.multiplier_values()))
    return FixedVectorSet(ctx, None, SetLevel.UNION, keys)


# -- membership without materialization --

class DirectMembership:
    """Union-level membership decided by decomposition instead of lookup.

    A candidate is in the union layer iff its fixed space is exactly one
    line, that line meets the orbit of e_1 under the shear conjugators
    (equivalently, contains a vector (1, b, c, d) with the right shape), and
    conjugating back by the unique shear lands in the core layer: e_1-fixing
    shape, block in the pool, corner entry off the excluded value.
    Works at g = 2 and holds no pool, only its ell-entry multiplier mask, so
    it serves every prime the lane sampler takes (ell <= 55,103).

    The pool has a closed form, ``_in_pool``, by which the builders select
    their blocks too.  A block B of multiplier lam (det B = lam on an
    e_1-fixing similitude) is eligible when det(I - B) != 0; the pool is the
    first ell (ell+1) (ell-2) eligible blocks in row-major lex order.
    Of the ell (ell^2-1) blocks of determinant lam, those with eigenvalue 1
    have characteristic polynomial (x-1)(x-lam).  For lam != 1 they form one
    split semisimple class of size ell (ell+1), so every eligible block is
    pooled.  For lam = 1 they are I and the ell^2-1 transvections, so the
    pool drops the lex-last ell eligible blocks: for ell >= 5 the ell-1
    blocks (ell-1, ell-1, b22+1, b22) with det(I - B) = 3 - b22 != 0, then
    (ell-1, ell-2, ell-1, ell-3), as the row (ell-1, ell-2, b21, 2 b21 - 1)
    has det(I - B) = 4 - 2 b21.  So the last pooled block is
    (ell-1, ell-2, ell-2, ell-5); at ell = 3 it is (2, 1, 0, 2).
    """

    def __init__(self, ctx: GroupContext):
        self.ell = _require_constructible(ctx)
        if ctx.g != 2:
            raise ValueError("direct membership is implemented for g = 2 only")
        self.ctx = ctx
        self._admissible = ctx.multiplier_mask()

    @property
    def cardinality(self) -> int:
        return union_cardinality(self.ctx.g, self.ell, self.ctx.q)

    def contains(self, mat: ModMatrix) -> bool:
        if mat.modulus != self.ctx.modulus or mat.dim != self.ctx.dim:
            raise ValueError("matrix does not match the context")
        return self.contains_rows([list(r) for r in mat.rows])

    def contains_rows(self, rows: list[list[int]]) -> bool:
        ell = self.ell
        try:
            lam = multiplier(GroupContext(self.ctx.g, self.ctx.modulus),
                             ModMatrix.from_rows(self.ctx.modulus, rows))
        except NotSimilitude:
            return False
        if not self._admissible[lam]:
            return False
        # fixed space must be exactly one line
        ker = kernel_basis(minus_identity(rows, ell), ell)
        if len(ker) != 1:
            return False
        v = ker[0]
        if v[0] % ell == 0:
            return False
        scale = pow(v[0], -1, ell)
        v = [x * scale % ell for x in v]
        if v[1] == 0:
            if any(v[k] for k in range(2, len(v))):
                return False
            core = rows
        else:
            beta = (-v[1]) % ell
            inv1 = pow(v[1], -1, ell)
            alpha = [x * inv1 % ell for x in v[2:]]
            t, tinv = _conjugator_pair(self.ctx, alpha, beta)
            core = (t @ np.array(rows, dtype=np.int64) @ tinv % ell).tolist()
        if any(core[i][0] != (1 if i == 0 else 0) for i in range(4)):
            return False
        found, minv = _in_pool(np.array([core[2][2:], core[3][2:]])[..., None], lam, ell)
        return bool(found[0]) and core[0][1] != _excluded_corner(
            minv[..., 0].tolist(), (core[2][1], core[3][1]), core[0][2:], ell)

    def contains_lanes(self, a: np.ndarray) -> np.ndarray:
        """``contains_rows`` on every matrix of a (4, 4, N) batch with entries in [0, ell).

        The same decomposition on all lanes at once: the similitude check, the
        kernel vector v of A - I scaled to v[0] = 1 (required to span the
        fixed space), the shear t it determines (the identity where v[1] = 0,
        which then needs v = e_1), and the block and corner of t A t^-1.  With
        beta = -v[1], u = (0, 1, a3, a4), c = (1, 0, a4, -a3), a_k = v[k-1]/v[1]
        and w = -beta u = v - e_1, t = I + beta u c^T = I - w c^T, t^-1 = I + w c^T
        and t A t^-1 = A - w (r + s c)^T + q c^T, r = A^T c, q = A w, s = c^T q,
        formed at rows (0, 2, 3) and columns (1, 2, 3) only, each sum (< 4 ell**2)
        reduced before it is multiplied again.  t v = e_1, so the core fixes e_1
        where ``kernel_line`` passes (``contains_rows`` checks it).
        """
        ell = self.ell
        lam, ok = _gf.similitude_check(a, ell)
        ok &= self._admissible[lam]
        fixed, v = _gf.kernel_line(a - np.eye(4, dtype=np.int64)[:, :, None], ell)
        ok &= fixed & ((v[1] != 0) | ((v[2] == 0) & (v[3] == 0)))
        v, lam, keep = v[:, ok], lam[ok], np.flatnonzero(ok)     # the rest are decided
        inv1 = _gf.inverse_table(ell)[v[1]]
        c = _gf.reduce_mod(np.stack([np.ones_like(inv1), v[3] * inv1, (ell - v[2]) * inv1]), ell)
        core = a[np.ix_([0, 2, 3], [1, 2, 3], keep)]    # c at rows (0, 2, 3) too
        q = _gf.reduce_mod((core * v[1:]).sum(axis=1), ell)    # q at rows (0, 2, 3)
        r = (c[:, None] * core).sum(axis=0)                     # r at columns (1, 2, 3)
        s = _gf.reduce_mod((c * q).sum(axis=0), ell)
        r[1:] += s * c[1:]                                      # c_1 = 0
        _gf.reduce_mod(r, ell, out=r)
        core[:, 1:] += q[:, None] * c[1:]
        core[1:] -= v[2:, None] * r
        _gf.reduce_mod(core, ell, out=core)
        found, minv = _in_pool(core[1:, 1:], lam, ell)
        excluded = _excluded_corner(minv, core[1:, 0], core[0, 1:], ell)
        ok[keep] = found & (core[0, 0] != excluded)
        return ok


class CompositeUnionSet:
    """Union-level membership over a squarefree composite modulus.

    A matrix belongs iff it lies in the context's similitude class mod n
    (one global multiplier) and each prime reduction belongs to that prime's
    union layer.
    """

    def __init__(self, ctx: GroupContext):
        self.ctx = ctx
        self.parts = {ell: DirectMembership(ctx.restrict(ell)) for ell in ctx.modulus.primes}

    @property
    def cardinality(self) -> int:
        return composite_union_cardinality(self.ctx.g, self.ctx.modulus.n, self.ctx.q)

    def contains(self, mat: ModMatrix) -> bool:
        if not is_member(self.ctx, mat):
            return False
        return all(self.parts[ell].contains(reduce_mod(mat, ell))
                   for ell in self.ctx.modulus.primes)


# -- witnesses for g >= 3 (or any g >= 2) --

def sample_core_witness(ctx: GroupContext, lam: int, seed: int, index: int) -> ModMatrix:
    """A random matrix of the core shape, built by construction.

    The block is drawn uniformly among eigenvalue-one-free similitudes of
    the right multiplier (all of them, not the canonical pool, which is not
    enumerable beyond g = 2), so witnesses demonstrate the structural
    properties of the family rather than membership in one pinned set.
    """
    ell = _require_constructible(ctx)
    lam = _require_in_class(ctx, lam)
    rng = CounterRng(seed, index)
    d = ctx.dim
    while True:
        block_rows = sample_entries(ctx.g - 1, ell, lam, rng)
        i_minus_b = [[-x % ell for x in row] for row in minus_identity(block_rows, ell)]
        if rank_mod(i_minus_b, ell) == d - 2:
            break
    block = ModMatrix.from_rows(ctx.modulus, block_rows)
    d_vec = tuple(rng.below(ell) for _ in range(d - 2))
    # the forced top row b does not depend on the corner entry
    b = stabilizer_matrix(ctx, StabilizerParams(lam, 0, d_vec, block)).rows[0][2:]
    minv = mat_inv(ModMatrix.from_rows(ctx.modulus, i_minus_b)).rows
    excluded = _excluded_corner(minv, d_vec, b, ell)
    d_val = (excluded + 1 + rng.below(ell - 1)) % ell
    return stabilizer_matrix(ctx, StabilizerParams(lam, d_val, d_vec, block))


def sample_full_witness(ctx: GroupContext, lam: int, seed: int, index: int) -> ModMatrix:
    """A core witness conjugated by a random shear."""
    core = sample_core_witness(ctx, lam, seed, index)
    rng = CounterRng(seed ^ 0x5CA1AB1E, index)
    ell = ctx.modulus.n
    alpha = [rng.below(ell) for _ in range(ctx.dim - 2)]
    beta = rng.below(ell)
    t = transvection(ctx, alpha, beta)
    tinv = transvection(ctx, alpha, -beta)
    return tinv @ core @ t
