"""Symplectic similitude groups over Z/n.

The standard alternating form is the block-diagonal matrix with g copies of
[[0, 1], [-1, 0]] down the diagonal.  A similitude is a matrix A with
A^t J A = lam J for a unit lam (its multiplier); Sp is the multiplier-1
kernel.  A ``GroupContext`` fixes the genus g (dimension 2g), the squarefree
modulus, and the similitude class: either every unit multiplier (q =
INFINITY) or only the multipliers lying in the cyclic group generated by a
prime power q.

Exact group orders come from the classical product formula; enumeration
(used as the brute-force oracle for everything else) scans every candidate
matrix in row-major lexicographic entry order, which is the canonical order
other modules rely on for reproducible subset selection.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _gf
from .modmat import MAX_DIM, ModMatrix, ModVector, Modulus, kernel_basis, prime_factors
from .prng import CounterLanes, CounterRng

DEFAULT_BUDGET = 10 ** 8


class NotSimilitude(ValueError):
    """The matrix does not scale the standard form by a unit."""


class BudgetExceeded(RuntimeError):
    """An exhaustive operation would touch more candidates than allowed."""


class _Infinity:
    """Marker for the similitude class with unrestricted unit multipliers."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def parse_q(text: str) -> int | _Infinity:
    """q from its text form: a decimal integer, or 'inf' / 'infinity' in any case."""
    if text.strip().lower() in ("inf", "infinity"):
        return INFINITY
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"q must be an integer or 'inf', got {text!r}") from None


def q_json(q: int | _Infinity) -> int | str:
    """q as reports and sidecars record it: 'inf' for INFINITY, else the integer."""
    return "inf" if isinstance(q, _Infinity) else q


def is_prime(n: int) -> bool:
    return n >= 2 and next(prime_factors(n))[0] == n


def prime_power_base(q: int) -> int:
    """The prime p with q = p^k, or raise ValueError."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    p, k = next(prime_factors(q))
    if p ** k != q:
        raise ValueError(f"q must be a prime power, got {q}")
    return p


def multiplicative_order(q: int, n: int) -> int:
    """Least k >= 1 with q^k = 1 mod n."""
    if math.gcd(q, n) != 1:
        raise ValueError(f"gcd({q}, {n}) != 1")
    if n == 1:
        return 1
    # the order divides phi(n) = prod p**(k-1) * (p-1): start there and
    # divide out each prime r of phi(n) while q**(order/r) is still 1
    phi = Counter()
    for p, k in prime_factors(n):
        phi[p] += k - 1
        if p > 2:
            phi.update(dict(prime_factors(p - 1)))
    order = math.prod(r ** e for r, e in phi.items())
    for r in phi:
        while order % r == 0 and pow(q, order // r, n) == 1:
            order //= r
    return order


@dataclass(frozen=True)
class GroupContext:
    """Genus, modulus and similitude class; dim = 2g, form = J_g."""

    g: int
    modulus: Modulus
    q: int | _Infinity = INFINITY

    def __post_init__(self):
        if self.g < 1 or 2 * self.g > MAX_DIM:
            raise ValueError(f"g must be in [1, {MAX_DIM // 2}], got {self.g}")
        if not isinstance(self.q, _Infinity):
            prime_power_base(self.q)
            if math.gcd(self.q, self.modulus.n) != 1:
                raise ValueError(f"q={self.q} not coprime to modulus {self.modulus.n}")

    @classmethod
    def of(cls, g: int, n: int, q: int | _Infinity = INFINITY) -> "GroupContext":
        return cls(g, Modulus.of(n), q)

    @property
    def dim(self) -> int:
        return 2 * self.g

    def restrict(self, ell: int) -> "GroupContext":
        return GroupContext(self.g, self.modulus.restrict(ell), self.q)

    def multiplier_count(self) -> int:
        """How many admissible multipliers there are mod the (squarefree)
        context modulus, without listing them: prod (p - 1) over its primes
        for INFINITY, the order of q mod n otherwise."""
        if isinstance(self.q, _Infinity):
            return math.prod(p - 1 for p in self.modulus.primes)
        return multiplicative_order(self.q, self.modulus.n)

    def multiplier_values(self, m: int | None = None) -> tuple[int, ...]:
        """Admissible multipliers mod m (default: the context modulus).

        Finite q: the cycle (q, q^2, ..., q^ord = 1) mod m.  INFINITY: all
        units of Z/m in ascending order.
        """
        m = self.modulus.n if m is None else m
        if isinstance(self.q, _Infinity):
            return tuple(u for u in range(1, m) if math.gcd(u, m) == 1)
        ord_q = multiplicative_order(self.q, m)
        out = []
        x = 1
        for _ in range(ord_q):
            x = x * self.q % m
            out.append(x)
        return tuple(out)

    def multiplier_mask(self) -> np.ndarray:
        """Boolean mask over the residues mod n, True at the admissible multipliers."""
        return np.isin(np.arange(self.modulus.n), self.multiplier_values())


def form_matrix(g: int, modulus: Modulus) -> ModMatrix:
    """The block-diagonal alternating form J_g over the given modulus."""
    n = modulus.n
    d = 2 * g
    rows = [[0] * d for _ in range(d)]
    for b in range(g):
        rows[2 * b][2 * b + 1] = 1 % n
        rows[2 * b + 1][2 * b] = (-1) % n
    return ModMatrix.from_rows(modulus, rows)


def pairing(ctx: GroupContext, v: ModVector, w: ModVector) -> int:
    """The alternating pairing v^t J_g w mod n."""
    if v.dim != ctx.dim or w.dim != ctx.dim:
        raise ValueError(f"vectors must have dimension {ctx.dim}")
    return _pair(v.entries, w.entries, ctx.modulus.n)


def _pair(u: Sequence[int], v: Sequence[int], n: int) -> int:
    acc = 0
    for b in range(0, len(u), 2):
        acc += u[b] * v[b + 1] - u[b + 1] * v[b]
    return acc % n


def multiplier(ctx: GroupContext, a: ModMatrix) -> int:
    """The unit lam with a^t J a = lam J; raises NotSimilitude otherwise."""
    if a.dim != ctx.dim or a.modulus != ctx.modulus:
        raise ValueError("matrix does not match the context")
    n = ctx.modulus.n
    cols = tuple(zip(*a.rows))
    lam = _pair(cols[0], cols[1], n)
    if math.gcd(lam, n) != 1:
        raise NotSimilitude(f"form multiplier {lam} is not a unit mod {n}")
    d = ctx.dim
    for i in range(d):
        for j in range(i + 1, d):
            want = lam if (i % 2 == 0 and j == i + 1) else 0
            if _pair(cols[i], cols[j], n) != want:
                raise NotSimilitude("matrix does not scale the standard form")
    return lam


def is_member(ctx: GroupContext, a: ModMatrix) -> bool:
    """Membership in the context's similitude class."""
    try:
        lam = multiplier(ctx, a)
    except NotSimilitude:
        return False
    if isinstance(ctx.q, _Infinity):
        return True
    return lam in ctx.multiplier_values()


def sp_order(g: int, ell: int) -> int:
    """|Sp_2g(F_ell)| = ell^(g^2) * prod_{i=1..g} (ell^(2i) - 1), exactly."""
    if g < 0:
        raise ValueError(f"g must be >= 0, got {g}")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if g == 0:
        return 1
    r = ell ** (g * g)
    for i in range(1, g + 1):
        r *= ell ** (2 * i) - 1
    return r


def gsp_q_order(ctx: GroupContext) -> int:
    """Exact size of the similitude class over the (squarefree) modulus:
    the multiplier count times prod_l |Sp|."""
    return ctx.multiplier_count() * math.prod(sp_order(ctx.g, ell) for ell in ctx.modulus.primes)


def _require_unit(lam: int, n: int) -> int:
    """lam reduced mod n; ValueError when it is not a unit mod n."""
    if math.gcd(lam, n) != 1:
        raise ValueError(f"multiplier {lam} is not a unit mod {n}")
    return lam % n


def scan_entries(ctx: GroupContext, lam: int | None = None,
                 budget: int = DEFAULT_BUDGET) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chunked array stream of group members, in canonical scan order.

    Yields (entries, multipliers) pairs of numpy arrays; the concatenation
    over chunks lists exactly the members of the context's class (optionally
    restricted to one multiplier), each once, ordered row-major
    lexicographically by entries.  Raises BudgetExceeded when the scan
    exceeds ``budget`` or reaches 2**60 candidates, whatever the budget:
    such a scan could not finish (centuries at 10**8 candidates a second),
    and below it a candidate's digits fit the scan's int16 decoder and its
    pairings int32 (see ``_gf.scan_dtype``).
    """
    if not ctx.modulus.is_prime:
        raise ValueError("enumeration requires a prime modulus")
    ell = ctx.modulus.n
    estimate = ell ** (ctx.dim * ctx.dim)
    if estimate >= 1 << 60:
        raise BudgetExceeded(f"enumeration needs {estimate} candidates, "
                             "past the scan's ceiling of 2**60")
    if estimate > budget:
        raise BudgetExceeded(f"enumeration needs {estimate} candidates, budget is {budget}")
    allowed = ctx.multiplier_mask()
    if lam is not None:
        allowed &= np.arange(ell) == _require_unit(lam, ell)
    return _gf.scan_similitudes(ctx.g, ell, allowed)


def enumerate_group(ctx: GroupContext, lam: int | None = None,
                    budget: int = DEFAULT_BUDGET) -> Iterator[ModMatrix]:
    """Brute-force enumeration of the group, one ModMatrix at a time.

    Raises BudgetExceeded up front when the ell^(2g)^2 candidate scan would
    exceed the budget.
    """
    for entries, _ in scan_entries(ctx, lam, budget):
        for flat in entries.reshape(entries.shape[0], -1):
            yield ModMatrix.from_flat(ctx.modulus, flat)


def transvection(ctx: GroupContext, alpha: Sequence[int], beta: int) -> ModMatrix:
    """Matrix of v -> v + beta * e(v, u) * u with u = e_2 + sum alpha_k e_k.

    ``alpha`` lists the coefficients on e_3 ... e_2g.  A shear of this kind
    preserves the form (multiplier 1); beta = 0 gives the identity.
    """
    if not ctx.modulus.is_prime:
        raise ValueError("transvection requires a prime modulus")
    d = ctx.dim
    if len(alpha) != d - 2:
        raise ValueError(f"alpha must have length {d - 2}")
    ell = ctx.modulus.n
    u = [0, 1] + [a % ell for a in alpha]
    beta %= ell
    cols = []
    for i in range(d):
        e_i = [1 if j == i else 0 for j in range(d)]
        c = _pair(e_i, u, ell)
        cols.append([(e_i[j] + beta * c * u[j]) % ell for j in range(d)])
    return ModMatrix.from_rows(ctx.modulus, [[cols[j][i] for j in range(d)] for i in range(d)])


@dataclass(frozen=True)
class StabilizerParams:
    """Free parameters of a similitude fixing the first basis vector.

    ``block`` is a (2g-2)-dimensional similitude with multiplier ``lam``;
    ``d`` and the (2g-2)-vector ``d_vec`` fill the second column.  The first
    row past column two is then forced by the form.
    """

    lam: int
    d: int
    d_vec: tuple[int, ...]
    block: ModMatrix


def stabilizer_matrix(ctx: GroupContext, params: StabilizerParams) -> ModMatrix:
    """Assemble the e_1-fixing similitude determined by ``params``.

    Column 1 is e_1; column 2 is (d, lam, d_1, ..., d_{2g-2})^t; column k+2
    stacks the forced top entry b_k over a zero and column k of the block,
    where b_k = lam^{-1} * sum_j (d_{2j-1} B[2j, k] - d_{2j} B[2j-1, k]).
    The result fixes e_1 and has multiplier lam.
    """
    if not ctx.modulus.is_prime:
        raise ValueError("stabilizer_matrix requires a prime modulus")
    if ctx.g < 2:
        raise ValueError("stabilizer parameterization needs g >= 2")
    d = ctx.dim
    ell = ctx.modulus.n
    if len(params.d_vec) != d - 2:
        raise ValueError(f"d_vec must have length {d - 2}")
    block = params.block
    if block.dim != d - 2 or block.modulus != ctx.modulus:
        raise ValueError(f"block must be a {d - 2}x{d - 2} matrix over Z/{ell}")
    sub = GroupContext(ctx.g - 1, ctx.modulus, ctx.q)
    lam = params.lam % ell
    if multiplier(sub, block) != lam:
        raise NotSimilitude(f"block is not a similitude with multiplier {lam}")
    inv_lam = pow(lam, -1, ell)
    dv = [x % ell for x in params.d_vec]
    rows = [[0] * d for _ in range(d)]
    rows[0][0] = 1
    rows[0][1] = params.d % ell
    rows[1][1] = lam
    for i in range(d - 2):
        rows[2 + i][1] = dv[i]
    for k in range(d - 2):
        b_k = 0
        for j in range(ctx.g - 1):
            b_k += dv[2 * j] * block.rows[2 * j + 1][k] - dv[2 * j + 1] * block.rows[2 * j][k]
        rows[0][2 + k] = b_k * inv_lam % ell
        for i in range(d - 2):
            rows[2 + i][2 + k] = block.rows[i][k]
    return ModMatrix.from_rows(ctx.modulus, rows)


# -- uniform sampling --

def sample_uniform(ctx: GroupContext, lam: int, seed: int, index: int) -> ModMatrix:
    """One exactly-uniform draw from the multiplier-lam coset over F_ell.

    Deterministic function of (seed, index); distinct indexes give
    independent draws (see prng).
    """
    if not ctx.modulus.is_prime:
        raise ValueError("sample_uniform requires a prime modulus")
    ell = ctx.modulus.n
    rows = sample_entries(ctx.g, ell, _require_unit(lam, ell), CounterRng(seed, index))
    return ModMatrix.from_rows(ctx.modulus, rows)


def sample_entries(g: int, ell: int, lam: int, rng: CounterRng) -> list[list[int]]:
    """Row lists of a uniform multiplier-lam similitude over F_ell.

    Builds the image of the standard basis pair by pair: the image f of the
    next odd basis vector is uniform among nonzero vectors of the remaining
    symplectic complement, its partner f' is uniform among solutions of
    e(f, f') = lam there, and the complement shrinks by the span of (f, f').
    The number of choices at each step does not depend on earlier choices
    ((ell^d - 1) * ell^(d-1) at dimension d), and distinct choice sequences
    give distinct matrices, so the output is exactly uniform on the coset.
    """
    dim = 2 * g
    basis = [[1 if j == i else 0 for j in range(dim)] for i in range(dim)]
    cols: list[list[int]] = []
    while basis:
        d = len(basis)
        r = rng.below(ell ** d - 1) + 1
        c1 = []
        for _ in range(d):
            c1.append(r % ell)
            r //= ell
        f1 = _combine(c1, basis, ell)
        w1 = [_pair(f1, bv, ell) for bv in basis]
        p = next(j for j in range(d) if w1[j])
        c2 = [0] * d
        s = 0
        for j in range(d):
            if j == p:
                continue
            c2[j] = rng.below(ell)
            s += w1[j] * c2[j]
        c2[p] = (lam - s) * pow(w1[p], -1, ell) % ell
        f2 = _combine(c2, basis, ell)
        cols.append(f1)
        cols.append(f2)
        if d == 2:
            break
        w2 = [_pair(f2, bv, ell) for bv in basis]
        # w1, w2 have rank 2 (w1(c1) = 0 and w2(c1) = -lam, while w1(c2) = lam),
        # so the complement of (f1, f2) has dimension d - 2
        basis = [_combine(co, basis, ell) for co in kernel_basis([w1, w2], ell)]
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def _combine(coeffs: Sequence[int], basis: Sequence[Sequence[int]], ell: int) -> list[int]:
    dim = len(basis[0])
    return [sum(coeffs[i] * basis[i][j] for i in range(len(basis))) % ell for j in range(dim)]


# Primes the batch sampler takes: its int64 products stay below
# max(2g * ell**2, ell**3) and its inverse tables hold ell entries.  Its draw
# range ell**(2g) - 1 must also fit CounterLanes.below; at g = 2 the scalar
# range reaches 2**64 at ell = 65536, past which CounterRng.below has no
# accepting draw.
LANES_ELL_CAP = 1 << 16


def sample_entries_lanes(g: int, ell: int, lam: np.ndarray, lanes: CounterLanes) -> np.ndarray:
    """``sample_entries`` on every lane of ``lanes`` at once, a contiguous
    (2g, 2g, N) int64 batch: lane i is ``sample_entries(g, ell, lam[i], rng_i)``
    wherever ``lanes.rejected[i]`` stays False, with the same draws in order.

    Vectors are entry-major, (2g, N), and a basis of d of them (d, 2g, N).
    On the first step the basis is the identity, so f1 = c1, f2 = c2, the
    pairings are entries of f up to sign and the kernel basis of (w1, w2)
    is the next basis itself.  Products are of reduced operands.
    """
    dim = 2 * g
    if ell >= LANES_ELL_CAP or ell ** dim > 1 << 63:
        raise ValueError(f"batch sampling at g={g} needs ell < {LANES_ELL_CAP} "
                         f"and ell**{dim} <= 2**63, got ell={ell}")
    n = lanes.lanes
    lam = np.broadcast_to(np.asarray(lam, dtype=np.int64), (n,))
    out = np.empty((dim, dim, n), dtype=np.int64)
    basis = None                # the identity
    for step in range(0, dim, 2):
        d = dim - step
        r = lanes.below(ell ** d - 1) + 1
        c1 = np.empty((d, n), dtype=np.int64)
        for i in range(d - 1):      # the digits of r, least significant first
            q = r // ell
            np.subtract(r, q * ell, out=c1[i])
            r = q
        c1[d - 1] = r
        # row k holds draw k - 1: index j reads row j + 1 before the pivot, row j after
        draws = np.zeros((d + 1, n), dtype=np.int64)
        for k in range(1, d):
            draws[k] = lanes.below(ell)
        f1 = _combine_lanes(c1, basis, ell)
        w1 = _gf.reduce_mod(_pair_lanes(f1, basis), ell)
        p = _gf.first_nonzero(w1)
        after = np.arange(d)[:, None] > p
        x = _gf.reduce_mod(lam - (w1 * draws[:-1] * after).sum(axis=0), ell)
        x *= _gf.inverse_table(ell)[_gf.take_lanes(w1, p)]
        c2 = np.where(after, draws[:-1], draws[1:])
        np.copyto(c2, _gf.reduce_mod(x, ell, out=x), where=np.arange(d)[:, None] == p)
        f2 = _combine_lanes(c2, basis, ell)
        out[:, step], out[:, step + 1] = f1, f2
        if d > 2:
            w = np.stack([w1, _pair_lanes(f2, basis)])
            basis = _combine_lanes(_gf.rank2_kernel_basis(_gf.reduce_mod(w, ell, out=w), ell),
                                   basis, ell)
    return out


def _pair_lanes(f: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """The pairings e(f, b), unreduced, with the vectors b of a (d, 2g, N) basis
    or of the identity (None): sums of b times J^T f = (-f[1], f[0], ...)."""
    swap = np.empty_like(f)
    np.negative(f[1::2], out=swap[0::2])
    swap[1::2] = f[0::2]
    return swap if basis is None else np.stack([(swap * b).sum(axis=0) for b in basis])


def _combine_lanes(coeffs: np.ndarray, basis: np.ndarray | None, ell: int) -> np.ndarray:
    """sum_i coeffs[..., i, :] * basis[i] mod ell for a (d, 2g, N) basis; coeffs at None."""
    if basis is None:
        return coeffs
    f = sum(coeffs[..., i, None, :] * b for i, b in enumerate(basis))
    return _gf.reduce_mod(f, ell, out=f)
