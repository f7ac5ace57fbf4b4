"""Exact linear algebra over Z/n for squarefree n.

Matrices and vectors carry their modulus; every operation reduces
immediately and works in plain integer arithmetic, so all results are exact.
Over a prime modulus the usual Gaussian elimination applies (unit pivots via
the extended Euclid behind ``pow(x, -1, p)``); over a composite squarefree
modulus, determinants and inverses are computed per prime factor and
recombined with the Chinese Remainder Theorem, which sidesteps zero-divisor
pivoting entirely.

All values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

MAX_DIM = 16


class NotInvertible(ValueError):
    """The matrix determinant shares a factor with the modulus."""


_TRIAL_LIMIT = 1 << 10
# Miller-Rabin with the first 12 prime bases is deterministic below 2**64
_FACTOR_LIMIT = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _passes_miller_rabin(n: int) -> bool:
    """n (odd, > 37) is a strong probable prime to every base in _MR_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A factor 1 < f < n of the composite n with no prime factor below
    _TRIAL_LIMIT: Pollard's rho with Brent's cycle search, gcds taken over
    blocks of 128 steps; deterministic, trying c = 1, 2, ... in turn."""
    for c in count(1):
        y, r, q, f = 2, 1, 1, 1
        while f == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                f = math.gcd(q, n)
                if f != 1:
                    break
            r *= 2
        if f == n:      # the block overshot: replay it one step at a time
            f = 1
            while f == 1:
                ys = (ys * ys + c) % n
                f = math.gcd(abs(x - ys), n)
        if f != n:
            return f


def _split_odd(n: int) -> list[int]:
    """The prime factors, with multiplicity, of 1 < n < _FACTOR_LIMIT with no
    prime factor below _TRIAL_LIMIT."""
    if n < _TRIAL_LIMIT ** 2 or _passes_miller_rabin(n):
        return [n]
    f = _rho_factor(n)
    return _split_odd(f) + _split_odd(n // f)


def prime_factors(n: int) -> Iterator[tuple[int, int]]:
    """(p, k) for each prime power p^k exactly dividing n >= 2, ascending.

    Primes below 2**10 are divided out by trial division and produced
    lazily, so that callers stop at the first factor that settles their
    question.  The cofactor left after them must be below 2**64, else
    ValueError: below that bound Pollard-Brent rho splits it into parts that
    Miller-Rabin proves prime, well under a second for any such cofactor.
    """
    for p in chain((2,), range(3, _TRIAL_LIMIT, 2)):
        if p * p > n:
            break
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            yield p, k
    if n >= _FACTOR_LIMIT:
        raise ValueError("cannot factor: the part left after the primes below 2**10 "
                         "is 2**64 or more, the factoring limit")
    if n > 1:
        yield from sorted(Counter(_split_odd(n)).items())


def factor_squarefree(n: int) -> tuple[int, ...]:
    """Factor n into distinct primes; raise if n is not squarefree or < 2."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    primes = []
    for p, k in prime_factors(n):
        if k > 1:
            raise ValueError(f"modulus {n} is not squarefree (divisible by {p}^2)")
        primes.append(p)
    return tuple(primes)


@dataclass(frozen=True)
class Modulus:
    """A squarefree modulus n together with its prime factorization."""

    n: int
    primes: tuple[int, ...]

    def __post_init__(self):
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("prime factors must be distinct and ascending")
        if math.prod(self.primes) != self.n:
            raise ValueError("prime factors do not multiply to the modulus")

    @classmethod
    def of(cls, n: int) -> "Modulus":
        return cls(n, factor_squarefree(n))

    @property
    def is_prime(self) -> bool:
        return len(self.primes) == 1

    def restrict(self, ell: int) -> "Modulus":
        """The prime modulus ell; ValueError unless ell is one of the prime factors."""
        if ell not in self.primes:
            raise ValueError(f"{ell} is not a prime factor of the modulus {self.n}")
        return Modulus(ell, (ell,))


@dataclass(frozen=True)
class ModMatrix:
    """Square matrix over Z/n, entries stored reduced in [0, n)."""

    modulus: Modulus
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        if d == 0 or d > MAX_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {d}")
        n = self.modulus.n
        for row in self.rows:
            if len(row) != d:
                raise ValueError("matrix must be square")
            for x in row:
                if not 0 <= x < n:
                    raise ValueError(f"entry {x} out of range [0, {n})")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, modulus: Modulus, rows: Sequence[Sequence[int]]) -> "ModMatrix":
        n = modulus.n
        return cls(modulus, tuple(tuple(int(x) % n for x in row) for row in rows))

    @classmethod
    def from_flat(cls, modulus: Modulus, flat: Sequence[int]) -> "ModMatrix":
        """The square matrix with the given row-major entries."""
        vals = list(flat)
        d = math.isqrt(len(vals))
        return cls.from_rows(modulus, [vals[i * d:(i + 1) * d] for i in range(d)])

    @classmethod
    def identity(cls, modulus: Modulus, dim: int) -> "ModMatrix":
        return cls(modulus, tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))

    def flat(self) -> tuple[int, ...]:
        return tuple(x for row in self.rows for x in row)

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        return mat_mul(self, other)


@dataclass(frozen=True)
class ModVector:
    modulus: Modulus
    entries: tuple[int, ...]

    def __post_init__(self):
        n = self.modulus.n
        for x in self.entries:
            if not 0 <= x < n:
                raise ValueError(f"entry {x} out of range [0, {n})")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def from_entries(cls, modulus: Modulus, entries: Sequence[int]) -> "ModVector":
        n = modulus.n
        return cls(modulus, tuple(int(x) % n for x in entries))


def _require_same(a: ModMatrix, b: ModMatrix) -> None:
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus.n} vs {b.modulus.n}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def mat_mul(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    """Matrix product with entries reduced mod n."""
    _require_same(a, b)
    n = a.modulus.n
    d = a.dim
    bt = tuple(zip(*b.rows))
    rows = tuple(
        tuple(sum(x * y for x, y in zip(ar, bc)) % n for bc in bt) for ar in a.rows
    )
    return ModMatrix(a.modulus, rows)


def mat_vec(a: ModMatrix, v: ModVector) -> ModVector:
    if a.modulus != v.modulus or a.dim != v.dim:
        raise ValueError("modulus/dimension mismatch")
    n = a.modulus.n
    return ModVector(a.modulus, tuple(sum(x * y for x, y in zip(row, v.entries)) % n for row in a.rows))


# -- prime-field elimination helpers (plain lists of ints) --

def rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p). Returns (rref, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    cols = len(a[0]) if m else 0
    piv_cols: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return a, piv_cols


def kernel_basis(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel over GF(p), in the canonical RREF form."""
    cols = len(rows[0]) if rows else 0
    rref, piv_cols = rref_mod(rows, p)
    piv_set = set(piv_cols)
    basis = []
    for f in range(cols):
        if f in piv_set:
            continue
        v = [0] * cols
        v[f] = 1
        for r, pc in enumerate(piv_cols):
            v[pc] = (-rref[r][f]) % p
        basis.append(v)
    return basis


def minus_identity(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Rows of A - I reduced mod p: its kernel is the fixed space of A."""
    return [[(x - (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(rows)]


def rank_mod(rows: list[list[int]], p: int) -> int:
    return len(rref_mod(rows, p)[1])


def _det_prime(rows: list[list[int]], p: int) -> int:
    a = [[x % p for x in row] for row in rows]
    d = len(a)
    det = 1
    for c in range(d):
        piv = next((i for i in range(c, d) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, d):
            if a[i][c]:
                f = a[i][c] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def _inv_prime(rows: list[list[int]], p: int) -> list[list[int]]:
    d = len(rows)
    aug = [list(row) + [1 if i == j else 0 for j in range(d)] for i, row in enumerate(rows)]
    rref, piv_cols = rref_mod(aug, p)
    if piv_cols[:d] != list(range(d)):
        raise NotInvertible(f"matrix is singular mod {p}")
    return [row[d:] for row in rref[:d]]


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue mod m1*m2 reducing to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    inv = pow(m1, -1, m2)
    return (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)


def det(a: ModMatrix) -> int:
    """Determinant mod n, computed per prime factor and CRT-recombined."""
    r, m = 0, 1
    for p in a.modulus.primes:
        dp = _det_prime([list(row) for row in a.rows], p)
        r, m = crt_pair(r, m, dp, p), m * p
    return r


def mat_inv(a: ModMatrix) -> ModMatrix:
    """Inverse of a over Z/n; raises NotInvertible when gcd(det, n) > 1."""
    n = a.modulus.n
    d = math.gcd(det(a), n)
    if d != 1:
        raise NotInvertible(f"determinant shares factor {d} with modulus {n}")
    return crt_lift(ModMatrix.from_rows(Modulus.of(p), _inv_prime([list(row) for row in a.rows], p))
                    for p in a.modulus.primes)


def fixed_space(a: ModMatrix) -> list[ModVector]:
    """Canonical basis of ker(a - I) over the prime field of a's modulus.

    An empty list means only the zero vector is fixed.
    """
    if not a.modulus.is_prime:
        raise ValueError("fixed_space requires a prime modulus")
    p = a.modulus.n
    basis = kernel_basis(minus_identity(a.rows, p), p)
    return [ModVector.from_entries(a.modulus, v) for v in basis]


def has_eigenvalue_one(a: ModMatrix) -> bool:
    """True iff det(a - I) == 0 mod the (prime) modulus."""
    if not a.modulus.is_prime:
        raise ValueError("has_eigenvalue_one requires a prime modulus")
    p = a.modulus.n
    return _det_prime(minus_identity(a.rows, p), p) == 0


def reduce_mod(a: ModMatrix, ell: int) -> ModMatrix:
    """Entrywise reduction of a to the prime factor ell of its modulus."""
    return ModMatrix(a.modulus.restrict(ell), tuple(tuple(x % ell for x in row) for row in a.rows))


def crt_lift(mats: Iterable[ModMatrix]) -> ModMatrix:
    """Lift per-prime residue matrices to the unique matrix mod the product.

    Each input matrix must live over a distinct prime modulus; ``reduce_mod``
    inverts the lift.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one residue matrix")
    primes = []
    for m in mats:
        if not m.modulus.is_prime:
            raise ValueError("crt_lift inputs must have prime moduli")
        primes.append(m.modulus.n)
    if len(set(primes)) != len(primes):
        raise ValueError(f"duplicate primes in {primes}")
    d = mats[0].dim
    if any(m.dim != d for m in mats):
        raise ValueError("dimension mismatch among residues")
    order = sorted(range(len(mats)), key=lambda i: primes[i])
    acc = [[0] * d for _ in range(d)]
    mod = 1
    for i in order:
        p = primes[i]
        for r in range(d):
            for c in range(d):
                x = mats[i].rows[r][c]
                acc[r][c] = crt_pair(acc[r][c], mod, x, p)
        mod *= p
    return ModMatrix.from_rows(Modulus.of(mod), acc)


# -- line-oriented serialization --
#
# One matrix per line: row-major decimal entries in [0, n), comma-separated,
# no spaces.  A single header line "# dim=<d> mod=<n>" opens the stream.
# Both directions work on (N, d*d) int64 entry arrays, a chunk at a time.

LINES_PER_CHUNK = 1 << 16


_TOKEN_BYTES = np.zeros(256, dtype=bool)
_TOKEN_BYTES[list(b"0123456789,\n")] = True


def _canonical(text: bytes) -> bool:
    """Whether dump lines hold only digits, commas and newlines, and no
    token of two or more digits starts with 0: what ``write_matrix_lines``
    writes.  One table lookup and one shifted comparison over the bytes."""
    b = np.frombuffer(b"\n" + text + b"\n", dtype=np.uint8)
    if not _TOKEN_BYTES[b].all():
        return False
    digit = b >= ord("0")    # once the bytes are checked, "," and "\n" sort below "0"
    return not ((b[1:-1] == ord("0")) & ~digit[:-2] & digit[2:]).any()


def header_line(dim: int, n: int) -> str:
    return f"# dim={dim} mod={n}"


def parse_header(line: str) -> tuple[int, int]:
    parts = line.strip().split()
    if len(parts) != 3 or parts[0] != "#" or not parts[1].startswith("dim=") or not parts[2].startswith("mod="):
        raise ValueError(f"bad header line: {line!r}")
    return int(parts[1][4:]), int(parts[2][4:])


def write_matrix_lines(fh: TextIO, chunks: Iterable[np.ndarray], dim: int, n: int) -> int:
    """Write the header and every row of each (N, dim*dim) entry chunk; returns the row count.

    Rows are rendered ``LINES_PER_CHUNK`` at a time, however large a chunk is.
    """
    fh.write(header_line(dim, n) + "\n")
    table = np.array([str(x) for x in range(n)], dtype=object)
    count = 0
    for chunk in chunks:
        for start in range(0, chunk.shape[0], LINES_PER_CHUNK):
            rows = table[chunk[start:start + LINES_PER_CHUNK]].tolist()
            fh.write("\n".join(map(",".join, rows)) + "\n")
        count += chunk.shape[0]
    return count


def read_matrix_lines(fh: TextIO, dim: int, n: int) -> Iterator[np.ndarray]:
    """The rows of a dump of dim x dim matrices mod n, as (N, dim*dim) int64 chunks.

    Raises ValueError on a header other than ``header_line(dim, n)``, a line
    of the wrong width, a token that is not a decimal integer, an entry
    outside [0, n), a token that is not canonical (a sign, a space or a
    leading zero: ``_canonical``) and a line end other than ``\n``: a
    ``\r`` byte where the stream keeps line ends, its ``newlines`` record
    where it translates them.  Empty lines are skipped.
    """
    got = parse_header(fh.readline())
    if got != (dim, n):
        raise ValueError(f"dump header says dim={got[0]} mod={got[1]}, "
                         f"expected dim={dim} mod={n}")
    first = 2
    while lines := list(islice(fh, LINES_PER_CHUNK)):
        where = f"dump lines {first}-{first + len(lines) - 1}"
        first += len(lines)
        if getattr(fh, "newlines", None) not in (None, "\n"):
            raise ValueError(f"{where}: a line end is not \\n")
        if all(line == "\n" for line in lines):     # np.loadtxt warns on no data
            continue
        try:
            chunk = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if chunk.shape[1] != dim * dim:
            raise ValueError(f"{where}: expected {dim * dim} entries per line, "
                             f"got {chunk.shape[1]}")
        if chunk.min() < 0 or chunk.max() >= n:
            raise ValueError(f"{where}: an entry lies outside [0, {n})")
        if not _canonical("".join(lines).encode()):
            raise ValueError(f"{where}: a token is not a canonical decimal integer "
                             "(digits only, no leading zero)")
        yield chunk
