"""Exact-rational series diagnostics for the two driving sums.

Part A is the divergent density series: for each admissible prime, the
exact fraction of the similitude class occupied by the union-level
fixed-vector set.  The terms behave like 1/ell, so partial sums grow
without bound; the per-term diagnostic term*ell makes the 1/ell shape
visible (it increases toward 1).

Part B is the convergent bound series (ell^2g - 1)/(ell - 1) * s^(-e/2g),
with s the symplectic group order.  Terms decay at least like ell^-2 once
e >= 2, so partial sums flatten; the reported tail bound integrates the
observed envelope past the last computed prime.

Everything is computed in exact rational arithmetic.  The only non-rational
quantity, the fractional power s^(-e/2g), is replaced by the upper endpoint
of an integer-root interval enclosure whose relative width is below 1e-18,
comfortably inside the 1e-12 budget the reports promise.

Reports print every numerator and denominator in full, and past a few
thousand primes the partial sums run to tens of thousands of digits.
CPython's ``str(int)`` is quadratic in the digit count before 3.12 and
refuses more than ``sys.get_int_max_str_digits()`` digits, so reports
never call it on large ints.  The partial sums are carried along the
running sum: partial k is partial k-1 plus a term with a short numerator
and denominator, so its exact ``decimal`` form (libmpdec) follows from the
previous one by multiplications and exact divisions by small ints, in time
linear in its length.  The same steps run on the ints as a guard; a row
they do not reproduce (the first row of a report that starts mid-series,
rows out of summation order) is converted from scratch and the carried
form re-seeded from it.  Every other integer, and that fallback, goes
through ``int_str``: ints of at most 2048 bits go through ``str``, larger
ones are split on powers of two and recombined in exact ``decimal``
arithmetic, which is subquadratic and has no digit limit.  Either way the
output is the same string ``str`` gives.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .sympgroup import _Infinity, prime_power_base, q_json, sp_order

ROOT_SCALE = 10 ** 18

# int_str is radix conversion by divide and conquer (Brent & Zimmermann,
# "Modern Computer Arithmetic", 2010, section 1.7; CPython 3.12 ships it as
# _pylong.int_to_decimal_string).  Splitting at the fixed widths
# _LEAF_BITS << j, not at half of each int's own width, means every
# conversion needs only the powers 2**(_LEAF_BITS << j), so the one memo
# _POW2 serves all of a report's ints.  _EXACT is used through its methods
# only: its precision and exponent range admit every integer and Inexact
# traps, so nothing is rounded, and the thread-local decimal context is
# never read or changed.
_LEAF_BITS = 2048
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
_POW2: dict[int, decimal.Decimal] = {}


def _pow2_leaf(j: int) -> decimal.Decimal:
    """2**(_LEAF_BITS << j) as an exact Decimal, memoized."""
    p = _POW2.get(j)
    if p is None:
        if j == 0:
            p = _EXACT.power(decimal.Decimal(2), _LEAF_BITS)
        else:
            half = _pow2_leaf(j - 1)
            p = _EXACT.multiply(half, half)
        _POW2[j] = p
    return p


def _to_decimal(n: int, j: int) -> decimal.Decimal:
    """n >= 0 below 2**(_LEAF_BITS << (j + 1)) as an exact Decimal."""
    if j < 0:
        return _EXACT.create_decimal(n)
    width = _LEAF_BITS << j
    hi = n >> width
    lo = _to_decimal(n - (hi << width), j - 1)
    if not hi:
        return lo
    return _EXACT.add(lo, _EXACT.multiply(_to_decimal(hi, j - 1), _pow2_leaf(j)))


def _decimal(n: int) -> decimal.Decimal:
    """n as an exact Decimal, in subquadratic time."""
    bits = n.bit_length()
    if bits <= _LEAF_BITS:
        return _EXACT.create_decimal(n)
    d = _to_decimal(abs(n), ((bits - 1) // _LEAF_BITS).bit_length() - 1)
    return _EXACT.copy_negate(d) if n < 0 else d


def int_str(n: int) -> str:
    """``str(n)`` for any int, in subquadratic time and past the digit cap."""
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    return _EXACT.to_sci_string(_decimal(n))


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= n:
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(range(p * p, n + 1, p)))
        p += 1
    return [i for i in range(2, n + 1) if sieve[i]]


def nth_root_floor(x: int, n: int) -> int:
    """floor(x^(1/n)) for nonnegative integers, by Newton iteration."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if n == 1 or x in (0, 1):
        return x
    r = 1 << (-(-x.bit_length() // n))       # initial overestimate
    while True:
        t = ((n - 1) * r + x // r ** (n - 1)) // n
        if t >= r:
            break
        r = t
    while r ** n > x:
        r -= 1
    return r


def pow_enclosure(base: Fraction | int, num: int, den: int) -> tuple[Fraction, Fraction]:
    """Interval [lo, hi] containing base^(num/den), relative width <= 1e-18.

    ``base`` must be >= 1; negative ``num`` inverts the enclosure of the
    positive power.
    """
    base = Fraction(base)
    if base < 1:
        raise ValueError("pow_enclosure expects base >= 1")
    if den < 1:
        raise ValueError("den must be >= 1")
    e = abs(num)
    if e == 0:
        return Fraction(1), Fraction(1)
    p, q = base.numerator ** e, base.denominator ** e
    z = nth_root_floor(p * ROOT_SCALE ** den // q, den)
    lo, hi = Fraction(z, ROOT_SCALE), Fraction(z + 1, ROOT_SCALE)
    if num < 0:
        lo, hi = 1 / hi, 1 / lo
    return lo, hi


def density_ratio(g: int, ell: int, q: int | _Infinity) -> Fraction:
    """Exact density of the union-level set inside the similitude class.

    Independent of the similitude class parameter beyond admissibility
    (ell must not divide a finite q): the per-multiplier count cancels.
    Simplifies to (ell^(2g-2)(ell-1) + 1)(ell - 2) / ((ell^2g - 1) ell),
    which behaves like 1/ell.
    """
    if g < 2:
        raise ValueError("the construction behind the density needs g >= 2")
    if ell == 2:
        raise ValueError("ell=2 is inadmissible (the ell-2 factor vanishes)")
    if not isinstance(q, _Infinity):
        if ell % prime_power_base(q) == 0:
            raise ValueError(f"ell={ell} divides q={q}")
    num = (ell ** (2 * g - 2) * (ell - 1) + 1) * (ell - 2)
    den = (ell ** (2 * g) - 1) * ell
    return Fraction(num, den)


@dataclass(frozen=True)
class SeriesRow:
    ell: int
    term: Fraction
    partial: Fraction
    diagnostic: Fraction


@dataclass(frozen=True)
class SeriesReport:
    kind: str                      # "part-a" or "part-b"
    g: int
    ell_max: int
    q: int | _Infinity | None      # part-a only
    e: int | None                  # part-b only
    rows: tuple[SeriesRow, ...]
    tail_bound: Fraction | None    # part-b only

    def as_report_dict(self) -> dict:
        out: dict = {"kind": self.kind, "g": self.g}
        if self.q is not None:
            out["q"] = q_json(self.q)
        if self.e is not None:
            out["e"] = self.e
        out["ell_max"] = self.ell_max
        out["rows"] = [
            {
                "ell": r.ell,
                "term_num": int_str(r.term.numerator),
                "term_den": int_str(r.term.denominator),
                "partial_num": partial_num,
                "partial_den": partial_den,
                "diagnostic": frac_str(r.diagnostic),
            }
            for r, (partial_num, partial_den) in zip(self.rows, _partial_strs(self.rows))
        ]
        if self.tail_bound is not None:
            out["tail_bound"] = frac_str(self.tail_bound)
        return out

    def csv_lines(self) -> Iterator[str]:
        yield "ell,term_num,term_den,partial_num,partial_den,diagnostic_num,diagnostic_den"
        for r, partial in zip(self.rows, _partial_strs(self.rows)):
            yield ",".join([str(r.ell), int_str(r.term.numerator), int_str(r.term.denominator),
                            *partial, int_str(r.diagnostic.numerator),
                            int_str(r.diagnostic.denominator)])


def _partial_strs(rows: Sequence[SeriesRow]) -> Iterator[tuple[str, str]]:
    """``int_str`` of each row's partial numerator and denominator, in row order.

    The steps of ``Fraction`` addition take the previous partial (pn, pd)
    and the term (nb, db) to the next partial through the small ints
    g = gcd(pd, db), db // g, nb, g2 = gcd(t, g) and db // g2, so they
    carry the exact Decimals of (pn, pd) forward in time linear in their
    length.  The ints go through the same steps; where the result is not
    the row's partial, the row's strings come from ``int_str``'s conversion
    and the Decimals are re-seeded from it.  The running sum starts at 0/1,
    so a report from ``part_a_series`` or ``part_b_series`` converts no
    partial from scratch.
    """
    mul, add, div = _EXACT.multiply, _EXACT.add, _EXACT.divide_int
    pn, pd = 0, 1
    dn, dd = _decimal(0), _decimal(1)
    for r in rows:
        nb, db = r.term.numerator, r.term.denominator
        g = math.gcd(pd, db)
        s = pd // g
        t = pn * (db // g) + nb * s
        g2 = math.gcd(t, g)
        pn, pd = r.partial.numerator, r.partial.denominator
        if t // g2 == pn and s * (db // g2) == pd:
            ds = div(dd, _decimal(g))
            dt = add(mul(dn, _decimal(db // g)), mul(_decimal(nb), ds))
            dn, dd = div(dt, _decimal(g2)), mul(ds, _decimal(db // g2))
        else:
            dn, dd = _decimal(pn), _decimal(pd)
        yield _EXACT.to_sci_string(dn), _EXACT.to_sci_string(dd)


def frac_str(f: Fraction) -> str:
    return f"{int_str(f.numerator)}/{int_str(f.denominator)}"


def admissible_primes(q: int | _Infinity, ell_max: int) -> list[int]:
    """Odd primes <= ell_max not dividing a finite q.

    ell = 2 is always skipped: its term is identically zero (empty sets), so
    it contributes nothing and would break the in-(0,1) term contract.
    """
    p = None if isinstance(q, _Infinity) else prime_power_base(q)
    return [ell for ell in primes_upto(ell_max) if ell > 2 and ell != p]


def part_a_series(g: int, q: int | _Infinity, ell_max: int) -> SeriesReport:
    """Density terms and exact partial sums for all admissible primes.

    Diagnostic: term * ell, strictly inside (0, 1) and increasing toward 1.
    """
    if g < 2:
        raise ValueError("part-a requires g >= 2")
    rows = []
    partial = Fraction(0)
    for ell in admissible_primes(q, ell_max):
        term = density_ratio(g, ell, q)
        partial += term
        rows.append(SeriesRow(ell, term, partial, term * ell))
    return SeriesReport("part-a", g, ell_max, q, None, tuple(rows), None)


def part_b_term(g: int, e: int, ell: int) -> Fraction:
    """(ell^2g - 1)/(ell - 1) * s^(-e/2g), s the symplectic order.

    Returned as the upper endpoint of an enclosure with relative error
    below 1e-18 (well inside the documented 1e-12 budget).
    """
    if e < 2:
        raise ValueError("part-b terms require e >= 2")
    if g < 1:
        raise ValueError("part-b terms require g >= 1")
    pref = Fraction(ell ** (2 * g) - 1, ell - 1)
    _, hi = pow_enclosure(sp_order(g, ell), -e, 2 * g)
    return pref * hi


def _part_b_diag_exponent(g: int, e: int) -> int:
    # diagnostic = term * ell^(kappa) with kappa = e(g + 1/2) - (2g - 1);
    # returns 2*kappa so half-integer powers stay integral.
    return e * (2 * g + 1) - 2 * (2 * g - 1)


def part_b_series(g: int, e: int, ell_max: int) -> SeriesReport:
    """Bound terms, exact partial sums, diagnostics, and a tail bound.

    Diagnostic: term * ell^kappa with kappa = e(g+1/2) - (2g-1), which tends
    to 1.  The tail bound uses the largest observed diagnostic C and the
    integral envelope
    sum_{m > ell_max} C * m^(-kappa) <= C * ell_max^(1-kappa) / (kappa - 1).
    """
    if e < 2:
        raise ValueError("part-b requires e >= 2")
    two_kappa = _part_b_diag_exponent(g, e)
    rows = []
    partial = Fraction(0)
    for ell in primes_upto(ell_max):
        term = part_b_term(g, e, ell)
        partial += term
        _, lhik = pow_enclosure(ell, two_kappa, 2)
        rows.append(SeriesRow(ell, term, partial, term * lhik))
    tail = None
    if rows:
        c = max(r.diagnostic for r in rows)
        # term <= C * ell^(-kappa), and 2*kappa = e(2g+1) - 2(2g-1) = 2(e-2)g + 2 + e
        _, hi = pow_enclosure(ell_max, 2 - two_kappa, 2)       # ell_max^(1-kappa)
        tail = c * hi / (Fraction(two_kappa, 2) - 1)
    return SeriesReport("part-b", g, ell_max, None, e, tuple(rows), tail)
