"""Seeded simulation of tuples of similitudes and their fixed-vector events.

Sampling protocol (deterministic in (seed, index), see prng): each sample
index owns one stream.  A tuple over a composite squarefree modulus draws,
per slot, one global multiplier exponent (finite q) or independent unit
multipliers per prime (q = INFINITY), then one uniform coset element per
prime factor in ascending order; the per-prime draws CRT-lift to the
element mod n.  Drawing the exponent once per slot is what makes the
per-prime hit events exactly independent with the product density.  A
borel-cantelli stream draws, prime by prime in ascending order on the one
stream, the single-prime tuple of that protocol at each prime of its range.

Events:

* set hit -- the slot-one element reduces into the union-level
  fixed-vector set at a prime (decided by DirectMembership, so no
  materialization is needed even at primes whose sets would not fit in
  memory);
* joint set hit -- simultaneous set hits at several primes;
* common fixed vector -- the e matrices of the tuple share a nonzero fixed
  vector mod a prime, tested as rank(stack of (A_i - I)) < 2g.

Estimates carry binomial standard errors, the exact value when one is
computable, and the projective union bound for common-fixed-vector events.

The estimators evaluate chunks of CHUNK consecutive indexes on numpy lanes,
lanes last (``CounterLanes``, the (2g, 2g, CHUNK) ``sample_entries_lanes``,
``DirectMembership.contains_lanes``, ``_gf.batch_rank``), reproducing the
scalar streams lane by lane; ``_tally`` replays chosen lanes through the
scalar oracle.  Chunks partition across threads without changing any output.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import _gf
from .analysis import density_ratio, frac_str, pow_enclosure
from .modmat import ModMatrix, Modulus, crt_lift, minus_identity, rank_mod
from .prng import CounterLanes, CounterRng
from .specialsets import DirectMembership
from .sympgroup import (
    GroupContext,
    _Infinity,
    gsp_q_order,
    q_json,
    sample_entries,
    sample_entries_lanes,
)

# Sample indexes per batch chunk.  It bounds the batch arrays (a few
# (2g, 2g, CHUNK) int64 stacks per prime and slot) and fixes which lanes
# the oracle replays, so no output depends on the thread count.
CHUNK = 2048


class OracleMismatch(RuntimeError):
    """The batch engine and the scalar oracle disagree on a sample."""


@dataclass(frozen=True)
class SampleTuple:
    """An e-tuple of group elements over Z/n with its provenance."""

    ctx: GroupContext
    elements: tuple[ModMatrix, ...]
    seed: int
    index: int


@dataclass(frozen=True)
class FixedVectorEvent:
    """The tuple has a common nonzero fixed vector mod ell."""

    ell: int

    def name(self) -> str:
        return f"fixed-vector({self.ell})"


@dataclass(frozen=True)
class SetHitEvent:
    """The slot-one element lies in the union-level set mod ell."""

    ell: int

    def name(self) -> str:
        return f"set-hit({self.ell})"


@dataclass(frozen=True)
class JointSetHitEvent:
    """Simultaneous set hits at every listed prime."""

    ells: tuple[int, ...]

    def name(self) -> str:
        return "joint-set-hit(" + ",".join(str(x) for x in self.ells) + ")"


Event = Union[FixedVectorEvent, SetHitEvent, JointSetHitEvent]


@dataclass(frozen=True)
class EventEstimate:
    event_name: str
    n_samples: int
    hits: int
    estimate: Fraction
    std_error: float
    exact_value: Fraction | None = None
    bound: Fraction | None = None

    def as_report_dict(self) -> dict:
        out = {
            "event": self.event_name,
            "n_samples": self.n_samples,
            "hits": self.hits,
            "estimate": frac_str(self.estimate),
            "estimate_float": float(self.estimate),
            "std_error": self.std_error,
        }
        if self.exact_value is not None:
            out["exact_value"] = frac_str(self.exact_value)
            out["exact_value_float"] = float(self.exact_value)
        if self.bound is not None:
            out["bound"] = frac_str(self.bound)
            out["bound_float"] = float(self.bound)
        return out


def _binomial_se(hits: int, n: int) -> float:
    p = hits / n
    return math.sqrt(p * (1.0 - p) / n)


def _draw_rows_by_prime(ctx: GroupContext, e: int, rng: CounterRng) -> dict[int, list[list[list[int]]]]:
    """Per-prime row matrices of one e-tuple: out[ell][slot] = rows."""
    out: dict[int, list] = {ell: [] for ell in ctx.modulus.primes}
    finite = not isinstance(ctx.q, _Infinity)
    ord_n = ctx.multiplier_count() if finite else 0
    for _ in range(e):
        if finite:
            exp = rng.below(ord_n) + 1
        for ell in ctx.modulus.primes:
            lam = pow(ctx.q, exp, ell) if finite else 1 + rng.below(ell - 1)
            out[ell].append(sample_entries(ctx.g, ell, lam, rng))
    return out


def _draw_lanes_by_prime(ctx: GroupContext, e: int,
                        lanes: CounterLanes) -> dict[int, list[np.ndarray]]:
    """``_draw_rows_by_prime`` on every lane: out[ell][slot] is a (dim, dim, N) batch."""
    out: dict[int, list] = {ell: [] for ell in ctx.modulus.primes}
    finite = not isinstance(ctx.q, _Infinity)
    if finite:
        ord_n = ctx.multiplier_count()
        powers = {ell: np.array([pow(ctx.q, k, ell) for k in range(ord_n + 1)])
                  for ell in ctx.modulus.primes}
    for _ in range(e):
        if finite:
            exp = lanes.below(ord_n) + 1
        for ell in ctx.modulus.primes:
            lam = powers[ell][exp] if finite else 1 + lanes.below(ell - 1)
            out[ell].append(sample_entries_lanes(ctx.g, ell, lam, lanes))
    return out


def sample_tuple(ctx: GroupContext, e: int, seed: int, index: int) -> SampleTuple:
    """e independent uniform draws from the context's class over Z/n."""
    if e < 1:
        raise ValueError("e must be >= 1")
    rng = CounterRng(seed, index)
    by_prime = _draw_rows_by_prime(ctx, e, rng)
    elements = []
    for slot in range(e):
        residues = [ModMatrix.from_rows(Modulus.of(ell), by_prime[ell][slot])
                    for ell in ctx.modulus.primes]
        elements.append(residues[0] if len(residues) == 1 else crt_lift(residues))
    return SampleTuple(ctx, tuple(elements), seed, index)


def _stacked_rank_deficient(rows_list: Sequence[Sequence[Sequence[int]]], ell: int, dim: int) -> bool:
    stacked = [row for rows in rows_list for row in minus_identity(rows, ell)]
    return rank_mod(stacked, ell) < dim


def has_common_fixed_vector(sig: SampleTuple, ell: int) -> bool:
    """True iff the reductions mod ell share a nonzero fixed vector."""
    dim = sig.ctx.restrict(ell).dim
    rows_list = [[[x % ell for x in row] for row in m.rows] for m in sig.elements]
    return _stacked_rank_deficient(rows_list, ell, dim)


def exact_common_fixed_fraction(ctx: GroupContext, ell: int, e: int) -> Fraction:
    """Exact probability that an e-tuple shares a fixed vector (g = 1).

    In dimension two the fixed-space lattice is lines only: the event is the
    union over the ell + 1 lines of "every slot restricts to the identity
    there", the per-line count is the same by transitivity, and any two
    lines overlap only in the identity tuple.  That gives
    m * (n1^e - 1) + 1 favourable tuples with m = ell + 1 and n1 the number
    of elements fixing e_1 pointwise.
    """
    if ctx.g != 1:
        raise ValueError("exact mode is implemented for g = 1 only")
    sub = ctx.restrict(ell)
    if e < 1:
        raise ValueError("e must be >= 1")
    n1 = ell * sub.multiplier_count()
    size = gsp_q_order(sub)
    m = ell + 1
    return Fraction(m * (n1 ** e - 1) + 1, size ** e)


def common_fixed_upper_bound(ctx: GroupContext, ell: int, e: int) -> Fraction:
    """Projective union bound (ell^2g - 1)/(ell - 1) * |G_ell|^(-e/2g).

    Upper enclosure of the fractional power, so the bound is safe to compare
    against from below.
    """
    sub = ctx.restrict(ell)
    if e < 1:
        raise ValueError("e must be >= 1")
    size = gsp_q_order(sub)
    _, hi = pow_enclosure(size, -e, 2 * ctx.g)
    return Fraction(ell ** (2 * ctx.g) - 1, ell - 1) * hi


def _count_rows(out: np.ndarray) -> Counter:
    """How often each row of an (N, E) bool array occurs, keyed by the row
    as a tuple of bools.

    Each row's bools are packed into ceil(E / 8) bytes and the rows counted
    by one 1-D ``np.unique`` over a void view of those bytes; a key is read
    off the first row with its bytes.  ``np.unique(out, axis=0)`` gives the
    same counts several times slower.
    """
    packed = np.packbits(out, axis=1, bitorder="little")
    rows = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    return Counter(dict(zip(map(tuple, out[first].tolist()), counts.tolist())))


def _hits_per_event(tally: Counter, n_events: int) -> list[int]:
    return [sum(n for outcome, n in tally.items() if outcome[k]) for k in range(n_events)]


def _outcomes(events: Sequence[Event], in_set: Mapping, deficient: Callable) -> list:
    """Which events a sampled tuple hits.

    ``in_set[ell]`` is the slot-one set hit at ell and ``deficient(ell)``
    the stacked rank test over all slots at ell.  Both are bools for one
    tuple or bool arrays over the lanes of a batch; they combine alike.
    """
    out = []
    for ev in events:
        if isinstance(ev, SetHitEvent):
            out.append(in_set[ev.ell])
        elif isinstance(ev, JointSetHitEvent):
            out.append(functools.reduce(operator.and_, (in_set[ell] for ell in ev.ells), True))
        else:
            out.append(deficient(ev.ell))
    return out


def _tally(draws: Sequence[GroupContext], events: Sequence[Event],
           testers: Mapping[int, DirectMembership], e: int, n_samples: int,
           seed: int, threads: int) -> Counter:
    """How often each outcome tuple of ``events`` occurs over sample indexes
    [0, n_samples), each index drawing ``_draw_rows_by_prime`` of every
    context of ``draws``, in order, from its one stream.

    ``run(lo)`` does one chunk of CHUNK indexes.  It draws the chunk on
    ``CounterLanes`` and evaluates its (N, E) bool outcomes through
    ``_outcomes`` by ``contains_lanes`` and ``batch_rank``.  Then the oracle
    replays lanes on ``CounterRng`` by ``contains_rows`` and ``rank_mod``:
    every lane whose draws were rejected, whose answer it supplies, and, per
    event, the first other lane the batch marks as a hit and the first it
    marks as a miss; a disagreement raises OracleMismatch.  Last it counts
    the chunk's outcome rows.  Chunks are CHUNK indexes wide whatever
    ``threads`` is, and each index owns its random stream, so the counts do
    not depend on ``threads``.
    """
    dim = draws[0].dim
    eye = np.eye(dim, dtype=np.int64)[:, :, None]

    def run(lo: int) -> Counter:
        lanes = CounterLanes(seed, np.arange(lo, min(lo + CHUNK, n_samples), dtype=np.uint64))
        mats = {ell: m for ctx in draws for ell, m in _draw_lanes_by_prime(ctx, e, lanes).items()}
        in_set = {ell: testers[ell].contains_lanes(mats[ell][0]) for ell in testers}
        out = np.zeros((lanes.lanes, len(events)), dtype=bool)
        for k, col in enumerate(_outcomes(events, in_set, lambda ell: _gf.batch_rank(
                np.concatenate([a - eye for a in mats[ell]]), ell) < dim)):
            out[:, k] = col
        rejected = lanes.rejected
        replay = set(np.flatnonzero(rejected).tolist())
        for col in out.T:
            for hit in (True, False):
                replay.update(np.flatnonzero((col == hit) & ~rejected)[:1].tolist())
        for i in sorted(replay):
            rng = CounterRng(seed, lo + i)
            rows = {ell: m for ctx in draws for ell, m in _draw_rows_by_prime(ctx, e, rng).items()}
            in_set = {ell: testers[ell].contains_rows(rows[ell][0]) for ell in testers}
            want = tuple(_outcomes(events, in_set,
                                   lambda ell: _stacked_rank_deficient(rows[ell], ell, dim)))
            got = tuple(out[i].tolist())
            if rejected[i]:
                out[i] = want
            elif got != want:
                raise OracleMismatch(f"sample index {lo + i}: batch outcomes {got}, "
                                     f"scalar outcomes {want}")
        return _count_rows(out)

    # worker k takes chunks k, k + workers, ...: one task per thread, so
    # no per-chunk future is held however many chunks there are
    starts = range(0, n_samples, CHUNK)
    workers = max(1, min(threads, len(starts)))

    def share(k: int) -> Counter:
        return sum(map(run, starts[k::workers]), Counter())

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(share, range(workers)), Counter())


def _estimate(ctx: GroupContext, ev: Event, e: int, hits: int, n_samples: int) -> EventEstimate:
    """The estimate of one event with its exact value or bound where known."""
    exact = bound = None
    if isinstance(ev, SetHitEvent):
        exact = density_ratio(ctx.g, ev.ell, ctx.q)
    elif isinstance(ev, JointSetHitEvent):
        exact = math.prod((density_ratio(ctx.g, ell, ctx.q) for ell in ev.ells),
                          start=Fraction(1))
    else:
        bound = common_fixed_upper_bound(ctx, ev.ell, e)
        if ctx.g == 1:
            exact = exact_common_fixed_fraction(ctx, ev.ell, e)
    return EventEstimate(ev.name(), n_samples, hits, Fraction(hits, n_samples),
                         _binomial_se(hits, n_samples), exact, bound)


def estimate_events(ctx: GroupContext, events: Sequence[Event], e: int,
                    n_samples: int, seed: int, threads: int = 1) -> list[EventEstimate]:
    """Monte Carlo estimates of several events over one shared sample stream.

    All events are evaluated on the same n_samples tuples, so a joint event
    and its marginals come from identical draws.  Output is independent of
    ``threads``.
    """
    if e < 1 or n_samples < 1:
        raise ValueError("need e >= 1 and n_samples >= 1")
    need_sets = set()
    for ev in events:
        ells = ev.ells if isinstance(ev, JointSetHitEvent) else (ev.ell,)
        if len(set(ells)) != len(ells):
            raise ValueError(f"{ev.name()} repeats a prime")
        for ell in ells:
            ctx.restrict(ell)     # ValueError unless ell is a prime factor of n
        if not isinstance(ev, FixedVectorEvent):
            need_sets.update(ells)
    if need_sets and e != 1:
        raise ValueError("set-hit events are defined for e = 1 tuples")
    testers = {ell: DirectMembership(ctx.restrict(ell)) for ell in sorted(need_sets)}
    tally = _tally([ctx], events, testers, e, n_samples, seed, threads)
    hits = _hits_per_event(tally, len(events))
    return [_estimate(ctx, ev, e, h, n_samples) for ev, h in zip(events, hits)]


def estimate_event(ctx: GroupContext, event: Event, e: int, n_samples: int,
                   seed: int, threads: int = 1) -> EventEstimate:
    return estimate_events(ctx, [event], e, n_samples, seed, threads)[0]


@dataclass(frozen=True)
class BorelCantelliReport:
    """Hit statistics of per-prime event streams over a prime range.

    Each sample is one stream: an independent e-tuple is drawn at every
    prime of the range and the event evaluated there.  ``regime`` is
    "part-a" (e = 1, set hits: divergent expected sum) or "part-b"
    (e >= 2, common-fixed-vector events: summable expected sum).  The
    threshold is the first prime of the upper half of the range;
    frac_tail_hit is the fraction of streams with at least one hit at or
    past it, frac_zero_tail its complement.
    """

    regime: str
    g: int
    q: int | _Infinity
    e: int
    ells: tuple[int, ...]
    n_samples: int
    seed: int
    per_ell: tuple[EventEstimate, ...]
    hist: dict[int, int]
    mean_hits: float
    mean_std_error: float
    expected_mean: Fraction
    threshold: int
    frac_tail_hit: float
    frac_zero_tail: float

    def as_report_dict(self) -> dict:
        return {
            "regime": self.regime,
            "g": self.g,
            "q": q_json(self.q),
            "e": self.e,
            "ells": list(self.ells),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "per_ell": [est.as_report_dict() for est in self.per_ell],
            "hit_histogram": {str(k): v for k, v in sorted(self.hist.items())},
            "mean_hits": self.mean_hits,
            "mean_std_error": self.mean_std_error,
            "expected_mean": frac_str(self.expected_mean),
            "expected_mean_float": float(self.expected_mean),
            "threshold": self.threshold,
            "frac_tail_hit": self.frac_tail_hit,
            "frac_zero_tail": self.frac_zero_tail,
        }


def borel_cantelli_experiment(g: int, q: int | _Infinity, ells: Sequence[int],
                              e: int, n_samples: int, seed: int,
                              threads: int = 1) -> BorelCantelliReport:
    """Simulate per-prime event streams and summarize their hit counts.

    Any finite range can only exhibit the monotone trend of the zero-one
    behaviour, never verify it; the report is finite-range evidence.
    """
    if e < 1 or n_samples < 1:
        raise ValueError("need e >= 1 and n_samples >= 1")
    ells = tuple(sorted(ells))
    if not ells:
        raise ValueError("need at least one prime")
    if len(set(ells)) != len(ells):
        raise ValueError("primes must be distinct")
    contexts = [GroupContext.of(g, ell, q) for ell in ells]
    for ctx in contexts:
        if not ctx.modulus.is_prime:
            raise ValueError(f"ells entry {ctx.modulus.n} is not a prime")
    part_a = e == 1
    events = [SetHitEvent(ell) if part_a else FixedVectorEvent(ell) for ell in ells]
    testers = ({ell: DirectMembership(ctx) for ell, ctx in zip(ells, contexts)}
               if part_a else {})
    tally = _tally(contexts, events, testers, e, n_samples, seed, threads)
    per_ell = _hits_per_event(tally, len(ells))
    hist: dict[int, int] = {}
    for outcome, n in tally.items():
        hist[sum(outcome)] = hist.get(sum(outcome), 0) + n
    mid = len(ells) // 2
    tail_hit = sum(n for outcome, n in tally.items() if any(outcome[mid:]))

    estimates = [_estimate(ctx, ev, e, hits, n_samples)
                 for ctx, ev, hits in zip(contexts, events, per_ell)]
    expected = sum((est.exact_value if part_a else est.bound for est in estimates),
                   Fraction(0))
    var_sum = 0.0
    for hits in per_ell:
        p = hits / n_samples
        var_sum += p * (1.0 - p)
    mean_hits = sum(per_ell) / n_samples
    frac_tail = tail_hit / n_samples
    return BorelCantelliReport(
        regime="part-a" if part_a else "part-b",
        g=g, q=q, e=e, ells=ells, n_samples=n_samples, seed=seed,
        per_ell=tuple(estimates), hist=hist,
        mean_hits=mean_hits, mean_std_error=math.sqrt(var_sum / n_samples),
        expected_mean=expected, threshold=ells[mid],
        frac_tail_hit=frac_tail, frac_zero_tail=1.0 - frac_tail,
    )
