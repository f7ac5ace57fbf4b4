"""Counter-based deterministic random number generation.

Every random draw in this package is a pure function of a ``(seed, index)``
pair: the stream for a given pair is derived by hashing a counter, with no
sequential state shared between pairs.  Two consequences matter for callers:

* rerunning with the same seed reproduces every result bit for bit, and
* work can be partitioned across threads or processes by ``index`` without
  changing any output, because stream ``(seed, i)`` never depends on how many
  draws stream ``(seed, j)`` consumed.

The underlying mixer is SplitMix64 (Steele, Lea & Flood), which passes
BigCrush and is more than adequate for the uniformity checks this package is
held to.

Because draw k of stream i is the pure function ``mix64(base_i + k * GOLDEN)``
(the counter-based design of Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), ``CounterLanes`` computes draw k of many streams
at once with wrapping uint64 array arithmetic and reproduces each of them
exactly.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _stream_base(seed: int, index):
    """The base of stream (seed, index); index may be a uint64 array."""
    return mix64((mix64(seed ^ 0x6A09E667F3BCC908)
                  + mix64(index ^ 0xBB67AE8584CAA73B)) & _MASK64)


def _rejection_limit(n: int) -> int:
    """Draws at or past this bound are redrawn by below(n): 2**64 - (2**64 mod n)."""
    return (1 << 64) - ((1 << 64) % n)


def mix64(z):
    """SplitMix64 finalizer: a 64-bit bijective scrambler.

    Takes an int or a uint64 array; array products wrap mod 2**64, which is
    what the masks do for ints.
    """
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class CounterRng:
    """Deterministic stream of 64-bit words keyed by ``(seed, index)``.

    Draw ``i`` of the stream is ``mix64(base + i * GOLDEN)`` where ``base``
    is a hash of the key, so the stream is stateless apart from the draw
    counter.
    """

    __slots__ = ("_base", "_count")

    def __init__(self, seed: int, index: int = 0):
        self._base = _stream_base(seed, index)
        self._count = 0

    def next64(self) -> int:
        self._count += 1
        return mix64((self._base + self._count * _GOLDEN) & _MASK64)

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` via rejection (no modulo bias).

        Draws one 64-bit word per try, so n may be at most 2**64.
        """
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        if n > 1 << 64:
            # the acceptance bound 2**64 - (2**64 mod n) would be 0
            raise ValueError(f"below() requires n <= 2**64, got a {n.bit_length()}-bit n")
        if n == 1:
            return 0
        limit = _rejection_limit(n)
        while True:
            u = self.next64()
            if u < limit:
                return u % n


class CounterLanes:
    """The streams (seed, i) for every i of an index array, drawn in lockstep.

    ``next64`` and ``below`` return, lane by lane, the value the same call
    on ``CounterRng(seed, i)`` returns, as long as every earlier ``below``
    on that lane accepted its first draw.  A lane whose draw falls in the
    rejection zone of ``below(n)`` (probability below n / 2**64) is marked
    in ``rejected`` and its values from then on are meaningless: the scalar
    stream would have redrawn, shifting every later draw.  Callers rerun
    those lanes through ``CounterRng``.
    """

    __slots__ = ("_base", "_count", "rejected")

    def __init__(self, seed: int, indexes: np.ndarray):
        indexes = np.asarray(indexes, dtype=np.uint64)
        self._base = _stream_base(seed, indexes)
        self._count = 0
        self.rejected = np.zeros(indexes.shape[0], dtype=bool)

    @property
    def lanes(self) -> int:
        return self.rejected.shape[0]

    def next64(self) -> np.ndarray:
        self._count += 1
        return mix64(self._base + (self._count * _GOLDEN & _MASK64))

    def below(self, n: int) -> np.ndarray:
        """Per-lane ``CounterRng.below(n)`` as int64, flagging rejections."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        if n >= 1 << 63:
            raise ValueError("CounterLanes.below() requires n < 2**63")
        if n == 1:
            return np.zeros(self.lanes, dtype=np.int64)
        u = self.next64()
        limit = _rejection_limit(n)
        if limit < 1 << 64:
            self.rejected |= u >= np.uint64(limit)
        return (u % np.uint64(n)).astype(np.int64)
