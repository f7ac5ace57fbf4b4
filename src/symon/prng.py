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
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scrambler."""
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
        self._base = mix64(
            mix64(seed ^ 0x6A09E667F3BCC908) + mix64(index ^ 0xBB67AE8584CAA73B)
        )
        self._count = 0

    def next64(self) -> int:
        self._count += 1
        return mix64((self._base + self._count * _GOLDEN) & _MASK64)

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` via rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next64()
            if u < limit:
                return u % n
