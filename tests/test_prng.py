import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from symon.prng import CounterLanes, CounterRng, mix64


@pytest.fixture
def warnings_are_errors():
    # the uint64 kernels must wrap silently, never warn about overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_stream_is_deterministic():
    a = [CounterRng(42, 7).next64() for _ in range(16)]
    b = [CounterRng(42, 7).next64() for _ in range(16)]
    assert a == b


def test_distinct_keys_give_distinct_streams():
    base = [CounterRng(42, 0).next64() for _ in range(8)]
    assert [CounterRng(42, 1).next64() for _ in range(8)] != base
    assert [CounterRng(43, 0).next64() for _ in range(8)] != base


def test_mix64_is_64_bit():
    for z in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= mix64(z) < 2**64


def test_below_range_and_coverage():
    rng = CounterRng(1, 0)
    counts = Counter(rng.below(7) for _ in range(7000))
    assert set(counts) == set(range(7))
    # crude uniformity: every residue within 25% of the mean
    for v in counts.values():
        assert abs(v - 1000) < 250


def test_below_one_and_errors():
    rng = CounterRng(0, 0)
    assert rng.below(1) == 0
    try:
        rng.below(0)
    except ValueError:
        pass
    else:
        raise AssertionError("below(0) must raise")


def test_mix64_on_arrays_matches_ints(warnings_are_errors):
    z = np.array([0, 1, 2**63, 2**64 - 1, 0xDEADBEEF], dtype=np.uint64)
    assert mix64(z).tolist() == [mix64(int(x)) for x in z]


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 5, -3])
def test_lanes_match_scalar_streams_near_the_top_index(seed, warnings_are_errors):
    top = 2**64 - 1
    indexes = [top - k for k in range(6)] + [0, 1, 2**63]
    lanes = CounterLanes(seed, np.array(indexes, dtype=np.uint64))
    rngs = [CounterRng(seed, i) for i in indexes]
    for _ in range(8):    # draws k = 1 ... 8
        assert lanes.next64().tolist() == [r.next64() for r in rngs]


def test_lanes_below_matches_scalar(warnings_are_errors):
    indexes = np.arange(300, dtype=np.uint64)
    lanes = CounterLanes(7, indexes)
    rngs = [CounterRng(7, int(i)) for i in indexes]
    # n = 1 draws nothing; a power of two has no rejection zone
    for n in (5, 1, 80, 2**40 + 3, 1, 64, 10**15):
        assert lanes.below(n).tolist() == [r.below(n) for r in rngs]
    assert not lanes.rejected.any()


def test_lanes_flag_draws_in_the_rejection_zone(warnings_are_errors):
    # below(2**62 + 1) redraws every u >= 3 * 2**62 + 3, about a quarter of
    # all draws: the lanes must mark those and answer the rest like the
    # scalar stream
    n = 2**62 + 1
    indexes = np.arange(64, dtype=np.uint64)
    u = CounterLanes(3, indexes).next64()
    lanes = CounterLanes(3, indexes)
    got = lanes.below(n)
    assert lanes.rejected.tolist() == (u >= np.uint64(3 * 2**62 + 3)).tolist()
    assert 0 < lanes.rejected.sum() < 64
    for i in np.flatnonzero(~lanes.rejected).tolist():
        assert got[i] == CounterRng(3, i).below(n)


def test_lanes_below_errors():
    lanes = CounterLanes(0, np.arange(3, dtype=np.uint64))
    for n in (0, 2**63):
        with pytest.raises(ValueError):
            lanes.below(n)


def test_below_refuses_ranges_past_64_bits():
    # every 64-bit draw lies below 2**64 - (2**64 mod n) = 0 once n > 2**64,
    # so below(n) used to redraw forever; 2**64 itself has no rejection zone
    rng = CounterRng(5, 0)
    assert rng.below(2**64) == CounterRng(5, 0).next64()
    with pytest.raises(ValueError):
        rng.below(2**64 + 1)


def test_sample_uniform_past_the_64_bit_range_raises():
    # at g = 3, ell = 1999 the first draw is below(1999**6 - 1), past 2**64
    code = ("from symon.sympgroup import GroupContext, sample_uniform\n"
            "try:\n"
            "    sample_uniform(GroupContext.of(3, 1999), 1, 0, 0)\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError:")
