import os
import subprocess
import sys

import numpy as np
import pytest

from symon.sympgroup import GroupContext, scan_entries


@pytest.fixture(scope="session")
def gsp4_f3():
    """Full brute-force enumeration of the 4x4 similitudes over F_3.

    One 3^16-candidate scan per test session; returns (entries, multipliers)
    with entries shaped (103680, 4, 4) in canonical scan order.
    """
    parts_e, parts_l = [], []
    for a, lam in scan_entries(GroupContext.of(2, 3)):
        parts_e.append(a)
        parts_l.append(lam)
    return np.concatenate(parts_e), np.concatenate(parts_l)


# Prepended to a child's source: ``status(field)`` reads a field of the
# child's own /proc/self/status in kB, and the child prints its VmHWM last.
_PEAK_PRELUDE = """\
import atexit, sys
def status(field):
    with open('/proc/self/status') as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith(field))
atexit.register(lambda: print('VmHWM', status('VmHWM:'), file=sys.stderr))
"""


@pytest.fixture
def child_peak():
    """Run Python source in a fresh interpreter that must exit 0; returns
    (its CompletedProcess with text output, its peak RSS in KiB).

    The child reads its own VmHWM: Linux carries the spawning process's peak
    into ru_maxrss across exec, so ru_maxrss would read pytest's peak.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc")

    def run(code: str) -> tuple[subprocess.CompletedProcess, int]:
        proc = subprocess.run([sys.executable, "-c", _PEAK_PRELUDE + code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc, int(proc.stderr.split()[-1])

    return run
