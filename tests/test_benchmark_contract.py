"""The benchmark harness self-test, run as part of the suite.

perfbench/selftest.py runs every benchmark workload at tiny size.  It
checks the outputs against their golden digests, that every function the
traced run wraps still exists and fires on its workload, and that a
deliberately broken program (``--fault``) is caught.  A refactor that
renames a wrapped function or changes a benchmarked output fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
