"""The benchmark's self-test runs against the package as it stands.

The benchmark under ``muxbench/`` wraps package functions by module
attribute (``muxlci.solver.lt_propagate``, ``muxlci.experiment.couple``
and others) and checks call counts and outputs at tiny sizes.  A change
that renames or drops a wrapped binding, or changes what a wrapped call
returns, fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "muxbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selftest passed")
