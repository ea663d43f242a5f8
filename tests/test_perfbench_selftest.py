"""The benchmark's own checks must keep accepting lofiq's outputs.

``perfbench/selftest.py`` runs every workload through the real CLI at a tiny
size and checks that each output check passes on it and rejects it when one
element or field is moved. A lofiq change that breaks those checks fails
here, before any benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

import lofiq

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    src = os.path.dirname(os.path.dirname(lofiq.__file__))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "0 failures", proc.stdout[-4000:]
