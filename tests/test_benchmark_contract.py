"""The benchmark under perfbench/ reaches into the package by name: it
hooks the per-step recorders and gradient functions, and its tracer must
patch names such as ``ebm.adam_update``. Its self-test fails when a change
to the package drops one of those bindings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
