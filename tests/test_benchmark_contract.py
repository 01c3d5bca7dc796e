"""The benchmark under perfbench/ reaches into the package by name: it
hooks the per-step recorders and gradient functions, and its tracer must
patch names such as ``ebm.adam_update``. Its self-test fails when a change
to the package drops one of those bindings. Every benchmark run also
records its environment through ``ebmlp.active_backend()``, which the
self-test never calls, so that call is checked here on its own. The
self-test runs each workload at a toy size only, so each workload is also
run here as the benchmark runs it, for its first calls, and must pass its
output checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_benchmark_environment_names_the_kernels():
    script = (
        "import json, sys; sys.path.insert(0, 'perfbench'); import run; "
        "print(json.dumps(run.environment()))"
    )
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["backend"] == "numpy"


@pytest.mark.parametrize("workload", ["backprop", "equivalence", "anneal"])
def test_benchmark_workload_runs_correct(workload):
    # --seconds 0 stops after the workload's first training selections
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "41", "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
