"""Training benchmark for ebmlp.

    python3 perfbench/run.py --workload {backprop,equivalence,anneal} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ebmlp is imported from its ``src``
directory. With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the workload untraced and then traced over the same
calls and prints per-layer metrics per training step. Every metric is
printed on its own line with its unit, and the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when any check fails.

End-to-end timings are scaled to a nominal host speed with a reference
computation timed during the run (see ``bench.HostSpeed``); the unscaled
values and the scale are printed as log lines. ``failed_frac``,
``step_s.p50`` and, on runs of at least 100 steps, ``step_s.p90`` are log
lines too.

Self-test: ``python3 perfbench/selftest.py``.
"""

import os
import time

START = time.perf_counter()
# Pinned before numpy is imported: OpenBLAS would otherwise start a thread
# pool of its own, and without numba the package would pick its kernels
# from whatever happens to be installed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "EBMLP_BACKEND": "numpy",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ebmlp  # noqa: E402

import bench  # noqa: E402

IMPORT_S = time.perf_counter() - START


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": ebmlp.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned": PINNED_ENV,
    }


def run(workload, seed, seconds, trace):
    """One run; returns (result dict for the last line, extra log lines)."""
    WORK_ROOT.mkdir(exist_ok=True)
    if trace:
        metrics, log, trials, failed_trials, spans = bench.measure_traced(workload, seed, seconds, WORK_ROOT)
        with open(WORK_ROOT / f"spans-{workload.name}-{seed}.jsonl", "w") as fh:
            for layer, name, start, end, parent in spans:
                fh.write(json.dumps({"layer": layer, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
        extra = {}
    else:
        metrics, log, trials, failed_trials, extra = bench.measure(workload, seed, seconds, IMPORT_S, WORK_ROOT)
    failed = failed_trials + len(log.failures)
    result = {
        "correct": failed == 0,
        "attempted": trials + len(log),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    lines = [f"check failed: {name}" for name in log.failures]
    lines.append(f"failed_frac {failed / result['attempted']!r} ({failed} of {result['attempted']} trials and checks)")
    lines += [f"{name} {value!r}" for name, value in extra.items()]
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(ebmlp.__file__).resolve().parent != ROOT / "src" / "ebmlp":
        parser.error(f"ebmlp was imported from {ebmlp.__file__}, not from this checkout")
    print("environment " + json.dumps(environment(), sort_keys=True), flush=True)
    result, lines = run(bench.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
