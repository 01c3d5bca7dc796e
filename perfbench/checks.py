"""Checks on the files a run writes, read back with the standard library so
they do not depend on the code under test. Only ``success_rule`` comes from
the package: the check is that summary.json applies it to the trace."""

import csv
import json
import math
from pathlib import Path

from ebmlp import experiments

TRACE_COLUMNS = ("step", "train_loss", "ebm_loglik_estimate", "test_accuracy")
# Bounds on quality: well above what any seed gives when training works,
# well below what a broken gradient or sampler gives. Over 45 equivalence
# trials the final KL had median 0.004, 90th percentile 0.04 and maximum
# 0.12 nats; an EBM that does not learn beside a trained MLP gives about 2.
KL_BOUND = 0.5
NEG_GRAD_ERR_BOUND = 0.5
# About 1 backprop trial in 100 stays at chance on this corpus, so the rule
# is checked as a share of trials, not per trial.
SUCCESS_RATE_FLOOR = 0.9


class CheckLog:
    """Named pass/fail results; ``failures`` lists the names that failed."""

    def __init__(self):
        self.results = []

    def add(self, name, passed):
        self.results.append((name, bool(passed)))
        return bool(passed)

    @property
    def failures(self):
        return [name for name, passed in self.results if not passed]

    def __len__(self):
        return len(self.results)


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def read_trace(path):
    """Rows of a trace CSV as dicts, skipping ``#`` comment lines."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_track_dir(out_dir, steps, log, check_success):
    """Checks one ``run_track`` output directory. Returns the trials as
    dicts from summary.json, each with ``final_accuracy_read``: the last
    test accuracy in its trace file."""
    out_dir = Path(out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    trials = summary["trials"]
    traces = sorted(out_dir.glob("trace_*.csv"))
    log.add(f"{out_dir.name}: summary lists {len(trials)} trials, {len(traces)} trace files", len(trials) == len(traces))
    for trial in trials:
        if trial["failed"]:
            continue
        path = out_dir / f"trace_{trial['trial']}.csv"
        rows = read_trace(path) if path.is_file() else []
        finite = all(_finite(row[col]) for row in rows for col in TRACE_COLUMNS)
        log.add(f"{path.name} in {out_dir.name}: {steps + 1} finite rows", finite and len(rows) == steps + 1)
        accuracies = [float(row["test_accuracy"]) for row in rows] if finite else []
        trial["final_accuracy_read"] = accuracies[-1] if accuracies else float("nan")
        if check_success:
            rule = experiments.success_rule(accuracies)
            log.add(f"{path.name} in {out_dir.name}: success_rule agrees with summary.json", rule == trial["success"])
    return trials


def check_equivalence_dir(out_dir, steps, log):
    """Checks one ``run_equivalence`` output directory; returns the final
    test accuracy of the EBM-trained model."""
    out_dir = Path(out_dir)
    series = json.loads((out_dir / "equivalence.json").read_text())["series"]
    rows = read_trace(out_dir / "equivalence.csv")
    finite = all(_finite(v) for values in series.values() for v in values)
    log.add(f"{out_dir.name}: equivalence.json has {steps + 1} finite rows", finite and len(series["step"]) == steps + 1)
    log.add(f"{out_dir.name}: equivalence.csv has {steps + 1} rows", len(rows) == steps + 1)
    final_kl = series["kl_nats"][-1]
    log.add(f"{out_dir.name}: final KL {final_kl!r} below {KL_BOUND}", _finite(final_kl) and final_kl < KL_BOUND)
    return series["acc_ebm"][-1]
