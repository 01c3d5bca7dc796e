"""Experiment tracks, trial aggregation, and the runtime benchmark.

Three training tracks share one protocol and differ only in how gradients
are produced: "classical1" is the backprop MLP, "classical2" the EBM with
Gibbs sampling, "quantum-sim" the EBM with the simulated annealer standing
in for quantum hardware. Trials are independent runs with derived seeds;
their traces and the aggregate summary land in the output directory as
plain CSV/JSON.
"""

import itertools
import json
import math
import re
import time
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from ._kernels import gibbs_block
from .bqm import bqm_to_ising, bqm_to_text, build_conditional_bqm, clamp_to_hardware, ising_to_text
from .core import atomic_open, require_integers, rng_from_seed
from .data import load_standard_split, make_binary_task
from .equivalence import run_equivalence_experiment
from .mlp import pre_activation
from .models import INIT_STD, initial_model, Model, N_HIDDEN
from .samplers import GibbsSampler, make_sampler, SamplerConfig, sampler_seed
from .training import train_ebm, train_mlp, TrainOptions

TRACKS = ("classical1", "classical2", "quantum-sim")
ALL_TRACKS = TRACKS + ("equivalence", "bench")

# make_sampler name of each EBM track's negative-phase sampler
TRACK_SAMPLERS = {"classical2": "gibbs", "quantum-sim": "simanneal"}

SUMMARY_SCHEMA_VERSION = 1

# Success rule constants: a trial counts as successful when the mean test
# accuracy over the last SUCCESS_WINDOW recorded steps reaches
# SUCCESS_FLOOR and beats the pre-training accuracy by SUCCESS_GAIN.
SUCCESS_WINDOW = 5
SUCCESS_FLOOR = 0.65
SUCCESS_GAIN = 0.10

ACCURACY_TARGET = 0.70


@dataclass
class RunConfig:
    """Everything a track run needs; the CLI fills this from the config
    file plus flag overrides, library callers construct it directly. The
    sampler and training settings take their defaults from SamplerConfig
    and TrainOptions, which own them and their rules."""

    track: str = "classical1"
    data_dir: str = "data"
    class_a: int = 0
    class_b: int = 1
    train_count: int = 20
    n_hidden: int = N_HIDDEN
    batch_size: int = TrainOptions.batch_size
    lr: float = TrainOptions.lr
    steps: int = TrainOptions.steps
    trials: int = 5
    seed: int = 0
    output_dir: str = "runs"
    beta_eff: float = SamplerConfig.beta_eff
    reads: int = SamplerConfig.reads
    burn_in: int = SamplerConfig.burn_in
    thin: int = SamplerConfig.thin
    anneal_sweeps: int = SamplerConfig.anneal_sweeps
    anneal_beta_start: float = SamplerConfig.anneal_beta_start
    anneal_schedule: str = SamplerConfig.anneal_schedule
    beta_sim: float = SamplerConfig.beta_sim
    use_sampled_hidden: bool = TrainOptions.use_sampled_hidden
    init_std: float = INIT_STD
    sizes: tuple = (10, 100, 1000, 10000)

    def __post_init__(self):
        if self.track not in ALL_TRACKS:
            raise ValueError(f"unknown track {self.track!r}; choose from {ALL_TRACKS}")
        require_integers(self, ("train_count", "n_hidden", "trials"))
        for name in ("train_count", "n_hidden", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        # init_std = 0 is allowed: it starts every weight at zero
        if not 0.0 <= self.init_std < math.inf:
            raise ValueError("init_std must be >= 0 and finite")
        self.sizes = tuple(int(s) for s in self.sizes)
        if any(s < 1 for s in self.sizes):
            raise ValueError("benchmark sizes must be positive")
        # built once here so the sampler and training rules, which live in
        # SamplerConfig and TrainOptions, reject a bad config before any trial
        self.sampler_config(self.seed)
        self.train_options(self.seed)

    def sampler_config(self, seed):
        return self._owned(SamplerConfig, seed)

    def train_options(self, seed):
        return self._owned(TrainOptions, seed)

    def _owned(self, owner, seed):
        # a field the owner gains and RunConfig lacks raises AttributeError here
        return owner(**{f.name: getattr(self, f.name) for f in fields(owner) if f.name != "seed"}, seed=seed)


@dataclass
class TrialSummary:
    trial: int
    seed: int
    final_accuracy: float = None
    steps_to_target: int = None  # first step index with accuracy > 0.70; None if never
    success: bool = False
    failed: bool = False
    error: str = ""

    @classmethod
    def from_accuracies(cls, trial, seed, accuracies):
        """Summary of a finished trial from its per-step test accuracies."""
        return cls(
            trial=trial,
            seed=seed,
            final_accuracy=accuracies[-1] if accuracies else None,
            steps_to_target=steps_to_target(accuracies),
            success=success_rule(accuracies),
        )

    def as_dict(self):
        return asdict(self)


def steps_to_target(accuracies, target=ACCURACY_TARGET):
    """First step index whose test accuracy exceeds `target` (step 0 is the
    pre-training evaluation); None when the run never exceeds it."""
    for i, acc in enumerate(accuracies):
        if acc is not None and acc > target:
            return i
    return None


def success_rule(accuracies):
    """Mean accuracy over the final SUCCESS_WINDOW steps must reach
    SUCCESS_FLOOR and beat the step-0 accuracy by SUCCESS_GAIN."""
    if not accuracies or accuracies[0] is None:
        return False
    tail = [a for a in accuracies[-SUCCESS_WINDOW:] if a is not None]
    if not tail:
        return False
    mean_tail = sum(tail) / len(tail)
    return mean_tail >= SUCCESS_FLOOR and (mean_tail - accuracies[0]) >= SUCCESS_GAIN


def load_task(config):
    """Build the binary classification task the config describes."""
    train_images, train_labels, test_images, test_labels = load_standard_split(config.data_dir)
    return make_binary_task(
        train_images,
        train_labels,
        test_images,
        test_labels,
        config.class_a,
        config.class_b,
        config.train_count,
        config.seed,
    )


def run_trial(config, trial_index, train_set, test_set):
    """One independent trial; returns (trace, TrialSummary)."""
    seed = config.seed + trial_index
    options = config.train_options(seed)
    model = initial_model(seed, train_set.n_features, config.n_hidden, config.init_std)
    if config.track == "classical1":
        trace = train_mlp(model, train_set, options, test_set)
    elif config.track in TRACK_SAMPLERS:
        sampler = make_sampler(TRACK_SAMPLERS[config.track], config.sampler_config(sampler_seed(seed)))
        trace = train_ebm(model, train_set, sampler, options, test_set)
    else:
        raise ValueError(f"track {config.track!r} is not a training track")
    return trace, TrialSummary.from_accuracies(trial_index, seed, trace.test_accuracy)


def summarize_trials(summaries):
    """Aggregate row per the tables: mean accuracy over successful trials,
    median steps-to-70% over trials that reached it, success rate in %."""
    if not summaries:
        raise ValueError("at least one trial required")
    ok = [s for s in summaries if s.success and not s.failed]
    reached = [s.steps_to_target for s in summaries if not s.failed and s.steps_to_target is not None]
    return {
        "n_trials": len(summaries),
        "n_failed": sum(1 for s in summaries if s.failed),
        "mean_successful_accuracy": (sum(s.final_accuracy for s in ok) / len(ok)) if ok else None,
        "median_steps_to_70": float(np.median(reached)) if reached else None,
        "success_rate_percent": 100.0 * len(ok) / len(summaries),
    }


_TRACE_NAME = re.compile(r"trace_([0-9]+)\.csv")


def trace_files(directory):
    """(trial, path) of each trial trace in ``directory``, in trial order:
    files named trace_<trial>.csv exactly, so a trace_0_old.csv or
    trace_notes.csv beside them is not a trial."""
    matches = ((_TRACE_NAME.fullmatch(p.name), p) for p in Path(directory).glob("trace_*.csv"))
    return sorted((int(m.group(1)), p) for m, p in matches if m)


def run_track(config, train_set=None, test_set=None, progress=None):
    """Run all trials of a training track and write outputs.

    A trial that raises is marked failed and the run continues. Writes
    trace_<trial>.csv per trial plus summary.json into the output
    directory, after removing those files, and the bqm_dump.txt that
    ``ebmlp train --dump-bqm`` writes after the run, from any earlier run
    there so a reused directory never mixes runs; returns (traces,
    summaries, aggregate).
    """
    if config.track not in TRACKS:
        raise ValueError(f"run_track handles {TRACKS}, not {config.track!r}")
    if train_set is None or test_set is None:
        train_set, test_set = load_task(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in [*(path for _, path in trace_files(out)), out / "summary.json", out / "bqm_dump.txt"]:
        stale.unlink(missing_ok=True)
    traces, summaries = [], []
    for trial in range(config.trials):
        try:
            trace, summary = run_trial(config, trial, train_set, test_set)
        except Exception as exc:  # noqa: BLE001 - trial isolation is the contract
            trace = None
            summary = TrialSummary(trial=trial, seed=config.seed + trial, failed=True, error=f"{type(exc).__name__}: {exc}")
        else:
            trace.to_csv(out / f"trace_{trial}.csv", header_comment=f"track={config.track} trial={trial} seed={summary.seed}")
        traces.append(trace)
        summaries.append(summary)
        if progress is not None:
            progress(trial, summary)
    aggregate = summarize_trials(summaries)
    payload = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "track": config.track,
        "config": _config_dict(config),
        "trials": [s.as_dict() for s in summaries],
        "aggregate": aggregate,
    }
    with atomic_open(out / "summary.json") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return traces, summaries, aggregate


def _config_dict(config):
    d = asdict(config)
    d["sizes"] = list(d["sizes"])
    return d


def run_equivalence(config, train_set=None, test_set=None):
    """Equivalence track: lockstep training plus report files in the
    output directory (equivalence.csv / equivalence.json). Both files are
    removed before training, so a run that raises, or stops between the
    two writes, never leaves an earlier run's report beside its own."""
    if train_set is None or test_set is None:
        train_set, test_set = load_task(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in (out / "equivalence.csv", out / "equivalence.json"):
        stale.unlink(missing_ok=True)
    sampler = GibbsSampler(config.sampler_config(sampler_seed(config.seed)))
    report = run_equivalence_experiment(
        train_set,
        test_set,
        n_hidden=config.n_hidden,
        options=config.train_options(config.seed),
        sampler=sampler,
        init_std=config.init_std,
    )
    report.to_csv(out / "equivalence.csv")
    report.to_json(out / "equivalence.json")
    return report


def write_bqm_dump(model, x, beta_eff, path):
    """Dump the annealer-programming pipeline for one clamped input: BQM
    coefficients, exact Ising conversion, and the hardware-clamped Ising
    with its clip report."""
    bqm = build_conditional_bqm(model, x, beta_eff)
    ising = bqm_to_ising(bqm)
    clamped, report = clamp_to_hardware(ising)
    lines = [
        f"# conditional BQM at beta_eff={beta_eff!r} over {bqm.n} variables (k first, y last)",
        bqm_to_text(bqm).rstrip("\n"),
        "# exact Ising conversion",
        ising_to_text(ising).rstrip("\n"),
        f"# after hardware clamp: {len(report)} coefficients clipped, max shift {report.max_shift!r}",
        ising_to_text(clamped).rstrip("\n"),
        "",
    ]
    with atomic_open(path) as fh:
        fh.write("\n".join(lines))


def _seconds_per_call(stmt, reps):
    # CPU time of the calling thread: other processes' load on the host does
    # not count, and neither do BLAS worker threads, which keep spinning
    # after a threaded call and would be charged to the next (small) size
    t0 = time.thread_time()
    for _ in range(reps):
        stmt()
    return (time.thread_time() - t0) / reps


def _calibrated_reps(stmt, target, max_reps=100000):
    """How many calls of ``stmt`` take about ``target`` seconds together.

    After one warm-up call, loops of 1, 2, 5, 10, ... calls are timed, as
    ``timeit.Timer.autorange`` does, until one reaches ``target``. A slow
    start (allocation, BLAS thread start-up) can fill that loop, so one
    more loop of the same length is timed and the faster of the two sets
    the count."""
    stmt()
    for reps in _one_two_five(max_reps):
        per_call = _seconds_per_call(stmt, reps)
        if per_call * reps >= target:
            break
    per_call = min(per_call, _seconds_per_call(stmt, reps))
    return max(1, min(max_reps, math.ceil(target / max(per_call, 1e-9))))


def _one_two_five(limit):
    """1, 2, 5, 10, 20, 50, ... up to ``limit``, which comes last."""
    for power in itertools.count():
        for digit in (1, 2, 5):
            n = digit * 10**power
            if n >= limit:
                yield limit
                return
            yield n


def _mlp_matmul(inputs, w1, w2):
    return (inputs @ w1.T) @ w2.T


def _gibbs_conditional(inputs, model, reads, burn_in, seed):
    return gibbs_block(pre_activation(model, inputs), model.w2, model.c, reads, burn_in, 1, seed)


def bench_runtime(sizes=RunConfig.sizes, repeats=21, seed=0, batch=1024, reads=1, burn_in=0):
    """CPU-time scaling of the two per-example classical operations.

    One hidden and one output unit, visible width swept. "mlp_matmul"
    times the forward pass's matrix work for a batch of inputs;
    "gibbs_conditional" times conditioning the sampler on a batch of
    inputs (the visible-width-dependent clamp W1 x + b) plus the Gibbs
    reads drawn from it. Sweeps cost the same at every width, so the
    defaults keep the sweep budget minimal; raising reads/burn_in only
    shifts the whole series up. Every series is warmed up and calibrated
    first; then each of ``repeats`` rounds times every series once, so
    drift in host speed hits all sizes alike. Returns one dict per
    (component, size) with the median seconds per call and the calls
    per measurement (``BENCH_COLUMNS``); medians are CPU seconds of the
    calling thread and vary between machines and runs, so only their
    ordering is meaningful.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("benchmark sizes must be positive")
    rng = rng_from_seed([seed, 0xBE7C])
    series = []
    for n in sizes:
        w1 = rng.normal(scale=0.01, size=(1, n))
        w2 = rng.normal(scale=0.01, size=(1, 1))
        model = Model(w1, w2, np.zeros(1), np.zeros(1))
        inputs = rng.random((batch, n))
        series.append(({"component": "mlp_matmul", "size": n}, partial(_mlp_matmul, inputs, w1, w2)))
        stmt = partial(_gibbs_conditional, inputs, model, reads, burn_in, seed)
        series.append(({"component": "gibbs_conditional", "size": n}, stmt))
    reps = [_calibrated_reps(stmt, target=0.02) for _, stmt in series]
    samples = [[] for _ in series]
    for _ in range(repeats):
        for (_, stmt), r, out in zip(series, reps, samples):
            out.append(_seconds_per_call(stmt, r))
    return [
        {**row, "median_seconds": float(np.median(times)), "reps": r} for (row, _), r, times in zip(series, reps, samples)
    ]


BENCH_COLUMNS = ("component", "size", "median_seconds", "reps")


def write_bench_csv(rows, path):
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(BENCH_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in BENCH_COLUMNS) + "\n")


def monotone_components(rows):
    """Map component -> bool: medians nondecreasing in size."""
    series = {}
    for row in rows:
        series.setdefault(row["component"], []).append((row["size"], row["median_seconds"]))
    result = {}
    for component, points in series.items():
        points.sort()
        medians = [m for _, m in points]
        result[component] = all(a <= b for a, b in zip(medians, medians[1:]))
    return result
