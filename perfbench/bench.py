"""Workloads, set-up, the measured loop, and the metrics of one run.

Every workload trains through the public experiment API
(``experiments.load_task``, ``run_track``, ``run_equivalence``) on the
seeded corpus from ``corpus.py``. A closed loop runs one call after the
other until the run's time is used and at least one call per training
selection is done.
"""

import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ebmlp
from ebmlp import ebm, equivalence, experiments, mlp, models, samplers, training

import checks
import corpus
import tracer

LAYERS = ("data", "experiments", "training", "models", "core", "mlp", "ebm", "bqm", "samplers", "_kernels", "equivalence")
SETUP_REPEATS = 3
SEED_STRIDE = 1_000_000
GRAD_ERR_EXAMPLES = 5


class HostSpeed:
    """Host-speed reference for the untraced run.

    The 2-core host this was tuned on shares its cores with other
    machines' work, and its speed drifts by half from one minute to the
    next, slowing most work alike. So the run times a fixed reference
    computation (a BLAS product, small numpy operations, single-site
    Metropolis updates on 1000 rows of 33 spins as the anneal kernel makes
    them, and a pure-Python loop: the workloads' mix) at least every
    ``EVERY_S`` seconds, between steps and between sampler calls. It keeps
    that time out of every timing through ``clock`` and scales timings by
    NOMINAL_S over the median reference time: they read as seconds on a
    host where the reference takes NOMINAL_S. Sampling per sampler call
    matters on anneal, whose steps take seconds.
    """

    NOMINAL_S = 0.015
    EVERY_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((2115, 784))
        self._weights = rng.random((32, 784)) * 0.01
        self._vector = rng.random(1000)
        self._spins = np.where(rng.random((1000, 33)) < 0.5, 1.0, -1.0)
        couplings = rng.normal(size=(33, 33)) * 0.3
        self._couplings = couplings + couplings.T
        self._uniform = rng.random((66, 1000))
        self.samples = []
        self.spent = 0.0
        self._last = -float("inf")

    def clock(self):
        """Seconds, not counting time spent in the reference."""
        return time.perf_counter() - self.spent

    def measure(self):
        start = time.perf_counter()
        np.tanh(self._matrix @ self._weights.T)
        v = self._vector
        for _ in range(500):
            v = np.where(v > 0.5, v * 0.5, v + 0.25)
        s, jt = self._spins.copy(), self._couplings
        lam = s @ jt
        for k, u in enumerate(self._uniform):
            i = k % 33
            flip = u < np.exp(-0.5 * np.maximum(2.0 * s[:, i] * lam[:, i], 0.0))
            old = s[flip, i]
            lam[flip] -= np.outer(2.0 * old, jt[i])
            s[flip, i] = -old
        x = 0.0
        for i in range(60000):
            x += i * 0.5
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def maybe_measure(self):
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.measure()

    @property
    def factor(self):
        """Multiplier from measured seconds to nominal-speed seconds."""
        return self.NOMINAL_S / statistics.median(self.samples)


@dataclass(frozen=True)
class Workload:
    """One training workload.

    Each call of the loop trains ``trials_per_call`` trials of ``steps``
    steps. Set-up loads ``selections`` training selections (each its own
    seeded choice of ``train_count`` images); call i trains on selection
    i mod ``selections``, and the first ``selections`` calls give the
    quality metrics, so those are fixed by the seed whatever the run length.
    """

    name: str
    track: str
    steps: int
    trials_per_call: int
    selections: int
    gradient_sampler: str
    overrides: dict = field(default_factory=dict)


# Why these three, and which per-layer figure should move which end-to-end
# one: backprop runs no sampler, so sampler changes must leave it unchanged,
# while mlp/core self time drives its step_s. On equivalence and anneal,
# kernels self time and calls drive step_s and examples_per_s (batching
# raises kernels.reads_per_call and may raise peak_rss_mb); on equivalence
# samplers.aggregate_s and ebm/equivalence self time drive step_s too. bqm
# figures move test_accuracy on anneal, experiments/training self time
# drives trial_s, and data self time drives setup_s. Anneal uses 100
# sweeps because the default 1000 costs about 30 s per step here, and two
# selections so that a run times two trials: with one, the quartile spread
# of step_s across five seeds was 0.13 of the median, with two 0.065. It
# takes 20 steps because early in a trial the model can flip between
# predicting all of one class and all of the other: at 15 steps about one
# trial in thirteen was still at chance, which put the quartile spread of
# test_accuracy near its bound; of five such trials, three had learned by
# step 20.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("backprop", "classical1", steps=20, trials_per_call=5, selections=4, gradient_sampler="gibbs"),
        Workload("equivalence", "equivalence", steps=20, trials_per_call=1, selections=2, gradient_sampler="gibbs"),
        Workload(
            "anneal", "quantum-sim", steps=20, trials_per_call=1, selections=2, gradient_sampler="simanneal",
            overrides={"anneal_sweeps": 100},
        ),
    )
}


def run_config(workload, data_dir, seed, output_dir, **changes):
    fields = dict(
        track=workload.track,
        data_dir=str(data_dir),
        seed=seed,
        steps=workload.steps,
        trials=workload.trials_per_call,
        output_dir=str(output_dir),
        **workload.overrides,
    )
    fields.update(changes)
    return experiments.RunConfig(**fields)


def load_tasks(workload, data_dir, seed):
    """One (train, test) task per training selection."""
    return [
        experiments.load_task(run_config(workload, data_dir, seed * SEED_STRIDE + j, data_dir))
        for j in range(workload.selections)
    ]


def run_call(config, task, on_trial=None):
    if config.track == "equivalence":
        experiments.run_equivalence(config, *task)
    else:
        experiments.run_track(config, *task, progress=on_trial)


class Loop:
    """The closed loop of calls. Records each call's output directory and
    trial durations; ``call`` is the index of the call in progress."""

    def __init__(self, workload, tasks, seed, work_dir, data_dir, clock=time.perf_counter):
        self.workload, self.tasks, self.seed = workload, tasks, seed
        self.work_dir, self.data_dir = work_dir, data_dir
        self.clock = clock
        self.out_dirs, self.trial_s = [], []
        self.call = -1

    def run(self, seconds, min_calls=1):
        """Runs calls until ``seconds`` have passed and at least
        ``min_calls`` are done; returns the number made."""
        start = time.perf_counter()
        made = 0
        while made < min_calls or time.perf_counter() - start < seconds:
            self.one_call(made)
            made += 1
        return made

    def one_call(self, index):
        w = self.workload
        self.call = index
        out = Path(tempfile.mkdtemp(prefix=f"call{index}-", dir=self.work_dir))
        config = run_config(w, self.data_dir, self.seed * SEED_STRIDE + index * w.trials_per_call, out)
        marks = [self.clock()]
        run_call(config, self.tasks[index % len(self.tasks)], on_trial=lambda trial, summary: marks.append(self.clock()))
        if config.track == "equivalence":
            marks.append(self.clock())
        self.trial_s.extend(b - a for a, b in zip(marks, marks[1:]))
        self.out_dirs.append(out)


class Probes:
    """Light hooks for the untraced run: a clock on the per-step recorders,
    and the model each call trains, taken from the gradient function. With
    a HostSpeed, the reference runs between steps, outside step times."""

    def __init__(self, workload, loop, host=None):
        self.loop = loop
        self.host = host
        self.step_s = []
        self.models = {}
        self._last = None
        self.patcher = tracer.Patcher(ebmlp, tracer.package_modules(ebmlp))
        for owner in (training.TrainingTrace, equivalence.EquivalenceReport):
            self._hook(owner, "append", self._on_step)
        gradient = (mlp, "grad_backprop") if workload.track == "classical1" else (ebm, "grad_conditional_ll")
        self._hook(*gradient, self._on_gradient)
        self._hook(samplers.SampleSet, "__post_init__", self._on_sample_set)

    def _hook(self, owner, attr, before):
        target = tracer.Target("probe", attr, owner, attr, vars(owner)[attr])
        original = target.function

        def hooked(*args, **kwargs):
            before(args, kwargs)
            return original(*args, **kwargs)

        self.patcher.replace(target, hooked)

    def _on_step(self, args, kwargs):
        step = kwargs["step"] if "step" in kwargs else args[1]
        now = self.loop.clock()
        if self._last is not None and step == self._last[0] + 1:
            self.step_s.append(now - self._last[1])
        if self.host is not None:
            self.host.maybe_measure()
        self._last = (step, self.loop.clock())

    def _on_sample_set(self, args, kwargs):
        if self.host is not None:
            self.host.maybe_measure()

    def _on_gradient(self, args, kwargs):
        self.models.setdefault(self.loop.call, args[0])

    def restore(self):
        self.patcher.restore()


def negative_grad_rel_err(workload, model, task, config, seed):
    """||sampled - exact|| / ||exact|| of the negative phase on the first
    GRAD_ERR_EXAMPLES training examples of ``task``."""
    ebm_model = models.EbmModel(model.w1, model.w2, model.b, model.c)
    train, _ = task
    batch = (train.inputs[:GRAD_ERR_EXAMPLES], np.asarray(train.labels[:GRAD_ERR_EXAMPLES], dtype=np.float64)[:, None])
    sampler = samplers.make_sampler(workload.gradient_sampler, config.sampler_config(seed))
    sampled = ebm.negative_phase(ebm_model, batch, sampler, base_seed=seed)
    exact = ebm.exact_negative_phase(ebm_model, batch)

    def norm(grads):
        return float(np.sqrt(sum(np.sum(a * a) for a in grads.as_param_dict().values())))

    return norm(sampled - exact) / norm(exact)


def setup(workload, seed, work_dir, log):
    """Corpus generation, loading, and one untimed warm-up step."""
    data_dir = Path(tempfile.mkdtemp(prefix="corpus-", dir=work_dir))
    test_labels = corpus.write_corpus(data_dir, seed)
    tasks = load_tasks(workload, data_dir, seed)
    for j, (_, test) in enumerate(tasks):
        log.add(f"selection {j}: loaded test labels equal the generated ones", np.array_equal(test.labels, test_labels))
    warm = Path(tempfile.mkdtemp(prefix="warm-", dir=work_dir))
    run_call(run_config(workload, data_dir, seed, warm, steps=1, trials=1), tasks[0])
    return data_dir, tasks


def check_outputs(workload, out_dirs, log):
    """Checks every call's files. Returns, per call, the trials that did
    not fail as (final test accuracy, success) pairs, plus the number of
    trials attempted and failed."""
    calls, attempted, failed = [], 0, 0
    for out in out_dirs:
        if workload.track == "equivalence":
            calls.append([(checks.check_equivalence_dir(out, workload.steps, log), None)])
            attempted += 1
            continue
        trials = checks.check_track_dir(out, workload.steps, log, check_success=workload.track == "classical1")
        attempted += len(trials)
        failed += sum(t["failed"] for t in trials)
        calls.append([(t["final_accuracy_read"], t["success"]) for t in trials if not t["failed"]])
    return calls, attempted, failed


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def quality(workload, calls, log):
    """Mean final test accuracy over the trials of the first ``selections``
    calls. On backprop, also checks the share of trials that meet
    ``experiments.success_rule`` against a floor."""
    if workload.track == "classical1":
        every = [success for call in calls for _, success in call]
        rate = sum(every) / max(1, len(every))
        log.add(f"success_rule holds in {rate:.3f} of trials", rate >= checks.SUCCESS_RATE_FLOOR)
    return float(np.mean([accuracy for call in calls[: workload.selections] for accuracy, _ in call]))


def measure(workload, seed, seconds, import_s, work_root):
    """The untraced run. Returns (metrics {name: (value, unit)}, check log,
    trials attempted, trials failed, extra figures for the log)."""
    log = checks.CheckLog()
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        host = HostSpeed()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            host.measure()
            start = time.perf_counter()
            data_dir, tasks = setup(workload, seed, work_dir, log)
            setup_s.append(time.perf_counter() - start)
        loop = Loop(workload, tasks, seed, work_dir, data_dir, clock=host.clock)
        probes = Probes(workload, loop, host)
        try:
            start = host.clock()
            loop.run(seconds, min_calls=workload.selections)
            wall = host.clock() - start
        finally:
            probes.restore()
        host.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calls, trials, failed_trials = check_outputs(workload, loop.out_dirs, log)
        accuracy = quality(workload, calls, log)
        raw = {
            "setup_s": import_s + statistics.median(setup_s),
            "examples_per_s": trials * workload.steps * experiments.RunConfig().batch_size / wall,
            # A mean, not a median: anneal step times halve over a trial as
            # fewer flips are accepted, so the median is whichever step is
            # in the middle, and noise on a few steps moves it.
            "step_s.mean": _mean(probes.step_s),
            "trial_s.p50": _median(loop.trial_s),
        }
        scale = host.factor
        metrics = {
            "setup_s": (raw["setup_s"] * scale, "s"),
            "examples_per_s": (raw["examples_per_s"] / scale, "1/s"),
            "step_s.mean": (raw["step_s.mean"] * scale, "s"),
            "trial_s.p50": (raw["trial_s.p50"] * scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "test_accuracy": (accuracy, "ratio"),
        }
        extra = {f"unscaled {name}": value for name, value in raw.items()}
        extra.update(
            {
                "host reference_s median": statistics.median(host.samples),
                "host reference samples": len(host.samples),
                "host scale": scale,
                "steps": len(probes.step_s),
                "trials": len(loop.trial_s),
            }
        )
        extra["step_s.p50"] = _median(probes.step_s) * scale
        if len(probes.step_s) >= 100:
            extra["step_s.p90"] = float(np.percentile(probes.step_s, 90)) * scale
        return metrics, log, trials, failed_trials, extra
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


class Counters:
    """Counts taken at layer boundaries during the traced run."""

    def __init__(self):
        self.kernel_calls = self.kernel_rows = 0
        self.sample_sets = self.unique_rows = self.reads = self.clipped = 0

    def on_kernel(self, args, result):
        self.kernel_calls += 1
        self.kernel_rows += int(np.prod(np.shape(result)[:-1]))

    def on_sample_set(self, args, result):
        sample_set = args[0]
        self.sample_sets += 1
        self.unique_rows += sample_set.assignments.shape[0]
        self.reads += sample_set.total_reads
        self.clipped += sample_set.metadata.get("clipped_coefficients", 0)

    def observers(self):
        return {"_kernels": self.on_kernel, "samplers.SampleSet.__post_init__": self.on_sample_set}


def _timed_pass(workload, seed, work_dir, data_dir, seconds, min_calls=1, probe=False):
    """Loading plus the loop of calls; returns (loop, probes or None,
    calls made, seconds)."""
    start = time.perf_counter()
    loop = Loop(workload, load_tasks(workload, data_dir, seed), seed, work_dir, data_dir)
    probes = Probes(workload, loop) if probe else None
    try:
        made = loop.run(seconds, min_calls)
    finally:
        if probes is not None:
            probes.restore()
    return loop, probes, made, time.perf_counter() - start


def gradient_error(workload, seed, data_dir, work_dir, loop, models_by_call, log):
    """Mean negative_grad_rel_err over the models the first calls trained,
    one per training selection, checked against its bound."""
    errors = []
    for j in range(min(workload.selections, len(models_by_call))):
        sub_seed = seed * SEED_STRIDE + j
        config = run_config(workload, data_dir, sub_seed, work_dir)
        errors.append(negative_grad_rel_err(workload, models_by_call[j], loop.tasks[j], config, sub_seed))
    error = float(np.mean(errors))
    log.add(f"neg_grad_rel_err {error:.4g} below {checks.NEG_GRAD_ERR_BOUND}", error < checks.NEG_GRAD_ERR_BOUND)
    return error


def measure_traced(workload, seed, seconds, work_root):
    """An untraced pass for half the run, then a traced pass over the same
    calls. Returns (per-layer metrics, check log, trials attempted, trials
    failed, spans)."""
    log = checks.CheckLog()
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        data_dir, _ = setup(workload, seed, work_dir, log)
        plain, probes, calls, plain_s = _timed_pass(workload, seed, work_dir, data_dir, seconds / 2.0, probe=True)
        counters = Counters()
        spans = tracer.Tracer(counters.observers())
        patcher = spans.install(ebmlp, tracer.package_modules(ebmlp))
        try:
            traced, _, _, traced_s = _timed_pass(workload, seed, work_dir, data_dir, 0.0, min_calls=calls)
        finally:
            patcher.restore()
        _, trials, failed_trials = check_outputs(workload, plain.out_dirs + traced.out_dirs, log)
        neg_err = gradient_error(workload, seed, data_dir, work_dir, plain, probes.models, log)
        steps = calls * workload.trials_per_call * workload.steps
        summary = tracer.summarize(spans.spans)
        metrics = {}
        for layer in LAYERS:
            name = layer.lstrip("_")
            metrics[f"{name}.self_s"] = (summary["self_s"].get(layer, 0.0) / steps, "s/step")
            metrics[f"{name}.calls"] = (summary["calls"].get(layer, 0) / steps, "1/step")
        aggregate = sum(summary["inclusive_s"].get(f"samplers.SampleSet.{m}", 0.0) for m in ("from_reads", "y_distribution"))
        metrics.update(
            {
                "kernels.reads_per_call": (counters.kernel_rows / max(1, counters.kernel_calls), "count"),
                "samplers.aggregate_s": (aggregate / steps, "s/step"),
                "samplers.unique_per_read": (counters.unique_rows / max(1, counters.reads), "ratio"),
                "samplers.neg_grad_rel_err": (neg_err, "ratio"),
                "bqm.clipped_per_example": (counters.clipped / max(1, counters.sample_sets), "count"),
                "trace.overhead": (traced_s / plain_s - 1.0, "ratio"),
                "trace.coverage": (summary["top_level_s"] / traced_s, "ratio"),
            }
        )
        return metrics, log, trials, failed_trials, spans.spans
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
