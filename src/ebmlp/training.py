"""The one training loop, :func:`fit`, which every trainer runs with its
gradient functions, plus its options, batching, per-step traces, and
atomic output files."""

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import adam_update, AdamState, rng_from_seed


@dataclass
class TrainOptions:
    """Knobs shared by both trainers. ``use_sampled_hidden`` switches the
    negative phase to the sampled-k estimator (see ebm.negative_phase);
    the read count is the sampler's own (SamplerConfig.reads)."""

    steps: int = 20
    batch_size: int = 5
    lr: float = 0.1
    seed: int = 0
    use_sampled_hidden: bool = False

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1 or self.lr < 0:
            raise ValueError("steps must be >= 0, batch_size >= 1, lr >= 0")


def as_batch_arrays(batch):
    """Normalize an (X, Y) batch to float64 arrays of shape (B, N), (B, M).
    X may be one 1-d example and Y may be (B,); anything else raises."""
    if not (isinstance(batch, tuple) and len(batch) == 2):
        raise ValueError("a batch is an (inputs, labels) tuple")
    x = np.atleast_2d(np.asarray(batch[0], dtype=np.float64))
    y = np.asarray(batch[1], dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError(f"batch arrays disagree: inputs {x.shape}, labels {y.shape}")
    return x, y


def label_rows(labels, n_rows):
    """Labels as float64 with one row per example."""
    return np.asarray(labels, dtype=np.float64).reshape(n_rows, -1)


def batch_indices(n_examples, batch_size, rng):
    """Endless batch iterator: reshuffle each epoch, yield index arrays."""
    while True:
        order = rng.permutation(n_examples)
        for start in range(0, n_examples, batch_size):
            yield order[start : start + batch_size]


def fit(learners, train_set, options, record):
    """ADAM-train each ``(model, gradient)`` learner in place on one batch
    stream seeded by ``options.seed``; ``gradient(model, batch, step)``
    returns a descent GradientSet. ``record(step)`` runs before the first
    update (step 0) and after each one."""
    optimizers = [AdamState.for_params(model.params(), lr=options.lr) for model, _ in learners]
    stream = batch_indices(len(train_set), options.batch_size, rng_from_seed([options.seed, 0x6A7C4]))
    labels = label_rows(train_set.labels, len(train_set))
    record(0)
    for step in range(1, options.steps + 1):
        idx = next(stream)
        batch = (train_set.inputs[idx], labels[idx])
        grads = [gradient(model, batch, step) for model, gradient in learners]
        for (model, _), opt, grad in zip(learners, optimizers, grads):
            model.set_params(adam_update(opt, model.params(), grad.as_param_dict()))
        record(step)


def fit_traced(model, gradient, train_set, options, test_set, trainer):
    """:func:`fit` one learner, tracing train-set loss and exact
    log-likelihood, both read from one train-set pre-activation, and
    feedforward test accuracy (both readings take any parameter
    container)."""
    from . import ebm, mlp  # both import this module

    trace = TrainingTrace(seed=options.seed, metadata={"trainer": trainer, "lr": options.lr})
    train_labels = label_rows(train_set.labels, len(train_set))

    def record(step):
        a = mlp.pre_activation(model, train_set.inputs)
        trace.append(
            step,
            mlp.cross_entropy(train_labels, mlp.outputs(model, a)),
            ebm.scored_log_likelihood(ebm.y_scores(model, a)[1], train_labels),
            None if test_set is None else mlp.accuracy(model, test_set),
        )

    fit([(model, gradient)], train_set, options, record)
    return trace


@contextmanager
def atomic_open(path, mode="w", newline=None):
    """Write to a temp file beside ``path`` (opened with ``mode``, "w" or
    "wb") and os.replace it into place when the block completes; if it
    raises, ``path`` is untouched and the temp file is removed."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass
class TrainingTrace:
    """Per-step metrics. Row 0 is the pre-training state; row t is after
    update t. Train metrics are evaluated on the full training set, test
    accuracy on the held-out set (None when no test set was given)."""

    steps: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    ebm_loglik: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    kl_nats: list = field(default_factory=list)
    seed: int = 0
    metadata: dict = field(default_factory=dict)

    def append(self, step, train_loss, ebm_loglik, test_accuracy, kl=None):
        self.steps.append(int(step))
        self.train_loss.append(None if train_loss is None else float(train_loss))
        self.ebm_loglik.append(None if ebm_loglik is None else float(ebm_loglik))
        self.test_accuracy.append(None if test_accuracy is None else float(test_accuracy))
        self.kl_nats.append(None if kl is None else float(kl))

    def to_csv(self, path, header_comment=None):
        """Write the trace with the documented column order. Missing values
        are empty cells; floats use repr so reruns are byte-identical. An
        optional `# ...` first line records run identifiers."""
        with atomic_open(path, newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["step", "train_loss", "ebm_loglik_estimate", "test_accuracy", "kl_nats"])
            for i, step in enumerate(self.steps):
                writer.writerow(
                    [
                        step,
                        _cell(self.train_loss[i]),
                        _cell(self.ebm_loglik[i]),
                        _cell(self.test_accuracy[i]),
                        _cell(self.kl_nats[i]),
                    ]
                )


def _cell(value):
    return "" if value is None else repr(float(value))


def read_trace_csv(path):
    """Inverse of TrainingTrace.to_csv, for the summarize command."""
    trace = TrainingTrace()
    with open(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in reader:
            trace.append(
                int(row["step"]),
                _parse(row["train_loss"]),
                _parse(row["ebm_loglik_estimate"]),
                _parse(row["test_accuracy"]),
                _parse(row.get("kl_nats", "")),
            )
    return trace


def _parse(cell):
    return None if cell in (None, "") else float(cell)
