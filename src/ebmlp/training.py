"""The one training loop, :func:`fit`, which every trainer runs with its
gradient functions, plus its options, batching, per-step traces, and
atomic output files."""

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import adam_update, AdamState, require_integers, rng_from_seed


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
        require_integers(self, ("steps", "batch_size"))
        if self.steps < 0 or self.batch_size < 1 or not 0.0 <= self.lr < math.inf:
            raise ValueError("steps must be >= 0, batch_size >= 1, lr >= 0 and finite")


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
        z, h = mlp.outputs(model, a, return_hidden=True)
        trace.append(
            step,
            mlp.cross_entropy(train_labels, z),
            ebm.scored_log_likelihood(ebm.y_scores(model, a, h)[1], train_labels),
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
class StepTable:
    """Per-step series, one row per step. Each list field of a subclass is
    one column, in declaration order; FILE_NAMES renames a column in files.
    Values are stored as float (None for a missing value), the step as int."""

    FILE_NAMES = {"steps": "step"}

    steps: list = field(default_factory=list)

    @classmethod
    def columns(cls):
        """(attribute, file header) per column, in declaration order."""
        return tuple((f.name, cls.FILE_NAMES.get(f.name, f.name)) for f in fields(cls) if f.type is list)

    def _add_row(self, step, *values):
        row = [int(step), *(None if v is None else float(v) for v in values)]
        for (name, _), value in zip(self.columns(), row, strict=True):
            getattr(self, name).append(value)

    def __len__(self):
        return len(self.steps)

    def series(self):
        """{file header: values} per column, in column order."""
        return {header: getattr(self, name) for name, header in self.columns()}

    def to_csv(self, path, header_comment=None):
        """Write the table atomically: an optional `# ...` first line that
        records run identifiers, the headers, then one row per step. Floats
        use repr so reruns are byte-identical; None is an empty cell."""
        series = self.series()
        with atomic_open(path, newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(series.keys())
            for step, *values in zip(*series.values()):
                writer.writerow([step, *("" if v is None else repr(float(v)) for v in values)])

    @classmethod
    def read_csv(cls, path):
        """Inverse of :meth:`to_csv`; a column missing from the file reads
        as None."""
        table = cls()
        with open(path, newline="") as fh:
            for row in csv.DictReader(line for line in fh if not line.startswith("#")):
                table._add_row(*(row.get(header) or None for _, header in cls.columns()))
        return table


@dataclass
class TrainingTrace(StepTable):
    """Per-step metrics. Row 0 is the pre-training state; row t is after
    update t. Train metrics are evaluated on the full training set, test
    accuracy on the held-out set (None when no test set was given)."""

    FILE_NAMES = {**StepTable.FILE_NAMES, "ebm_loglik": "ebm_loglik_estimate"}

    train_loss: list = field(default_factory=list)
    ebm_loglik: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    kl_nats: list = field(default_factory=list)
    seed: int = 0
    metadata: dict = field(default_factory=dict)

    def append(self, step, train_loss, ebm_loglik, test_accuracy, kl=None):
        self._add_row(step, train_loss, ebm_loglik, test_accuracy, kl)
