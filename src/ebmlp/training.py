"""Training: the one loop, :func:`fit`, with its options and batch
stream; the two trainers, which run it with the backprop gradient and with
the sampled energy-based gradient; the parameter snapshots they record each
step and the readings taken from them after training; and the per-step
tables written as CSV.

:mod:`ebmlp.mlp` and :mod:`ebmlp.ebm` only read a Model; every update to
one happens here, after both readings and the samplers in the package's
layer order.
"""

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import adam_update, AdamState, atomic_open, derive_seed, require_integers, rng_from_seed
from .data import label_rows
from . import ebm, mlp
from .models import Model


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


def readings(model, dataset):
    """Both readings of one model on one dataset, from one pre-activation
    and one pass of hidden activations: the MLP outputs, then the EBM's y
    patterns and y-scores (see :func:`ebmlp.ebm.y_scores`)."""
    a = mlp.pre_activation(model, dataset.inputs)
    z, h = mlp.outputs(model, a, return_hidden=True)
    return (z, *ebm.y_scores(model, a, h))


def stacked_readings(models, w1, dataset):
    """:func:`readings` of each of ``models`` on ``dataset``, with every
    pre-activation read from the columns of one product of the inputs with
    ``w1``, the models' W1s stacked in order, made in row chunks
    (:func:`ebmlp.mlp.stacked_products`).

    A GEMM's column slices need not equal each model's own product in bits.
    On the OpenBLAS the goldens record they do at 784 inputs and 32 units
    from 40 rows up, not at 20 rows or at 36 inputs and 8 units; elsewhere
    they agree within rounding.
    """
    x = np.asarray(dataset.inputs, dtype=np.float64)
    bounds = np.cumsum([0, *(model.n_hidden for model in models)])
    z = [np.empty((x.shape[0], model.n_outputs)) for model in models]
    scores = [np.empty((x.shape[0], 2**model.n_outputs)) for model in models]
    for rows, product in mlp.stacked_products(x, w1):
        for model, lo, hi, model_z, model_scores in zip(models, bounds, bounds[1:], z, scores):
            a = product[:, lo:hi] + model.b
            out, h = mlp.outputs(model, a, return_hidden=True)
            model_z[rows] = out
            model_scores[rows] = ebm.y_scores(model, a, h)[1]
    return [(out, ebm.enumerate_states(model.n_outputs), s) for model, out, s in zip(models, z, scores)]


# A recorder holds at most this many bytes of parameter snapshots, then
# evaluates them. At 784 x 32 a model's snapshot is 200 KB, so a 20-step
# run (21 records) is evaluated in one batch, for one model (83 records
# fit) or for the equivalence experiment's two (41 fit).
SNAPSHOT_BYTES = 2**24


class Snapshots:
    """Copies of the parameters of ``models``, taken by :meth:`record` at
    each step of :func:`fit` for evaluation after it, in batches.

    Every W1 copy is a view of one array that stacks them by record, then
    model, so a batch's evaluation can read them all with one product.
    ``evaluate(steps, snapshots, w1)`` takes the recorded steps in order, one
    list of model copies per step and that array. It runs when the buffer
    holds ``records`` (the number :func:`fit` will make) or SNAPSHOT_BYTES
    worth, and at :meth:`flush`, which the recorder calls after :func:`fit`
    returns; the buffer is then reused.
    """

    def __init__(self, models, records, evaluate):
        self.models, self.evaluate = models, evaluate
        per_record = sum(array.nbytes for model in models for array in model.params().values())
        self.capacity = max(1, min(records, SNAPSHOT_BYTES // per_record))
        self.units = sum(model.n_hidden for model in models)
        self.w1 = np.empty((self.capacity * self.units, models[0].n_visible))
        self.steps, self.snapshots = [], []

    def record(self, step):
        row = len(self.steps) * self.units
        copies = []
        for model in self.models:
            w1 = self.w1[row : row + model.n_hidden]
            w1[...] = model.w1
            row += model.n_hidden
            copies.append(Model(w1, model.w2.copy(), model.b.copy(), model.c.copy()))
        self.steps.append(step)
        self.snapshots.append(copies)
        if len(self.steps) == self.capacity:
            self.flush()

    def flush(self):
        """Evaluates the snapshots held, if any, and empties the buffer."""
        if self.steps:
            self.evaluate(self.steps, self.snapshots, self.w1[: len(self.steps) * self.units])
        self.steps, self.snapshots = [], []


def fit_traced(model, gradient, train_set, options, test_set):
    """:func:`fit` one learner, tracing train-set loss and exact
    log-likelihood, both from one :func:`readings` of the train set, and
    feedforward test accuracy, read from :class:`Snapshots` after training:
    the test set for all of a batch's steps at once (:func:`ebmlp.mlp.accuracies`),
    the train set per step."""
    trace = TrainingTrace()
    train_labels = label_rows(train_set.labels, len(train_set))

    def evaluate(steps, snapshots, _):
        copies = [copy for copy, in snapshots]
        accuracies = [None] * len(copies) if test_set is None else mlp.accuracies(copies, test_set)
        for step, copy, accuracy in zip(steps, copies, accuracies):
            z, _, scores = readings(copy, train_set)
            trace.append(
                step,
                mlp.cross_entropy(train_labels, z),
                ebm.scored_log_likelihood(scores, train_labels),
                accuracy,
            )

    snapshots = Snapshots([model], options.steps + 1, evaluate)
    fit([(model, gradient)], train_set, options, snapshots.record)
    snapshots.flush()
    return trace


def backprop_gradient(model, batch, step):
    """Gradient function for :func:`fit`: the backprop gradient, the same at
    every step."""
    return mlp.grad_backprop(model, batch)


def train_mlp(model, train_set, options=None, test_set=None):
    """ADAM descent on the backpropagation gradient.

    The model is updated in place. Trace layout matches train_ebm (row 0 is
    the pre-training state) and the batch sequence drawn for a given seed is
    identical to train_ebm's, so runs of the two trainers are comparable.
    """
    return fit_traced(model, backprop_gradient, train_set, options or TrainOptions(), test_set)


def sampled_gradient(sampler, options):
    """Gradient function for :func:`fit`: the negated conditional
    log-likelihood gradient (exact when ``sampler`` is None), with the
    sampler seeded afresh each step from its configured seed and the step
    index."""

    def gradient(model, batch, step):
        seed = None if sampler is None else derive_seed(sampler.config.seed, step << 20)
        return ebm.grad_conditional_ll(
            model, batch, sampler, base_seed=seed, use_sampled_hidden=options.use_sampled_hidden
        ).negate()

    return gradient


def train_ebm(model, train_set, sampler, options=None, test_set=None):
    """ADAM ascent on the sampled conditional log-likelihood gradient.

    The model is updated in place. Returns a trace whose row 0 holds the
    pre-training metrics; test accuracy is evaluated by reading the same
    weights feedforwardly (weight transfer), matching how the trained
    model is deployed.
    """
    options = options or TrainOptions()
    return fit_traced(model, sampled_gradient(sampler, options), train_set, options, test_set)


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

    def append(self, step, train_loss, ebm_loglik, test_accuracy, kl=None):
        self._add_row(step, train_loss, ebm_loglik, test_accuracy, kl)
