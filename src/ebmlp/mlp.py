"""Feedforward reading of a :class:`ebmlp.models.Model`: the sigmoid MLP
forward pass, cross-entropy loss, analytic backpropagation and
thresholded prediction. Training lives in :mod:`ebmlp.training`.

Evaluation of a model on a set of inputs starts from one pre-activation
A = X W1^T + b (:func:`pre_activation`); the feedforward outputs come from
it here (:func:`outputs`), and the energy-based y-scores
(:func:`ebmlp.ebm.y_scores`) from it and the hidden activations sigmoid(A)
that :func:`outputs` returns, so a recorder that reads a model both ways
forms the product and the hidden sigmoid once.

:func:`grad_backprop` returns a descent direction on the loss; the
energy-based gradient in :mod:`ebmlp.ebm` is an ascent direction on the
log-likelihood, which the trainer negates, so both feed ADAM the same way.
"""

import numpy as np

from .core import sigmoid
from .data import as_batch_arrays, label_rows
from .models import GradientSet

# Sigmoid outputs within float rounding of 0 or 1 would make the loss
# infinite; the clamp bounds the loss without touching the gradient path.
LOSS_CLAMP = 1e-12


def pre_activation(model, inputs):
    """A = X W1^T + b, one row per input row (a single input vector gives
    one row)."""
    x2d = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x2d.shape[1] != model.n_visible:
        raise ValueError(f"input has {x2d.shape[1]} features, model expects {model.n_visible}")
    return x2d @ model.w1.T + model.b


def outputs(model, a, return_hidden=False):
    """z = sigmoid(W2 sigmoid(A) + c) per row of the pre-activation A."""
    h = sigmoid(a)
    z = sigmoid(h @ model.w2.T + model.c)
    return (z, h) if return_hidden else z


def forward(model, x, return_hidden=False):
    """z = sigmoid(W2 sigmoid(W1 x + b) + c).

    Accepts a single input vector or a batch with one row per example and
    returns the matching shape. Entries are strictly inside (0, 1).
    """
    z, h = outputs(model, pre_activation(model, x), return_hidden=True)
    if np.ndim(x) == 1:
        h, z = h[0], z[0]
    return (z, h) if return_hidden else z


def cross_entropy(y, z):
    """Sigmoid cross-entropy -sum_j [y_j log z_j + (1-y_j) log(1-z_j)].

    Row-wise sum over outputs; a batch input returns the batch mean.
    z is clamped to [1e-12, 1 - 1e-12] before the logs.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.clip(np.asarray(z, dtype=np.float64), LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch: y {y.shape} vs z {z.shape}")
    per_example = -(y * np.log(z) + (1.0 - y) * np.log1p(-z)).sum(axis=-1)
    return float(np.mean(per_example))


def mean_cross_entropy(model, inputs, labels):
    """Batch-mean cross-entropy of the forward pass against labels."""
    a = pre_activation(model, inputs)
    return cross_entropy(label_rows(labels, a.shape[0]), outputs(model, a))


def grad_backprop(model, batch):
    """Descent gradient of the batch-mean cross-entropy.

    With h = sigmoid(W1 x + b) and d = z - y: the W2 block averages
    outer(d, h), the c block averages d, and the W1/b blocks propagate
    d through W2 and the hidden sigmoid derivative h(1-h).
    """
    x, y = as_batch_arrays(batch)
    n = x.shape[0]
    z, h = forward(model, x, return_hidden=True)
    d = z - y
    dh = (d @ model.w2) * h * (1.0 - h)
    return GradientSet(dh.T @ x / n, d.T @ h / n, dh.mean(axis=0), d.mean(axis=0))


def threshold(z):
    """Thresholds each output at 0.5; exactly 0.5 resolves to 0."""
    return (z > 0.5).astype(np.uint8)


def exact_match(predictions, labels):
    """Fraction of rows of ``predictions`` that equal their label in every
    output."""
    labels = np.asarray(labels, dtype=np.uint8).reshape(predictions.shape[0], -1)
    return float(np.mean(np.all(predictions == labels, axis=1)))


def predict(model, x):
    """The thresholded forward pass, one row of 0/1 outputs per input."""
    return threshold(outputs(model, pre_activation(model, x)))


def accuracy(model, dataset):
    """Exact-match fraction of predict() against dataset labels."""
    return exact_match(predict(model, dataset.inputs), dataset.labels)

