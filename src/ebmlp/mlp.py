"""Feedforward reading of a :class:`ebmlp.models.Model`: the sigmoid MLP
forward pass, cross-entropy loss, analytic backpropagation and
thresholded prediction. Training lives in :mod:`ebmlp.training`.

Evaluation of a model on a set of inputs starts from one pre-activation
A = X W1^T + b (:func:`pre_activation`); the feedforward outputs come from
it here (:func:`outputs`), and the energy-based y-scores
(:func:`ebmlp.ebm.y_scores`) from it and the hidden activations sigmoid(A)
that :func:`outputs` returns, so a recorder that reads a model both ways
forms the product and the hidden sigmoid once. :func:`accuracy`, which
needs only the thresholded outputs, decides most rows in float32 instead,
from the product to the logit, with a proven error bound and
:func:`predict`'s results. Many models are read at once from one product
of the inputs with their W1s stacked (:func:`stacked_products`), and
:func:`accuracies` screens them all in one pass.

:func:`grad_backprop` returns a descent direction on the loss; the
energy-based gradient in :mod:`ebmlp.ebm` is an ascent direction on the
log-likelihood, which the trainer negates, so both feed ADAM the same way.
"""

import weakref

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
    """Exact-match fraction of predict() against dataset labels.

    The predictions are :func:`predict`'s, bit for bit, but most rows are
    decided from a float32 product: see :func:`_screened_predictions`.
    """
    return accuracies([model], dataset)[0]


def accuracies(models, dataset):
    """:func:`accuracy` of each of ``models`` on ``dataset``, from one
    float32 product of the inputs with all their W1s stacked."""
    return [exact_match(p, dataset.labels) for p in _screened_predictions(models, dataset.inputs)]


# Bytes of each row chunk of a stacked product (see stacked_products)
STACK_CHUNK_BYTES = 2**22


def stacked_products(x, w):
    """(rows, x[rows] @ w.T) for consecutive row chunks of ``x``, each
    product at most STACK_CHUNK_BYTES where 64 rows fit in that.

    ``w`` stacks the W1s of many models, so one GEMM forms every model's
    pre-activation (less the bias) and each model reads its columns. The
    chunks are whole multiples of 64 rows: a row-wise product over a chunk
    of these columns, such as the outputs' sigma(A) W2^T, then rounds each
    row as it does over the whole set (OpenBLAS's GEMV kernels treat rows in
    groups, and leftover rows apart).
    """
    step = max(64, STACK_CHUNK_BYTES // max(1, w.shape[0] * x.itemsize) // 64 * 64)
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        yield rows, x[rows] @ w.T


_F32_MAX = float(np.finfo(np.float32).max)
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # and of float64
# sigma(t) rounds to exactly 0.5 for 0 <= t below about 1.6 * 2^-53, so
# predict's threshold is some tau in [0, TIE_BAND), not 0
_TIE_BAND = 2.0**-50
# The error assumed of _sigmoid32: 128 float32 ulps of 0.5
_SIGMOID32_ERROR = 2.0**-17
# The float32 product x.w stays finite while ||x|| ||w|| is below this:
# rounding grows its partial sums by less than a factor 2
_F32_SAFE = 2.0**126


def _gamma(n, u):
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of an
    n-term inner product in unit roundoff u, in any summation order."""
    return n * u / (1.0 - n * u)


def _screened_predictions(models, inputs):
    """predict(model, inputs) for each of ``models``, decided row by row
    in float32 arithmetic.

    **Screen.** The screened logits L = sigma32(A' + b) W2^T + c are
    computed in float32 throughout, from the float32 product
    A' = fl32(X) fl32(W1)^T (sgemm), float32 copies of b, W2 and c, and
    sigma32(z) = 0.5 + 0.5 tanh(z / 2) (:func:`_sigmoid32`). predict
    computes t = sigma(a) W2^T + c from the float64 a = X W1^T + b and
    answers sigma(t) > 0.5, that is t > tau with 0 <= tau < 2^-50
    (:data:`_TIE_BAND`): sigma(t) is at most 0.5 for t <= 0, and above it
    for t >= 2^-50 with any exp accurate to a few ulps. So output j of row
    i is decided, as L > 0, once |L_ij| > E_ij >= |L_ij - t_ij| + 2^-50.

    **Stacking.** All the models are screened in one pass per row chunk
    (:func:`stacked_products`): one sgemm with their float32 W1s stacked,
    the stacked b added and sigma32 taken in place, and one sgemm with a
    block-diagonal W2 (each model's W2^T in its own rows and columns,
    zeros elsewhere) for every model's logits, then the stacked c. A zero
    term is added exactly, so each logit carries the rounding of a sum of
    its own model's K terms only. Every bound below holds for any order of
    the sums, so the decisions depend neither on the stacking nor on the
    BLAS.

    **The bound.** For row x and hidden unit k with weights w = w_k, in
    unit roundoffs u = 2^-24 (float32) and v = 2^-53 (float64):

    - fl32 rounds each x_i and w_i by a relative 1 + d, |d| <= u, so the
      exact product of the rounded vectors is within (2u + u^2) |x|.|w| of
      x.w;
    - sgemm, in IEEE float32 arithmetic, computes that product within
      gamma_n(u) (1 + u)^2 |x|.|w|, in any summation order, blocked or with
      FMA (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      section 3.1);
    - the float64 GEMM of predict is within gamma_n(v) |x|.|w| of x.w;
    - |x|.|w| <= ||x||_2 ||w||_2 (Cauchy-Schwarz).

    So |a'_k - a_k| <= C ||x|| ||w_k|| + D_k, with
    C = gamma_n(u) (1 + u)^2 + 2u + u^2 + gamma_n(v), and D_k covering
    float32 underflow: fl32 of a tiny entry and each subnormal product err
    by at most 2^-150 absolute, so D_k = 2^-148 (n + sqrt(n) (||x|| +
    ||w_k||)) is at least twice their sum. As sigma' <= 1/4, sigma moves
    by at most (C ||x|| ||w_k|| + D_k) / 4. The rest of the screen adds,
    per output j, with A_j = sum_k |W2_jk|:

    - biases: fl32 rounds b_k by a relative u, and the float32 add a' + b
      rounds by a relative u of the sum z. As |z sigma'(z)| < 0.23, sigma
      moves by at most u |b_k| / 4 + 0.23 u, so through W2 by
      u sum_k |W2_jk| |b_k| / 4 + 0.23 u A_j. An add that overflows gives
      +-inf, whose sigma32 is exactly 0 or 1: within e^-(2^127) of sigma
      of the exact sum;
    - sigma32: it is assumed within 2^-17 of sigma (128 float32 ulps of
      0.5), the float32 analogue of the 2^-46 assumed of predict's sigma
      below (tests/test_screen.py checks it on the host over a dense
      sweep of float32 inputs). Through W2: 2^-17 A_j;
    - W2 and c: fl32 rounds each entry by a relative u, and the K products
      and the add of c are a (K + 1)-term float32 sum with |h| <= 1:
      (gamma_{K+1}(u) (1 + u) + u) (A_j + |c_j|);
    - underflow: fl32 of a tiny W2, b or c entry and each subnormal product
      h W2_jk err by at most 2^-150 absolute (a subnormal sum is exact),
      so 2^-148 (K + 1 + A_j) is at least twice their sum.

    With the shares of the product and of predict:

        E_ij = C ||x_i|| S_j + 2^-150 ((n + sqrt(n) ||x_i||) A_j
               + 4 sqrt(n) S_j) + R_j + F_j + 2^-50,

    with S_j = sum_k |W2_jk| ||w_k|| / 4, F_j the four float32 terms above,
    and the slack R_j = (2^-44 + 2 gamma_K(v)) (A_j + |c_j|) covering
    predict's float64 rounding: sigma evaluated to within 2^-46 (128 ulps
    of 0.5), the bias add, the K-term W2 product and the c add, with room
    for a second float64 path (the cascade). E is evaluated in float64 and
    scaled by 1 + 2^-20 for the rounding of its own evaluation. Nothing in
    E depends on the order of any GEMM's sums, so the decisions hold on any
    BLAS.

    **Cascade.** Rows with an undecided output are recomputed in float64,
    as X[rows] W1^T. A GEMM over a subset of rows need not equal those rows
    of the full GEMM in bits, so they are decided with the same bound at
    C = 2 gamma_n(v) and F_j = 0. If one is still within it, predict
    answers for the whole set.

    **Fallback.** A model goes to predict, without the screen raising a
    floating-point warning, when its W1, b, W2 or c has an entry beyond the
    float32 range (or NaN), when max_i ||x_i|| sqrt(n) max |W1| reaches
    2^126 (:data:`_F32_SAFE`), or when any of its screened logits is
    non-finite. Below 2^126 every partial sum of the first sgemm is at
    most (1 + u)^(n+3) ||x|| ||w_k|| < 2^127, so every hidden value is in
    [0, 1] and no NaN reaches another model's logits through the zeros of
    the block-diagonal W2. Inputs beyond the float32 range send every model
    to predict. A NaN bound leaves its output undecided.
    """
    x = np.asarray(inputs, dtype=np.float64)
    predicted = [None] * len(models)
    # gamma_n(u) needs n u < 1; no rows or no units leave nothing to screen
    screenable = x.ndim == 2 and x.size and x.shape[1] * _U32 < 0.5
    stack = [i for i, model in enumerate(models) if screenable and model.n_visible == x.shape[1] and model.w1.size]
    screen = _screen_inputs(x) if stack else None
    stack = [i for i in stack if screen is not None and _fits_float32(models[i], screen[1].max())]
    if stack:
        x32, x_norms = screen
        stacked = [models[i] for i in stack]
        w1, b, w2, c, ends = _stack_float32(stacked)
        logits = np.empty((x.shape[0], w2.shape[1]), dtype=np.float32)
        c32 = _gamma(x.shape[1], _U32) * (1.0 + _U32) ** 2 + 2.0 * _U32 + _U32**2 + _gamma(x.shape[1], _U64)
        terms = [_bound_terms(model, c32, float32=True) for model in stacked]
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, product in stacked_products(x32, w1):
                product += b
                np.matmul(_sigmoid32(product), w2, out=logits[rows])
                logits[rows] += c
            close = _close(logits, x_norms, *map(np.concatenate, zip(*terms)))
        finite = np.isfinite(logits).all(axis=0)
        for i, model, lo, hi in zip(stack, stacked, ends, ends[1:]):
            if finite[lo:hi].all():
                undecided = np.flatnonzero(close[:, lo:hi].any(axis=1))
                predicted[i] = _decide(model, x, x_norms, logits[:, lo:hi], undecided)
    return [predict(model, x) if p is None else p for model, p in zip(models, predicted)]


def _fits_float32(model, x_norm):
    """Whether ``model`` can be screened in float32 from inputs of 2-norm
    at most ``x_norm``: every parameter within the float32 range, and every
    product below _F32_SAFE (see :func:`_screened_predictions`)."""
    extent = [max(-p.min(), p.max()) for p in (model.w1, model.b, model.w2, model.c) if p.size]
    # NaN compares False
    return (
        all(e < _F32_MAX for e in extent)
        and x_norm * np.sqrt(model.n_visible) * extent[0] < _F32_SAFE
        and (model.n_hidden + 1) * _U32 < 0.5
    )


def _stack_float32(models):
    """Float32 (W1s stacked by row, bs stacked, block-diagonal W2^T, cs
    stacked) of ``models``, and the bounds of each model's columns of
    W2^T."""
    hidden = np.cumsum([0, *(model.n_hidden for model in models)])
    ends = np.cumsum([0, *(model.n_outputs for model in models)])
    w1 = np.empty((hidden[-1], models[0].n_visible), dtype=np.float32)
    w2 = np.zeros((hidden[-1], ends[-1]), dtype=np.float32)
    for model, k0, k1, j0, j1 in zip(models, hidden, hidden[1:], ends, ends[1:]):
        w1[k0:k1] = model.w1
        w2[k0:k1, j0:j1] = model.w2.T
    b = np.concatenate([model.b for model in models]).astype(np.float32)
    c = np.concatenate([model.c for model in models]).astype(np.float32)
    return w1, b, w2, c, ends


def _sigmoid32(a):
    """sigma(a) as 0.5 + 0.5 tanh(a / 2), in place on a float32 array.
    Assumed within _SIGMOID32_ERROR of the exact sigma."""
    a *= 0.5
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5
    return a


def _decide(model, x, x_norms, logits, undecided):
    """The predictions of ``model`` from its finite screened ``logits``
    over the rows of ``x``, with the float64 cascade on the ``undecided``
    rows; None when a row is still too close to call."""
    predicted = (logits > 0.0).astype(np.uint8)
    if undecided.size:
        logits = _logits(model, x[undecided] @ model.w1.T + model.b)
        cascade = _bound_terms(model, 2.0 * _gamma(model.n_visible, _U64))
        if _close(logits, x_norms[undecided], *cascade).any():
            return None
        predicted[undecided] = logits > 0.0
    return predicted


def _logits(model, a):
    """t = W2 sigmoid(A) + c per row of a pre-activation A: the outputs
    before their sigmoid."""
    return sigmoid(a) @ model.w2.T + model.c


def _bound_terms(model, c, float32=False):
    """(per_norm, slack) per output of ``model``, for the error bound
    E_ij = (||x_i|| per_norm_j + slack_j) (1 + 2^-20) at product constant
    ``c`` (see :func:`_screened_predictions`); ``float32`` adds the float32
    screen's terms F_j."""
    n, k = model.n_visible, model.n_hidden
    w2 = np.abs(model.w2)
    spread = w2 @ np.sqrt(np.einsum("ij,ij->i", model.w1, model.w1)) / 4.0
    weight = w2.sum(axis=1)
    total = weight + np.abs(model.c)
    root_n = np.sqrt(n)
    per_norm = c * spread + 2.0**-150 * root_n * weight
    slack = (
        2.0**-150 * (n * weight + 4.0 * root_n * spread)
        + (2.0**-44 + 2.0 * _gamma(k, _U64)) * total
        + _TIE_BAND
    )
    if float32:
        slack += (
            _U32 * (w2 @ np.abs(model.b) / 4.0 + 0.23 * weight)
            + _SIGMOID32_ERROR * weight
            + (_gamma(k + 1, _U32) * (1.0 + _U32) + _U32) * total
            + 2.0**-148 * (k + 1 + weight)
        )
    return per_norm, slack


def _close(logits, x_norms, per_norm, slack):
    """Whether each entry of ``logits`` lies within its error bound
    E_ij = (x_norms_i per_norm_j + slack_j) (1 + 2^-20); a NaN bound counts
    as close."""
    bound = (np.outer(x_norms, per_norm) + slack) * (1.0 + 2.0**-20)
    return ~(np.abs(logits) > bound)


# One cached (weakref to inputs, float32 copy, float64 row norms) for the
# most recent read-only input array, such as a Dataset's (which is taken not
# to change): each step reads the same test set, and a single slot keeps at
# most one float32 copy alive however many datasets a process holds.
_slot = None


def _screen_inputs(x):
    """(float32 copy, row 2-norms) of ``x``, or None when an entry is
    beyond the float32 range. Read-only arrays are cached in the one slot,
    which is released before a new copy is built."""
    global _slot
    slot = _slot
    if slot is not None and slot[0]() is x and not x.flags.writeable:
        return slot[1:]
    slot = _slot = None
    # no abs(): its float64 temporary would be twice the float32 copy
    if not max(-x.min(), x.max()) < _F32_MAX:
        return None
    screen = (x.astype(np.float32), np.sqrt(np.einsum("ij,ij->i", x, x)))
    if not x.flags.writeable:
        _slot = (weakref.ref(x, _release), *screen)
    return screen


def _release(ref):
    """Drops the slot once its input array is collected."""
    global _slot
    slot = _slot
    if slot is not None and slot[0] is ref:
        _slot = None

