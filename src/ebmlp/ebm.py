"""Energy-based reading of a :class:`ebmlp.models.Model`: energy
evaluation, exact conditionals, and the conditional log-likelihood gradient
built from positive/negative phases, whose negative phase a sampler can
supply. Training lives in :mod:`ebmlp.training`.

Convention used throughout the package: the conditional distribution over
the binary hidden/output units with the input clamped is

    P(k, y | x) = exp(E(x, k, y)) / sum_{k', y'} exp(E(x, k', y'))

with E as returned by :func:`energy`. Higher E means higher probability;
all phase formulas, Gibbs conditionals, and the quadratic-model encoding
in :mod:`ebmlp.bqm` follow this one convention and are tested for mutual
consistency against enumeration and finite-difference oracles.

Exact evaluation sums the hidden layer out in closed form
(:func:`y_scores`). The scores are log P(y|x) relative to y = 0, taken from
the hidden activations sigma(W1 x + b) that the feedforward reading of the
same rows already holds, and everything read from them (prediction,
log-likelihood, output probabilities, the exact negative phase) is
unchanged by that per-row shift.
"""

from dataclasses import dataclass

import numpy as np

# adam_update stays bound only because perfbench/selftest.py checks that it is traced here
from .core import adam_update, logsumexp, sigmoid, softplus  # noqa: F401
from .data import as_batch_arrays, label_rows
from . import mlp
from .models import GradientSet

# 2^20 joint states is the desk-scale ceiling for exact enumeration.
ENUMERATION_BOUND = 20

# y_scores takes log1p(t) only for t at or above this: closer to -1, log1p
# magnifies the rounding of t by more than 2^10.
_LOG1P_FLOOR = -1.0 + 2.0**-10


def _check_binary(v, name):
    v = np.asarray(v, dtype=np.float64)
    if v.size and not np.all((v == 0.0) | (v == 1.0)):
        raise ValueError(f"{name} must be a binary vector")
    return v


def energy(model, x, k, y):
    """E(x,k,y) = k.W1x + y.W2k + b.k + c.y for binary k, y.

    The conditional places probability proportional to exp(E) on (k, y),
    so states with larger E are more likely.
    """
    x = np.asarray(x, dtype=np.float64)
    k = _check_binary(k, "k")
    y = _check_binary(y, "y")
    if x.shape != (model.n_visible,) or k.shape != (model.n_hidden,) or y.shape != (model.n_outputs,):
        raise ValueError(
            f"dimension mismatch: x {x.shape}, k {k.shape}, y {y.shape} for model "
            f"N={model.n_visible}, K={model.n_hidden}, M={model.n_outputs}"
        )
    return float(k @ (model.w1 @ x) + y @ (model.w2 @ k) + model.b @ k + model.c @ y)


def enumerate_states(n_bits, bound=ENUMERATION_BOUND):
    """All binary vectors of length n_bits; bit i of the row index is
    variable i (least-significant bit first)."""
    if n_bits > bound:
        raise ValueError(f"enumeration bound exceeded: {n_bits} bits > {bound}")
    idx = np.arange(2**n_bits, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n_bits)) & 1).astype(np.uint8)


def state_energies(model, x, states):
    """Energies of joint (k, y) states given as rows (k first, y last)."""
    kk = states[:, : model.n_hidden].astype(np.float64)
    yy = states[:, model.n_hidden :].astype(np.float64)
    a = mlp.pre_activation(model, x)[0]
    return kk @ a + ((yy @ model.w2) * kk).sum(axis=1) + yy @ model.c


@dataclass
class ConditionalStates:
    """Exact conditional P(k,y|x) tabulated over all joint states."""

    states: np.ndarray  # (2^(K+M), K+M) uint8, k in the first K columns
    probs: np.ndarray  # (2^(K+M),)
    n_hidden: int

    def y_marginal(self):
        """(y states, probabilities) after summing out k."""
        m = self.states.shape[1] - self.n_hidden
        y_states = enumerate_states(m)
        weights = 1 << np.arange(m, dtype=np.int64)
        index = self.states[:, self.n_hidden :].astype(np.int64) @ weights
        probs = np.bincount(index, weights=self.probs, minlength=2**m)
        return y_states, probs


def exact_conditional(model, x):
    """Full conditional over all 2^(K+M) assignments with x clamped."""
    states = enumerate_states(model.n_hidden + model.n_outputs)
    e = state_energies(model, x, states)
    probs = np.exp(e - logsumexp(e))
    return ConditionalStates(states, probs / probs.sum(), model.n_hidden)


def y_scores(model, a, h):
    """log P(y|x) per y pattern up to a per-row constant: each row holds
    score(y) - score(y = 0) for one row of the pre-activation
    a = W1 x + b (see :func:`ebmlp.mlp.pre_activation`) and its hidden
    activations h = sigma(a) (as :func:`ebmlp.mlp.outputs` returns them).

    The hidden layer sums out in closed form: log sum_k exp(E) =
    c.y + sum_j softplus(a_j + v_j) with v = W2^T y, so only the 2^M output
    patterns are enumerated and any hidden width is exact. Against y = 0
    each hidden unit adds softplus(a_j + v_j) - softplus(a_j) =
    log1p(h_j expm1(v_j)), one multiply and log1p on the h already at hand.
    Where 1 + h_j expm1(v_j) falls below 2^-10 (h near 1 meeting a large
    negative v_j, where log1p would magnify the rounding of h and expm1 by
    over 2^10, or meet -1 exactly) or is not finite (expm1 overflows), the
    entry takes the softplus difference instead. Returns the patterns
    (LSB-first order) and the (rows, 2^M) scores, whose y = 0 column is
    zero.
    """
    y_states = enumerate_states(model.n_outputs)
    scores = np.zeros((a.shape[0], y_states.shape[0]))
    with np.errstate(all="ignore"):
        for p, yp in enumerate(y_states[1:].astype(np.float64), start=1):
            v = yp @ model.w2
            t = h * np.expm1(v)
            terms = np.log1p(t)
            guard = ~((t >= _LOG1P_FLOOR) & (t < np.inf))
            if guard.any():
                rows, cols = np.nonzero(guard)
                edge = a[rows, cols]
                terms[rows, cols] = softplus(edge + v[cols]) - softplus(edge)
            scores[:, p] = yp @ model.c + terms.sum(axis=1)
    return y_states, scores


def _y_index(y_bits):
    """Index of each y pattern (the last axis) under the LSB-first state
    order."""
    weights = 1 << np.arange(y_bits.shape[-1], dtype=np.int64)
    return np.asarray(y_bits, dtype=np.int64) @ weights


def most_probable(y_states, scores):
    """The highest-scoring y pattern per row; ties break to the lower index."""
    return y_states[np.argmax(scores, axis=1)]


def scored_log_likelihood(scores, labels):
    """Mean exact log P(y|x) of the labels, from the rows of ``scores``."""
    labels = label_rows(labels, scores.shape[0])
    logz = logsumexp(scores, axis=1)
    picked = scores[np.arange(scores.shape[0]), _y_index(labels)]
    return float(np.mean(picked - logz))


def _scored(model, x):
    """The pre-activation of the rows of ``x``, the y patterns, and the
    rows' y-scores."""
    a = mlp.pre_activation(model, x)
    return (a, *y_scores(model, a, sigmoid(a)))


def log_conditional_y(model, x):
    """Exact log P(y|x) for every y pattern (matches the y-marginal of
    exact_conditional, tested; works for any hidden width)."""
    _, y_states, scores = _scored(model, x)
    return y_states, scores[0] - logsumexp(scores[0])


def conditional_log_likelihood(model, x, y):
    """log P(y|x), exact via the closed-form hidden marginalization."""
    y = _check_binary(y, "y")
    if y.shape != (model.n_outputs,):
        raise ValueError(f"y has shape {y.shape}, expected ({model.n_outputs},)")
    _, logp = log_conditional_y(model, x)
    return float(logp[int(_y_index(y[None, :])[0])])


def predict(model, x):
    """Most probable y pattern under P(y|x); ties break to the lower index."""
    _, y_states, scores = _scored(model, x)
    return most_probable(y_states, scores)


def accuracy(model, dataset):
    """Exact-match fraction of predict() against dataset labels."""
    return mlp.exact_match(predict(model, dataset.inputs), dataset.labels)


def mean_log_likelihood(model, dataset):
    """Dataset mean of the exact conditional log-likelihood."""
    _, _, scores = _scored(model, dataset.inputs)
    return scored_log_likelihood(scores, dataset.labels)


def positive_phase(model, batch):
    """Data-clamped expectations of the gradient statistics.

    Per example, with a = W1 x + b + W2^T y: the W1 block averages
    outer(sigma(a), x), the W2 block averages y_j * sigma(a)_i, and the
    biases take the same expectations with the clamped unit replaced by 1.
    """
    x, y = as_batch_arrays(batch)
    _check_binary(y, "y")
    n = x.shape[0]
    s = sigmoid(mlp.pre_activation(model, x) + y @ model.w2)
    return GradientSet(s.T @ x / n, y.T @ s / n, s.mean(axis=0), y.mean(axis=0))


def _phase_from_y_weights(model, x, a, weights):
    """Negative-phase statistics for inputs ``x`` (P, N) with pre-activation
    ``a`` when the y of example p follows ``weights[p]`` over the 2^M output
    patterns in LSB-first order: sigma(a + W2^T y) is averaged over y, and
    the batch means of the four blocks are returned."""
    y_states = enumerate_states(model.n_outputs).astype(np.float64)
    s = sigmoid(a[:, None, :] + (y_states @ model.w2)[None, :, :])
    ws = weights[:, :, None] * s
    s_bar = ws.sum(axis=1)
    n = x.shape[0]
    dw2 = y_states.T @ ws.sum(axis=0) / n
    return GradientSet(s_bar.T @ x / n, dw2, s_bar.mean(axis=0), (weights @ y_states).mean(axis=0))


def exact_negative_phase(model, batch):
    """Closed-form negative phase: y is marginalized exactly over P(y|x)
    (enumeration over output patterns only, so any hidden width works)."""
    x, _ = as_batch_arrays(batch)
    a, _, scores = _scored(model, x)
    return _phase_from_y_weights(model, x, a, np.exp(scores - logsumexp(scores, axis=1)[:, None]))


def negative_phase(model, batch, sampler, base_seed=None, use_sampled_hidden=False):
    """Sampled negative phase.

    One ``sampler.sample_batch`` call, seeded with ``base_seed`` (default:
    the sampler's configured seed), draws ``sampler.config.reads`` samples
    of (k, y) from every example's conditional; both estimators read the
    raw samples directly. The default keeps only the sampled y: a bincount
    over the y patterns gives each example's empirical P(y|x), and
    sigma(W1 x + b + W2^T y) is recomputed per pattern.
    ``use_sampled_hidden=True`` averages the sampled k bits instead.
    """
    if sampler is None:
        return exact_negative_phase(model, batch)
    x, _ = as_batch_arrays(batch)
    if base_seed is None:
        base_seed = sampler.config.seed
    raw = sampler.sample_batch(model, x, seed=base_seed)
    n, n_reads, _ = raw.shape
    kk = model.n_hidden
    if use_sampled_hidden:
        k_bits = raw[:, :, :kk].astype(np.float64)
        y_bits = raw[:, :, kk:].astype(np.float64)
        s_bar = k_bits.mean(axis=1)
        dw2 = y_bits.reshape(n * n_reads, -1).T @ k_bits.reshape(n * n_reads, kk) / (n * n_reads)
        return GradientSet(s_bar.T @ x / n, dw2, s_bar.mean(axis=0), y_bits.mean(axis=(0, 1)))
    n_patterns = 2**model.n_outputs
    index = _y_index(raw[:, :, kk:]) + n_patterns * np.arange(n)[:, None]
    counts = np.bincount(index.ravel(), minlength=n * n_patterns).reshape(n, n_patterns)
    return _phase_from_y_weights(model, x, mlp.pre_activation(model, x), counts / n_reads)


def grad_conditional_ll(model, batch, sampler=None, base_seed=None, use_sampled_hidden=False):
    """Ascent gradient of the batch-mean conditional log-likelihood:
    positive phase minus negative phase. ``sampler=None`` uses the exact
    closed-form negative phase."""
    pos = positive_phase(model, batch)
    neg = negative_phase(model, batch, sampler, base_seed=base_seed, use_sampled_hidden=use_sampled_hidden)
    return pos - neg

