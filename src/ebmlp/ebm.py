"""Energy-based view: energy evaluation, exact conditionals, and the
conditional log-likelihood gradient built from positive/negative phases.

Convention used throughout the package: the conditional distribution over
the binary hidden/output units with the input clamped is

    P(k, y | x) = exp(E(x, k, y)) / sum_{k', y'} exp(E(x, k', y'))

with E as returned by :func:`energy`. Higher E means higher probability;
all phase formulas, Gibbs conditionals, and the quadratic-model encoding
in :mod:`ebmlp.bqm` follow this one convention and are tested for mutual
consistency against enumeration and finite-difference oracles.
"""

from dataclasses import dataclass

import numpy as np

# adam_update stays bound only because perfbench/selftest.py checks that it is traced here
from .core import adam_update, derive_seed, logsumexp, sigmoid, softplus  # noqa: F401
from .models import GradientSet
from .training import as_batch_arrays, fit_traced, TrainOptions

# 2^20 joint states is the desk-scale ceiling for exact enumeration.
ENUMERATION_BOUND = 20


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
    a = model.w1 @ np.asarray(x, dtype=np.float64) + model.b
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


def _y_scores(model, x2d):
    """Unnormalized log P(y|x) per y pattern, vectorized over rows of x2d.

    The hidden layer sums out in closed form: log sum_k exp(E) =
    c.y + sum_j softplus((W1 x + b + W2^T y)_j), so only the 2^M output
    patterns are enumerated and any hidden width is exact.
    """
    a = x2d @ model.w1.T + model.b
    y_states = enumerate_states(model.n_outputs)
    scores = np.empty((x2d.shape[0], y_states.shape[0]))
    for p, yp in enumerate(y_states.astype(np.float64)):
        scores[:, p] = yp @ model.c + softplus(a + yp @ model.w2).sum(axis=1)
    return y_states, scores


def _y_index(y_bits):
    """Index of each y pattern (the last axis) under the LSB-first state
    order."""
    weights = 1 << np.arange(y_bits.shape[-1], dtype=np.int64)
    return np.asarray(y_bits, dtype=np.int64) @ weights


def log_conditional_y(model, x):
    """Exact log P(y|x) for every y pattern (matches the y-marginal of
    exact_conditional, tested; works for any hidden width)."""
    y_states, scores = _y_scores(model, np.asarray(x, dtype=np.float64)[None, :])
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
    x2d = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y_states, scores = _y_scores(model, x2d)
    return y_states[np.argmax(scores, axis=1)]


def accuracy(model, dataset):
    """Exact-match fraction of predict() against dataset labels."""
    labels = np.asarray(dataset.labels, dtype=np.uint8).reshape(len(dataset), -1)
    return float(np.mean(np.all(predict(model, dataset.inputs) == labels, axis=1)))


def mean_log_likelihood(model, dataset):
    """Dataset mean of the exact conditional log-likelihood."""
    labels = np.asarray(dataset.labels, dtype=np.float64).reshape(len(dataset), -1)
    _, scores = _y_scores(model, np.asarray(dataset.inputs, dtype=np.float64))
    logz = logsumexp(scores, axis=1)
    picked = scores[np.arange(scores.shape[0]), _y_index(labels)]
    return float(np.mean(picked - logz))


def positive_phase(model, batch):
    """Data-clamped expectations of the gradient statistics.

    Per example, with a = W1 x + b + W2^T y: the W1 block averages
    outer(sigma(a), x), the W2 block averages y_j * sigma(a)_i, and the
    biases take the same expectations with the clamped unit replaced by 1.
    """
    x, y = as_batch_arrays(batch)
    _check_binary(y, "y")
    n = x.shape[0]
    s = sigmoid(x @ model.w1.T + model.b + y @ model.w2)
    return GradientSet(s.T @ x / n, y.T @ s / n, s.mean(axis=0), y.mean(axis=0))


def _phase_from_y_weights(model, x, weights):
    """Negative-phase statistics for inputs ``x`` (P, N) when the y of
    example p follows ``weights[p]`` over the 2^M output patterns in
    LSB-first order: sigma(W1 x + b + W2^T y) is averaged over y, and the
    batch means of the four blocks are returned."""
    y_states = enumerate_states(model.n_outputs).astype(np.float64)
    s = sigmoid((x @ model.w1.T + model.b)[:, None, :] + (y_states @ model.w2)[None, :, :])
    ws = weights[:, :, None] * s
    s_bar = ws.sum(axis=1)
    n = x.shape[0]
    dw2 = y_states.T @ ws.sum(axis=0) / n
    return GradientSet(s_bar.T @ x / n, dw2, s_bar.mean(axis=0), (weights @ y_states).mean(axis=0))


def exact_negative_phase(model, batch):
    """Closed-form negative phase: y is marginalized exactly over P(y|x)
    (enumeration over output patterns only, so any hidden width works)."""
    x, _ = as_batch_arrays(batch)
    _, scores = _y_scores(model, x)
    return _phase_from_y_weights(model, x, np.exp(scores - logsumexp(scores, axis=1)[:, None]))


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
    return _phase_from_y_weights(model, x, counts / n_reads)


def grad_conditional_ll(model, batch, sampler=None, base_seed=None, use_sampled_hidden=False):
    """Ascent gradient of the batch-mean conditional log-likelihood:
    positive phase minus negative phase. ``sampler=None`` uses the exact
    closed-form negative phase."""
    pos = positive_phase(model, batch)
    neg = negative_phase(model, batch, sampler, base_seed=base_seed, use_sampled_hidden=use_sampled_hidden)
    return pos - neg


def sampled_gradient(sampler, options):
    """Gradient function for :func:`ebmlp.training.fit`: the negated
    conditional log-likelihood gradient (exact when ``sampler`` is None),
    with the sampler seeded afresh from the step index."""
    base = derive_seed(options.seed, 0x5EED)

    def gradient(model, batch, step):
        seed = derive_seed(base, step << 20)
        return grad_conditional_ll(
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
    return fit_traced(model, sampled_gradient(sampler, options), train_set, options, test_set, "ebm")
