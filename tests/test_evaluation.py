"""Evaluation shares one pre-activation A = X W1^T + b per model and
dataset. Everything derived from it must equal, bit for bit, what each
reading computes on its own from x; and the per-step recorders must form
each A once."""

import numpy as np
import pytest

from ebmlp import ebm, equivalence, mlp
from ebmlp.core import logsumexp, sigmoid, softplus
from ebmlp.data import synthetic_task
from ebmlp.ebm import enumerate_states
from ebmlp.samplers import ExactSampler, SamplerConfig
from ebmlp.training import fit_traced, label_rows, TrainOptions


# References: each quantity computed from x on its own, one product per
# call, as the two readings did before they shared the pre-activation.
def ref_forward(model, x):
    h = sigmoid(x @ model.w1.T + model.b)
    return sigmoid(h @ model.w2.T + model.c)


def ref_mlp_accuracy(model, x, labels):
    predicted = (ref_forward(model, x) > 0.5).astype(np.uint8)
    labels = np.asarray(labels, dtype=np.uint8).reshape(x.shape[0], -1)
    return float(np.mean(np.all(predicted == labels, axis=1)))


def ref_cross_entropy(model, x, labels):
    y = np.asarray(labels, dtype=np.float64).reshape(x.shape[0], -1)
    z = np.clip(ref_forward(model, x), mlp.LOSS_CLAMP, 1.0 - mlp.LOSS_CLAMP)
    return float(np.mean(-(y * np.log(z) + (1.0 - y) * np.log1p(-z)).sum(axis=-1)))


def ref_y_scores(model, x):
    a = x @ model.w1.T + model.b
    y_states = enumerate_states(model.n_outputs)
    scores = np.empty((x.shape[0], y_states.shape[0]))
    for p, yp in enumerate(y_states.astype(np.float64)):
        scores[:, p] = yp @ model.c + softplus(a + yp @ model.w2).sum(axis=1)
    return y_states, scores


def ref_ebm_predict(model, x):
    y_states, scores = ref_y_scores(model, x)
    return y_states[np.argmax(scores, axis=1)]


def ref_ebm_accuracy(model, x, labels):
    labels = np.asarray(labels, dtype=np.uint8).reshape(x.shape[0], -1)
    return float(np.mean(np.all(ref_ebm_predict(model, x) == labels, axis=1)))


def ref_mean_log_likelihood(model, x, labels):
    labels = np.asarray(labels, dtype=np.float64).reshape(x.shape[0], -1)
    _, scores = ref_y_scores(model, x)
    logz = logsumexp(scores, axis=1)
    index = labels.astype(np.int64) @ (1 << np.arange(labels.shape[1], dtype=np.int64))
    return float(np.mean(scores[np.arange(scores.shape[0]), index] - logz))


def ref_output_probabilities(model, x):
    y_states, scores = ref_y_scores(model, x)
    scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs @ y_states.astype(np.float64)


class Rows:
    """The two fields (and length) the accuracy and likelihood readers take
    from a dataset; Dataset itself holds one output column only."""

    def __init__(self, inputs, labels):
        self.inputs, self.labels = inputs, labels

    def __len__(self):
        return self.inputs.shape[0]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_shared_derivations_equal_the_standalone_ones_bitwise(make_model, m, k):
    rng = np.random.default_rng(100 * m + k)
    x = rng.random((37, 5))
    labels = rng.integers(0, 2, size=(37, m)).astype(np.uint8)
    model = make_model(n=5, k=k, m=m, seed=k, std=1.5)
    data = Rows(x, labels)

    a = mlp.pre_activation(model, x)
    z = mlp.outputs(model, a)
    y_states, scores = ebm.y_scores(model, a)
    ref_states, ref_scores = ref_y_scores(model, x)
    assert np.array_equal(y_states, ref_states) and np.array_equal(scores, ref_scores)

    assert np.array_equal(z, ref_forward(model, x))
    assert np.array_equal(mlp.forward(model, x), ref_forward(model, x))
    assert mlp.exact_match(mlp.threshold(z), labels) == ref_mlp_accuracy(model, x, labels)
    assert mlp.accuracy(model, data) == ref_mlp_accuracy(model, x, labels)
    assert mlp.cross_entropy(label_rows(labels, len(x)), z) == ref_cross_entropy(model, x, labels)
    assert mlp.mean_cross_entropy(model, x, labels) == ref_cross_entropy(model, x, labels)

    assert np.array_equal(ebm.most_probable(y_states, scores), ref_ebm_predict(model, x))
    assert np.array_equal(ebm.predict(model, x), ref_ebm_predict(model, x))
    assert mlp.exact_match(ebm.most_probable(y_states, scores), labels) == ref_ebm_accuracy(model, x, labels)
    assert ebm.accuracy(model, data) == ref_ebm_accuracy(model, x, labels)
    assert ebm.scored_log_likelihood(scores, labels) == ref_mean_log_likelihood(model, x, labels)
    assert ebm.mean_log_likelihood(model, data) == ref_mean_log_likelihood(model, x, labels)

    probs = equivalence._output_probabilities(y_states, scores)
    assert np.array_equal(probs, ref_output_probabilities(model, x))
    # one input is one row, whose product can round apart from that row of
    # the batch product
    _, one = ref_y_scores(model, x[3][None, :])
    _, logp = ebm.log_conditional_y(model, x[3])
    assert np.array_equal(logp, one[0] - logsumexp(one[0]))


@pytest.fixture
def counted_pre_activations(monkeypatch):
    """Patches a counter onto mlp.pre_activation; returns the list of input
    arrays it was called with (every reader calls it through the module)."""
    seen = []
    original = mlp.pre_activation

    def counting(model, inputs):
        seen.append(inputs)
        return original(model, inputs)

    monkeypatch.setattr(mlp, "pre_activation", counting)
    return seen


def _count(seen, inputs):
    return sum(arr is inputs for arr in seen)


def test_equivalence_recorder_forms_each_pre_activation_once(counted_pre_activations):
    train = synthetic_task(4, 12, seed=30)
    test = synthetic_task(4, 9, seed=31)
    sampler = ExactSampler(SamplerConfig(reads=50, seed=1))
    options = TrainOptions(steps=2, batch_size=4, seed=3)
    report = equivalence.run_equivalence_experiment(train, test, n_hidden=3, options=options, sampler=sampler)
    records = len(report)
    assert records == 3
    # one per model (MLP and EBM) per dataset per record
    assert _count(counted_pre_activations, test.inputs) == 2 * records
    assert _count(counted_pre_activations, train.inputs) == 2 * records


def test_traced_fit_reads_the_test_set_feedforward_only(counted_pre_activations, monkeypatch, make_model):
    train = synthetic_task(4, 12, seed=32)
    test = synthetic_task(4, 9, seed=33)
    scored_rows = []
    original = ebm.y_scores

    def counting(model, a):
        scored_rows.append(a.shape[0])
        return original(model, a)

    monkeypatch.setattr(ebm, "y_scores", counting)
    options = TrainOptions(steps=2, batch_size=4)
    trace = fit_traced(make_model(n=4, k=3), ebm.sampled_gradient(None, options), train, options, test, "ebm")
    records = len(trace.steps)
    assert _count(counted_pre_activations, train.inputs) == records
    assert _count(counted_pre_activations, test.inputs) == records
    # the EBM reading of the train set only: no y-scores over the test set
    assert scored_rows.count(len(test)) == 0
    assert scored_rows.count(len(train)) == records
