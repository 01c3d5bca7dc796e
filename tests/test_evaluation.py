"""Evaluation shares one pre-activation A = X W1^T + b and one hidden
activation sigmoid(A) per model and dataset. Everything derived from them
must equal, bit for bit, what each reading computes on its own from x,
except what comes from the EBM's y-scores: those are relative to y = 0 and
come from log1p instead of softplus, so their shift-invariant readings
(log-likelihoods, output probabilities) match within 1e-12 and their
predictions bit for bit. The per-step recorders must form each A once and
run no softplus."""

import numpy as np
import pytest

from ebmlp import ebm, equivalence, mlp
from ebmlp.core import logsumexp, sigmoid, softplus
from ebmlp.data import label_rows, synthetic_task
from ebmlp.ebm import enumerate_states
from ebmlp.models import Model
from ebmlp.samplers import ExactSampler, SamplerConfig
from ebmlp.training import fit_traced, sampled_gradient, TrainOptions


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
    return softplus_y_scores(model, x @ model.w1.T + model.b)


def softplus_y_scores(model, a):
    """Absolute y-scores: c.y + sum_j softplus(a_j + (W2^T y)_j)."""
    y_states = enumerate_states(model.n_outputs)
    scores = np.empty((a.shape[0], y_states.shape[0]))
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
    z, h = mlp.outputs(model, a, return_hidden=True)
    y_states, scores = ebm.y_scores(model, a, h)
    ref_states, _ = ref_y_scores(model, x)
    assert np.array_equal(y_states, ref_states)

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
    loglik = ref_mean_log_likelihood(model, x, labels)
    assert ebm.scored_log_likelihood(scores, labels) == pytest.approx(loglik, rel=1e-12, abs=1e-12)
    assert ebm.mean_log_likelihood(model, data) == pytest.approx(loglik, rel=1e-12, abs=1e-12)

    probs = equivalence._output_probabilities(y_states, scores)
    np.testing.assert_allclose(probs, ref_output_probabilities(model, x), rtol=1e-12, atol=1e-12)
    # one input is one row, whose product can round apart from that row of
    # the batch product
    _, one = ref_y_scores(model, x[3][None, :])
    _, logp = ebm.log_conditional_y(model, x[3])
    np.testing.assert_allclose(logp, one[0] - logsumexp(one[0]), rtol=1e-12, atol=1e-12)


def assert_matches_softplus_differences(model, a):
    """y_scores against score(y) - score(0) of the softplus form, within
    1e-12 of the row's largest absolute score (the magnitude the softplus
    form rounds against)."""
    y_states, scores = ebm.y_scores(model, a, sigmoid(a))
    _, ref = softplus_y_scores(model, a)
    assert np.all(np.isfinite(scores)) and np.all(scores[:, 0] == 0.0)
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(scores - (ref - ref[:, :1])) <= 1e-12 * scale)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_relative_y_scores_match_the_softplus_form(m):
    rng = np.random.default_rng(40 + m)
    k = 16
    a = rng.normal(0.0, 30.0, size=(400, k))
    a[:50] = rng.choice([-1.0, 1.0], size=(50, k)) * rng.uniform(40.0, 60.0, size=(50, k))  # |a| > 40
    for w2_scale in (0.01, 1.0, 50.0):
        w2 = rng.uniform(-w2_scale, w2_scale, size=(m, k))
        model = Model(np.zeros((k, 1)), w2, np.zeros(k), rng.normal(0.0, 1.0, size=m))
        assert_matches_softplus_differences(model, a)


@pytest.mark.parametrize(
    "a, v",
    [
        (40.0, -50.0),  # h rounds to 1, expm1 to -1: log1p(-1) = -inf
        (30.0, -50.0),  # h within 1e-13 of 1, expm1 rounds to -1: all bits cancel
        (8.0, -9.0),  # 1 + h expm1(v) just under 2^-10
        (0.0, 800.0),  # expm1 overflows
        (-800.0, 800.0),  # h = 0 meets an infinite expm1
        (-30.0, 750.0),  # tiny h meets an infinite expm1
    ],
)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_relative_y_scores_take_the_softplus_difference_at_each_edge(a, v, m):
    k = 3
    w2 = np.zeros((m, k))
    w2[-1] = [v, -1.0, 2.0]  # one guarded unit beside two ordinary ones
    rows = np.array([[a, 0.5, -2.0], [a, 45.0, -45.0]])
    # a RuntimeWarning from the edges would fail the test (pytest config)
    assert_matches_softplus_differences(Model(np.zeros((k, 1)), w2, np.zeros(k), np.full(m, 0.3)), rows)


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


def test_equivalence_recorder_forms_each_pre_activation_once(counted_pre_activations, monkeypatch):
    train = synthetic_task(4, 12, seed=30)
    test = synthetic_task(4, 9, seed=31)
    sampler = ExactSampler(SamplerConfig(reads=50, seed=1))
    options = TrainOptions(steps=2, batch_size=4, seed=3)
    softplus_calls = []
    original = np.logaddexp

    def counting_logaddexp(*args, **kwargs):
        softplus_calls.append(np.shape(args[1]))
        return original(*args, **kwargs)

    # core.softplus is np.logaddexp(0, z); the y-scores come from log1p on
    # the hidden activations, so no reading runs it
    monkeypatch.setattr(np, "logaddexp", counting_logaddexp)
    report = equivalence.run_equivalence_experiment(train, test, n_hidden=3, options=options, sampler=sampler)
    records = len(report)
    assert records == 3
    # one per model (MLP and EBM) per dataset per record
    assert _count(counted_pre_activations, test.inputs) == 2 * records
    assert _count(counted_pre_activations, train.inputs) == 2 * records
    assert softplus_calls == []


def test_traced_fit_reads_the_test_set_feedforward_only(counted_pre_activations, monkeypatch, make_model):
    train = synthetic_task(4, 12, seed=32)
    test = synthetic_task(4, 9, seed=33)
    scored_rows = []
    accuracy_reads = []
    original_scores, original_accuracy = ebm.y_scores, mlp.accuracy

    def counting_scores(model, a, h):
        scored_rows.append(a.shape[0])
        return original_scores(model, a, h)

    def counting_accuracy(model, dataset):
        accuracy_reads.append(dataset)
        return original_accuracy(model, dataset)

    monkeypatch.setattr(ebm, "y_scores", counting_scores)
    monkeypatch.setattr(mlp, "accuracy", counting_accuracy)
    options = TrainOptions(steps=2, batch_size=4)
    trace = fit_traced(make_model(n=4, k=3), sampled_gradient(None, options), train, options, test)
    records = len(trace.steps)
    assert _count(counted_pre_activations, train.inputs) == records
    # the test set is read once per record, for accuracy only (the screen
    # in mlp.accuracy forms no float64 pre-activation of its own)
    assert len(accuracy_reads) == records and all(d is test for d in accuracy_reads)
    # the EBM reading of the train set only: no y-scores over the test set
    assert scored_rows.count(len(test)) == 0
    assert scored_rows.count(len(train)) == records
