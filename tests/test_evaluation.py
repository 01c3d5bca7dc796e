"""Evaluation shares one pre-activation A = X W1^T + b and one hidden
activation sigmoid(A) per model and dataset. Everything derived from them
must equal, bit for bit, what each reading computes on its own from x,
except what comes from the EBM's y-scores: those are relative to y = 0 and
come from log1p instead of softplus, so their shift-invariant readings
(log-likelihoods, output probabilities) match within 1e-12 and their
predictions bit for bit. The per-step recorders read parameter snapshots
after training: the test set of a batch of snapshots through one stacked
product, the train set once per model and snapshot, with no softplus; and
the snapshots they hold stay within a fixed budget however long the run."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from ebmlp import ebm, equivalence, mlp, training
from ebmlp.core import logsumexp, sigmoid, softplus
from ebmlp.data import Dataset, label_rows, synthetic_task
from ebmlp.ebm import enumerate_states
from ebmlp.models import Model
from ebmlp.samplers import ExactSampler, GibbsSampler, SamplerConfig
from ebmlp.training import backprop_gradient, fit_traced, sampled_gradient, TrainOptions

from test_golden import DIGESTS, fingerprint
from test_screen import image_like


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


@pytest.fixture
def counted_stacked_products(monkeypatch):
    """Patches a counter onto mlp.stacked_products; returns (inputs, stacked
    W1 rows) per call."""
    seen = []
    original = mlp.stacked_products

    def counting(x, w):
        seen.append((x, w.shape[0]))
        return original(x, w)

    monkeypatch.setattr(mlp, "stacked_products", counting)
    return seen


@pytest.fixture
def counted_softplus(monkeypatch):
    """core.softplus is np.logaddexp(0, z); the y-scores come from log1p on
    the hidden activations, so no reading should run it. Returns the shapes
    it was called on."""
    seen = []
    original = np.logaddexp

    def counting(*args, **kwargs):
        seen.append(np.shape(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "logaddexp", counting)
    return seen


def _count(seen, inputs):
    return sum(arr is inputs for arr in seen)


def test_equivalence_recorder_forms_each_pre_activation_once(
    counted_pre_activations, counted_stacked_products, counted_softplus
):
    train = synthetic_task(4, 12, seed=30)
    test = synthetic_task(4, 9, seed=31)
    sampler = ExactSampler(SamplerConfig(reads=50, seed=1))
    options = TrainOptions(steps=2, batch_size=4, seed=3)
    report = equivalence.run_equivalence_experiment(train, test, n_hidden=3, options=options, sampler=sampler)
    records = len(report)
    assert records == 3 and report.steps == [0, 1, 2]
    # the test set: one product per flush, of both models' W1s at every
    # record stacked, and no pre-activation of its own
    assert [(x is test.inputs, units) for x, units in counted_stacked_products] == [(True, 2 * 3 * records)]
    assert _count(counted_pre_activations, test.inputs) == 0
    # the train set: one per model (MLP and EBM) per record
    assert _count(counted_pre_activations, train.inputs) == 2 * records
    assert counted_softplus == []


def test_traced_fit_reads_the_test_set_feedforward_only(
    counted_pre_activations, counted_stacked_products, counted_softplus, monkeypatch, make_model
):
    train = synthetic_task(4, 12, seed=32)
    test = synthetic_task(4, 9, seed=33)
    scored_rows = []
    original_scores = ebm.y_scores

    def counting_scores(model, a, h):
        scored_rows.append(a.shape[0])
        return original_scores(model, a, h)

    monkeypatch.setattr(ebm, "y_scores", counting_scores)
    options = TrainOptions(steps=2, batch_size=4)
    trace = fit_traced(make_model(n=4, k=3), sampled_gradient(None, options), train, options, test)
    records = len(trace.steps)
    assert trace.steps == [0, 1, 2]
    assert _count(counted_pre_activations, train.inputs) == records
    # the test set is read for accuracy only, by one float32 product of its
    # cached float32 copy with the W1s of every record stacked (the screen
    # in mlp.accuracies), and no float64 pre-activation
    [(x32, units)] = counted_stacked_products
    assert x32.dtype == np.float32 and np.array_equal(x32, test.inputs.astype(np.float32)) and units == 3 * records
    assert _count(counted_pre_activations, test.inputs) == 0
    # the EBM reading of the train set only: no y-scores over the test set
    assert scored_rows.count(len(test)) == 0
    assert scored_rows.count(len(train)) == records
    assert counted_softplus == []


@pytest.mark.parametrize("recorder", ["fit_traced", "equivalence"])
def test_snapshot_batches_give_the_rows_of_one_batch(recorder, monkeypatch, counted_stacked_products):
    """With room for two records' snapshots, a 5-step run evaluates them in
    three batches, appending the rows in step order, equal to the rows of
    one batch: bit for bit on a train track, whose test accuracy comes from
    exact decisions, and within rounding in the equivalence experiment,
    whose test readings come from products of other widths."""
    train = synthetic_task(6, 12, seed=34)
    test = synthetic_task(6, 90, seed=35)
    options = TrainOptions(steps=5, batch_size=4, seed=2)

    def run():
        if recorder == "fit_traced":
            model = Model.init_gaussian(6, 4, 1, np.random.default_rng(5), std=0.5)
            return fit_traced(model, backprop_gradient, train, options, test)
        sampler = ExactSampler(SamplerConfig(reads=50, seed=1))
        return equivalence.run_equivalence_experiment(train, test, n_hidden=4, options=options, sampler=sampler)

    whole = run()
    models = 1 if recorder == "fit_traced" else 2
    per_record = models * (4 * 6 + 4 + 4 + 1) * 8
    monkeypatch.setattr(training, "SNAPSHOT_BYTES", 2 * per_record)
    counted_stacked_products.clear()
    batched = run()
    assert [units for _, units in counted_stacked_products] == [models * 4 * n for n in (2, 2, 2)]
    assert batched.steps == whole.steps == list(range(6))
    for name, values in whole.series().items():
        if recorder == "fit_traced":
            assert batched.series()[name] == values, name
        else:
            np.testing.assert_allclose(batched.series()[name], values, rtol=1e-12, atol=1e-15, err_msg=name)


def test_stacked_readings_match_each_models_own():
    """At 300 x 784 with 6 models of 32 units, above OpenBLAS's
    small-matrix cut: the stacked decisions are predict's and the stacked
    float64 readings are within 1e-12 of each model's own on any BLAS, and
    equal in bits under the fingerprint the goldens record."""
    rng = np.random.default_rng(36)
    x = image_like(rng, 300)
    models = [
        Model(rng.normal(0.0, std, (32, 784)), rng.normal(0.0, 1.0, (1, 32)), rng.normal(0.0, 0.3, 32), rng.normal(0.0, 0.3, 1))
        for std in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
    ]
    data = Dataset(x, rng.integers(0, 2, 300).astype(np.uint8), ("a", "b"))

    screened = mlp._screened_predictions(models, data.inputs)
    assert all(np.array_equal(got, mlp.predict(model, x)) for got, model in zip(screened, models))
    assert mlp.accuracies(models, data) == [mlp.accuracy(model, data) for model in models]

    stacked = training.stacked_readings(models, np.concatenate([model.w1 for model in models]), data)
    own = [training.readings(model, data) for model in models]
    for (z, y_states, scores), (ref_z, ref_states, ref_scores) in zip(stacked, own):
        assert np.array_equal(y_states, ref_states)
        np.testing.assert_allclose(z, ref_z, rtol=1e-12, atol=0.0)
        scale = np.abs(ref_scores).max(axis=1, keepdims=True)
        assert np.all(np.abs(scores - ref_scores) <= 1e-12 * scale)
    if fingerprint() == json.loads(DIGESTS.read_text())["fingerprint"]:
        for (z, _, scores), (ref_z, _, ref_scores) in zip(stacked, own):
            assert np.array_equal(z, ref_z) and np.array_equal(scores, ref_scores)


def _peak_traced_bytes(run):
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("recorder", ["fit_traced", "equivalence"])
def test_snapshot_memory_is_bounded_across_step_counts(recorder, monkeypatch):
    """At 784 x 32 a snapshot is 200 KB per model, so a 200-step run that
    held all of them would hold 40 MB a model. The recorders evaluate them
    in batches of at most SNAPSHOT_BYTES, so the peak at 200 steps stays
    within that budget of the peak at 20 steps, plus a margin for what an
    evaluation holds beside the snapshots: at most half the budget for the
    float32 copy of the stacked W1s (train tracks) and one product chunk."""
    rng = np.random.default_rng(37)
    train = Dataset(image_like(rng, 20), rng.integers(0, 2, 20).astype(np.uint8), ("a", "b"))
    test = Dataset(image_like(rng, 300), rng.integers(0, 2, 300).astype(np.uint8), ("a", "b"))

    def run(steps):
        # each run builds its own float32 copy of the test inputs
        monkeypatch.setattr(mlp, "_slot", None)
        options = TrainOptions(steps=steps, batch_size=5, lr=0.01)
        if recorder == "fit_traced":
            model = Model.init_gaussian(784, 32, 1, np.random.default_rng(0))
            table = fit_traced(model, backprop_gradient, train, options, test)
        else:
            sampler = GibbsSampler(SamplerConfig(reads=10, burn_in=5, seed=1))
            table = equivalence.run_equivalence_experiment(train, test, options=options, sampler=sampler)
        assert table.steps == list(range(steps + 1))

    short = _peak_traced_bytes(lambda: run(20))
    long = _peak_traced_bytes(lambda: run(200))
    margin = training.SNAPSHOT_BYTES // 2 + mlp.STACK_CHUNK_BYTES
    assert long <= short + training.SNAPSHOT_BYTES + margin, (short, long)
