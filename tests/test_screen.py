"""mlp.accuracy decides most rows from a float32 product and an error bound
(see mlp._screened_predictions), recomputes undecided rows in float64 and falls
back to predict for the whole set when a row is still too close to call.
Its predictions must equal predict's elementwise, on every path."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from ebmlp import mlp
from ebmlp.models import Model
from ebmlp.training import backprop_gradient, fit, TrainOptions

WIDTH = 784


class Rows:
    """Inputs and labels of any shape; read-only inputs, as in a Dataset,
    unless ``writeable``."""

    def __init__(self, inputs, labels, writeable=False):
        self.inputs, self.labels = inputs, labels
        self.inputs.flags.writeable = writeable

    def __len__(self):
        return self.inputs.shape[0]


def image_like(rng, rows, width=WIDTH):
    """Pixels in [0, 1], about two thirds of them 0, as in the digit images."""
    return rng.random((rows, width)) * (rng.random((rows, width)) > 0.65)


def random_model(rng, k, m, w1_std=0.05, w2_std=1.0):
    return Model(
        rng.normal(0.0, w1_std, size=(k, WIDTH)),
        rng.normal(0.0, w2_std, size=(m, k)),
        rng.normal(0.0, 0.5, size=k),
        rng.normal(0.0, 0.5, size=m),
    )


@pytest.fixture
def spy(monkeypatch):
    """Counts calls of mlp.predict (the full fallback) and the row count of
    each mlp.sigmoid call (the cascade's is below the set's)."""
    calls = {"predict": 0, "sigmoid_rows": []}
    predict, sigmoid = mlp.predict, mlp.sigmoid

    def counting_predict(model, x):
        calls["predict"] += 1
        return predict(model, x)

    def counting_sigmoid(z):
        calls["sigmoid_rows"].append(np.shape(z)[0])
        return sigmoid(z)

    monkeypatch.setattr(mlp, "predict", counting_predict)
    monkeypatch.setattr(mlp, "sigmoid", counting_sigmoid)
    return calls


@pytest.mark.parametrize("m", [1, 2])
def test_screened_predictions_equal_predict_across_adam_steps(m):
    rng = np.random.default_rng(70 + m)
    x = image_like(rng, 2000)
    train = Rows(image_like(rng, 60), rng.integers(0, 2, size=(60, m)).astype(np.uint8))
    model = random_model(rng, 32, m)
    checked = []

    def record(step):
        expected = mlp.predict(model, x)
        got = mlp._screened_predictions([model], x)[0]
        assert got.dtype == expected.dtype and np.array_equal(got, expected), step
        # labels equal to predict's outputs: every row must match in full
        assert mlp.accuracy(model, Rows(x, expected)) == 1.0
        checked.append(step)

    fit([(model, backprop_gradient)], train, TrainOptions(steps=6, batch_size=10, lr=0.05, seed=m), record)
    assert checked == list(range(7))


def near_tie(rng, m, logit):
    """A 784-wide model and 2000 rows in which output m-1 of row 7 has the
    float64 logit t = W2 sigma(W1 x + b) + c of about ``logit``, with every
    other output of every row far from a tie."""
    x = image_like(rng, 2000)
    model = random_model(rng, 16, m, w1_std=0.1)
    t = mlp._logits(model, mlp.pre_activation(model, x))
    c = model.c.copy()
    c[-1] += logit - t[7, -1]
    model = Model(model.w1, model.w2, model.b, c)
    t = mlp._logits(model, mlp.pre_activation(model, x))
    assert abs(t[7, -1] - logit) < 1e-15
    return Rows(x, mlp.predict(model, x)), model


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("logit", [1e-6, -1e-6])
def test_near_tie_row_is_decided_by_the_float64_cascade(spy, m, logit):
    rows, model = near_tie(np.random.default_rng(80 + m), m, logit)
    spy["predict"], spy["sigmoid_rows"] = 0, []
    predicted = mlp._screened_predictions([model], rows.inputs)[0]
    assert np.array_equal(predicted, rows.labels)
    assert predicted[7, -1] == (logit > 0)
    # the screen (2000 rows), then the cascade on the few undecided rows
    assert spy["predict"] == 0
    assert spy["sigmoid_rows"][0] == 2000 and 1 <= spy["sigmoid_rows"][1] < 200
    assert mlp.accuracy(model, rows) == 1.0


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("logit", [1e-13, -1e-13])
def test_tie_within_float64_rounding_goes_to_predict(spy, m, logit):
    rows, model = near_tie(np.random.default_rng(90 + m), m, logit)
    spy["predict"], spy["sigmoid_rows"] = 0, []
    predicted = mlp._screened_predictions([model], rows.inputs)[0]
    assert np.array_equal(predicted, rows.labels)
    assert spy["predict"] == 1
    assert spy["sigmoid_rows"][0] == 2000 and 1 <= spy["sigmoid_rows"][1] < 200


@pytest.mark.parametrize("c", [1e-16, -1e-16, 2.0**-49])
def test_logits_below_the_sigmoid_threshold_are_not_decided_by_sign(c):
    # sigma(1e-16) rounds to 0.5, which predicts 0 though the logit is
    # positive; 2^-49 is past every rounding and predicts 1
    rng = np.random.default_rng(4)
    x = image_like(rng, 200)
    model = Model(rng.normal(0.0, 0.05, size=(8, WIDTH)), np.zeros((1, 8)), np.zeros(8), np.array([c]))
    expected = mlp.predict(model, x)
    assert np.all(expected == (c > 2.0**-52))
    assert np.array_equal(mlp._screened_predictions([model], x)[0], expected)


@pytest.mark.parametrize(
    "change",
    [
        lambda model, x: model.w1.__setitem__((0, 0), 1e39),  # W1 beyond float32
        lambda model, x: model.w1.__setitem__(slice(None), 3e38),  # the float32 product overflows
        lambda model, x: model.c.__setitem__(0, np.nan),  # a NaN logit
        lambda model, x: x.__setitem__((5, 3), 1e39),  # an input beyond float32
    ],
    ids=["w1-beyond-float32", "product-overflow", "nan-logit", "input-beyond-float32"],
)
def test_out_of_range_values_fall_back_to_predict_without_warning(spy, change):
    rng = np.random.default_rng(5)
    x = image_like(rng, 300)
    x[:, :4] = 1.0
    model = random_model(rng, 8, 1)
    change(model, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = mlp.predict(model, x)
        spy["predict"] = 0
        assert np.array_equal(mlp._screened_predictions([model], x)[0], expected)
    assert spy["predict"] == 1


def test_stacked_models_are_each_decided_as_predict(spy):
    """One product screens models of different widths and outputs; a
    near-tie goes to the cascade, W1 beyond float32 and a NaN logit to
    predict, without changing the others' decisions."""
    rng = np.random.default_rng(8)
    rows, near = near_tie(rng, 1, 1e-6)
    beyond, nan = random_model(rng, 8, 1), random_model(rng, 8, 1)
    beyond.w1[0, 0] = 1e39
    nan.c[0] = np.nan
    models = [random_model(rng, 32, 1), near, beyond, random_model(rng, 8, 2), nan, random_model(rng, 16, 2)]
    expected = [mlp.predict(model, rows.inputs) for model in models]
    spy["predict"] = 0
    got = mlp._screened_predictions(models, rows.inputs)
    assert all(g.dtype == e.dtype and np.array_equal(g, e) for g, e in zip(got, expected))
    assert spy["predict"] == 2
    labels = Rows(rows.inputs, expected[3])
    assert mlp.accuracies(models[3:4] + models[:1], labels)[0] == 1.0


def test_writeable_inputs_are_not_cached(monkeypatch):
    monkeypatch.setattr(mlp, "_slot", None)
    rng = np.random.default_rng(6)
    model = random_model(rng, 8, 1)
    x = image_like(rng, 500)
    rows = Rows(x, mlp.predict(model, x), writeable=True)
    assert mlp.accuracy(model, rows) == 1.0
    assert mlp._slot is None
    x[:] = image_like(rng, 500)
    rows.labels = mlp.predict(model, x)
    assert mlp.accuracy(model, rows) == 1.0


def test_one_float32_copy_of_the_inputs_at_a_time(monkeypatch):
    monkeypatch.setattr(mlp, "_slot", None)
    rng = np.random.default_rng(7)
    model = random_model(rng, 8, 1)
    sets = [Rows(image_like(rng, 3000), np.zeros((3000, 1), dtype=np.uint8)) for _ in range(3)]
    copy_bytes = sets[0].inputs.size * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for rows in sets:
            mlp.accuracy(model, rows)
            mlp.accuracy(model, rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # reading a new set releases the previous set's copy before building
    # its own
    assert copy_bytes < peak < 2 * copy_bytes
    assert mlp._slot[0]() is sets[-1].inputs
    # and the slot does not outlive its input array
    del sets, rows
    gc.collect()
    assert mlp._slot is None
