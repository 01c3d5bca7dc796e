"""mlp.accuracy decides most rows from a float32 product and an error bound
(see mlp._screened_predictions), recomputes undecided rows in float64 and falls
back to predict for the whole set when a row is still too close to call.
Its predictions must equal predict's elementwise, on every path."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ebmlp import mlp
from ebmlp.core import sigmoid
from ebmlp.models import initial_model, INIT_STD, Model
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
    """Counts calls of mlp.predict (the full fallback), the rows of each
    mlp._sigmoid32 call (the float32 screen's, one call per row chunk) and
    of each mlp._logits call (the float64 cascade's)."""
    calls = {"predict": 0, "screen_rows": [], "cascade_rows": [], "cascade_models": []}
    predict, sigmoid32, logits = mlp.predict, mlp._sigmoid32, mlp._logits

    def counting_predict(model, x):
        calls["predict"] += 1
        return predict(model, x)

    def counting_sigmoid32(a):
        calls["screen_rows"].append(a.shape[0])
        return sigmoid32(a)

    def counting_logits(model, a):
        calls["cascade_rows"].append(a.shape[0])
        calls["cascade_models"].append(model)
        return logits(model, a)

    monkeypatch.setattr(mlp, "predict", counting_predict)
    monkeypatch.setattr(mlp, "_sigmoid32", counting_sigmoid32)
    monkeypatch.setattr(mlp, "_logits", counting_logits)
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


def near_tie(rng, m, logit, rows=2000, k=16, w1_std=0.1, w2_std=1.0):
    """A 784-wide model and ``rows`` rows in which output m-1 of row 7 has
    the float64 logit t = W2 sigma(W1 x + b) + c of about ``logit``. At the
    default sizes every other output of every row is far from a tie."""
    x = image_like(rng, rows)
    model = random_model(rng, k, m, w1_std=w1_std, w2_std=w2_std)
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
    spy["predict"], spy["screen_rows"], spy["cascade_rows"] = 0, [], []
    predicted = mlp._screened_predictions([model], rows.inputs)[0]
    assert np.array_equal(predicted, rows.labels)
    assert predicted[7, -1] == (logit > 0)
    # the screen (2000 rows), then the cascade on the few undecided rows
    assert spy["predict"] == 0
    assert sum(spy["screen_rows"]) == 2000 and len(spy["cascade_rows"]) == 1
    assert 1 <= spy["cascade_rows"][0] < 200
    assert mlp.accuracy(model, rows) == 1.0


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("logit", [1e-13, -1e-13])
def test_tie_within_float64_rounding_goes_to_predict(spy, m, logit):
    rows, model = near_tie(np.random.default_rng(90 + m), m, logit)
    spy["predict"], spy["screen_rows"], spy["cascade_rows"] = 0, [], []
    predicted = mlp._screened_predictions([model], rows.inputs)[0]
    assert np.array_equal(predicted, rows.labels)
    assert spy["predict"] == 1
    assert sum(spy["screen_rows"]) == 2000 and len(spy["cascade_rows"]) == 1
    assert 1 <= spy["cascade_rows"][0] < 200


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("logit", [1e-7, -1e-7])
def test_near_tie_at_trained_scale_is_within_the_float32_error(spy, m, logit):
    # A_j about 30, as after training: a logit of 1e-7 is far inside the
    # float32 screen's error, so the row goes to the float64 cascade
    rows, model = near_tie(np.random.default_rng(100 + m), m, logit, k=32, w2_std=1.1)
    assert 20.0 < np.abs(model.w2[-1]).sum() < 40.0
    spy["predict"], spy["cascade_rows"] = 0, []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predicted = mlp._screened_predictions([model], rows.inputs)[0]
    assert np.array_equal(predicted, rows.labels)
    assert predicted[7, -1] == (logit > 0)
    assert spy["predict"] == 0 and len(spy["cascade_rows"]) == 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "k, w2_std, allowance",
    [
        # sigma32's assumed error, 2^-17 A_j, where it is the largest term
        (16, 2.35, lambda k, a: 2.0**-17 * a),
        # the float32 W2 product's, at least gamma_{K+1}(u) A_j, where it is
        (512, 0.073, lambda k, a: (k + 1) * 2.0**-24 * a),
    ],
    ids=["sigmoid32", "w2-sum"],
)
def test_each_float32_error_term_keeps_ties_from_the_screen(spy, sign, k, w2_std, allowance):
    """With W1 near 0 every row has about the logit of row 7, half the
    term's allowance: the screen must leave every row to the cascade."""

    def draw(logit):
        return near_tie(np.random.default_rng(110 + k), 1, logit, rows=200, k=k, w1_std=1e-9, w2_std=w2_std)

    weight = np.abs(draw(0.0)[1].w2[0]).sum()
    assert 25.0 < weight < 35.0
    rows, model = draw(sign * allowance(k, weight) / 2.0)
    spy["predict"], spy["cascade_rows"] = 0, []
    predicted = mlp._screened_predictions([model], rows.inputs)[0]
    assert np.all(predicted == (sign > 0)) and np.array_equal(predicted, rows.labels)
    assert spy["predict"] == 0 and spy["cascade_rows"] == [200]


def sigmoid32_error():
    """max |sigma32(z) - sigma(z)| over float32 z: every multiple of 2^-16
    in [-64, 64], +-0, the tails out to +-inf and a sweep of the
    subnormals, against the float64 sigmoid."""
    tails = np.ldexp(np.arange(16, 32) / 16.0, np.arange(6, 128)[:, None]).ravel()
    subnormals = np.arange(1, 2**23, 997, dtype=np.uint32).view(np.float32)
    edges = [0.0, np.finfo(np.float32).max, np.inf, np.finfo(np.float32).tiny, 2.0**-149]
    extra = np.concatenate([tails, subnormals, edges]).astype(np.float32)
    grid = (np.arange(-(2**22), 2**22 + 1) * 2.0**-16).astype(np.float32)
    error = 0.0
    for z in [*np.array_split(grid, 16), extra, -extra]:
        got = mlp._sigmoid32(z.copy()).astype(np.float64)
        error = max(error, float(np.max(np.abs(got - sigmoid(z.astype(np.float64))))))
    return error


def found_simd():
    """The SIMD targets numpy's dispatch found on this host, or None when
    this numpy does not report them."""
    try:
        return np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except TypeError:  # numpy before 1.26 prints its configuration only
        return None


def test_sigmoid32_is_within_its_assumed_error():
    # the float64 sigmoid is itself within 2^-46 of sigma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigmoid32_error() + 2.0**-46 <= mlp._SIGMOID32_ERROR


def test_sigmoid32_is_within_its_assumed_error_without_avx512():
    """numpy's float32 tanh has a kernel per SIMD target: the check again
    with the AVX-512 targets disabled, on the next kernel down."""
    avx512 = [t for t in found_simd() or () if "AVX512" in t or t == "X86_V4"]
    if not avx512:
        pytest.skip("numpy's dispatch found no AVX-512 target on this host")
    here = Path(__file__).resolve().parent
    code = "import json, test_screen; print(json.dumps([test_screen.found_simd(), test_screen.sigmoid32_error()]))"
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(avx512),
        PYTHONPATH=os.pathsep.join([str(here), str(Path(mlp.__file__).resolve().parents[1])]),
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    found, error = json.loads(run.stdout.splitlines()[-1])
    assert not set(found) & set(avx512)
    assert error + 2.0**-46 <= mlp._SIGMOID32_ERROR


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
        lambda model, x: model.w2.__setitem__((0, 0), 1e39),  # W2 beyond float32
        lambda model, x: model.b.__setitem__(0, -1e39),  # b beyond float32
        lambda model, x: model.c.__setitem__(0, 1e39),  # c beyond float32
    ],
    ids=[
        "w1-beyond-float32",
        "product-overflow",
        "nan-logit",
        "input-beyond-float32",
        "w2-beyond-float32",
        "b-beyond-float32",
        "c-beyond-float32",
    ],
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


def overflowing_bias_add(model):
    # a'_0 about 1e37 plus b_0 = 3.4e38 passes the float32 range; W2_0 = 0
    # keeps it out of the bound
    model.w1[0] = 1e35
    model.b[0] = 3.4e38
    model.w2[:, 0] = 0.0


@pytest.mark.parametrize(
    "change",
    [
        lambda model: model.w2.__setitem__((slice(None), slice(None, None, 2)), 1e-40),
        lambda model: (model.b.__setitem__(slice(None, None, 2), -1e-40), model.c.__setitem__(0, 1e-40)),
        overflowing_bias_add,
    ],
    ids=["subnormal-w2", "subnormal-b-and-c", "bias-add-overflow"],
)
def test_float32_underflow_and_overflow_in_the_screen_keep_predict(spy, change):
    """Entries that are subnormal in float32 (1e-40) and a float32 bias add
    that overflows to inf are screened, not sent to predict, and decide as
    predict does, without a floating-point warning."""
    rng = np.random.default_rng(9)
    x = image_like(rng, 500)
    model = random_model(rng, 8, 1)
    change(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = mlp.predict(model, x)
        spy["predict"] = 0
        assert np.array_equal(mlp._screened_predictions([model], x)[0], expected)
    assert spy["predict"] == 0


def glyphs(rng, rows):
    """Rings (label 0) and vertical strokes (label 1) on 28 x 28 pixels,
    jittered in position, size and width, with noise on the ink and a
    background of 0: digit-like images that backprop learns in a few
    steps."""
    labels = rng.integers(0, 2, size=rows)
    yy, xx = np.mgrid[0:28, 0:28] - 13.5
    cy, cx, size, width = (rng.uniform(lo, hi, (rows, 1, 1)) for lo, hi in ((-3, 3), (-3, 3), (5, 9), (1, 1.6)))
    ring = np.hypot(yy - cy, xx - cx) - size
    stroke = np.hypot(xx - cx, np.maximum(np.abs(yy - cy) - size, 0.0))
    ink = np.exp(-np.where(labels[:, None, None] == 0, ring, stroke) ** 2 / (2.0 * width**2))
    x = np.clip(ink * (1.0 + rng.normal(0.0, 0.3, ink.shape)), 0.0, 1.0)
    return Rows(x.reshape(rows, WIDTH), labels.astype(np.uint8)[:, None])


def test_few_rows_go_to_the_cascade_while_training(spy):
    """A bound that is sound but too loose keeps every decision and loses
    the speed: after the first step, at most 1% of the test rows may need
    the float64 cascade. Here the most is 14 of 2000 (step 3); with the
    bound 4 times larger it is 51."""
    rng = np.random.default_rng(1)
    train, test = glyphs(rng, 20), glyphs(rng, 2000)
    model = initial_model(1, WIDTH, 32, INIT_STD)
    snapshots = []
    fit([(model, backprop_gradient)], train, TrainOptions(steps=20, seed=1), lambda step: snapshots.append(model.copy()))
    spy["cascade_rows"], spy["cascade_models"] = [], []
    accuracies = mlp.accuracies(snapshots, test)
    assert accuracies[-1] > 0.9
    cascade = dict(zip(map(id, spy["cascade_models"]), spy["cascade_rows"]))
    shares = [cascade.get(id(snapshot), 0) / len(test) for snapshot in snapshots]
    assert max(shares[1:]) <= 0.01, shares
    for snapshot, accuracy in zip(snapshots, accuracies):
        assert accuracy == mlp.exact_match(mlp.predict(snapshot, test.inputs), test.labels)


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
