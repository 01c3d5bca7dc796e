"""Forward pass, cross-entropy, backpropagation, and ADAM training."""

import math

import numpy as np
import pytest

from ebmlp.core import rng_from_seed
from ebmlp.data import synthetic_task
from ebmlp.mlp import (
    accuracy,
    cross_entropy,
    forward,
    grad_backprop,
    mean_cross_entropy,
    predict,
)
from ebmlp.models import Model
from ebmlp.training import train_mlp, TrainOptions


class TestForward:
    def test_zero_model_outputs_half(self):
        model = Model.zeros(3, 2, 2)
        np.testing.assert_allclose(forward(model, np.zeros(3)), 0.5, atol=1e-15)
        np.testing.assert_allclose(forward(model, np.ones(3)), 0.5, atol=1e-15)

    def test_hand_composition(self):
        # W1 x + b = ln 3 gives h = 0.75; 2 * 0.75 - 1.5 = 0 gives z = 0.5
        model = Model(
            np.array([[math.log(3.0)]]), np.array([[2.0]]), np.zeros(1), np.array([-1.5])
        )
        z, h = forward(model, np.array([1.0]), return_hidden=True)
        assert math.isclose(float(h[0]), 0.75, rel_tol=1e-14)
        assert math.isclose(float(z[0]), 0.5, rel_tol=1e-14)

    def test_batch_matches_single(self, make_model):
        model = make_model(n=4, k=3, m=2, seed=1)
        xs = rng_from_seed(2).random((5, 4))
        batch = forward(model, xs)
        for xi, row in zip(xs, batch):
            np.testing.assert_allclose(forward(model, xi), row, atol=1e-15)

    def test_outputs_strictly_inside_unit_interval(self, make_model):
        model = make_model(n=3, k=2, m=1, seed=3, std=5.0)
        z = forward(model, rng_from_seed(4).random((20, 3)))
        assert np.all(z > 0.0) and np.all(z < 1.0)

    def test_feature_mismatch_rejected(self, make_model):
        model = make_model(n=3)
        with pytest.raises(ValueError, match="features"):
            forward(model, np.zeros(5))

    def test_dead_hidden_unit_is_inert(self, make_model):
        # appending a hidden unit with zero weights must not move the output
        model = make_model(n=3, k=2, m=1, seed=5)
        wider = Model(
            np.vstack([model.w1, np.zeros((1, 3))]),
            np.hstack([model.w2, np.full((1, 1), 7.0)]),
            np.concatenate([model.b, [-50.0]]),
            model.c.copy(),
        )
        xs = rng_from_seed(6).random((4, 3))
        np.testing.assert_allclose(forward(wider, xs), forward(model, xs), atol=1e-12)


class TestCrossEntropy:
    def test_hand_values(self):
        assert math.isclose(cross_entropy(np.array([1.0]), np.array([0.5])), math.log(2.0), rel_tol=1e-14)
        assert math.isclose(cross_entropy(np.array([0.0]), np.array([0.75])), math.log(4.0), rel_tol=1e-14)
        assert math.isclose(cross_entropy(np.array([1.0]), np.array([0.25])), math.log(4.0), rel_tol=1e-14)

    def test_perfect_prediction_clamped_near_zero(self):
        loss = cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert 0.0 <= loss < 1e-11

    def test_confident_mistake_clamped_finite(self):
        loss = cross_entropy(np.array([1.0]), np.array([0.0]))
        assert math.isclose(loss, -math.log(1e-12), rel_tol=1e-6)

    def test_batch_mean_and_row_sum(self):
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        z = np.array([[0.5, 0.5], [0.5, 0.5]])
        # each row sums two ln2 terms; mean over rows keeps 2 ln2
        assert math.isclose(cross_entropy(y, z), 2 * math.log(2.0), rel_tol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cross_entropy(np.zeros(2), np.zeros(3))

    def test_mean_cross_entropy_consistent(self, make_model):
        model = make_model(n=3, k=2, m=1, seed=7)
        xs = rng_from_seed(8).random((6, 3))
        labels = (rng_from_seed(9).random((6, 1)) < 0.5).astype(float)
        direct = cross_entropy(labels, np.atleast_2d(forward(model, xs)))
        assert math.isclose(mean_cross_entropy(model, xs, labels), direct, rel_tol=1e-14)


class TestBackprop:
    def test_zero_model_single_example_hand_value(self):
        # z = 0.5, h = 0.5, y = 1: d = -0.5, dW2 = d * h = -0.25, dc = -0.5
        model = Model.zeros(2, 3, 1)
        g = grad_backprop(model, (np.array([[0.4, 0.6]]), np.array([[1.0]])))
        np.testing.assert_allclose(g.dw2, -0.25, atol=1e-15)
        np.testing.assert_allclose(g.dc, -0.5, atol=1e-15)
        # d @ W2 = 0 at zero weights, so the hidden blocks vanish
        assert float(np.max(np.abs(g.dw1))) == 0.0
        assert float(np.max(np.abs(g.db))) == 0.0

    def test_saturated_correct_outputs_give_tiny_gradient(self):
        model = Model(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros(1), np.array([50.0]))
        g = grad_backprop(model, (np.array([[0.1, 0.9]]), np.array([[1.0]])))
        assert g.max_abs() < 1e-15

    def test_matches_finite_differences(self, make_model):
        h = 1e-5
        for seed in range(10):
            model = make_model(n=4, k=3, m=2, seed=100 + seed)
            rng = rng_from_seed(200 + seed)
            x = rng.random((3, 4))
            y = (rng.random((3, 2)) < 0.5).astype(float)
            g = grad_backprop(model, (x, y)).as_param_dict()
            for name, array in model.params().items():
                flat = array.reshape(-1)
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    up = mean_cross_entropy(model, x, y)
                    flat[idx] = keep - h
                    down = mean_cross_entropy(model, x, y)
                    flat[idx] = keep
                    fd = (up - down) / (2 * h)
                    got = g[name].reshape(-1)[idx]
                    assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd)), (seed, name, idx, got, fd)

    def test_small_descent_steps_reduce_loss(self, make_model):
        # the gradient is a descent direction: plain GD with a small step
        # must decrease the loss at every iteration
        model = make_model(n=3, k=2, m=1, seed=300)
        rng = rng_from_seed(301)
        x = rng.random((8, 3))
        y = (rng.random((8, 1)) < 0.5).astype(float)
        losses = [mean_cross_entropy(model, x, y)]
        for _ in range(20):
            g = grad_backprop(model, (x, y))
            params = model.params()
            model.set_params(
                {name: params[name] - 1e-2 * g.as_param_dict()[name] for name in params}
            )
            losses.append(mean_cross_entropy(model, x, y))
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestPredict:
    def test_threshold_and_tie(self):
        model = Model.zeros(2, 2, 1)
        # forward is exactly 0.5: not strictly greater, so class 0
        assert int(predict(model, np.zeros(2))[0, 0]) == 0
        lean = Model(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros(2), np.array([0.1]))
        assert int(predict(lean, np.zeros(2))[0, 0]) == 1

    def test_zero_model_accuracy_on_balanced_set(self):
        model = Model.zeros(2, 2, 1)
        data = synthetic_task(2, 30, seed=10)
        frac0 = float(np.mean(data.labels == 0))
        assert math.isclose(accuracy(model, data), frac0, rel_tol=1e-12)


class TestTrainMlp:
    def test_zero_lr_leaves_params(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=11)
        before = {k: v.copy() for k, v in model.params().items()}
        data = synthetic_task(2, 10, seed=12)
        train_mlp(model, data, TrainOptions(steps=3, batch_size=5, lr=0.0, seed=0))
        for name, arr in model.params().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_seeded_run_is_bitwise_reproducible(self):
        data = synthetic_task(3, 20, seed=13)
        results = []
        for _ in range(2):
            model = Model.init_gaussian(3, 2, 1, rng_from_seed(14))
            trace = train_mlp(model, data, TrainOptions(steps=5, batch_size=5, lr=0.1, seed=4), test_set=data)
            results.append(
                (tuple(trace.train_loss), {k: v.copy() for k, v in model.params().items()})
            )
        assert results[0][0] == results[1][0]
        for name in results[0][1]:
            np.testing.assert_array_equal(results[0][1][name], results[1][1][name])

    def test_separable_task_reaches_full_accuracy(self):
        # 2 inputs, 40 samples, full-batch updates: the task is separable
        # with a margin, so training should fit it completely
        data = synthetic_task(2, 40, seed=15)
        model = Model.init_gaussian(2, 4, 1, rng_from_seed(16))
        train_mlp(model, data, TrainOptions(steps=50, batch_size=40, lr=0.1, seed=5))
        assert accuracy(model, data) == 1.0

    def test_trace_layout(self):
        data = synthetic_task(2, 10, seed=17)
        model = Model.zeros(2, 2, 1)
        trace = train_mlp(model, data, TrainOptions(steps=2, batch_size=5, lr=0.1, seed=6), test_set=data)
        assert trace.steps == [0, 1, 2]
        assert math.isclose(trace.train_loss[0], math.log(2.0), rel_tol=1e-12)
        assert all(a is not None for a in trace.test_accuracy)
