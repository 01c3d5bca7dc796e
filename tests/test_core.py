"""Activations, the ADAM update, and seed derivation."""

import math

import numpy as np
import pytest

from ebmlp.core import (
    AdamState,
    adam_update,
    derive_seed,
    logsumexp,
    rng_from_seed,
    sigmoid,
    softplus,
)


class TestSigmoid:
    def test_hand_values(self):
        assert sigmoid(0.0) == 0.5
        assert math.isclose(sigmoid(1.0), 1.0 / (1.0 + math.exp(-1.0)), rel_tol=1e-15)
        assert math.isclose(float(sigmoid(10.0)), 0.9999546021312976, rel_tol=1e-15)

    def test_symmetry(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)

    def test_overflow_safe_and_bounded(self):
        z = np.array([-1e4, -800.0, 800.0, 1e4])
        s = sigmoid(z)
        assert np.all(np.isfinite(s))
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert s[0] == 0.0 and s[-1] == 1.0

    def test_bitwise_equal_to_the_two_branch_form(self):
        # the single-division form against the np.where form it replaced
        def two_branch(z):
            z = np.asarray(z, dtype=np.float64)
            e = np.exp(-np.abs(z))
            return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        rng = np.random.default_rng(7)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 709.8, -745.2, 1600.0]
        z = np.concatenate([rng.normal(0.0, s, 20000) for s in (1e-300, 1e-8, 1.0, 10.0, 100.0, 800.0)] + [edges])
        assert np.array_equal(sigmoid(z).view(np.uint64), two_branch(z).view(np.uint64))
        assert np.array_equal(sigmoid(z.reshape(-1, 4)), two_branch(z.reshape(-1, 4)), equal_nan=True)

    def test_zero_d_input_gives_a_zero_d_array(self):
        s = sigmoid(2.0)
        assert isinstance(s, np.ndarray) and s.shape == () and s.dtype == np.float64
        assert sigmoid(np.float64(-2.0)).shape == ()


class TestSoftplus:
    def test_hand_values(self):
        assert math.isclose(float(softplus(0.0)), math.log(2.0), rel_tol=1e-15)
        assert math.isclose(float(softplus(1.0)), math.log(1 + math.e), rel_tol=1e-15)

    def test_large_arguments_linear(self):
        assert math.isclose(float(softplus(800.0)), 800.0, rel_tol=1e-12)
        assert float(softplus(-800.0)) == 0.0

    def test_derivative_is_sigmoid(self):
        z = np.linspace(-6, 6, 25)
        h = 1e-6
        fd = (softplus(z + h) - softplus(z - h)) / (2 * h)
        np.testing.assert_allclose(sigmoid(z), fd, atol=1e-9)


class TestLogsumexp:
    def test_hand_value(self):
        a = np.array([0.0, 0.0, 0.0, 0.0])
        assert math.isclose(logsumexp(a), math.log(4.0), rel_tol=1e-15)

    def test_matches_naive_in_safe_range(self):
        rng = rng_from_seed(7)
        a = rng.normal(size=(4, 5))
        naive = np.log(np.sum(np.exp(a)))
        assert math.isclose(logsumexp(a), naive, rel_tol=1e-12)
        np.testing.assert_allclose(
            logsumexp(a, axis=1), np.log(np.sum(np.exp(a), axis=1)), rtol=1e-12
        )

    def test_overflow_safe(self):
        a = np.array([1000.0, 1000.0])
        assert math.isclose(logsumexp(a), 1000.0 + math.log(2.0), rel_tol=1e-15)

    def test_axis_shape(self):
        a = np.zeros((3, 4))
        assert logsumexp(a, axis=0).shape == (4,)
        assert logsumexp(a, axis=1).shape == (3,)

    def test_axis_rows_equal_per_row_calls(self):
        # ebm.mean_log_likelihood reduces each row of its (examples, 2^M)
        # score matrix with axis=1; its traces stay byte-identical only if
        # that equals one scalar call per row bit for bit
        rng = rng_from_seed(8)
        for cols in (2, 4, 8):
            a = rng.normal(scale=5.0, size=(49, cols))
            np.testing.assert_array_equal(logsumexp(a, axis=1), [logsumexp(row) for row in a])


def adam_scalar_oracle(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, p0=0.0):
    """Textbook scalar recurrence, written independently of the package."""
    m = v = 0.0
    p = p0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


class TestAdam:
    def test_matches_scalar_oracle(self):
        rng = rng_from_seed(3)
        grads = rng.normal(size=12)
        params = {"w": np.array([0.5])}
        state = AdamState.for_params(params, lr=0.05)
        for g in grads:
            params = adam_update(state, params, {"w": np.array([g])})
        expected = adam_scalar_oracle(grads, lr=0.05, p0=0.5)
        assert math.isclose(float(params["w"][0]), expected, rel_tol=1e-14)

    def test_first_step_size_is_lr(self):
        # bias correction makes step 1 move by exactly lr * sign(g)
        params = {"w": np.zeros(3)}
        state = AdamState.for_params(params, lr=0.1)
        out = adam_update(state, params, {"w": np.array([4.0, -2.0, 1e-3])})
        np.testing.assert_allclose(out["w"], [-0.1, 0.1, -0.1], atol=1e-5)

    def test_descends_quadratic(self):
        params = {"w": np.array([3.0])}
        state = AdamState.for_params(params, lr=0.1)
        for _ in range(200):
            params = adam_update(state, params, {"w": 2.0 * params["w"]})
        assert abs(float(params["w"][0])) < 0.05

    def test_key_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.for_params(params, lr=0.1)
        with pytest.raises(ValueError, match="key mismatch"):
            adam_update(state, params, {"q": np.zeros(2)})

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.for_params(params, lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            adam_update(state, params, {"w": np.zeros(3)})

    def test_step_counter_advances(self):
        params = {"w": np.zeros(1)}
        state = AdamState.for_params(params, lr=0.1)
        adam_update(state, params, {"w": np.ones(1)})
        adam_update(state, params, {"w": np.ones(1)})
        assert state.step == 2


class TestSeeds:
    def test_rng_reproducible(self):
        a = rng_from_seed([5, 17]).random(4)
        b = rng_from_seed([5, 17]).random(4)
        np.testing.assert_array_equal(a, b)

    def test_rng_distinct_streams(self):
        a = rng_from_seed([5, 17]).random(4)
        b = rng_from_seed([5, 18]).random(4)
        assert not np.array_equal(a, b)

    def test_derive_seed_xor(self):
        assert derive_seed(0b1100, 0b1010) == 0b0110
        assert derive_seed(42, 0) == 42
        assert derive_seed(7, 7) == 0

    def test_derive_seed_distinct_per_index(self):
        base = 123456
        seeds = {derive_seed(base, i) for i in range(64)}
        assert len(seeds) == 64
