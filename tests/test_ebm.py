"""Energy, exact conditionals, phase statistics, and likelihood training.

The oracle here enumerates joint states with plain Python loops and
math.exp, independent of the package's vectorized paths, so agreement is
evidence rather than tautology.
"""

import itertools
import math

import numpy as np
import pytest

from ebmlp.core import rng_from_seed, sigmoid
from ebmlp.data import synthetic_task
from ebmlp.ebm import (
    ENUMERATION_BOUND,
    accuracy,
    conditional_log_likelihood,
    energy,
    enumerate_states,
    exact_conditional,
    exact_negative_phase,
    grad_conditional_ll,
    log_conditional_y,
    mean_log_likelihood,
    negative_phase,
    positive_phase,
    predict,
    state_energies,
    train_ebm,
)
from ebmlp.models import GradientSet, Model
from ebmlp.samplers import ExactSampler, GibbsSampler, SamplerConfig, SimAnnealSampler
from ebmlp.training import TrainOptions


def oracle_energy(model, x, k_bits, y_bits):
    """Scalar-loop E(x,k,y) = k.W1x + y.W2k + b.k + c.y."""
    e = 0.0
    for j in range(model.n_hidden):
        acc = 0.0
        for i in range(model.n_visible):
            acc += float(model.w1[j, i]) * float(x[i])
        e += k_bits[j] * (acc + float(model.b[j]))
    for i in range(model.n_outputs):
        acc = 0.0
        for j in range(model.n_hidden):
            acc += float(model.w2[i, j]) * k_bits[j]
        e += y_bits[i] * acc + float(model.c[i]) * y_bits[i]
    return e


def oracle_conditional(model, x):
    """{(k bits, y bits): P(k,y|x)} with probability proportional to exp(E)."""
    table = {}
    for k_bits in itertools.product((0, 1), repeat=model.n_hidden):
        for y_bits in itertools.product((0, 1), repeat=model.n_outputs):
            table[(k_bits, y_bits)] = math.exp(oracle_energy(model, x, k_bits, y_bits))
    z = sum(table.values())
    return {state: value / z for state, value in table.items()}


def oracle_y_marginal(model, x):
    """{y bits: P(y|x)} by summing the joint oracle over k."""
    marginal = {}
    for (_, y_bits), p in oracle_conditional(model, x).items():
        marginal[y_bits] = marginal.get(y_bits, 0.0) + p
    return marginal


def oracle_phase(model, x, weights_by_state):
    """Expected gradient statistics under an explicit joint distribution."""
    dw1 = np.zeros_like(model.w1)
    dw2 = np.zeros_like(model.w2)
    db = np.zeros_like(model.b)
    dc = np.zeros_like(model.c)
    for (k_bits, y_bits), w in weights_by_state.items():
        for j, kj in enumerate(k_bits):
            db[j] += w * kj
            for i in range(model.n_visible):
                dw1[j, i] += w * kj * float(x[i])
        for i, yi in enumerate(y_bits):
            dc[i] += w * yi
            for j, kj in enumerate(k_bits):
                dw2[i, j] += w * yi * kj
    return dw1, dw2, db, dc


def oracle_positive_phase(model, x, y):
    """Clamped-phase statistics: k distributed as P(k|x,y)."""
    joint = {}
    y_bits = tuple(int(v) for v in y)
    for k_bits in itertools.product((0, 1), repeat=model.n_hidden):
        joint[(k_bits, y_bits)] = math.exp(oracle_energy(model, x, k_bits, y_bits))
    z = sum(joint.values())
    return oracle_phase(model, x, {s: v / z for s, v in joint.items()})


class TestEnergy:
    def test_zero_everything(self, make_model):
        model = Model.zeros(3, 2, 1)
        assert energy(model, np.zeros(3), np.zeros(2), np.zeros(1)) == 0.0

    def test_bias_only_terms(self):
        model = Model(np.zeros((2, 3)), np.zeros((1, 2)), np.array([0.3, -0.2]), np.array([0.7]))
        e = energy(model, np.ones(3), np.array([1.0, 1.0]), np.array([1.0]))
        assert math.isclose(e, 0.3 - 0.2 + 0.7, rel_tol=1e-15)

    def test_matches_scalar_oracle(self, make_model):
        model = make_model(n=3, k=2, m=2, seed=5)
        rng = rng_from_seed(6)
        x = rng.random(3)
        for k_bits in itertools.product((0, 1), repeat=2):
            for y_bits in itertools.product((0, 1), repeat=2):
                got = energy(model, x, np.array(k_bits, float), np.array(y_bits, float))
                assert math.isclose(got, oracle_energy(model, x, k_bits, y_bits), abs_tol=1e-12)

    def test_shape_mismatch_rejected(self, make_model):
        model = make_model(n=3, k=2, m=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            energy(model, np.zeros(4), np.zeros(2), np.zeros(1))

    def test_non_binary_rejected(self, make_model):
        model = make_model(n=3, k=2, m=1)
        with pytest.raises(ValueError):
            energy(model, np.zeros(3), np.array([0.5, 0.0]), np.zeros(1))


class TestEnumeration:
    def test_lsb_first_order(self):
        states = enumerate_states(3)
        assert states.shape == (8, 3)
        np.testing.assert_array_equal(states[1], [1, 0, 0])
        np.testing.assert_array_equal(states[4], [0, 0, 1])
        np.testing.assert_array_equal(states[6], [0, 1, 1])

    def test_all_distinct(self):
        states = enumerate_states(4)
        assert len({tuple(r) for r in states}) == 16

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="enumeration bound exceeded"):
            enumerate_states(ENUMERATION_BOUND + 1)

    def test_state_energies_match_energy(self, make_model):
        model = make_model(n=2, k=2, m=2, seed=8)
        x = rng_from_seed(9).random(2)
        states = enumerate_states(4)
        vec = state_energies(model, x, states)
        for row, e in zip(states, vec):
            k, y = row[:2].astype(float), row[2:].astype(float)
            assert math.isclose(float(e), energy(model, x, k, y), abs_tol=1e-12)


class TestExactConditional:
    def test_uniform_at_zero_model(self):
        model = Model.zeros(3, 2, 2)
        cond = exact_conditional(model, np.zeros(3))
        np.testing.assert_allclose(cond.probs, 1.0 / 16.0, atol=1e-15)

    def test_sums_to_one(self, make_model):
        model = make_model(n=3, k=3, m=2, seed=10)
        cond = exact_conditional(model, rng_from_seed(11).random(3))
        assert math.isclose(float(cond.probs.sum()), 1.0, abs_tol=1e-12)

    def test_matches_oracle(self, make_model):
        model = make_model(n=3, k=2, m=2, seed=12)
        x = rng_from_seed(13).random(3)
        oracle = oracle_conditional(model, x)
        cond = exact_conditional(model, x)
        for row, p in zip(cond.states, cond.probs):
            k_bits = tuple(int(v) for v in row[:2])
            y_bits = tuple(int(v) for v in row[2:])
            assert math.isclose(float(p), oracle[(k_bits, y_bits)], abs_tol=1e-13)

    def test_output_bias_marginal(self):
        # c = [10] with no couplings: P(y=1|x) = sigmoid(10)
        model = Model(np.zeros((2, 3)), np.zeros((1, 2)), np.zeros(2), np.array([10.0]))
        _, probs = exact_conditional(model, np.zeros(3)).y_marginal()
        assert math.isclose(float(probs[1]), 0.9999546021312976, rel_tol=1e-14)

    def test_marginal_two_paths_agree(self, make_model):
        # summing the joint over k equals the closed-form hidden marginalization
        model = make_model(n=3, k=3, m=2, seed=14)
        x = rng_from_seed(15).random(3)
        _, via_joint = exact_conditional(model, x).y_marginal()
        _, logp = log_conditional_y(model, x)
        np.testing.assert_allclose(via_joint, np.exp(logp), atol=1e-12)

    def test_marginal_matches_oracle(self, make_model):
        model = make_model(n=2, k=2, m=2, seed=16)
        x = rng_from_seed(17).random(2)
        oracle = oracle_y_marginal(model, x)
        y_states, probs = exact_conditional(model, x).y_marginal()
        for row, p in zip(y_states, probs):
            assert math.isclose(float(p), oracle[tuple(int(v) for v in row)], abs_tol=1e-13)


class TestConditionalLikelihood:
    def test_zero_model_is_uniform(self):
        model = Model.zeros(3, 2, 2)
        ll = conditional_log_likelihood(model, np.zeros(3), np.array([1.0, 0.0]))
        assert math.isclose(ll, math.log(0.25), rel_tol=1e-14)

    def test_never_positive(self, make_model):
        model = make_model(n=3, k=2, m=1, seed=18)
        rng = rng_from_seed(19)
        for _ in range(10):
            x = rng.random(3)
            y = (rng.random(1) < 0.5).astype(float)
            assert conditional_log_likelihood(model, x, y) <= 0.0

    def test_matches_oracle(self, make_model):
        model = make_model(n=3, k=2, m=2, seed=20)
        x = rng_from_seed(21).random(3)
        oracle = oracle_y_marginal(model, x)
        for y_bits in itertools.product((0, 1), repeat=2):
            got = conditional_log_likelihood(model, x, np.array(y_bits, float))
            assert math.isclose(got, math.log(oracle[y_bits]), rel_tol=1e-12)

    def test_large_hidden_width_still_exact(self):
        # closed form marginalizes K=30 hidden units without enumerating them
        rng = rng_from_seed(22)
        model = Model(
            rng.normal(0, 0.1, (30, 4)),
            rng.normal(0, 0.1, (1, 30)),
            rng.normal(0, 0.1, 30),
            rng.normal(0, 0.1, 1),
        )
        x = rng.random(4)
        _, logp = log_conditional_y(model, x)
        assert math.isclose(float(np.exp(logp).sum()), 1.0, abs_tol=1e-12)

    def test_predict_and_accuracy(self, make_model):
        model = make_model(n=3, k=2, m=1, seed=23)
        rng = rng_from_seed(24)
        xs = rng.random((6, 3))
        preds = predict(model, xs)
        for xi, pi in zip(xs, preds):
            _, logp = log_conditional_y(model, xi)
            assert int(pi[0]) == int(np.argmax(logp))

    def test_predict_tie_breaks_low(self):
        model = Model.zeros(2, 2, 1)
        assert int(predict(model, np.zeros(2))[0, 0]) == 0

    def test_mean_log_likelihood(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=25)
        data = synthetic_task(2, 12, seed=26)
        per_example = [
            conditional_log_likelihood(model, x, np.array([float(lab)]))
            for x, lab in zip(data.inputs, data.labels)
        ]
        assert math.isclose(
            mean_log_likelihood(model, data), sum(per_example) / len(per_example), rel_tol=1e-12
        )


class TestPhases:
    def test_positive_zero_model_hand_values(self):
        model = Model.zeros(2, 2, 1)
        x = np.array([[0.2, 0.8], [0.4, 0.6]])
        y = np.array([[1.0], [0.0]])
        g = positive_phase(model, (x, y))
        # sigma(0) = 0.5 everywhere, so dW1 = 0.5 * mean(x), db = 0.5
        np.testing.assert_allclose(g.dw1, 0.5 * x.mean(axis=0)[None, :].repeat(2, axis=0), atol=1e-15)
        np.testing.assert_allclose(g.db, 0.5, atol=1e-15)
        np.testing.assert_allclose(g.dc, 0.5, atol=1e-15)
        np.testing.assert_allclose(g.dw2, 0.25, atol=1e-15)

    def test_positive_matches_oracle(self, make_model):
        model = make_model(n=3, k=2, m=2, seed=27)
        rng = rng_from_seed(28)
        x = rng.random((4, 3))
        y = (rng.random((4, 2)) < 0.5).astype(float)
        g = positive_phase(model, (x, y))
        acc = [np.zeros_like(model.w1), np.zeros_like(model.w2), np.zeros_like(model.b), np.zeros_like(model.c)]
        for xi, yi in zip(x, y):
            for slot, term in zip(acc, oracle_positive_phase(model, xi, yi)):
                slot += term
        for got, want in zip((g.dw1, g.dw2, g.db, g.dc), acc):
            np.testing.assert_allclose(got, want / 4.0, atol=1e-12)

    def test_negative_matches_oracle(self, make_model):
        model = make_model(n=3, k=2, m=2, seed=29)
        rng = rng_from_seed(30)
        x = rng.random((3, 3))
        g = exact_negative_phase(model, (x, np.zeros((3, 2))))
        acc = [np.zeros_like(model.w1), np.zeros_like(model.w2), np.zeros_like(model.b), np.zeros_like(model.c)]
        for xi in x:
            for slot, term in zip(acc, oracle_phase(model, xi, oracle_conditional(model, xi))):
                slot += term
        for got, want in zip((g.dw1, g.dw2, g.db, g.dc), acc):
            np.testing.assert_allclose(got, want / 3.0, atol=1e-12)

    def test_phases_cancel_on_balanced_batch_at_zero(self):
        # at zero parameters with equal label counts, every gradient block vanishes
        model = Model.zeros(3, 2, 1)
        rng = rng_from_seed(31)
        x = rng.random((6, 3))
        y = np.array([[1.0], [0.0], [1.0], [0.0], [1.0], [0.0]])
        g = grad_conditional_ll(model, (x, y))
        assert g.max_abs() < 1e-14

    def test_w1_block_cancels_at_zero_any_batch(self):
        # hidden statistics are label-independent at zero parameters
        model = Model.zeros(3, 2, 1)
        rng = rng_from_seed(32)
        x = rng.random((5, 3))
        y = np.ones((5, 1))
        g = grad_conditional_ll(model, (x, y))
        assert float(np.max(np.abs(g.dw1))) < 1e-14
        assert float(np.max(np.abs(g.db))) < 1e-14
        assert float(np.max(np.abs(g.dc))) > 0.1


class TestGradientAgainstFiniteDifferences:
    @staticmethod
    def batch_cll(model, x, y):
        return sum(
            conditional_log_likelihood(model, xi, yi) for xi, yi in zip(x, y)
        ) / x.shape[0]

    def test_exact_gradient_fd(self, make_model):
        h = 1e-5
        for seed in range(5):
            model = make_model(n=4, k=3, m=2, seed=40 + seed)
            rng = rng_from_seed(50 + seed)
            x = rng.random((3, 4))
            y = (rng.random((3, 2)) < 0.5).astype(float)
            g = grad_conditional_ll(model, (x, y)).as_param_dict()
            for name, array in model.params().items():
                flat = array.reshape(-1)
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    up = self.batch_cll(model, x, y)
                    flat[idx] = keep - h
                    down = self.batch_cll(model, x, y)
                    flat[idx] = keep
                    fd = (up - down) / (2 * h)
                    got = g[name].reshape(-1)[idx]
                    assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd)), (name, idx, got, fd)


class TestSampledNegativePhase:
    def test_exact_sampler_converges(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=60)
        rng = rng_from_seed(61)
        x = rng.random((2, 2))
        y = (rng.random((2, 1)) < 0.5).astype(float)
        sampler = ExactSampler(SamplerConfig(reads=200000, seed=7))
        exact = exact_negative_phase(model, (x, y))
        est = negative_phase(model, (x, y), sampler)
        assert (est - exact).max_abs() < 0.01

    def test_sampled_hidden_variant_converges(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=62)
        rng = rng_from_seed(63)
        x = rng.random((2, 2))
        y = (rng.random((2, 1)) < 0.5).astype(float)
        sampler = ExactSampler(SamplerConfig(reads=200000, seed=8))
        exact = exact_negative_phase(model, (x, y))
        est = negative_phase(model, (x, y), sampler, use_sampled_hidden=True)
        assert (est - exact).max_abs() < 0.01

    def test_determinism_per_seed(self, make_model):
        model = make_model(n=2, k=1, m=1, seed=64)
        x = np.array([[0.3, 0.7]])
        y = np.array([[1.0]])
        sampler = ExactSampler(SamplerConfig(reads=50, seed=9))
        a = negative_phase(model, (x, y), sampler, base_seed=123)
        b = negative_phase(model, (x, y), sampler, base_seed=123)
        assert (a - b).max_abs() == 0.0
        c = negative_phase(model, (x, y), sampler, base_seed=124)
        assert (a - c).max_abs() > 0.0


def aggregated_negative_phase(model, x, raw, use_sampled_hidden):
    """Reference negative phase: each example's raw reads collapsed with
    np.unique into unique assignments (or unique y patterns) with their
    empirical weights."""
    kk = model.n_hidden
    terms = []
    for xi, reads in zip(x, raw):
        if use_sampled_hidden:
            rows, counts = np.unique(reads, axis=0, return_counts=True)
            weights = counts / reads.shape[0]
            k_bits = rows[:, :kk].astype(float)
            y_bits = rows[:, kk:].astype(float)
            s_bar = weights @ k_bits
            terms.append((np.outer(s_bar, xi), (y_bits * weights[:, None]).T @ k_bits, s_bar, weights @ y_bits))
        else:
            patterns, counts = np.unique(reads[:, kk:], axis=0, return_counts=True)
            patterns, weights = patterns.astype(float), counts / reads.shape[0]
            s = sigmoid(model.w1 @ xi + model.b + patterns @ model.w2)
            s_bar = weights @ s
            terms.append((np.outer(s_bar, xi), (patterns * weights[:, None]).T @ s, s_bar, weights @ patterns))
    return GradientSet(*(np.mean(blocks, axis=0) for blocks in zip(*terms)))


class TestNegativePhaseFromRawReads:
    @pytest.mark.parametrize("use_sampled_hidden", [False, True])
    @pytest.mark.parametrize("sampler_cls", [GibbsSampler, SimAnnealSampler])
    def test_matches_aggregated_reference(self, make_model, sampler_cls, use_sampled_hidden):
        model = make_model(n=3, k=3, m=2, seed=70)
        rng = rng_from_seed(71)
        x = rng.random((4, 3))
        y = (rng.random((4, 2)) < 0.5).astype(float)
        sampler = sampler_cls(SamplerConfig(reads=400, burn_in=10, anneal_sweeps=20, beta_eff=2.0, seed=5))
        got = negative_phase(model, (x, y), sampler, base_seed=99, use_sampled_hidden=use_sampled_hidden)
        raw = sampler.sample_batch(model, x, seed=99)
        ref = aggregated_negative_phase(model, x, raw, use_sampled_hidden)
        for name, value in got.as_param_dict().items():
            np.testing.assert_allclose(value, ref.as_param_dict()[name], rtol=0, atol=1e-12, err_msg=name)


class TestTrainEbm:
    def test_zero_lr_leaves_params(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=70)
        before = {k: v.copy() for k, v in model.params().items()}
        data = synthetic_task(2, 10, seed=71)
        train_ebm(model, data, None, TrainOptions(steps=3, batch_size=5, lr=0.0, seed=0))
        for name, arr in model.params().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_seeded_run_is_bitwise_reproducible(self):
        data = synthetic_task(3, 20, seed=72)
        traces = []
        finals = []
        for _ in range(2):
            rng = rng_from_seed(73)
            model = Model.init_gaussian(3, 2, 1, rng)
            trace = train_ebm(model, data, None, TrainOptions(steps=5, batch_size=5, lr=0.1, seed=4), test_set=data)
            traces.append((trace.steps, trace.train_loss, trace.ebm_loglik, trace.test_accuracy))
            finals.append({k: v.copy() for k, v in model.params().items()})
        assert traces[0] == traces[1]
        for name in finals[0]:
            np.testing.assert_array_equal(finals[0][name], finals[1][name])

    def test_sampler_seed_sets_the_draws(self):
        # SamplerConfig.seed is the only sampler seed: runs that differ in
        # nothing else draw different negative phases
        data = synthetic_task(3, 20, seed=77)
        logliks = []
        for seed in (1, 1, 2):
            model = Model.init_gaussian(3, 2, 1, rng_from_seed(78))
            sampler = GibbsSampler(SamplerConfig(reads=20, burn_in=5, seed=seed))
            trace = train_ebm(model, data, sampler, TrainOptions(steps=3, batch_size=5, lr=0.1, seed=4))
            logliks.append(trace.ebm_loglik)
        assert logliks[0] == logliks[1]
        assert logliks[0] != logliks[2]

    def test_loglik_improves_and_weights_stay_small(self):
        data = synthetic_task(3, 20, seed=74)
        rng = rng_from_seed(75)
        model = Model.init_gaussian(3, 4, 1, rng)
        trace = train_ebm(model, data, None, TrainOptions(steps=20, batch_size=5, lr=0.1, seed=5), test_set=data)
        assert trace.ebm_loglik[-1] > trace.ebm_loglik[0]
        # ADAM moves each weight by at most ~lr per step
        assert max(float(np.max(np.abs(a))) for a in model.params().values()) < 0.05 + 20 * 0.1 + 0.05

    def test_trace_row_zero_is_pretraining(self):
        data = synthetic_task(2, 10, seed=76)
        model = Model.zeros(2, 2, 1)
        trace = train_ebm(model, data, None, TrainOptions(steps=2, batch_size=5, lr=0.1, seed=6), test_set=data)
        assert trace.steps[0] == 0
        assert math.isclose(trace.ebm_loglik[0], math.log(0.5), rel_tol=1e-12)
        assert len(trace.steps) == 3
