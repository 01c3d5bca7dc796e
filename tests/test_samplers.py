"""Sampler configuration, sample aggregation, and the three samplers'
agreement with the exact conditional.

The stationarity oracle assembles the block-update transition matrix with
plain sigmoid arithmetic and checks the exact conditional is its fixed
point, independent of any sampling noise.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

import ebmlp
from ebmlp._kernels import anneal_block, gibbs_block, gibbs_chain
from ebmlp.bqm import IsingModel
from ebmlp.core import rng_from_seed, sigmoid
from ebmlp.ebm import exact_conditional
from ebmlp.models import Model
from ebmlp.samplers import (
    ExactSampler,
    GibbsSampler,
    SamplerConfig,
    SampleSet,
    SimAnnealSampler,
    layer_coupling,
    make_sampler,
)


@pytest.fixture(params=["numpy"])
def kernels(request):
    """The kernels under test, by the name ebmlp.active_backend() reports
    and the benchmark records; the name also stays in these tests' ids."""
    assert ebmlp.active_backend() == request.param


def tv_distance(p, q):
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def dense_conditional(model, x):
    """Exact joint probabilities indexed LSB-first over (k, y) bits."""
    return exact_conditional(model, x).probs


class TestSamplerConfig:
    def test_defaults_valid(self):
        cfg = SamplerConfig()
        assert cfg.effective_beta_sim == cfg.beta_eff

    def test_beta_sim_override(self):
        cfg = SamplerConfig(beta_eff=16.0, beta_sim=4.0)
        assert cfg.effective_beta_sim == 4.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta_eff": 0.0},
            {"reads": 0},
            {"burn_in": -1},
            {"thin": 0},
            {"anneal_sweeps": 0},
            {"anneal_beta_start": 0.0},
            {"anneal_schedule": "quadratic"},
            {"beta_sim": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)

    def test_geometric_betas(self):
        cfg = SamplerConfig(beta_eff=16.0, anneal_beta_start=0.1, anneal_sweeps=50)
        betas = cfg.anneal_betas()
        assert betas.shape == (50,)
        assert math.isclose(betas[0], 0.1, rel_tol=1e-12)
        assert math.isclose(betas[-1], 16.0, rel_tol=1e-12)
        ratios = betas[1:] / betas[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_linear_betas(self):
        cfg = SamplerConfig(beta_eff=8.0, anneal_beta_start=2.0, anneal_sweeps=4, anneal_schedule="linear")
        np.testing.assert_allclose(cfg.anneal_betas(), [2.0, 4.0, 6.0, 8.0], atol=1e-12)


class TestSampleSet:
    def test_from_reads_aggregates(self):
        raw = np.array([[0, 1], [0, 1], [1, 1], [0, 0]], dtype=np.uint8)
        ss = SampleSet.from_reads(raw, n_hidden=1)
        assert ss.total_reads == 4
        assert int(ss.counts.sum()) == 4
        assert ss.assignments.shape[0] == 3
        row = np.flatnonzero(np.all(ss.assignments == [0, 1], axis=1))[0]
        assert int(ss.counts[row]) == 2

    def test_weights_sum_to_one(self):
        raw = (rng_from_seed(1).random((100, 3)) < 0.5).astype(np.uint8)
        ss = SampleSet.from_reads(raw, n_hidden=2)
        assert math.isclose(float(ss.weights().sum()), 1.0, abs_tol=1e-12)

    def test_y_distribution_marginalizes_hidden(self):
        raw = np.array([[0, 1], [1, 1], [0, 0], [1, 1]], dtype=np.uint8)
        ss = SampleSet.from_reads(raw, n_hidden=1)
        patterns, w = ss.y_distribution()
        assert patterns.shape[1] == 1
        got = {float(p[0]): float(wi) for p, wi in zip(patterns, w)}
        assert math.isclose(got[1.0], 0.75, abs_tol=1e-12)
        assert math.isclose(got[0.0], 0.25, abs_tol=1e-12)

    def test_empirical_probabilities_lsb_index(self):
        raw = np.array([[1, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        dense = SampleSet.from_reads(raw, n_hidden=1).empirical_probabilities(2)
        # bit 0 is least significant: [1,0] -> 1, [0,1] -> 2, [1,1] -> 3
        np.testing.assert_allclose(dense, [0.0, 0.5, 0.25, 0.25], atol=1e-12)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum to total_reads"):
            SampleSet(np.zeros((1, 2), dtype=np.uint8), np.array([3]), 4, 1)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            SampleSet(np.full((1, 2), 2, dtype=np.uint8), np.array([1]), 1, 1)

    def test_bad_hidden_width_rejected(self):
        with pytest.raises(ValueError, match="n_hidden"):
            SampleSet(np.zeros((1, 2), dtype=np.uint8), np.array([1]), 1, 5)


class TestStationarityOracle:
    def test_block_update_fixes_conditional(self, make_model):
        # transition: draw all k from P(k|y), then all y from P(y|k').
        # assembled with scalar sigmoid arithmetic, the exact conditional
        # must satisfy pi T = pi
        model = make_model(n=3, k=2, m=2, seed=11)
        x = rng_from_seed(12).random(3)
        a = model.w1 @ x + model.b
        kk, mm = 2, 2
        states = list(itertools.product((0, 1), repeat=kk + mm))

        def p_k_given_y(k_bits, y_bits):
            p = 1.0
            for j in range(kk):
                z = a[j] + sum(model.w2[i, j] * y_bits[i] for i in range(mm))
                pj = 1.0 / (1.0 + math.exp(-z))
                p *= pj if k_bits[j] else 1.0 - pj
            return p

        def p_y_given_k(y_bits, k_bits):
            p = 1.0
            for i in range(mm):
                z = model.c[i] + sum(model.w2[i, j] * k_bits[j] for j in range(kk))
                pi = 1.0 / (1.0 + math.exp(-z))
                p *= pi if y_bits[i] else 1.0 - pi
            return p

        t = np.zeros((len(states), len(states)))
        for row, s in enumerate(states):
            y_old = s[kk:]
            for col, s2 in enumerate(states):
                k_new, y_new = s2[:kk], s2[kk:]
                t[row, col] = p_k_given_y(k_new, y_old) * p_y_given_k(y_new, k_new)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

        def joint_energy(s):
            k_bits, y_bits = s[:kk], s[kk:]
            e = sum(k_bits[j] * a[j] for j in range(kk))
            e += sum(
                y_bits[i] * model.w2[i, j] * k_bits[j]
                for i in range(mm)
                for j in range(kk)
            )
            return e + sum(y_bits[i] * model.c[i] for i in range(mm))

        pi = np.array([math.exp(joint_energy(s)) for s in states])
        pi /= pi.sum()
        np.testing.assert_allclose(pi @ t, pi, atol=1e-10)

    def test_degenerate_no_coupling_factorizes(self):
        # with W2 = 0 the chain mixes in one sweep to independent Bernoullis
        model = Model(np.zeros((1, 2)), np.zeros((1, 1)), np.array([0.7]), np.array([-0.3]))
        pi = dense_conditional(model, np.zeros(2))
        pk, py = float(sigmoid(0.7)), float(sigmoid(-0.3))
        expected = [
            (1 - pk) * (1 - py),
            pk * (1 - py),
            (1 - pk) * py,
            pk * py,
        ]
        np.testing.assert_allclose(pi, expected, atol=1e-12)


@pytest.mark.usefixtures("kernels")
class TestGibbsKernel:
    def test_shapes_and_binary(self):
        raw = gibbs_block(np.array([[0.2], [-0.5]]), np.array([[0.1]]), np.array([-0.2]), 25, 10, 2, 7)
        assert raw.shape == (2, 25, 2)
        assert raw.dtype == np.uint8
        assert np.all(raw <= 1)

    def test_deterministic_per_seed(self):
        args = (np.array([[0.2, -0.4], [0.1, 0.3]]), np.array([[0.3, 0.1]]), np.array([0.5]), 50, 5, 1)
        a = gibbs_block(*args, 42)
        b = gibbs_block(*args, 42)
        np.testing.assert_array_equal(a, b)
        c = gibbs_block(*args, 43)
        assert not np.array_equal(a, c)

    def test_no_coupling_matches_bernoulli(self):
        a_rows = np.array([[1.2], [-0.4]])
        c = np.array([-0.8])
        raw = gibbs_block(a_rows, np.zeros((1, 1)), c, 40000, 20, 1, 3)
        for p in range(2):
            freq_k = float(raw[p, :, 0].mean())
            freq_y = float(raw[p, :, 1].mean())
            assert abs(freq_k - float(sigmoid(a_rows[p, 0]))) < 0.02
            assert abs(freq_y - float(sigmoid(-0.8))) < 0.02

    def test_block_matches_chain_distribution(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=13)
        xs = rng_from_seed(14).random((3, 2))
        a_rows = xs @ model.w1.T + model.b
        block = gibbs_block(a_rows, model.w2, model.c, 4000, 50, 1, 9)
        assert block.shape == (3, 4000, 3)
        for p in range(3):
            ss = SampleSet.from_reads(block[p], n_hidden=2)
            pi = dense_conditional(model, xs[p])
            assert tv_distance(ss.empirical_probabilities(3), pi) < 0.05

    def test_chain_is_one_row_block(self):
        args = (np.array([[0.3, 0.1]]), np.array([-0.2]), 30, 4, 2, 5)
        np.testing.assert_array_equal(
            gibbs_chain(np.array([0.7, -0.1]), *args),
            gibbs_block(np.array([[0.7, -0.1]]), *args)[0],
        )


def clamped_fields(model, xs, beta_eff):
    """Ising field rows and the shared hidden-output coupling, as the
    annealer programs them."""
    sampler = SimAnnealSampler(SamplerConfig(beta_eff=beta_eff))
    prepared = [sampler.prepare(model, x) for x in xs]
    assert not any(report for _, report in prepared)
    return np.stack([ising.h for ising, _ in prepared]), layer_coupling(prepared[0][0], model.n_hidden)


@pytest.mark.usefixtures("kernels")
class TestAnnealKernel:
    def test_strong_field_aligns_spins(self):
        betas = np.geomspace(0.1, 8.0, 100)
        raw = anneal_block(np.array([[3.0, -3.0]]), np.zeros((1, 1)), betas, 200, 5)
        assert raw.shape == (1, 200, 2)
        assert float(raw[0, :, 0].mean()) > 0.95
        assert float(raw[0, :, 1].mean()) < 0.05

    def test_deterministic_per_seed(self):
        betas = np.geomspace(0.1, 4.0, 30)
        h_rows = np.array([[0.4, -0.2], [-0.1, 0.3]])
        coupling = np.array([[0.25]])
        a = anneal_block(h_rows, coupling, betas, 64, 11)
        b = anneal_block(h_rows, coupling, betas, 64, 11)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, anneal_block(h_rows, coupling, betas, 64, 12))

    def test_each_row_matches_its_conditional(self, make_model):
        # three clamped inputs in one call; beta_sim = beta_eff and no
        # clipping, so every row targets exactly its own conditional
        model = make_model(n=2, k=2, m=1, seed=25)
        xs = rng_from_seed(26).random((3, 2))
        h_rows, coupling = clamped_fields(model, xs, 16.0)
        raw = anneal_block(h_rows, coupling, np.geomspace(0.1, 16.0, 300), 40000, 27)
        assert raw.shape == (3, 40000, 3)
        for p in range(3):
            ss = SampleSet.from_reads(raw[p], n_hidden=2)
            assert tv_distance(ss.empirical_probabilities(3), dense_conditional(model, xs[p])) < 0.05

    def test_one_sweep_follows_the_metropolis_rule(self):
        # zero coupling and one sweep at a fixed beta; the same seed with no
        # sweeps gives the starting spins. A spin aligned with its field
        # (uphill) flips with probability exp(-2 beta |h|), an anti-aligned
        # one (downhill) always flips.
        beta, reads = 0.5, 100_000
        h_rows = np.array([[0.1, -0.4, 0.8, -1.5, 3.0], [-0.2, 0.6, -1.0, 2.0, -0.05]])
        coupling = np.zeros((4, 1))
        start = anneal_block(h_rows, coupling, [], reads, 3).astype(bool)
        end = anneal_block(h_rows, coupling, [beta], reads, 3).astype(bool)
        flipped = start != end
        uphill = start == (h_rows[:, None, :] > 0)
        for p, i in itertools.product(range(2), range(5)):
            assert flipped[p, ~uphill[p, :, i], i].all()
            up = flipped[p, uphill[p, :, i], i]
            rate = math.exp(-2.0 * beta * abs(h_rows[p, i]))
            sigma = math.sqrt(rate * (1.0 - rate) / up.size)
            assert abs(float(up.mean()) - rate) <= 5.0 * sigma, (p, i, float(up.mean()), rate)

    def test_strong_fields_give_no_numeric_warning(self):
        h_rows = np.array([[1e3, -1e3, 1e3], [-1e3, 1e3, -1e3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = anneal_block(h_rows, np.array([[0.5], [-0.5]]), [16.0], 500, 7)
        np.testing.assert_array_equal(raw, np.broadcast_to(h_rows[:, None, :] > 0, raw.shape))

    def test_column_count_checked(self):
        with pytest.raises(ValueError, match="columns"):
            anneal_block(np.zeros((1, 3)), np.zeros((1, 1)), [1.0], 4, 0)


@pytest.mark.usefixtures("kernels")
class TestSamplersAgainstExact:
    def test_zero_model_uniform(self):
        model = Model.zeros(2, 2, 1)
        x = np.zeros(2)
        uniform = np.full(8, 1.0 / 8.0)
        for name, tol in (("exact", 0.02), ("gibbs", 0.02), ("simanneal", 0.05)):
            cfg = SamplerConfig(reads=20000, burn_in=50, anneal_sweeps=100, seed=21)
            ss = make_sampler(name, cfg).sample(model, x)
            assert tv_distance(ss.empirical_probabilities(3), uniform) < tol, name

    def test_gibbs_matches_conditional(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=22)
        x = rng_from_seed(23).random(2)
        cfg = SamplerConfig(reads=60000, burn_in=100, seed=24)
        ss = GibbsSampler(cfg).sample(model, x)
        assert tv_distance(ss.empirical_probabilities(3), dense_conditional(model, x)) < 0.02

    def test_simanneal_matches_conditional(self, make_model):
        # beta_sim = beta_eff and coefficients inside hardware range: the
        # anneal targets exactly the encoded conditional
        model = make_model(n=2, k=2, m=1, seed=25)
        x = rng_from_seed(26).random(2)
        cfg = SamplerConfig(beta_eff=16.0, reads=40000, anneal_sweeps=300, seed=27)
        sampler = SimAnnealSampler(cfg)
        _, report = sampler.prepare(model, x)
        assert not report
        ss = sampler.sample(model, x)
        assert ss.metadata["clipped_coefficients"] == 0
        assert tv_distance(ss.empirical_probabilities(3), dense_conditional(model, x)) < 0.05

    def test_sampler_determinism(self, make_model):
        model = make_model(n=2, k=1, m=1, seed=28)
        x = np.array([0.3, 0.6])
        for name in ("exact", "gibbs", "simanneal"):
            cfg = SamplerConfig(reads=500, anneal_sweeps=50, seed=31)
            a = make_sampler(name, cfg).sample(model, x)
            b = make_sampler(name, cfg).sample(model, x)
            np.testing.assert_array_equal(a.assignments, b.assignments)
            np.testing.assert_array_equal(a.counts, b.counts)


class TestSamplerPlumbing:
    def test_exact_sampler_distribution_and_convergence(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=32)
        x = rng_from_seed(33).random(2)
        sampler = ExactSampler(SamplerConfig(reads=200000, seed=34))
        ss = sampler.sample(model, x)
        assert tv_distance(ss.empirical_probabilities(3), dense_conditional(model, x)) < 0.01

    def test_reads_and_seed_override(self, make_model):
        model = make_model(n=2, k=1, m=1, seed=35)
        x = np.zeros(2)
        sampler = ExactSampler(SamplerConfig(reads=10, seed=0))
        ss = sampler.sample(model, x, reads=77, seed=5)
        assert ss.total_reads == 77
        assert ss.metadata["seed"] == 5

    def test_metadata_fields(self, make_model):
        model = make_model(n=2, k=1, m=1, seed=36)
        x = np.zeros(2)
        gibbs = GibbsSampler(SamplerConfig(reads=10, burn_in=3, thin=2, seed=1))
        meta = gibbs.sample(model, x).metadata
        assert meta["sampler"] == "gibbs" and meta["burn_in"] == 3 and meta["thin"] == 2
        anneal = SimAnnealSampler(SamplerConfig(reads=10, anneal_sweeps=20, beta_eff=4.0, seed=1))
        meta = anneal.sample(model, x).metadata
        assert meta["sampler"] == "simanneal"
        assert meta["beta"] == 4.0 and meta["beta_eff"] == 4.0

    def test_clip_metadata_on_extreme_weights(self):
        # a huge bias pushes h outside the programmable window
        model = Model(np.zeros((1, 2)), np.zeros((1, 1)), np.array([200.0]), np.zeros(1))
        sampler = SimAnnealSampler(SamplerConfig(beta_eff=1.0, reads=10, anneal_sweeps=10, seed=2))
        ss = sampler.sample(model, np.zeros(2))
        assert ss.metadata["clipped_coefficients"] >= 1
        assert ss.metadata["max_clip_shift"] > 0.0

    def test_registry(self):
        assert isinstance(make_sampler("exact"), ExactSampler)
        assert isinstance(make_sampler("gibbs"), GibbsSampler)
        assert isinstance(make_sampler("simanneal"), SimAnnealSampler)
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("quantum")

    def test_invalid_reads_rejected(self, make_model):
        sampler = ExactSampler(SamplerConfig())
        with pytest.raises(ValueError, match="reads"):
            sampler.sample(make_model(), np.zeros(3), reads=0)


class TestSampleBatch:
    @pytest.mark.parametrize("name", ["exact", "gibbs", "simanneal"])
    def test_deterministic_per_seed(self, name, make_model):
        model = make_model(n=2, k=2, m=1, seed=37)
        xs = rng_from_seed(38).random((3, 2))
        sampler = make_sampler(name, SamplerConfig(reads=200, burn_in=5, anneal_sweeps=20))
        a = sampler.sample_batch(model, xs, seed=4)
        assert a.shape == (3, 200, 3) and a.dtype == np.uint8
        np.testing.assert_array_equal(a, sampler.sample_batch(model, xs, seed=4))
        assert not np.array_equal(a, sampler.sample_batch(model, xs, seed=5))

    def test_sample_aggregates_one_row_batch(self, make_model):
        model = make_model(n=2, k=2, m=1, seed=39)
        x = np.array([0.2, 0.9])
        sampler = GibbsSampler(SamplerConfig(reads=300, burn_in=5, seed=6))
        ss = sampler.sample(model, x)
        ref = SampleSet.from_reads(sampler.sample_batch(model, x[None, :])[0], n_hidden=2)
        np.testing.assert_array_equal(ss.assignments, ref.assignments)
        np.testing.assert_array_equal(ss.counts, ref.counts)

    def test_non_bipartite_ising_rejected(self, make_model):
        class WithinLayerCoupling(SimAnnealSampler):
            def prepare(self, model, x):
                ising, report = super().prepare(model, x)
                j = ising.j.copy()
                j[0, 1] = 0.1  # hidden unit 0 coupled to hidden unit 1
                return IsingModel(ising.n, ising.h, j, ising.offset), report

        model = make_model(n=2, k=2, m=1, seed=40)
        sampler = WithinLayerCoupling(SamplerConfig(reads=10, anneal_sweeps=5))
        with pytest.raises(ValueError, match="bipartite"):
            sampler.sample_batch(model, np.zeros((2, 2)))
        star = np.zeros((3, 3))
        star[0, 1:] = 0.1  # unit 0 coupled to units 1 and 2
        ising = IsingModel(3, np.zeros(3), star)
        np.testing.assert_array_equal(layer_coupling(ising, 1), [[0.1, 0.1]])
        with pytest.raises(ValueError, match="bipartite"):
            layer_coupling(ising, 2)
