"""Sampler configuration, read aggregation, and the three samplers'
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
from ebmlp.bqm import H_RANGE, J_RANGE, bqm_to_ising, build_conditional_bqm, clamp_to_hardware, clamped_ising_rows
from ebmlp.core import rng_from_seed, sigmoid
from ebmlp.ebm import exact_conditional
from ebmlp.mlp import pre_activation
from ebmlp.models import Model
from ebmlp.samplers import ExactSampler, GibbsSampler, SamplerConfig, SampleSet, SimAnnealSampler, make_sampler


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

    @pytest.mark.parametrize("schedule", ["geometric", "linear"])
    @pytest.mark.parametrize("sweeps", [1, 2, 5])
    @pytest.mark.parametrize("beta_sim", [None, 3.0])
    def test_last_sweep_runs_at_target_beta(self, schedule, sweeps, beta_sim):
        cfg = SamplerConfig(anneal_sweeps=sweeps, anneal_schedule=schedule, beta_sim=beta_sim)
        betas = cfg.anneal_betas()
        assert betas.shape == (sweeps,)
        assert betas[-1] == cfg.effective_beta_sim
        if sweeps > 1:
            assert betas[0] == cfg.anneal_beta_start


class TestSampleSet:
    def test_from_reads_aggregates(self):
        raw = np.array([[0, 1], [0, 1], [1, 1], [0, 0]], dtype=np.uint8)
        ss = SampleSet.from_reads(raw, n_hidden=1)
        assert ss.total_reads == 4
        assert int(ss.counts.sum()) == 4
        assert ss.assignments.shape[0] == 3
        row = np.flatnonzero(np.all(ss.assignments == [0, 1], axis=1))[0]
        assert int(ss.counts[row]) == 2

    def test_weights_sum_to_one(self, empirical_distribution):
        raw = (rng_from_seed(1).random((100, 3)) < 0.5).astype(np.uint8)
        assert math.isclose(float(empirical_distribution(raw).sum()), 1.0, abs_tol=1e-12)

    def test_empirical_probabilities_lsb_index(self, empirical_distribution):
        raw = np.array([[1, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        dense = empirical_distribution(raw)
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

    def test_block_matches_chain_distribution(self, make_model, empirical_distribution):
        model = make_model(n=2, k=2, m=1, seed=13)
        xs = rng_from_seed(14).random((3, 2))
        a_rows = xs @ model.w1.T + model.b
        block = gibbs_block(a_rows, model.w2, model.c, 4000, 50, 1, 9)
        assert block.shape == (3, 4000, 3)
        for p in range(3):
            pi = dense_conditional(model, xs[p])
            assert tv_distance(empirical_distribution(block[p]), pi) < 0.05

    def test_chain_is_one_row_block(self):
        args = (np.array([[0.3, 0.1]]), np.array([-0.2]), 30, 4, 2, 5)
        np.testing.assert_array_equal(
            gibbs_chain(np.array([0.7, -0.1]), *args),
            gibbs_block(np.array([[0.7, -0.1]]), *args)[0],
        )


def unclipped_fields(model, xs, beta_eff):
    """Ising field rows and the shared hidden-output coupling, as the
    annealer programs them, checked to lie strictly inside the hardware
    ranges, so that no coefficient was clipped."""
    h_rows, coupling = clamped_ising_rows(model, pre_activation(model, xs), beta_eff)
    assert np.abs(h_rows).max() < H_RANGE[1] and np.abs(coupling).max() < J_RANGE[1]
    return h_rows, coupling


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

    def test_each_row_matches_its_conditional(self, make_model, empirical_distribution):
        # three clamped inputs in one call; beta_sim = beta_eff and no
        # clipping, so every row targets exactly its own conditional
        model = make_model(n=2, k=2, m=1, seed=25)
        xs = rng_from_seed(26).random((3, 2))
        h_rows, coupling = unclipped_fields(model, xs, 16.0)
        raw = anneal_block(h_rows, coupling, np.geomspace(0.1, 16.0, 300), 40000, 27)
        assert raw.shape == (3, 40000, 3)
        for p in range(3):
            assert tv_distance(empirical_distribution(raw[p]), dense_conditional(model, xs[p])) < 0.05

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


def reference_uniform32(bit_generator, out):
    """The float32 uniforms as first written: (r >> 8) * 2**-24 for the
    32-bit halves r of the raw words, cast and scaled in one multiply."""
    flat = out.reshape(-1)
    words = bit_generator.random_raw((flat.size + 1) // 2).view(np.uint32)[: flat.size]
    np.right_shift(words, 8, out=words)
    np.multiply(words, np.float32(2.0**-24), out=flat, dtype=np.float32)


def reference_anneal_block(h_rows, coupling, betas, reads, seed):
    """``anneal_block`` as first written, one layer at a time: a gemm for
    the fields plus a broadcast add of h, exp(min(-beta dE, 0)), a bool
    flip mask shifted into the sign bit. The kernel must return its bytes."""
    h_rows = np.ascontiguousarray(np.atleast_2d(h_rows), dtype=np.float32)
    coupling = np.ascontiguousarray(coupling, dtype=np.float32)
    betas = np.ascontiguousarray(betas, dtype=np.float64)
    kk, mm = coupling.shape
    rng = np.random.default_rng(int(seed))
    n_points = h_rows.shape[0]
    s = np.where(rng.random((n_points, reads, kk + mm), dtype=np.float32) < 0.5, np.float32(1.0), np.float32(-1.0))
    s_k, s_y = np.ascontiguousarray(s[..., :kk]), np.ascontiguousarray(s[..., kk:])
    layers = []
    for spins, h, other, w in ((s_k, h_rows[:, None, :kk], s_y, coupling.T), (s_y, h_rows[:, None, kk:], s_k, coupling)):
        buffers = np.empty_like(spins), np.empty_like(spins), np.empty(spins.shape, bool)
        layers.append((spins, h, other.reshape(n_points * reads, other.shape[2]), w, *buffers))
    for beta in betas:
        scale = np.float32(-2.0 * beta)
        for spins, h, other, w, accept, u, flip in layers:
            np.dot(other, w * scale, out=accept.reshape(n_points * reads, accept.shape[2]))
            accept += h * scale
            accept *= spins
            np.minimum(accept, 0.0, out=accept)
            np.exp(accept, out=accept)
            reference_uniform32(rng.bit_generator, u)
            np.less(u, accept, out=flip)
            sign = u.view(np.uint32)
            np.left_shift(flip.view(np.uint8), 31, out=sign, dtype=np.uint32)
            np.bitwise_xor(spins.view(np.uint32), sign, out=spins.view(np.uint32))
    return np.concatenate((s_k > 0.0, s_y > 0.0), axis=2).astype(np.uint8)


SCHEDULES = {"geometric": np.geomspace(0.1, 16.0, 40), "linear": np.linspace(0.5, 8.0, 25), "one-sweep": [16.0], "empty": []}


@pytest.mark.usefixtures("kernels")
class TestAnnealKernelBytes:
    """The kernel returns the reference's reads byte for byte: the same
    PCG64 words, uniforms, fields and flip decisions."""

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize(
        "kk, mm, points, reads",
        [
            (32, 1, 5, 200),  # the training shape, with fewer reads
            (7, 2, 3, 501),  # an odd number of hidden uniforms per sweep
            (8, 3, 5, 201),  # an odd number of output uniforms per sweep
            (5, 3, 1, 3),  # both odd
            (4, 1, 1, 1),  # one read
            (3, 3, 2, 1),
        ],
    )
    def test_matches_the_reference(self, kk, mm, points, reads, schedule):
        rng = rng_from_seed([kk, mm, points, reads])
        h_rows = rng.normal(scale=0.7, size=(points, kk + mm))
        coupling = rng.normal(scale=0.3, size=(kk, mm))
        betas = SCHEDULES[schedule]
        np.testing.assert_array_equal(
            anneal_block(h_rows, coupling, betas, reads, 19), reference_anneal_block(h_rows, coupling, betas, reads, 19)
        )

    @pytest.mark.parametrize("mm", [1, 2, 3])
    def test_matches_the_reference_where_exp_overflows(self, mm):
        # every local field is above 4.5 in size, so at beta = 16 a downhill
        # flip has -beta dE = 2 beta |lam| above 88.7 and float32 exp
        # overflows to inf; the spin must still flip, and no RuntimeWarning
        # (which the test configuration turns into an error) may be raised
        kk, points, reads = 6, 3, 301
        rng = rng_from_seed([44, mm])
        h_rows = rng.choice([-5.0, 5.0], size=(points, kk + mm)) * rng.uniform(1.0, 2.0, size=(points, kk + mm))
        coupling = rng.uniform(-0.08, 0.08, size=(kk, mm))
        assert 2.0 * 16.0 * (np.abs(h_rows).min() - kk * 0.08) > 88.8
        for betas in (np.geomspace(1.0, 16.0, 20), [16.0]):
            np.testing.assert_array_equal(
                anneal_block(h_rows, coupling, betas, reads, 5), reference_anneal_block(h_rows, coupling, betas, reads, 5)
            )


@pytest.mark.usefixtures("kernels")
class TestSamplersAgainstExact:
    def test_zero_model_uniform(self, empirical_distribution):
        model = Model.zeros(2, 2, 1)
        x = np.zeros(2)
        uniform = np.full(8, 1.0 / 8.0)
        for name, tol in (("exact", 0.02), ("gibbs", 0.02), ("simanneal", 0.05)):
            cfg = SamplerConfig(reads=20000, burn_in=50, anneal_sweeps=100, seed=21)
            raw = make_sampler(name, cfg).sample_batch(model, x[None, :])[0]
            assert tv_distance(empirical_distribution(raw), uniform) < tol, name

    def test_gibbs_matches_conditional(self, make_model, empirical_distribution):
        model = make_model(n=2, k=2, m=1, seed=22)
        x = rng_from_seed(23).random(2)
        cfg = SamplerConfig(reads=60000, burn_in=100, seed=24)
        raw = GibbsSampler(cfg).sample_batch(model, x[None, :])[0]
        assert tv_distance(empirical_distribution(raw), dense_conditional(model, x)) < 0.02

    def test_simanneal_matches_conditional(self, make_model, empirical_distribution):
        # beta_sim = beta_eff and coefficients inside hardware range: the
        # anneal targets exactly the encoded conditional
        model = make_model(n=2, k=2, m=1, seed=25)
        x = rng_from_seed(26).random(2)
        cfg = SamplerConfig(beta_eff=16.0, reads=40000, anneal_sweeps=300, seed=27)
        unclipped_fields(model, x[None, :], cfg.beta_eff)
        raw = SimAnnealSampler(cfg).sample_batch(model, x[None, :])[0]
        assert tv_distance(empirical_distribution(raw), dense_conditional(model, x)) < 0.05

    def test_sampler_determinism(self, make_model):
        model = make_model(n=2, k=1, m=1, seed=28)
        x = np.array([0.3, 0.6])
        for name in ("exact", "gibbs", "simanneal"):
            cfg = SamplerConfig(reads=500, anneal_sweeps=50, seed=31)
            a = make_sampler(name, cfg).sample_batch(model, x[None, :])
            b = make_sampler(name, cfg).sample_batch(model, x[None, :])
            np.testing.assert_array_equal(a, b)


class TestSamplerPlumbing:
    def test_exact_sampler_distribution_and_convergence(self, make_model, empirical_distribution):
        model = make_model(n=2, k=2, m=1, seed=32)
        x = rng_from_seed(33).random(2)
        sampler = ExactSampler(SamplerConfig(reads=200000, seed=34))
        raw = sampler.sample_batch(model, x[None, :])[0]
        assert tv_distance(empirical_distribution(raw), dense_conditional(model, x)) < 0.01

    def test_reads_and_seed_override(self, make_model):
        model = make_model(n=2, k=1, m=1, seed=35)
        xs = np.zeros((1, 2))
        raw = ExactSampler(SamplerConfig(reads=10, seed=0)).sample_batch(model, xs, reads=77, seed=5)
        assert raw.shape == (1, 77, 2)
        np.testing.assert_array_equal(raw, ExactSampler(SamplerConfig(reads=77, seed=5)).sample_batch(model, xs))

    def test_clipped_fields_on_extreme_weights(self):
        # a huge bias pushes the hidden field outside the programmable
        # window; the annealer programs the clipped value, as the
        # reference pipeline's clip report says
        model = Model(np.zeros((1, 2)), np.zeros((1, 1)), np.array([200.0]), np.zeros(1))
        h_rows, _ = clamped_ising_rows(model, pre_activation(model, np.zeros((1, 2))), 1.0)
        np.testing.assert_array_equal(h_rows, [[H_RANGE[1], 0.0]])
        _, report = clamp_to_hardware(bqm_to_ising(build_conditional_bqm(model, np.zeros(2), 1.0)))
        assert [clip.index for clip in report.clips] == [(0,)] and report.max_shift > 0.0
        sampler = SimAnnealSampler(SamplerConfig(beta_eff=1.0, reads=10, anneal_sweeps=10, seed=2))
        assert sampler.sample_batch(model, np.zeros((1, 2))).shape == (1, 10, 2)

    def test_registry(self):
        assert isinstance(make_sampler("exact"), ExactSampler)
        assert isinstance(make_sampler("gibbs"), GibbsSampler)
        assert isinstance(make_sampler("simanneal"), SimAnnealSampler)
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("quantum")

    def test_invalid_reads_rejected(self, make_model):
        sampler = ExactSampler(SamplerConfig())
        with pytest.raises(ValueError, match="reads"):
            sampler.sample_batch(make_model(), np.zeros((1, 3)), reads=0)


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

    @pytest.mark.parametrize("name", ["exact", "gibbs", "simanneal"])
    def test_rejects_wrong_input_width(self, name, make_model):
        sampler = make_sampler(name, SamplerConfig(reads=10, burn_in=1, anneal_sweeps=5))
        with pytest.raises(ValueError, match="features"):
            sampler.sample_batch(make_model(n=3, k=2, m=1), np.zeros((2, 4)))
