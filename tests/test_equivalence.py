"""Weight transfer, output-distribution divergence, and the first-order
agreement between the feedforward and energy-based readings of one
parameter set."""

import csv
import json
import math

import numpy as np
import pytest

from ebmlp.core import derive_seed, rng_from_seed
from ebmlp.data import synthetic_task
from ebmlp.ebm import log_conditional_y, train_ebm
from ebmlp.equivalence import (
    REPORT_COLUMNS,
    REPORT_SCHEMA_VERSION,
    EquivalenceReport,
    run_equivalence_experiment,
    symmetrized_kl,
    transfer_weights,
)
from ebmlp.mlp import forward, train_mlp
from ebmlp.models import EbmModel, MlpModel
from ebmlp.samplers import ExactSampler, GibbsSampler, SamplerConfig
from ebmlp.training import TrainOptions


def ebm_output_probability(model, x):
    """P(y=1|x) for a single-output model via the exact marginal."""
    _, logp = log_conditional_y(model, x)
    return float(np.exp(logp[1]))


class TestTransfer:
    def test_involution_bitwise(self, make_model):
        model = make_model(kind="mlp", n=4, k=3, m=2, seed=1)
        back = transfer_weights(transfer_weights(model))
        assert isinstance(back, MlpModel)
        for a, b in zip(back.params().values(), model.params().values()):
            np.testing.assert_array_equal(a, b)

    def test_kind_flips(self, make_model):
        assert isinstance(transfer_weights(make_model(kind="mlp")), EbmModel)
        assert isinstance(transfer_weights(make_model(kind="ebm")), MlpModel)

    def test_copies_are_independent(self, make_model):
        model = make_model(kind="mlp")
        moved = transfer_weights(model)
        moved.w1[0, 0] += 1.0
        assert model.w1[0, 0] != moved.w1[0, 0]


class TestSymmetrizedKl:
    def test_identical_is_zero(self):
        p = np.array([[0.2], [0.9]])
        assert symmetrized_kl(p, p) == 0.0

    def test_hand_value(self):
        # D(p||q) + D(q||p) at p=0.75, q=0.25 is exactly ln 3
        got = symmetrized_kl(np.array([[0.75]]), np.array([[0.25]]))
        assert math.isclose(got, 1.0986122886681098, rel_tol=1e-14)
        assert math.isclose(got, math.log(3.0), rel_tol=1e-14)

    def test_symmetric(self):
        rng = rng_from_seed(2)
        p = rng.random((5, 1))
        q = rng.random((5, 1))
        assert math.isclose(symmetrized_kl(p, q), symmetrized_kl(q, p), rel_tol=1e-12)

    def test_nonnegative(self):
        rng = rng_from_seed(3)
        for _ in range(20):
            p = rng.random((4, 2))
            q = rng.random((4, 2))
            assert symmetrized_kl(p, q) >= 0.0

    def test_multi_output_sums(self):
        p = np.array([[0.75, 0.75]])
        q = np.array([[0.25, 0.25]])
        assert math.isclose(symmetrized_kl(p, q), 2 * math.log(3.0), rel_tol=1e-12)

    def test_extreme_values_clamped_finite(self):
        assert math.isfinite(symmetrized_kl(np.array([[1.0]]), np.array([[0.0]])))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            symmetrized_kl(np.zeros((2, 1)), np.zeros((3, 1)))


class TestFirstOrderAgreement:
    def test_gap_shrinks_quadratically(self):
        # scaling all parameters by w: the two readings' output gap is
        # second order, so log-log slope across halvings should be near 2
        rng = rng_from_seed(4)
        w1 = rng.normal(size=(6, 5))
        w2 = rng.normal(size=(1, 6))
        b = rng.normal(size=6)
        c = rng.normal(size=1)
        xs = rng.random((8, 5))
        scales = (0.02, 0.01, 0.005)
        gaps = []
        for s in scales:
            mlp_model = MlpModel(s * w1, s * w2, s * b, s * c)
            ebm_model = transfer_weights(mlp_model)
            gap = 0.0
            for x in xs:
                zf = float(forward(mlp_model, x)[0])
                zg = ebm_output_probability(ebm_model, x)
                gap = max(gap, abs(zf - zg))
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        slope = np.polyfit(np.log(scales), np.log(gaps), 1)[0]
        assert 1.8 <= slope <= 2.2
        # halving the scale divides the gap by roughly four
        assert 3.0 < gaps[0] / gaps[1] < 5.5
        assert 3.0 < gaps[1] / gaps[2] < 5.5

    def test_readings_identical_at_zero_weights(self):
        model = MlpModel.zeros(3, 4, 1)
        x = rng_from_seed(5).random(3)
        assert math.isclose(float(forward(model, x)[0]), 0.5, abs_tol=1e-15)
        assert math.isclose(
            ebm_output_probability(transfer_weights(model), x), 0.5, abs_tol=1e-15
        )


class TestEquivalenceReport:
    def row(self, step, kl=0.0):
        values = {name: 0.5 for name in REPORT_COLUMNS}
        values["step"] = step
        values["kl_nats"] = kl
        return values

    def test_append_and_extrema(self):
        report = EquivalenceReport()
        report.append(**self.row(0, kl=0.2))
        report.append(**self.row(1, kl=0.7))
        report.append(**self.row(2, kl=0.4))
        assert len(report) == 3
        assert report.max_kl == 0.7
        assert report.final_kl == 0.4

    def test_wrong_keys_rejected(self):
        report = EquivalenceReport()
        with pytest.raises(ValueError, match="exactly"):
            report.append(step=0)

    def test_negative_kl_rejected(self):
        report = EquivalenceReport()
        with pytest.raises(ValueError, match="nonnegative"):
            report.append(**self.row(0, kl=-0.1))

    def test_csv_roundtrip(self, tmp_path):
        report = EquivalenceReport()
        report.append(**self.row(0, kl=1.0 / 3.0))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == set(REPORT_COLUMNS)
        assert float(rows[0]["kl_nats"]) == 1.0 / 3.0

    def test_json_layout(self, tmp_path):
        report = EquivalenceReport(metadata={"n_hidden": 4})
        report.append(**self.row(0, kl=0.1))
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["metadata"]["n_hidden"] == 4
        assert set(payload["series"]) == set(REPORT_COLUMNS)
        assert payload["series"]["kl_nats"] == [0.1]


class TestRunExperiment:
    def test_equals_the_two_standalone_trainers(self):
        # lockstep training is the two trainers over one batch stream: the
        # MLP columns match train_mlp and the EBM column matches train_ebm
        # with the default Gibbs sampler, exactly
        train = synthetic_task(3, 14, seed=20)
        test = synthetic_task(3, 10, seed=21)
        seed = 9
        options = TrainOptions(steps=4, batch_size=4, lr=0.1, seed=seed)
        report = run_equivalence_experiment(train, test, n_hidden=2, options=options)

        mlp_model = MlpModel.init_gaussian(3, 2, 1, rng_from_seed([seed, 0x1B17]), std=0.01)
        ebm_model = transfer_weights(mlp_model)
        trace = train_mlp(mlp_model, train, options, test)
        sampler = GibbsSampler(SamplerConfig(seed=derive_seed(seed, 0x5EED)))
        ebm_trace = train_ebm(ebm_model, train, sampler, options, test)
        assert report.mlp_loss == trace.train_loss
        assert report.acc_mlp == trace.test_accuracy
        assert report.ebm_loglik == ebm_trace.ebm_loglik

    def test_small_run_structure(self):
        train = synthetic_task(3, 20, seed=6)
        test = synthetic_task(3, 16, seed=7)
        sampler = ExactSampler(SamplerConfig(reads=400, seed=1))
        report = run_equivalence_experiment(
            train,
            test,
            n_hidden=3,
            options=TrainOptions(steps=4, batch_size=5, lr=0.1, seed=2),
            sampler=sampler,
        )
        assert report.steps == [0, 1, 2, 3, 4]
        for name in REPORT_COLUMNS:
            series = getattr(report, "steps" if name == "step" else name)
            assert len(series) == 5
        assert report.metadata["sampler"] == "exact"
        assert report.metadata["n_hidden"] == 3
        assert all(k >= 0.0 for k in report.kl_nats)

    def test_zero_init_starts_with_zero_kl(self):
        # init_std=0 makes both views output exactly one half at step 0
        train = synthetic_task(3, 10, seed=8)
        test = synthetic_task(3, 8, seed=9)
        sampler = ExactSampler(SamplerConfig(reads=200, seed=3))
        report = run_equivalence_experiment(
            train,
            test,
            n_hidden=2,
            options=TrainOptions(steps=1, batch_size=5, lr=0.05, seed=4),
            sampler=sampler,
            init_std=0.0,
        )
        assert report.kl_nats[0] == 0.0
        assert math.isclose(report.mlp_loss[0], math.log(2.0), rel_tol=1e-12)
        assert math.isclose(report.ebm_loglik[0], -math.log(2.0), rel_tol=1e-12)

    def test_seeded_run_reproducible(self):
        train = synthetic_task(2, 12, seed=10)
        test = synthetic_task(2, 8, seed=11)
        runs = []
        for _ in range(2):
            sampler = ExactSampler(SamplerConfig(reads=300, seed=5))
            report = run_equivalence_experiment(
                train,
                test,
                n_hidden=2,
                options=TrainOptions(steps=3, batch_size=4, lr=0.1, seed=6),
                sampler=sampler,
            )
            runs.append(tuple(report.kl_nats))
        assert runs[0] == runs[1]

    def test_small_weights_stay_close(self):
        # in the small-weight regime the two trainers should not diverge
        # dramatically inside a few steps
        train = synthetic_task(3, 20, seed=12)
        test = synthetic_task(3, 10, seed=13)
        sampler = ExactSampler(SamplerConfig(reads=500, seed=7))
        report = run_equivalence_experiment(
            train,
            test,
            n_hidden=4,
            options=TrainOptions(steps=5, batch_size=5, lr=0.05, seed=8),
            sampler=sampler,
        )
        assert report.max_kl < 0.5
