"""The one training loop, strict batch normalization, and atomic output
files."""

import math

import numpy as np
import pytest

from ebmlp.core import atomic_open, rng_from_seed
from ebmlp.data import as_batch_arrays, synthetic_task
from ebmlp.equivalence import REPORT_COLUMNS, EquivalenceReport
from ebmlp.experiments import write_bqm_dump
from ebmlp.models import Model, save_model
from ebmlp.training import backprop_gradient, fit, train_mlp, TrainingTrace, TrainOptions


class TestTrainOptions:
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -0.1])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr >= 0 and finite"):
            TrainOptions(lr=lr)

    @pytest.mark.parametrize("key", ["steps", "batch_size"])
    @pytest.mark.parametrize("value", [math.nan, 2.5, 4.0, False])
    def test_non_integer_count_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            TrainOptions(**{key: value})

    def test_numpy_integer_counts_accepted(self):
        assert TrainOptions(steps=np.int64(3), batch_size=np.int32(2)).steps == 3


class TestAsBatchArrays:
    def test_array_pair(self):
        x, y = as_batch_arrays((np.ones((3, 2)), np.array([0, 1, 1])))
        assert x.shape == (3, 2) and y.shape == (3, 1)
        assert x.dtype == y.dtype == np.float64
        np.testing.assert_array_equal(y[:, 0], [0.0, 1.0, 1.0])

    def test_single_example_and_multi_output(self):
        x, y = as_batch_arrays(([0.5, 1.0], [1.0]))
        assert x.shape == (1, 2) and y.shape == (1, 1)
        x, y = as_batch_arrays((np.zeros((2, 3)), np.ones((2, 4))))
        assert x.shape == (2, 3) and y.shape == (2, 4)

    @pytest.mark.parametrize(
        "batch",
        [
            ([0.5, 1], [0.2, 0]),  # two (x, y) examples given as a tuple of lists
            [(0.5, 1), (0.2, 0)],  # a sequence of (x, y) pairs
            (np.zeros((2, 3)), np.zeros(3)),  # label count differs from row count
            (np.zeros(3), 1.0),  # scalar label
            (np.zeros((2, 3)), np.zeros((2, 1, 1))),
            (np.zeros((0, 3)), np.zeros(0)),
            (np.zeros((2, 3)), np.zeros(2), np.zeros(2)),
        ],
    )
    def test_anything_but_an_xy_pair_rejected(self, batch):
        with pytest.raises(ValueError):
            as_batch_arrays(batch)


class TestFit:
    def test_learners_share_one_batch_stream(self):
        data = synthetic_task(3, 17, seed=1)
        seen = {0: [], 1: []}

        def logging_gradient(tag):
            def gradient(model, batch, step):
                seen[tag].append((step, batch[0].copy(), batch[1].copy()))
                return backprop_gradient(model, batch, step)

            return gradient

        models = [Model.init_gaussian(3, 2, 1, rng_from_seed(2)) for _ in range(2)]
        recorded = []
        options = TrainOptions(steps=6, batch_size=5, lr=0.1, seed=3)
        fit([(models[0], logging_gradient(0)), (models[1], logging_gradient(1))], data, options, recorded.append)
        assert recorded == list(range(7))
        assert [s for s, _, _ in seen[0]] == list(range(1, 7))
        for (_, x0, y0), (_, x1, y1) in zip(seen[0], seen[1]):
            np.testing.assert_array_equal(x0, x1)
            np.testing.assert_array_equal(y0, y1)
        # the last batch of an epoch is short: 17 = 5 + 5 + 5 + 2
        assert [len(x) for _, x, _ in seen[0]] == [5, 5, 5, 2, 5, 5]
        for name, value in models[0].params().items():
            np.testing.assert_array_equal(value, models[1].params()[name])

    def test_train_mlp_is_fit_with_backprop(self):
        data = synthetic_task(3, 20, seed=4)
        options = TrainOptions(steps=5, batch_size=4, lr=0.1, seed=5)
        traced = Model.init_gaussian(3, 2, 1, rng_from_seed(6))
        bare = traced.copy()
        train_mlp(traced, data, options)
        fit([(bare, backprop_gradient)], data, options, lambda step: None)
        for name, value in traced.params().items():
            np.testing.assert_array_equal(value, bare.params()[name])


def _small_trace():
    trace = TrainingTrace()
    trace.append(0, 0.5, -0.25, None)
    trace.append(1, 1.0 / 3.0, np.float64(-0.1), 0.75, kl=0.0)
    return trace


def _small_report():
    report = EquivalenceReport()
    row = {name: 0.125 for name in REPORT_COLUMNS}
    report.append(**{**row, "step": 0, "acc_ebm": None, "kl_nats": 0.0})
    report.append(**{**row, "step": 1, "mlp_loss": 2.0 / 3.0, "kl_nats": 1e-17})
    return report


class TestStepTable:
    def test_trace_csv_bytes(self, tmp_path):
        path = tmp_path / "trace_0.csv"
        _small_trace().to_csv(path, header_comment="track=classical1 trial=0 seed=7")
        assert path.read_bytes() == (
            b"# track=classical1 trial=0 seed=7\n"
            b"step,train_loss,ebm_loglik_estimate,test_accuracy,kl_nats\r\n"
            b"0,0.5,-0.25,,\r\n"
            b"1,0.3333333333333333,-0.1,0.75,0.0\r\n"
        )

    def test_report_csv_bytes(self, tmp_path):
        path = tmp_path / "equivalence.csv"
        _small_report().to_csv(path)
        assert path.read_bytes() == (
            b"step,mlp_loss,mlp_loss_ebm_weights,ebm_loglik,ebm_loglik_mlp_weights,"
            b"acc_mlp,acc_mlp_ebm_weights,acc_ebm,acc_ebm_mlp_weights,kl_nats\r\n"
            b"0,0.125,0.125,0.125,0.125,0.125,0.125,,0.125,0.0\r\n"
            b"1,0.6666666666666666,0.125,0.125,0.125,0.125,0.125,0.125,0.125,1e-17\r\n"
        )

    @pytest.mark.parametrize("make", [_small_trace, _small_report])
    def test_read_csv_round_trip(self, tmp_path, make):
        table = make()
        path = tmp_path / "table.csv"
        table.to_csv(path, header_comment="run 1")
        back = type(table).read_csv(path)
        assert back.series() == table.series()
        assert [type(v) for v in back.steps] == [int, int]

    def test_read_csv_missing_column_reads_as_none(self, tmp_path):
        path = tmp_path / "trace_0.csv"
        path.write_text("# seed=1\nstep,train_loss,ebm_loglik_estimate,test_accuracy\n0,0.5,-0.5,0.75\n")
        trace = TrainingTrace.read_csv(path)
        assert trace.series() == {
            "step": [0], "train_loss": [0.5], "ebm_loglik_estimate": [-0.5], "test_accuracy": [0.75], "kl_nats": [None]
        }


class TestAtomicWrites:
    def test_failed_trace_rewrite_keeps_old_file(self, tmp_path):
        path = tmp_path / "trace_0.csv"
        good = TrainingTrace()
        good.append(0, 0.7, -0.7, 0.5)
        good.to_csv(path, header_comment="run 1")
        before = path.read_bytes()
        bad = TrainingTrace()
        bad.append(0, 0.6, -0.6, 0.5)
        bad.append(1, 0.5, -0.5, 0.6)
        bad.train_loss[1] = "not a number"
        with pytest.raises(ValueError):
            bad.to_csv(path, header_comment="run 2")
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_report_rewrites_keep_old_files(self, tmp_path):
        class Unformattable:
            def __float__(self):
                raise RuntimeError("cannot format")

        row = {name: 0.25 for name in REPORT_COLUMNS}
        good = EquivalenceReport(metadata={"seed": 1})
        good.append(**row)
        good.to_csv(tmp_path / "equivalence.csv")
        good.to_json(tmp_path / "equivalence.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        bad = EquivalenceReport(metadata={"sampler": object()})
        bad.append(**row)
        bad.append(**row)
        bad.acc_mlp[1] = Unformattable()
        with pytest.raises(RuntimeError):
            bad.to_csv(tmp_path / "equivalence.csv")
        with pytest.raises(TypeError):
            bad.to_json(tmp_path / "equivalence.json")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_completed_write_replaces_contents(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_model_rewrite_keeps_old_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(Model.zeros(3, 2, 1), path)
        before = path.read_bytes()
        bad = Model.zeros(3, 2, 1)
        bad.c = ["not a number"]  # serializing fails after the header
        with pytest.raises(ValueError):
            save_model(bad, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_bqm_dump_rewrite_keeps_old_file(self, tmp_path):
        class Unencodable(float):
            # a lone surrogate cannot be encoded, so the write itself fails
            def __repr__(self):
                return "16.0\ud800"

        path = tmp_path / "bqm_dump.txt"
        model = Model.zeros(2, 1, 1)
        write_bqm_dump(model, np.zeros(2), 16.0, path)
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            write_bqm_dump(model, np.zeros(2), Unencodable(16.0), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
