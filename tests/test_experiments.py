"""Track orchestration: trial dispatch, success metrics, output files,
benchmarking, and the annealer-programming dump."""

import itertools
import json
import math
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ebmlp.experiments as experiments
from ebmlp import ebm, equivalence, mlp
from ebmlp.data import load_standard_split, make_binary_task, synthetic_task
from ebmlp.experiments import (
    ACCURACY_TARGET,
    BENCH_COLUMNS,
    RunConfig,
    TrialSummary,
    bench_runtime,
    monotone_components,
    run_equivalence,
    run_track,
    run_trial,
    steps_to_target,
    success_rule,
    summarize_trials,
    write_bench_csv,
    write_bqm_dump,
)
from ebmlp.models import Model, initial_model
from ebmlp.samplers import SamplerConfig
from ebmlp.training import TrainingTrace, TrainOptions


@pytest.fixture
def small_config(synthetic_split_dir, tmp_path):
    def _make(track="classical1", **overrides):
        base = dict(
            track=track,
            data_dir=str(synthetic_split_dir),
            train_count=12,
            n_hidden=3,
            batch_size=4,
            lr=0.1,
            steps=6,
            trials=2,
            seed=0,
            output_dir=str(tmp_path / "runs"),
            reads=150,
            burn_in=30,
            anneal_sweeps=60,
        )
        base.update(overrides)
        return RunConfig(**base)

    return _make


class TestRunConfig:
    def test_unknown_track_rejected(self):
        with pytest.raises(ValueError, match="unknown track"):
            RunConfig(track="hybrid")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            RunConfig(trials=0)
        with pytest.raises(ValueError, match="lr"):
            RunConfig(lr=0.0)
        with pytest.raises(ValueError, match="sizes"):
            RunConfig(sizes=(10, 0))

    @pytest.mark.parametrize(
        "key, value",
        [("lr", math.nan), ("lr", math.inf), ("init_std", math.nan), ("init_std", math.inf), ("init_std", -1.0)],
    )
    def test_non_finite_or_negative_setting_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be"):
            RunConfig(**{key: value})

    @pytest.mark.parametrize(
        "key",
        ["train_count", "n_hidden", "trials", "steps", "batch_size", "reads", "burn_in", "thin", "anneal_sweeps"],
    )
    @pytest.mark.parametrize("value", [math.nan, 2.5])
    def test_non_integer_count_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            RunConfig(**{key: value})

    def test_numpy_integer_counts_accepted(self):
        config = RunConfig(trials=np.int64(2), steps=np.int64(3), n_hidden=np.int32(4), reads=np.int64(10))
        assert config.train_options(0).steps == 3 and config.sampler_config(0).reads == 10

    def test_zero_init_std_accepted(self):
        assert RunConfig(init_std=0.0).init_std == 0.0

    def test_sampler_and_training_rules_apply_at_construction(self):
        with pytest.raises(ValueError, match="reads"):
            RunConfig(track="classical2", reads=0)
        with pytest.raises(ValueError, match="anneal_schedule"):
            RunConfig(anneal_schedule="cubic")
        with pytest.raises(ValueError, match="batch_size"):
            RunConfig(batch_size=0)
        with pytest.raises(ValueError, match="steps"):
            RunConfig(steps=-1)

    def test_owner_settings_have_owner_defaults(self):
        run_fields = {f.name: f for f in fields(RunConfig)}
        for owner in (SamplerConfig, TrainOptions):
            for f in fields(owner):
                if f.name != "seed":
                    assert run_fields[f.name].default == f.default, f.name
                    assert run_fields[f.name].type is f.type, f.name

    def test_sampler_and_train_options(self):
        sampler_values = dict(
            beta_eff=8.0, reads=77, burn_in=5, thin=2, anneal_sweeps=9,
            anneal_beta_start=0.25, anneal_schedule="linear", beta_sim=3.0,
        )
        train_values = dict(steps=3, batch_size=2, lr=0.2, use_sampled_hidden=True)
        config = RunConfig(**sampler_values, **train_values)
        for owner, values, built in (
            (SamplerConfig, sampler_values, config.sampler_config(9)),
            (TrainOptions, train_values, config.train_options(4)),
        ):
            # every setting of the owner but its seed, each set apart from its default
            assert set(values) == {f.name for f in fields(owner)} - {"seed"}
            for name, value in values.items():
                assert value != getattr(owner, name)
                assert getattr(built, name) == value, name
        assert config.sampler_config(9).seed == 9 and config.train_options(4).seed == 4
        assert not hasattr(config.train_options(4), "reads")  # the read count is the sampler's alone


class TestSuccessMetrics:
    def test_steps_to_target_includes_step_zero(self):
        assert steps_to_target([0.9, 0.2]) == 0
        assert steps_to_target([0.5, 0.71, 0.9]) == 1

    def test_steps_to_target_strictly_greater(self):
        assert steps_to_target([ACCURACY_TARGET, ACCURACY_TARGET]) is None

    def test_steps_to_target_none_when_never(self):
        assert steps_to_target([0.1, 0.5, 0.65]) is None
        assert steps_to_target([]) is None

    def test_steps_to_target_skips_missing(self):
        assert steps_to_target([None, 0.8]) == 1

    def test_success_rule_requires_floor_and_gain(self):
        # floor met, gain met
        assert success_rule([0.5] + [0.8] * 5)
        # floor met but no gain over step 0
        assert not success_rule([0.75] + [0.8] * 5)
        # gain met but floor missed
        assert not success_rule([0.3] + [0.6] * 5)

    def test_success_rule_window_is_last_five(self):
        accs = [0.5] + [0.0] * 10 + [0.9] * 5
        assert success_rule(accs)

    def test_success_rule_empty_or_missing(self):
        assert not success_rule([])
        assert not success_rule([None, 0.9])

    def test_summarize_all_successful(self):
        summaries = [
            TrialSummary(trial=i, seed=i, final_accuracy=1.0, steps_to_target=s, success=True)
            for i, s in enumerate((3, 5, 7))
        ]
        agg = summarize_trials(summaries)
        assert agg["mean_successful_accuracy"] == 1.0
        assert agg["median_steps_to_70"] == 5.0
        assert agg["success_rate_percent"] == 100.0
        assert agg["n_failed"] == 0

    def test_summarize_none_successful(self):
        summaries = [TrialSummary(trial=0, seed=0, final_accuracy=0.4)]
        agg = summarize_trials(summaries)
        assert agg["mean_successful_accuracy"] is None
        assert agg["median_steps_to_70"] is None
        assert agg["success_rate_percent"] == 0.0

    def test_summarize_ignores_failed_for_steps(self):
        summaries = [
            TrialSummary(trial=0, seed=0, final_accuracy=0.9, steps_to_target=2, success=True),
            TrialSummary(trial=1, seed=1, failed=True, error="RuntimeError: boom"),
        ]
        agg = summarize_trials(summaries)
        assert agg["median_steps_to_70"] == 2.0
        assert agg["n_failed"] == 1
        assert agg["success_rate_percent"] == 50.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            summarize_trials([])


class TestInitialModels:
    def test_shared_across_tracks_per_seed(self, small_config, synthetic_split_dir):
        # every track trains the seed's one initial model, whatever reading
        # it trains by
        splits = load_standard_split(synthetic_split_dir)
        train, test = make_binary_task(*splits, class_a=0, class_b=1, train_count=12, seed=0)
        a = initial_model(7, 36, 3, 0.01)
        b = initial_model(7, 36, 3, 0.01)
        for name, value in a.params().items():
            np.testing.assert_array_equal(value, b.params()[name])
        assert not np.array_equal(a.w1, initial_model(8, 36, 3, 0.01).w1)
        starts = {}
        for track in ("classical1", "classical2", "quantum-sim"):
            config = small_config(track=track, steps=0, seed=7)
            trace, _ = run_trial(config, 0, train, test)
            starts[track] = (trace.train_loss[0], trace.ebm_loglik[0], trace.test_accuracy[0])
        assert len(set(starts.values())) == 1

    def test_biases_zero_weights_scaled(self):
        model = initial_model(1, 36, 3, 0.5)
        assert model.n_visible == 36 and model.n_hidden == 3 and model.n_outputs == 1
        assert not np.any(model.b) and not np.any(model.c)
        assert float(np.std(model.w1)) > 0.1


class TestRunTrial:
    def test_each_track_dispatches(self, small_config, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        train, test = make_binary_task(*splits, class_a=0, class_b=1, train_count=12, seed=0)
        for track in ("classical1", "classical2", "quantum-sim"):
            config = small_config(track=track)
            trace, summary = run_trial(config, 0, train, test)
            assert len(trace.steps) == config.steps + 1
            assert summary.trial == 0 and summary.seed == config.seed
            assert not summary.failed
            assert summary.final_accuracy == trace.test_accuracy[-1]

    def test_trial_seed_offsets_base(self, small_config, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        train, test = make_binary_task(*splits, class_a=0, class_b=1, train_count=12, seed=0)
        config = small_config(seed=100)
        _, summary = run_trial(config, 3, train, test)
        assert summary.seed == 103

    def test_non_training_track_rejected(self, small_config, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        train, test = make_binary_task(*splits, class_a=0, class_b=1, train_count=12, seed=0)
        config = small_config(track="bench")
        with pytest.raises(ValueError, match="training track"):
            run_trial(config, 0, train, test)


class TestRunTrack:
    def test_outputs_and_schema(self, small_config):
        config = small_config(track="classical1")
        traces, summaries, aggregate = run_track(config)
        out = config.output_dir
        assert len(traces) == 2 and len(summaries) == 2
        payload = json.loads((open(f"{out}/summary.json")).read())
        assert payload["schema_version"] == experiments.SUMMARY_SCHEMA_VERSION
        assert payload["track"] == "classical1"
        assert payload["config"]["train_count"] == 12
        assert len(payload["trials"]) == 2
        assert payload["aggregate"] == aggregate
        for trial in range(2):
            trace = TrainingTrace.read_csv(f"{out}/trace_{trial}.csv")
            assert trace.steps == list(range(config.steps + 1))

    def test_trace_header_comment(self, small_config):
        config = small_config(track="classical1")
        run_track(config)
        first = open(f"{config.output_dir}/trace_0.csv").readline()
        assert first.startswith("# track=classical1 trial=0 seed=0")

    def test_rerun_is_byte_identical(self, small_config, tmp_path):
        config = small_config(track="classical2", output_dir=str(tmp_path / "rerun"))
        run_track(config)
        names = ("trace_0.csv", "trace_1.csv", "summary.json")
        first = {name: open(f"{config.output_dir}/{name}", "rb").read() for name in names}
        run_track(config)
        for name in names:
            assert open(f"{config.output_dir}/{name}", "rb").read() == first[name], name

    def test_failed_trial_isolated(self, small_config, monkeypatch):
        real = experiments.run_trial

        def flaky(config, trial_index, train_set, test_set):
            if trial_index == 0:
                raise RuntimeError("injected failure")
            return real(config, trial_index, train_set, test_set)

        monkeypatch.setattr(experiments, "run_trial", flaky)
        config = small_config(track="classical1")
        traces, summaries, aggregate = run_track(config)
        assert traces[0] is None and summaries[0].failed
        assert summaries[0].error == "RuntimeError: injected failure"
        assert not summaries[1].failed
        assert aggregate["n_failed"] == 1
        payload = json.loads(open(f"{config.output_dir}/summary.json").read())
        assert payload["trials"][0]["failed"] is True

    def test_files_that_are_not_traces_survive_a_run(self, small_config):
        config = small_config(track="classical1", trials=1, steps=2)
        out = Path(config.output_dir)
        out.mkdir(parents=True)
        for name in ("trace_notes.csv", "trace_0_old.csv", "trace_7.csv"):
            (out / name).write_text("from elsewhere\n")
        run_track(config)
        assert (out / "trace_notes.csv").read_text() == "from elsewhere\n"
        assert (out / "trace_0_old.csv").read_text() == "from elsewhere\n"
        # a trial trace from an earlier run is removed
        assert not (out / "trace_7.csv").exists()

    @pytest.mark.parametrize("where", ["gradient", "evaluation"])
    def test_trial_raising_in_training_or_evaluation_writes_no_trace(self, small_config, monkeypatch, where):
        """Trial 0 raises in its third gradient, mid-training, or in the
        evaluation after training; it is marked failed and leaves no trace,
        and trial 1 runs as usual."""
        config = small_config(track="classical1")
        calls = itertools.count()
        target, name = (mlp, "grad_backprop") if where == "gradient" else (mlp, "accuracies")
        original = getattr(target, name)

        def failing(*args, **kwargs):
            if next(calls) == (2 if where == "gradient" else 0):
                raise RuntimeError(f"injected {where} failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, failing)
        run_track(config)
        out = Path(config.output_dir)
        trials = json.loads((out / "summary.json").read_text())["trials"]
        assert [t["failed"] for t in trials] == [True, False]
        assert trials[0]["error"] == f"RuntimeError: injected {where} failure"
        assert [p.name for p in sorted(out.glob("trace_*.csv"))] == ["trace_1.csv"]

    def test_progress_callback(self, small_config):
        seen = []
        config = small_config(track="classical1")
        run_track(config, progress=lambda trial, summary: seen.append((trial, summary.failed)))
        assert seen == [(0, False), (1, False)]

    def test_wrong_track_rejected(self, small_config):
        with pytest.raises(ValueError, match="run_track handles"):
            run_track(small_config(track="equivalence"))


class TestRunEquivalence:
    def test_writes_report_files(self, small_config):
        config = small_config(track="equivalence", steps=3, n_hidden=2, reads=100)
        report = run_equivalence(config)
        assert len(report) == 4
        out = config.output_dir
        payload = json.loads(open(f"{out}/equivalence.json").read())
        assert payload["series"]["step"] == [0, 1, 2, 3]
        header = open(f"{out}/equivalence.csv").readline().strip().split(",")
        assert header[0] == "step" and "kl_nats" in header

    def test_failed_run_leaves_no_earlier_report(self, small_config, monkeypatch):
        config = small_config(track="equivalence", steps=3, n_hidden=2, reads=100)
        out = Path(config.output_dir)
        out.mkdir(parents=True)
        for name in ("equivalence.csv", "equivalence.json"):
            (out / name).write_text("from an earlier run\n")

        def fail(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(experiments, "run_equivalence_experiment", fail)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_equivalence(config)
        assert not (out / "equivalence.csv").exists()
        assert not (out / "equivalence.json").exists()

    @pytest.mark.parametrize("where", ["gradient", "evaluation"])
    def test_run_raising_in_training_or_evaluation_leaves_no_report(self, small_config, monkeypatch, where):
        config = small_config(track="equivalence", steps=3, n_hidden=2, reads=100)
        calls = itertools.count()
        target, name = (ebm, "grad_conditional_ll") if where == "gradient" else (equivalence, "stacked_readings")
        original = getattr(target, name)

        def failing(*args, **kwargs):
            if next(calls) == (2 if where == "gradient" else 0):
                raise RuntimeError(f"injected {where} failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, failing)
        with pytest.raises(RuntimeError, match=f"injected {where} failure"):
            run_equivalence(config)
        out = Path(config.output_dir)
        assert not (out / "equivalence.csv").exists()
        assert not (out / "equivalence.json").exists()


class TestBqmDump:
    def test_sections_present(self, tmp_path, make_model):
        model = make_model(n=3, k=2, m=1, seed=1)
        path = tmp_path / "bqm_dump.txt"
        write_bqm_dump(model, np.array([0.2, 0.5, 0.8]), 16.0, path)
        text = path.read_text()
        assert "conditional BQM at beta_eff=16.0 over 3 variables" in text
        assert "# exact Ising conversion" in text
        assert "# after hardware clamp: 0 coefficients clipped" in text
        # three coefficient blocks each start with the variable count
        assert text.count("\n3 ") == 3

    def test_clip_count_reported(self, tmp_path):
        model = Model(np.zeros((1, 2)), np.zeros((1, 1)), np.array([100.0]), np.zeros(1))
        path = tmp_path / "dump.txt"
        write_bqm_dump(model, np.zeros(2), 1.0, path)
        assert "1 coefficients clipped" in path.read_text()


class TestBench:
    def test_structure_and_csv(self, tmp_path):
        rows = bench_runtime(sizes=(4, 8), repeats=3, batch=16, reads=2, burn_in=2)
        assert {r["component"] for r in rows} == {"mlp_matmul", "gibbs_conditional"}
        assert len(rows) == 4
        for row in rows:
            assert row["median_seconds"] > 0.0
            assert row["reps"] >= 1
        path = tmp_path / "bench.csv"
        write_bench_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(BENCH_COLUMNS)
        assert len(path.read_text().splitlines()) == 5

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            bench_runtime(sizes=(0,), repeats=1)

    def test_calibration_outlasts_a_slow_start(self):
        # the first four calls each burn 10 ms of this thread's CPU time, as
        # a series whose first calls start BLAS threads might; the rest are
        # cheap, so a 20 ms loop holds far more than two of them
        calls = itertools.count()

        def stmt():
            if next(calls) < 4:
                t0 = time.thread_time()
                while time.thread_time() - t0 < 0.01:
                    pass

        assert experiments._calibrated_reps(stmt, target=0.02) > 100

    def test_calibration_loops_grow_one_two_five(self):
        assert list(experiments._one_two_five(60)) == [1, 2, 5, 10, 20, 50, 60]
        assert list(experiments._one_two_five(50)) == [1, 2, 5, 10, 20, 50]
        assert list(experiments._one_two_five(1)) == [1]

    def test_monotone_components_unit(self):
        rows = [
            {"component": "a", "size": 1, "median_seconds": 1.0},
            {"component": "a", "size": 2, "median_seconds": 2.0},
            {"component": "b", "size": 1, "median_seconds": 2.0},
            {"component": "b", "size": 2, "median_seconds": 1.0},
        ]
        assert monotone_components(rows) == {"a": True, "b": False}

    def test_monotone_sorts_by_size(self):
        rows = [
            {"component": "a", "size": 100, "median_seconds": 2.0},
            {"component": "a", "size": 10, "median_seconds": 1.0},
        ]
        assert monotone_components(rows) == {"a": True}
