"""Command-line interface: config merging, subcommand behavior, and the
machine-readable error contract."""

import dataclasses
import inspect
import json

import pytest

from ebmlp.cli import (
    _coerce,
    _parse_bool,
    _parse_sizes,
    build_parser,
    build_run_config,
    main,
    read_config_file,
)
from ebmlp.experiments import RunConfig, bench_runtime
from ebmlp.training import TrainingTrace


def run_cli(capsys, *argv):
    """Invoke main() and return (exit_code, stdout lines, stderr lines)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = [line for line in captured.out.splitlines() if line]
    err = [line for line in captured.err.splitlines() if line]
    return code, out, err


@pytest.fixture
def config_file(synthetic_split_dir, tmp_path):
    def _write(extra="", runs="runs"):
        path = tmp_path / "run.ini"
        path.write_text(
            f"data_dir = {synthetic_split_dir}\n"
            f"output_dir = {tmp_path / runs}\n"
            "train_count = 12\n"
            "n_hidden = 3\n"
            "batch_size = 4\n"
            "steps = 5\n"
            "trials = 2\n"
            "reads = 120\n"
            "burn_in = 20\n"
            "anneal_sweeps = 50\n" + extra
        )
        return path

    return _write


class TestCoercion:
    def test_parse_bool(self):
        assert _parse_bool("true") and _parse_bool("1") and _parse_bool("YES")
        assert not _parse_bool("false") and not _parse_bool("off")
        with pytest.raises(ValueError, match="boolean"):
            _parse_bool("perhaps")

    def test_parse_sizes_separators(self):
        assert _parse_sizes("10,100,1000") == (10, 100, 1000)
        assert _parse_sizes("10 100") == (10, 100)
        with pytest.raises(ValueError, match="at least one"):
            _parse_sizes("")

    def test_coerce_types(self):
        # each value takes the type its RunConfig field declares
        cases = [
            ("steps", "7", 7),
            ("lr", "0.25", 0.25),
            ("beta_sim", "12", 12.0),
            ("beta_sim", "none", None),
            ("use_sampled_hidden", "yes", True),
            ("sizes", "10,20", (10, 20)),
            ("anneal_schedule", "linear", "linear"),
            ("track", "bench", "bench"),
        ]
        for name, text, expected in cases:
            got = _coerce(name, text)
            assert got == expected and type(got) is type(expected), name

    @pytest.mark.parametrize(
        "argv, own",
        [
            (["train", "--track", "classical1"], {"track", "dump_bqm"}),
            (["equivalence"], set()),
            (["bench"], {"repeats"}),
        ],
    )
    def test_every_run_setting_is_a_flag(self, argv, own):
        args = vars(build_parser().parse_args(argv))
        flags = set(args) - {"command", "func", "config"} - own
        assert flags == {f.name for f in dataclasses.fields(RunConfig)} - {"track"}

    def test_bench_defaults_come_from_the_library(self):
        defaults = inspect.signature(bench_runtime).parameters
        args = build_parser().parse_args(["bench"])
        assert args.repeats == defaults["repeats"].default
        assert defaults["sizes"].default == RunConfig().sizes

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_none_only_for_keys_that_default_to_none(self, field):
        if field.default is None:
            assert _coerce(field.name, "none") is None
        else:
            with pytest.raises(ValueError, match=repr(field.name)):
                _coerce(field.name, "None")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            _coerce("momentum", "0.9")


class TestConfigFile:
    def test_sectionless_file(self, tmp_path):
        path = tmp_path / "a.ini"
        path.write_text("steps = 3\nlr = 0.5\n")
        assert read_config_file(path) == {"steps": "3", "lr": "0.5"}

    def test_sections_organize_only(self, tmp_path):
        path = tmp_path / "b.ini"
        path.write_text("[model]\nn_hidden = 8\n[training]\nsteps = 4\n")
        flat = read_config_file(path)
        assert flat == {"n_hidden": "8", "steps": "4"}

    def test_duplicate_keys_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[a]\nsteps = 3\n[b]\nsteps = 4\n")
        with pytest.raises(ValueError, match="duplicate config key"):
            read_config_file(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "d.ini"
        path.write_text("steps = 3\nlr = 0.5\n")
        parser = build_parser()
        args = parser.parse_args(["train", "--track", "classical1", "--config", str(path), "--steps", "9"])
        config = build_run_config(args, require_track="classical1")
        assert config.steps == 9
        assert config.lr == 0.5

    def test_none_clears_beta_sim(self, tmp_path):
        path = tmp_path / "e.ini"
        path.write_text("beta_sim = 3.0\n")
        args = build_parser().parse_args(["equivalence", "--config", str(path), "--beta_sim", "none"])
        assert build_run_config(args).beta_sim is None

    def test_defaults_without_file(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--track", "classical2"])
        config = build_run_config(args, require_track="classical2")
        assert config.track == "classical2"
        assert config.steps == 20


# Success-rate floor for every track on the synthetic split at 10 steps
# and 4 trials. Over seeds 0-9 the rates were 75-100% (classical1,
# quantum-sim) and 50-100% (classical2); seed 0 gave 100% on each.
TRACK_SUCCESS_FLOOR = 50.0


class TestTrainCommand:
    @pytest.mark.parametrize("track", ["classical1", "classical2", "quantum-sim"])
    def test_end_to_end(self, capsys, config_file, tmp_path, track):
        code, out, err = run_cli(
            capsys, "train", "--track", track, "--config", str(config_file()), "--steps", "10", "--trials", "4"
        )
        assert code == 0 and not err
        # one progress line per trial plus the final aggregate line
        assert len(out) == 5
        for line in out[:4]:
            progress = json.loads(line)
            assert {"trial", "seed", "final_accuracy", "steps_to_70", "success"} <= set(progress)
        final = json.loads(out[-1])
        assert final["track"] == track
        assert final["aggregate"]["n_failed"] == 0
        assert final["aggregate"]["success_rate_percent"] >= TRACK_SUCCESS_FLOOR
        out_dir = tmp_path / "runs"
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["aggregate"] == final["aggregate"]
        assert sorted(p.name for p in out_dir.glob("trace_*.csv")) == [f"trace_{t}.csv" for t in range(4)]

    def test_dump_bqm(self, capsys, config_file, tmp_path):
        code, _, err = run_cli(
            capsys,
            "train", "--track", "classical2", "--config", str(config_file(runs="dump")),
            "--dump-bqm",
        )
        assert code == 0 and not err
        dump = (tmp_path / "dump" / "bqm_dump.txt").read_text()
        assert "conditional BQM" in dump
        assert "# exact Ising conversion" in dump

    def test_rerun_without_dump_bqm_removes_the_old_dump(self, capsys, config_file, tmp_path):
        config = str(config_file(runs="redump"))
        dump = tmp_path / "redump" / "bqm_dump.txt"
        code, _, _ = run_cli(capsys, "train", "--track", "classical1", "--config", config, "--seed", "1", "--dump-bqm")
        assert code == 0 and dump.exists()
        code, _, _ = run_cli(capsys, "train", "--track", "classical1", "--config", config, "--seed", "2")
        assert code == 0 and not dump.exists()

    def test_missing_data_dir_is_json_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "train", "--track", "classical1", "--data_dir", str(tmp_path / "nowhere")
        )
        assert code == 1
        assert not out
        payload = json.loads(err[0])
        assert payload["error"] == "FileNotFoundError"

    def test_bad_sampler_setting_fails_before_any_trial(self, capsys, config_file, tmp_path):
        code, out, err = run_cli(
            capsys, "train", "--track", "quantum-sim", "--config", str(config_file()), "--anneal_schedule", "cubic"
        )
        assert code == 1
        assert not out
        payload = json.loads(err[0])
        assert payload["error"] == "ValueError" and "anneal_schedule" in payload["message"]
        assert not list((tmp_path / "runs").glob("trace_*.csv"))

    def test_non_finite_beta_fails_before_any_trial(self, capsys, config_file, tmp_path):
        code, out, err = run_cli(
            capsys, "train", "--track", "quantum-sim", "--config", str(config_file()), "--beta_eff", "nan"
        )
        assert code == 1 and not out
        payload = json.loads(err[0])
        assert payload["error"] == "ValueError" and payload["message"] == "beta_eff must be positive and finite"
        assert not list((tmp_path / "runs").glob("trace_*.csv"))

    @pytest.mark.parametrize("key", ["steps", "data_dir"])
    def test_none_for_a_key_with_a_default_is_rejected(self, capsys, tmp_path, key):
        out_dir = tmp_path / "runs"
        path = tmp_path / "none.ini"
        path.write_text(f"{key} = none\n")
        for override in (["--" + key, "none"], ["--config", str(path)]):
            code, out, err = run_cli(capsys, "train", "--track", "classical1", "--output_dir", str(out_dir), *override)
            assert code == 1 and not out
            payload = json.loads(err[0])
            assert payload["error"] == "ValueError" and repr(key) in payload["message"]
        assert not out_dir.exists()

    def test_usage_error_is_json_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "train", "--track", "warp")
        assert code == 2
        payload = json.loads(err[0])
        assert payload["error"] == "UsageError"

    def test_missing_track_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "train")
        assert code == 2
        assert json.loads(err[0])["error"] == "UsageError"


# Bound on the final MLP-vs-EBM output KL after 10 lockstep steps on the
# synthetic split. Over seeds 0-19 it ranged 1e-5 to 0.11; with the EBM
# gradient's sign flipped, seeds 0-4 ended at 0.73-1.75.
EQUIVALENCE_FINAL_KL_BOUND = 0.3


class TestEquivalenceCommand:
    def test_end_to_end(self, capsys, config_file, tmp_path):
        code, out, err = run_cli(
            capsys, "equivalence", "--config", str(config_file(runs="eq")), "--steps", "10"
        )
        assert code == 0 and not err
        payload = json.loads(out[-1])
        assert payload["steps"] == 10
        assert payload["max_kl"] >= payload["final_kl"] >= 0.0
        assert payload["final_kl"] < EQUIVALENCE_FINAL_KL_BOUND
        assert 0.0 <= payload["final_acc_mlp"] <= 1.0
        out_dir = tmp_path / "eq"
        assert (out_dir / "equivalence.csv").is_file()
        assert (out_dir / "equivalence.json").is_file()


class TestBenchCommand:
    def test_end_to_end(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "bench", "--sizes", "4,8", "--repeats", "2", "--output_dir", str(tmp_path / "bench"),
        )
        assert code == 0 and not err
        payload = json.loads(out[-1])
        assert payload["rows"] == 4
        assert set(payload["monotone"]) == {"mlp_matmul", "gibbs_conditional"}
        csv_lines = (tmp_path / "bench" / "bench.csv").read_text().splitlines()
        assert csv_lines[0] == "component,size,median_seconds,reps"

    def test_backend_flag_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", "--backend", "numpy", "--output_dir", str(tmp_path / "bench"),
        )
        assert code == 2 and not out
        assert json.loads(err[-1])["error"] == "UsageError"
        assert not (tmp_path / "bench").exists()

    def test_backend_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bench.ini"
        path.write_text(f"backend = numpy\noutput_dir = {tmp_path / 'bench'}\n")
        code, out, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1 and not out
        payload = json.loads(err[-1])
        assert payload["error"] == "ValueError"
        assert "unknown config key 'backend'" in payload["message"]


class TestSummarizeCommand:
    def test_recomputes_aggregate(self, capsys, config_file, tmp_path):
        code, out, _ = run_cli(
            capsys, "train", "--track", "classical1", "--config", str(config_file(runs="summ"))
        )
        assert code == 0
        train_aggregate = json.loads(out[-1])["aggregate"]

        code, out, err = run_cli(capsys, "summarize", str(tmp_path / "summ"))
        assert code == 0 and not err
        payload = json.loads("\n".join(out))
        assert payload["aggregate"] == train_aggregate
        assert len(payload["trials"]) == 2
        assert payload["trials"][0]["seed"] == 0

    def test_rerun_with_fewer_trials_replaces_outputs(self, capsys, config_file, tmp_path):
        config = str(config_file(runs="reuse"))
        code, _, _ = run_cli(capsys, "train", "--track", "classical1", "--config", config, "--trials", "3")
        assert code == 0
        code, out, _ = run_cli(capsys, "train", "--track", "classical1", "--config", config, "--trials", "1")
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "reuse").glob("trace_*.csv")) == ["trace_0.csv"]
        summary = json.loads((tmp_path / "reuse" / "summary.json").read_text())
        assert len(summary["trials"]) == 1

        code, out, err = run_cli(capsys, "summarize", str(tmp_path / "reuse"))
        assert code == 0 and not err
        payload = json.loads("\n".join(out))
        assert payload["aggregate"] == summary["aggregate"]
        assert payload["aggregate"]["n_trials"] == 1

    def test_trials_listed_in_numeric_order(self, capsys, tmp_path):
        for trial in range(12):
            trace = TrainingTrace()
            trace.append(0, 0.7, -0.7, 0.5)
            trace.append(1, 0.6, -0.6, 0.8)
            trace.to_csv(tmp_path / f"trace_{trial}.csv", header_comment=f"track=classical1 trial={trial} seed={100 + trial}")
        code, out, err = run_cli(capsys, "summarize", str(tmp_path))
        assert code == 0 and not err
        trials = json.loads("\n".join(out))["trials"]
        assert [t["trial"] for t in trials] == list(range(12))
        assert [t["seed"] for t in trials] == [100 + t for t in range(12)]

    @staticmethod
    def write_trace(path, trial, final_accuracy):
        trace = TrainingTrace()
        trace.append(0, 0.7, -0.7, 0.5)
        trace.append(1, 0.6, -0.6, final_accuracy)
        trace.to_csv(path, header_comment=f"track=classical1 trial={trial} seed={trial}")

    def test_stray_trace_copy_is_not_a_second_trial(self, capsys, tmp_path):
        self.write_trace(tmp_path / "trace_0.csv", 0, 0.8)
        self.write_trace(tmp_path / "trace_1.csv", 1, 0.9)
        self.write_trace(tmp_path / "trace_0_old.csv", 0, 0.1)
        code, out, err = run_cli(capsys, "summarize", str(tmp_path))
        assert code == 0 and not err
        payload = json.loads("\n".join(out))
        assert [(t["trial"], t["final_accuracy"]) for t in payload["trials"]] == [(0, 0.8), (1, 0.9)]
        assert payload["aggregate"]["n_trials"] == 2

    def test_trace_name_without_a_trial_number_is_ignored(self, capsys, tmp_path):
        self.write_trace(tmp_path / "trace_0.csv", 0, 0.8)
        (tmp_path / "trace_notes.csv").write_text("not a trace\n")
        code, out, err = run_cli(capsys, "summarize", str(tmp_path))
        assert code == 0 and not err
        assert [t["trial"] for t in json.loads("\n".join(out))["trials"]] == [0]

    def test_empty_directory_is_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "summarize", str(tmp_path))
        assert code == 1
        assert json.loads(err[0])["error"] == "FileNotFoundError"
