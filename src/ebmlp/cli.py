"""Command-line front end.

Subcommands: `train` (one track, several trials), `equivalence` (lockstep
cross-evaluation), `bench` (runtime scaling table), `summarize` (recompute
the aggregate row from trace files). Configuration comes from an INI-style
file whose keys are globally unique across sections; every key can be
overridden by a CLI flag of the same name. Errors leave exit code nonzero
and print one JSON line on stderr.
"""

import argparse
import configparser
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from .experiments import (
    RunConfig,
    TRACKS,
    TrialSummary,
    bench_runtime,
    load_task,
    monotone_components,
    run_equivalence,
    run_track,
    summarize_trials,
    write_bench_csv,
    write_bqm_dump,
)
from .models import initial_model
from .training import TrainingTrace

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_BENCH_REPEATS = inspect.signature(bench_runtime).parameters["repeats"].default


class _Parser(argparse.ArgumentParser):
    # The "machine-readable error line" contract covers argument errors too.
    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _parse_bool(text):
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_sizes(text):
    parts = [p for p in str(text).replace(",", " ").split() if p]
    if not parts:
        raise ValueError("sizes must list at least one positive integer")
    return tuple(int(p) for p in parts)


def _coerce(name, value):
    """Convert a config-file or CLI string to the type its RunConfig field declares."""
    if name not in _CONFIG_FIELDS:
        raise ValueError(f"unknown config key {name!r}")
    field = _CONFIG_FIELDS[name]
    if value is None or (isinstance(value, str) and value.strip().lower() == "none"):
        if field.default is not None:
            raise ValueError(f"config key {name!r} cannot be none; only keys whose default is none accept it")
        return None
    kind = field.type
    if kind is bool:
        return _parse_bool(value)
    if kind is tuple:
        return _parse_sizes(value)
    return kind(value)


def read_config_file(path):
    """Flatten an INI file into {key: raw string}. Sections only organize
    the file; keys must be globally unique."""
    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    if not text.lstrip().startswith("["):
        text = "[run]\n" + text
    parser.read_string(text)
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in flat:
                raise ValueError(f"duplicate config key {key!r} (keys are global across sections)")
            flat[key] = value
    return flat


def build_run_config(args, require_track=None):
    """Defaults <- config file <- CLI flags, then validate via RunConfig."""
    merged = {}
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            merged[key] = _coerce(key, value)
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = _coerce(name, value) if isinstance(value, str) else value
    if require_track is not None:
        merged["track"] = require_track
    return RunConfig(**merged)


def _add_config_flags(sub, skip=()):
    for name, field in _CONFIG_FIELDS.items():
        if name in skip:
            continue
        sub.add_argument(f"--{name}", default=None, help=f"override config key {name} (default {field.default!r})")


def _cmd_train(args):
    config = build_run_config(args, require_track=args.track)
    train_set, test_set = load_task(config)

    def progress(trial, summary):
        line = {"trial": trial, "seed": summary.seed, "final_accuracy": summary.final_accuracy,
                "steps_to_70": summary.steps_to_target, "success": summary.success}
        if summary.failed:
            line["failed"] = True
            line["error"] = summary.error
        print(json.dumps(line))

    _, _, aggregate = run_track(config, train_set, test_set, progress=progress)
    if args.dump_bqm:
        # after run_track, which clears a stale dump from the directory
        model = initial_model(config.seed, train_set.n_features, config.n_hidden, config.init_std)
        write_bqm_dump(model, train_set.inputs[0], config.beta_eff, Path(config.output_dir) / "bqm_dump.txt")
    print(json.dumps({"track": config.track, "output_dir": config.output_dir, "aggregate": aggregate}))
    return 0


def _cmd_equivalence(args):
    config = build_run_config(args, require_track="equivalence")
    report = run_equivalence(config)
    print(
        json.dumps(
            {
                "output_dir": config.output_dir,
                "steps": len(report) - 1,
                "max_kl": report.max_kl,
                "final_kl": report.final_kl,
                "final_acc_mlp": report.acc_mlp[-1],
                "final_acc_mlp_ebm_weights": report.acc_mlp_ebm_weights[-1],
            }
        )
    )
    return 0


def _cmd_bench(args):
    config = build_run_config(args, require_track="bench")
    rows = bench_runtime(sizes=config.sizes, repeats=args.repeats, seed=config.seed)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "bench.csv"
    write_bench_csv(rows, path)
    print(json.dumps({"csv": str(path), "rows": len(rows), "monotone": monotone_components(rows)}))
    return 0


def _cmd_summarize(args):
    directory = Path(args.directory)
    traces = sorted((int(p.stem.split("_")[1]), p) for p in directory.glob("trace_*.csv"))
    if not traces:
        raise FileNotFoundError(f"no trace_*.csv files in {directory}")
    summaries = [
        TrialSummary.from_accuracies(trial, _seed_from_comment(p), TrainingTrace.read_csv(p).test_accuracy)
        for trial, p in traces
    ]
    aggregate = summarize_trials(summaries)
    print(
        json.dumps(
            {
                "directory": str(directory),
                "trials": [s.as_dict() for s in summaries],
                "aggregate": aggregate,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _seed_from_comment(path):
    with open(path) as fh:
        first = fh.readline()
    if first.startswith("#"):
        for token in first[1:].split():
            if token.startswith("seed="):
                return int(token.split("=", 1)[1])
    return None


def build_parser():
    parser = _Parser(prog="ebmlp", description="Train MLPs through their energy-based twin; benchmark and compare samplers.")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="run one training track for several trials")
    train.add_argument("--track", required=True, choices=TRACKS)
    train.add_argument("--config", default=None, help="INI config file; flags below override its keys")
    train.add_argument("--dump-bqm", action="store_true", help="write bqm_dump.txt for the first training input at the initial weights")
    _add_config_flags(train, skip=("track",))
    train.set_defaults(func=_cmd_train)

    equiv = commands.add_parser("equivalence", help="lockstep MLP/EBM training with cross-evaluation")
    equiv.add_argument("--config", default=None)
    _add_config_flags(equiv, skip=("track",))
    equiv.set_defaults(func=_cmd_equivalence)

    bench = commands.add_parser("bench", help="runtime scaling benchmark")
    bench.add_argument("--config", default=None)
    bench.add_argument("--repeats", type=int, default=_BENCH_REPEATS, help="measurements per point (median taken)")
    _add_config_flags(bench, skip=("track",))
    bench.set_defaults(func=_cmd_bench)

    summ = commands.add_parser("summarize", help="recompute the aggregate row from trace files")
    summ.add_argument("directory")
    summ.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
