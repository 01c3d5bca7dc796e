"""Self-test of the benchmark's own code: ``python3 perfbench/selftest.py``.

Checks that the tracer restores every attribute it patches, that the
metric names a run prints are the ones BENCHMARK.json declares, that each
workload completes at a tiny size, and that the output checks catch a
corrupted trace.
"""

import dataclasses
import inspect
import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

import run  # pins the environment and puts the checkout's src on sys.path

import ebmlp
from ebmlp import core, ebm, experiments, samplers

import bench
import checks
import tracer

TINY = {
    "backprop": dict(steps=6, trials_per_call=2, selections=1),
    "equivalence": dict(steps=2, selections=1, overrides={"reads": 50, "burn_in": 5}),
    "anneal": dict(steps=1, overrides={"reads": 50, "anneal_sweeps": 5}),
}


def namespaces():
    """Every module of the package, the package itself, and each class the
    modules define, with a snapshot of its attributes."""
    modules = tracer.package_modules(ebmlp)
    found = [ebmlp, *modules.values()]
    for module in modules.values():
        found += [obj for obj in vars(module).values() if inspect.isclass(obj) and obj.__module__ == module.__name__]
    return [(ns, dict(vars(ns))) for ns in found]


class TracerTest(unittest.TestCase):
    def test_restore_puts_back_every_attribute_by_identity(self):
        before = namespaces()
        adam, chain, from_reads = core.adam_update, ebmlp._kernels.gibbs_chain, vars(samplers.SampleSet)["from_reads"]
        patcher = tracer.Tracer().install(ebmlp, tracer.package_modules(ebmlp))
        try:
            # names imported by name are patched where they are imported too
            self.assertIsNot(vars(ebm)["adam_update"], adam)
            self.assertIsNot(vars(samplers)["gibbs_chain"], chain)
            self.assertIsNot(vars(samplers.SampleSet)["from_reads"], from_reads)
            self.assertIs(vars(ebm)["sigmoid"], vars(core)["sigmoid"])
        finally:
            patcher.restore()
        for ns, snapshot in before:
            now = dict(vars(ns))
            self.assertEqual(set(now), set(snapshot), ns)
            for attr, value in snapshot.items():
                self.assertIs(now[attr], value, f"{ns!r}.{attr}")

    def test_discovery_follows_the_code(self):
        module = types.ModuleType("fakepkg.layer")
        exec(
            "def public(x):\n    return x + 1\n"
            "def _private():\n    pass\n"
            "class Thing:\n"
            "    def method(self):\n        return 2\n"
            "    @classmethod\n    def build(cls):\n        return cls()\n"
            "    def _hidden(self):\n        pass\n",
            module.__dict__,
        )
        names = sorted(t.name for t in tracer.discover({"layer": module}))
        self.assertEqual(names, ["layer.Thing.build", "layer.Thing.method", "layer.public"])

    def test_self_time_excludes_children(self):
        spans = [("a", "a.f", 0.0, 10.0, -1), ("b", "b.g", 2.0, 5.0, 0), ("a", "a.f", 6.0, 7.0, 0)]
        summary = tracer.summarize(spans)
        self.assertEqual(summary["self_s"], {"a": 6.0 + 1.0, "b": 3.0})
        self.assertEqual(summary["calls"], {"a": 2, "b": 1})
        self.assertEqual(summary["top_level_s"], 10.0)


class WorkloadTest(unittest.TestCase):
    def test_each_workload_completes_with_the_declared_metric_names(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = {
            0: [m["name"] for m in declared["end_to_end"]],
            1: [m["name"] for m in declared["per_layer"]],
        }
        self.assertEqual(sorted(w["name"] for w in declared["workloads"]), sorted(bench.WORKLOADS))
        for name, workload in bench.WORKLOADS.items():
            tiny = dataclasses.replace(workload, **TINY[name])
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    result, _ = run.run(tiny, seed=3, seconds=0.0, trace=trace)
                    self.assertEqual(sorted(result["metrics"]), sorted(names[trace]))
                    self.assertGreaterEqual(result["attempted"], 1)


class ChecksTest(unittest.TestCase):
    def test_corrupt_or_missing_traces_fail(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
            tmp = Path(tmp)
            bench.corpus.write_corpus(tmp / "data", seed=0)
            config = experiments.RunConfig(data_dir=str(tmp / "data"), output_dir=str(tmp / "out"), steps=2, trials=2)
            experiments.run_track(config)
            log = checks.CheckLog()
            checks.check_track_dir(tmp / "out", 2, log, check_success=False)
            self.assertEqual(log.failures, [])

            trace = tmp / "out" / "trace_0.csv"
            lines = trace.read_text().splitlines()
            cells = lines[-1].split(",")
            cells[3] = "nan"  # test_accuracy
            trace.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
            (tmp / "out" / "trace_1.csv").unlink()
            log = checks.CheckLog()
            checks.check_track_dir(tmp / "out", 2, log, check_success=False)
            self.assertEqual(len(log.failures), 3)


if __name__ == "__main__":
    sys.exit(unittest.main())
