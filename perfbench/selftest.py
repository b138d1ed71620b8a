"""Self-test of the benchmark on tiny instances (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric prints with its unit and matches BENCHMARK.json,
that a corrupted reference counts as a failed request, and that a traced name
the package lacks reports its metric as absent without failing the run.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads
from tracer import LAYER_METRICS, TRACED, Tracer
from workloads import build_plan

sys.path.insert(0, str(run.ROOT / "src"))

TINY = {
    "ham-slice": [("ham-decide", {"n": 6, "k": 2, "terms": 5})] * 2,
    "circuit-witness": [
        ("weft", {"witness": 2, "qubits": 4, "gates": 8}),
        ("qmak-decide", {"k": 2, "qubits": 4, "gates": 8}),
        ("wqcs-decide", {"n": 3, "k": 1, "qubits": 4, "gates": 8}),
        ("hwqcs-decide", {"n": 3, "k": 1, "qubits": 4, "gates": 8}),
    ],
    "jones-sampling": [
        ("jones-exact", {"strands": 4, "crossings": 3, "k": 7}),
        ("jones", {"strands": 4, "crossings": 3, "k": 7}),
        ("amp-estimate", {"qubits": 2}),
        ("gapp-estimate", {"path_bits": 4}),
        ("gapp-exact", {"path_bits": 4}),
    ],
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: bool, corrupt=None) -> dict:
    """One tiny run of a workload; ``corrupt(ref)`` edits every reference."""
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        workdir = Path(tmp)
        plan = build_plan(workload, 7, workdir / "inputs", mix=TINY[workload])
        if corrupt is not None:
            for request in plan["requests"]:
                corrupt(request["command"], request["ref"])
        result, setups = run.measure(
            plan, workdir, seconds=0, trace=trace, min_passes=2, setup_only_runs=1,
            deadline=time.monotonic() + run.DEADLINE_S)
    return run.outcome(result, setups, trace, len(plan["requests"]))


def _shift(command: str, ref: dict) -> None:
    """Move each reference value far outside every tolerance and bound."""
    for key in ("lambda_min", "trace", "max_acceptance", "gap"):
        if key in ref:
            ref[key] += 1e3
    for key in ("jones", "amplitude"):
        if key in ref:
            ref[key] = [ref[key][0] + 1e3, ref[key][1]]
    if command == "weft":
        ref["depth"] += 1


class MetricsPrint(unittest.TestCase):
    def test_end_to_end_metrics_print_with_units(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in TINY:
            out = tiny_run(workload, trace=False)
            self.assertTrue(out["correct"], out["failures"])
            self.assertEqual({k: u for k, (_, u) in out["metrics"].items()},
                             declared)
            for line, (name, (value, unit)) in zip(
                    run.metric_lines(out["metrics"]), out["metrics"].items()):
                self.assertIsNotNone(value, name)
                self.assertTrue(line.split()[0] == name and line.endswith(unit))

    def test_layer_metrics_print_with_units(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        out = tiny_run("jones-sampling", trace=True)
        self.assertTrue(out["correct"], out["failures"])
        self.assertEqual(out["absent_names"], [])
        self.assertEqual({k: u for k, (_, u) in out["metrics"].items()},
                         declared)
        for line, (name, (value, unit)) in zip(
                run.metric_lines(out["metrics"]), out["metrics"].items()):
            self.assertIsNotNone(value, name)
            self.assertTrue(line.split()[0] == name and line.endswith(unit))
        self.assertGreater(out["metrics"]["jones.bracket_states"][0], 0)


class CorruptedReference(unittest.TestCase):
    def test_every_corrupted_request_fails(self):
        for workload in TINY:
            out = tiny_run(workload, trace=False, corrupt=_shift)
            self.assertFalse(out["correct"])
            self.assertEqual(out["failed"], out["attempted"], workload)
            self.assertEqual(out["metrics"]["success_ratio"][0], 0.0)


class MissingName(unittest.TestCase):
    def test_missing_name_reports_absent(self):
        traced = [(m, "kauffman_bracket_removed" if n == "kauffman_bracket" else n,
                   mode, hook) for m, n, mode, hook in TRACED]
        tracer = Tracer(traced)
        self.assertIn("jones.kauffman_bracket_removed", tracer.absent)
        from qparam import cli

        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            plan = build_plan("jones-sampling", 3, Path(tmp),
                              mix=TINY["jones-sampling"])
            tracer.install()
            try:
                for request in plan["requests"]:
                    tracer.begin(request["id"])
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(request["argv"])
                    tracer.end()
                    self.assertEqual(code, 0)
            finally:
                tracer.uninstall()
        metrics = tracer.layer_metrics()
        self.assertIsNone(metrics["jones.bracket_s"][0])
        self.assertIsNone(metrics["jones.bracket_states"][0])
        self.assertIn("absent", run.metric_lines(
            {"jones.bracket_s": metrics["jones.bracket_s"]})[0])
        self.assertGreater(metrics["jones.path_dim"][0], 0)
        self.assertEqual(set(metrics), set(LAYER_METRICS))


if __name__ == "__main__":
    run.BUILD.mkdir(parents=True, exist_ok=True)
    unittest.main()
