"""The circuit-witness benchmark's own requests, run through ``cli.main`` in
process and checked as the benchmark checks them, so that a wrong report
fails here before the benchmark runs.

The tests import ``perfbench/workloads.py`` and ``perfbench/checks.py``,
build the workload's plan (its instances and their references) under a
temporary directory, and write nothing under ``perfbench/``.
"""
import sys
from pathlib import Path

import pytest

from qparam import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import checks
    import workloads

    return checks, workloads


@pytest.mark.parametrize("seed", [1, 3, 5, 7])
def test_circuit_witness_reports_pass_the_benchmark_checks(perfbench, capsys,
                                                            tmp_path, seed):
    checks, workloads = perfbench
    plan = workloads.build_plan("circuit-witness", seed, tmp_path)
    failures = []
    for request in plan["requests"]:
        code = cli.main(request["argv"])
        why = checks.check(request["command"], code, capsys.readouterr().out,
                           request["ref"])
        if why is not None:
            failures.append((request["id"], request["command"], why))
    assert len(plan["requests"]) == 20 and failures == []
