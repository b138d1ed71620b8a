"""The benchmark tracer still finds every library name it wraps, and its
count hooks still fit the functions they read.

The tracer skips a traced name that the package no longer has, and the
metrics fed by it read as absent; a count hook that no longer fits its
function's arguments or result is counted in ``trace.hook_errors`` and
ignored, so the layer metric it feeds reads low. Either way a cleanup that
removes, renames or re-signs a traced function fails here instead. The
tests import ``perfbench/tracer.py`` and write nothing under ``perfbench/``.
"""
import json
import sys
from pathlib import Path

import pytest

from qparam import cli
from test_fuzz import SEEDS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer

    return tracer


def test_every_traced_name_resolves(tracer_module):
    assert tracer_module.Tracer(tracer_module.TRACED).absent == []


def test_every_count_hook_fits(tracer_module, capsys, tmp_path):
    tracer = tracer_module.Tracer(tracer_module.TRACED)
    tracer.install()
    try:
        for command, (extra, document) in SEEDS.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(document))
            tracer.begin(command)
            try:
                # through the module, so the call goes through the wrapper
                cli.main([command, "--input", str(path), *extra])
            finally:
                tracer.end()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    per_pass = tracer.per_pass()
    assert per_pass["cli.main.calls"] == len(SEEDS)
    assert per_pass.get("trace.hook_errors", 0) == 0
