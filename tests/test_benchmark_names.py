"""The benchmark tracer still finds every library name it wraps.

The tracer skips a traced name that the package no longer has, and the
metrics fed by it read as absent, so a cleanup that removes or renames one
fails here instead. The test imports ``perfbench/tracer.py`` and writes
nothing under ``perfbench/``.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from tracer import TRACED, Tracer

    assert Tracer(TRACED).absent == []
