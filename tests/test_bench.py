"""The traced benchmark wraps blockdec functions by name: every name it lists
must still exist, or ``bench/tracer.py`` fails at install time."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layers(monkeypatch):
    """``bench/layers.py``, imported without writing bytecode under ``bench/``
    and dropped from ``sys.modules`` afterwards with the modules it imports."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield importlib.import_module("layers")
    for name in ("layers", "tracer", "workloads"):
        sys.modules.pop(name, None)


def test_every_traced_target_resolves(layers):
    missing = []
    for target in layers.TARGETS:
        owner = importlib.import_module(f"blockdec.{target.module}")
        for attr in target.name.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.name}")
    assert layers.TARGETS and not missing
