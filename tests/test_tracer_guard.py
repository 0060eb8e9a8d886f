"""The benchmark's traced run wraps bf2p functions by name; a refactor
that removes one of them must fail here, not only in the benchmark."""

import sys
from pathlib import Path

import bf2p  # noqa: F401  (loads every module the tracer wraps)
import bf2p.cli  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_over_loaded_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    tr = tracer.Tracer()
    try:
        tr.install()  # AttributeError if a wrapped name is gone
        assert tr._patches
    finally:
        tr.restore()
