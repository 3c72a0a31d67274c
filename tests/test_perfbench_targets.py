"""The benchmark's tracer (perfbench/tracing.py) wraps package names it
looks up by path; a rename or deletion in the package must fail here, not
only under `perfbench/run.py --trace 1`."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/ only
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the tracer reads each name from its owner's own namespace
    missing = [(path, attr) for path, attr, _, _ in tracing.TARGETS
               if attr not in vars(tracing._resolve(path))]
    assert not missing
