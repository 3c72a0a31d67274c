"""The benchmark's tracer (perfbench/tracing.py) wraps package names it
looks up by path; a rename or deletion in the package must fail here, not
only under `perfbench/run.py --trace 1`."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from biharm import cli
from biharm.model import AxisymmetricGrid, Profile, RadialGrid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/ only
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(tracing):
    # the tracer reads each name from its owner's own namespace
    missing = [(path, attr) for path, attr, _, _ in tracing.TARGETS
               if attr not in vars(tracing._resolve(path))]
    assert not missing


@pytest.mark.parametrize("grid", [RadialGrid.graded(16, 5.0),
                                  AxisymmetricGrid.build(16, 8, 5.0)],
                         ids=["radial", "axisymmetric"])
def test_profile_io_spans_measure_the_file(tracing, tmp_path, grid):
    # the I/O hooks read the path from the arguments of cli's calls, which
    # pass it positionally: save_profile_csv(profile, path) and
    # load_profile_csv(path, grid); each span's bytes are the file's size
    tracer = tracing.Tracer()
    path = tmp_path / "profile.csv"
    profile = Profile(grid=grid, values=np.ones(grid.shape))
    with tracer.patches():
        cli.save_profile_csv(profile, path)
        cli.load_profile_csv(path, grid)
    spans = tracer.take()
    assert [s[0] for s in spans] == ["model.profile_io"] * 2
    assert [s[5] for s in spans] == [{"bytes": path.stat().st_size}] * 2
