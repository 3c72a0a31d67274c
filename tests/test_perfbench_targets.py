"""The benchmark's tracer (perfbench/tracing.py) wraps package names it
looks up by path; a rename or deletion in the package must fail here, not
only under `perfbench/run.py --trace 1`."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from biharm import cli, verify
from biharm.model import (AxisymmetricGrid, Profile, RadialGrid, SolveConfig,
                          load_profile_csv)

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


def test_band_limited_solve_and_verify_keep_their_spans(tracing, tmp_path,
                                                        capsys):
    # a solve on fewer modes than its grid carries still applies the operator
    # through OperatorContext.apply, once per iterate, each application
    # computing its own density, and verify's integral oracle still looks
    # kernel_row up in biharm.verify, once per sample
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "q": 2.0,
        "poly": {"a": [1.0, 2.0, 2.0], "c": 1.0, "eps_quartic": 0.01},
        "kernel_variant": "shifted",
        "grid": {"kind": "axisymmetric", "n_r": 64, "n_angle": 64,
                 "r_max": 30.0},
        "tol_fixed_point": 1e-10, "seed": 4}))
    out = tmp_path / "o"
    tracer = tracing.Tracer()
    with tracer.patches():
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        solve = tracer.take()
        assert cli.main(["verify", "--config", str(cfg), "--profile",
                         str(out / "profile.csv"), "--out", str(out)]) == 0
        check = tracer.take()
    capsys.readouterr()
    config = SolveConfig.from_dict(json.loads(cfg.read_text()))
    u = load_profile_csv(out / "profile.csv", config.grid.build())
    red = u.grid.reduction
    band, resolved = red.chop(red.analyze(u.values ** -config.q))
    assert resolved and band < len(red.l_values)

    iters = json.loads((out / "report.json").read_text())["result"]["iters"]
    assert [s[0] for s in solve].count("operator.apply") == iters + 1
    densities = [s for s in solve if s[0] == "operator.density"]
    assert len(densities) == iters + 1
    assert all(solve[s[3]][0] == "operator.apply" for s in densities)
    samples = verify.integral_residual(u, config.q, config.poly, seed=4).samples
    (parent,) = [i for i, s in enumerate(check)
                 if s[0] == "verify.integral_residual"]
    rows = [s for s in check if s[0] == "kernels.kernel_row"]
    assert len(rows) == len(samples) and all(s[3] == parent for s in rows)
