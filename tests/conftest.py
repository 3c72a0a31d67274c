"""Shared fixtures.

The expensive solves (the two continuation runs and the flat-polynomial run)
are session scoped so the acceptance module and the property suites reuse
them instead of recomputing.  Wall-clock seconds for each solve land in the
session-scoped `timings` dict so the acceptance budgets cover the real cost.
"""

import time

import numpy as np
import pytest

from biharm.cli import load_preset
from biharm.model import SolveConfig, load_profile_csv, save_profile_csv
from biharm.operator import continuation_eps_to_zero, solve_fixed_point


def _solve_config_from_preset(name: str) -> SolveConfig:
    d = load_preset(name)
    return SolveConfig.from_dict({k: v for k, v in d.items() if k != "command"})


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def thm1_run(timings):
    """Three-stage quartic continuation at q = 2, a = (1, 2, 2), shifted."""
    cfg = _solve_config_from_preset("thm1")
    t0 = time.perf_counter()
    cont = continuation_eps_to_zero(cfg)
    timings["thm1"] = time.perf_counter() - t0
    return cfg, cont


@pytest.fixture(scope="session")
def thm2_run(timings):
    """Degenerate-direction continuation at q = 8, unshifted."""
    cfg = _solve_config_from_preset("thm2")
    t0 = time.perf_counter()
    cont = continuation_eps_to_zero(cfg)
    timings["thm2"] = time.perf_counter() - t0
    return cfg, cont


@pytest.fixture(scope="session")
def flat_q5_run(timings):
    """Constant polynomial at q = 5, shifted kernel, radial grid."""
    cfg = _solve_config_from_preset("thmA-iii")
    t0 = time.perf_counter()
    prof, report = solve_fixed_point(cfg)
    timings["flat_q5"] = time.perf_counter() - t0
    return cfg, prof, report


@pytest.fixture
def written_even(tmp_path):
    """Check the profile.csv the CLI writes for an axisymmetric profile: a
    header `r` plus the repr of each stored polar cosine t > 0, one row per
    radius (n_r + 1 lines), and values that read back bit for bit.  Only
    the t > 0 half is written, so the file is even in x1 by its layout.
    """
    def check(profile):
        g = profile.grid
        path = tmp_path / "even.csv"
        save_profile_csv(profile, path)
        lines = path.read_text().splitlines()
        assert len(lines) == g.r.size + 1
        header = lines[0].split(",")
        assert header[0] == "r"
        assert np.array(header[1:], dtype=float).tobytes() == g.t.tobytes()
        assert load_profile_csv(path, g).values.tobytes() == profile.values.tobytes()
    return check
