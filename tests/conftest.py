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
    """Check that the profile.csv rows the CLI writes for an axisymmetric
    profile are even in x1 bit for bit, and read back bit for bit.

    Each radius has its n_angle polar nodes, t < 0 first; every t < 0 row is
    "-" plus its mirror's row, and one np.loadtxt pass over the file gives
    mirror nodes the same value bits, rho bits and negated x1.
    """
    def check(profile):
        g = profile.grid
        path = tmp_path / "even.csv"
        save_profile_csv(profile, path)
        lines = path.read_text().splitlines()[1:]
        n, h = g.n_angle, g.n_angle // 2
        assert len(lines) == g.r.size * n
        for i in range(0, len(lines), n):
            upper = lines[i + h:i + n]
            assert lines[i:i + h] == ["-" + row for row in reversed(upper)]
        rows = np.loadtxt(lines, delimiter=",").reshape(g.r.size, n, 3)
        mirror = rows[:, ::-1].copy()
        mirror[..., 0] *= -1.0
        assert rows.tobytes() == mirror.tobytes()
        assert load_profile_csv(path, g).values.tobytes() == profile.values.tobytes()
    return check
