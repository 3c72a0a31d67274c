"""Shared fixtures.

The expensive solves (the two continuation runs and the flat-polynomial run)
are session scoped so the acceptance module and the property suites reuse
them instead of recomputing.  Wall-clock seconds for each solve land in the
session-scoped `timings` dict so the acceptance budgets cover the real cost.
"""

import time

import pytest

from biharm.cli import load_preset
from biharm.model import SolveConfig
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
