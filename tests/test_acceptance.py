"""Acceptance battery.

One test per numbered criterion (1, 6, 7 and 9 carry lettered sub-parts); run
with -v to get one pass/fail line each.  Expensive solves come from the
session fixtures in conftest.py, and each criterion asserts its own
wall-clock budget where one is stated.
"""

import math
import time

import numpy as np
import pytest

from biharm import analysis, shooting, verify
from biharm.model import (GridSpec, Profile, QuadraticPolynomial, SolveConfig,
                          validate_config)
from biharm.operator import OperatorContext, solve_fixed_point

MODULE_T0 = time.perf_counter()

ZERO_POLY = QuadraticPolynomial((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 0.0)


def test_criterion_1_closed_form_battery():
    """Closed-form q = 7 profile passes the full residual battery."""
    t0 = time.perf_counter()
    g = GridSpec("radial", 2000, 100.0).build()
    prof = verify.exact_q7_profile(g)
    pde = verify.pde_residual(prof, 7.0)
    assert pde.max_rel < 1e-3, f"pde residual {pde.max_rel:.3e}"
    integ = verify.integral_residual(prof, 7.0, ZERO_POLY, seed=0)
    assert integ.max_rel < 1e-3, f"integral residual {integ.max_rel:.3e}"
    assert abs(integ.gamma) < 1e-2, f"fitted offset {integ.gamma:.3e}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_1b_solver_reproduces_the_closed_form():
    """The solver, radial and shifted at q = 7 over the constant c = u(0) =
    15^(-1/4), converges to the closed form u = sqrt(15^(-1/2) + |x|^2):
    slope alpha = 1 and u = v + c, each to 3e-9 relative.  The errors are
    about 9e-10 and 1.3e-9 at n_r = 2000, and 1.5e-8 and 2.0e-8 on half
    that grid, which the bound refuses."""
    t0 = time.perf_counter()
    c = 15.0 ** -0.25
    cfg = SolveConfig(
        q=7.0, poly=QuadraticPolynomial((0.0, 0.0, 0.0), c=c),
        kernel_variant="shifted", grid=GridSpec("radial", 2000, 400.0),
        tol_fixed_point=1e-13)
    prof, rep = solve_fixed_point(cfg)
    assert rep.converged, rep.diverged_reason
    assert abs(rep.alpha - 1.0) < 3e-9, f"alpha - 1 = {rep.alpha - 1.0:.3e}"
    g = prof.grid
    exact = verify.exact_q7_value(g.r)
    err = np.max(np.abs(prof.values + g.poly_values(cfg.poly) - exact) / exact)
    assert err < 3e-9, f"max relative error of u {err:.3e}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_first_iterate_slope():
    """One operator application to v = 0 at q = 2, P = 1 + |x|^2 grows with
    slope pi/8 to 0.5 percent."""
    t0 = time.perf_counter()
    cfg = SolveConfig(
        q=2.0,
        poly=QuadraticPolynomial((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 1.0, 0.0),
        kernel_variant="shifted",
        grid=GridSpec("radial", 4000, 4000.0),
        tol_fixed_point=1e-10, max_iters=5)
    ctx = OperatorContext(cfg)
    first, _ = ctx.apply(np.zeros(cfg.grid.n_r))
    fit = analysis.fit_growth(ctx.grid.r, first, "linear")
    slope = fit.params["slope"]
    assert slope == pytest.approx(math.pi / 8.0, rel=5e-3)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_anisotropic_quadratic_growth(thm1_run, timings,
                                                  written_even):
    """Continuation limit at q = 2, a = (1, 2, 2): curvature 1 along the axis
    and 2 across it to 5 percent, origin pinned, v nonnegative, exactly even
    in the rows written for it."""
    cfg, cont = thm1_run
    prof = cont.final_profile
    rep = cont.final_report
    assert all(r.converged for r in cont.reports)
    g = prof.grid
    u_fit = prof.values + g.poly_values(cont.limit_poly)
    up = Profile(grid=g, values=u_fit)
    for t, target in ((1.0, 1.0), (0.0, 2.0)):
        r, vals = analysis.ray_values(up, t)
        fit = analysis.fit_growth(r, vals, "quadratic")
        assert fit.params["curvature"] == pytest.approx(target, rel=0.05), \
            f"direction t={t}"
    assert rep.v_origin == 0.0
    assert float(np.min(prof.values)) >= 0.0
    written_even(prof)
    assert timings["thm1"] < 600.0


def test_criterion_4_degenerate_direction_limit(thm2_run, timings):
    """q = 8 with P flat along the axis: every shrinking-eps stage converges,
    origin values stay below 2 x 14 = 28, the limit proxy passes the integral
    check against the degenerate polynomial, and each stage satisfies the
    scaling identity of its own polynomial."""
    cfg, cont = thm2_run
    assert all(r.converged for r in cont.reports)
    assert all(r.u_origin < 28.0 for r in cont.reports)
    g = cont.final_profile.grid
    v = cont.final_profile.values
    sp = cfg.stages()[-1].poly
    u_stage = Profile(grid=g, values=v + g.poly_values(sp))
    u_proxy = Profile(grid=g, values=v + g.poly_values(cont.limit_poly))
    integ = verify.integral_residual(u_proxy, cfg.q, cont.limit_poly, seed=0)
    assert integ.max_rel < 1e-2, f"integral residual {integ.max_rel:.3e}"
    poh = verify.pohozaev_residual(u_stage, cfg.q, sp, gamma_offset=0.0)
    assert poh.residual is not None and poh.residual < 1e-2, \
        f"scaling identity residual {poh.residual}"
    assert timings["thm2"] < 600.0


def test_criterion_5_flat_polynomial_slope_equals_density_integral(
        flat_q5_run, timings):
    """q = 5 over P = 1: the fitted linear slope of u equals
    (1/8 pi) int u^-5 to 1 percent."""
    cfg, prof, rep = flat_q5_run
    assert rep.converged
    g = prof.grid
    u = prof.values + g.poly_values(cfg.poly)
    up = Profile(grid=g, values=u)
    beta, _ = analysis.compute_beta(up, cfg.q)
    fit = analysis.fit_growth(g.r, u, "linear")
    assert fit.params["slope"] == pytest.approx(beta, rel=1e-2)
    assert timings["flat_q5"] < 120.0


def test_criterion_6a_ode_reproduces_grid_solve():
    """A radial q = 2 solve is reproduced on [0, R/2] to 0.5 percent by
    integrating the radial initial value problem from origin data alone."""
    eps = 0.5
    cfg = SolveConfig(
        q=2.0,
        poly=QuadraticPolynomial((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 1.0, eps),
        kernel_variant="shifted",
        grid=GridSpec("radial", 2000, 50.0),
        tol_fixed_point=1e-12, max_iters=200)
    prof, rep = solve_fixed_point(cfg)
    assert rep.converged
    g = prof.grid
    u = prof.values + g.poly_values(cfg.poly)
    dens = u ** (-cfg.q)
    # shifted kernel pins v(0) = 0, so u(0) = P(0) and the origin Laplacian
    # splits into the polynomial part plus the density moment int s g(s) ds
    w0 = cfg.poly.laplacian_origin() + float(np.sum(g.r * g.line_w * dens))
    traj = shooting.integrate_radial(cfg.q, cfg.poly.c, w0, g.r_max,
                                     forcing=120.0 * eps)
    assert traj.outcome == "survived"
    half = g.r <= g.r_max / 2.0
    rel = np.max(np.abs(traj.interp_u(g.r[half]) - u[half]) / u[half])
    assert rel < 5e-3, f"max relative deviation {rel:.3e}"


def test_criterion_6b_exact_start_integration():
    """Integrating from the closed-form q = 7 origin data tracks the closed
    form to 1e-6 on [0, 10]."""
    u0 = 15.0 ** -0.25
    w0 = 3.0 * 15.0 ** 0.25
    traj = shooting.integrate_radial(7.0, u0, w0, 10.0)
    rel = np.max(np.abs(traj.u - verify.exact_q7_value(traj.r))
                 / verify.exact_q7_value(traj.r))
    assert rel <= 1e-6, f"max relative deviation {rel:.3e}"


def test_criterion_7a_threshold_growth_q2():
    """The q = 2 threshold trajectory grows like C r^(4/3) with the exponent
    to 3 percent and the coefficient within 10 percent of the universal one."""
    res = shooting.bisect_growth_threshold(2.0, 1.0, 1e4)
    diag = shooting.threshold_growth_diagnostics(res.trajectory, 2.0)
    assert diag["exponent"] == pytest.approx(4.0 / 3.0, rel=0.03)
    assert diag["coeff"] == pytest.approx(
        shooting.universal_coefficient(2.0), rel=0.10)


def test_criterion_7b_threshold_growth_q5():
    """Above the borderline power the threshold trajectory is linear:
    exponent 1 to 3 percent."""
    res = shooting.bisect_growth_threshold(5.0, 1.0, 1e4)
    diag = shooting.threshold_growth_diagnostics(res.trajectory, 5.0)
    assert diag["exponent"] == pytest.approx(1.0, rel=0.03)


def test_criterion_7c_threshold_growth_q3_log_correction():
    """At q = 3 the compensated ratio u / (r log^(1/4) r) drifts monotonically
    up to a plateau within 20 percent of 2^(1/4)."""
    res = shooting.bisect_growth_threshold(3.0, 1.0, 1e4)
    diag = shooting.threshold_growth_diagnostics(res.trajectory, 3.0)
    target = 2.0 ** 0.25
    assert diag["model"] == "linear_times_log_quarter"
    assert diag["coeff"] == pytest.approx(target, rel=0.20)
    checkpoints = np.geomspace(20.0, diag["r_plateau"], 6)
    comp = np.array([res.trajectory.interp_u(r) / (r * math.log(r) ** 0.25)
                     for r in checkpoints])
    dist = np.abs(comp - target)
    assert np.all(np.diff(comp) > 0.0), "compensated ratio not increasing"
    assert np.all(np.diff(dist) < 0.0), "not drifting toward the constant"


def test_criterion_8_decomposition_recovers_polynomial(thm1_run):
    """Decomposing the continuation limit recovers a = (1, 2, 2) to 5 percent,
    |b| <= 0.02, c > 0, fit residual below 1 percent, constraints all pass."""
    cfg, cont = thm1_run
    prof = cont.final_profile
    g = prof.grid
    u_stage = prof.values + g.poly_values(cfg.stages()[-1].poly)
    u_fit = prof.values + g.poly_values(cont.limit_poly)
    beta, _ = analysis.compute_beta(
        Profile(grid=g, values=u_stage), cfg.q)
    dec = analysis.decompose(
        Profile(grid=g, values=u_fit), cfg.q, beta=beta)
    for got, want in zip(dec["a"], (1.0, 2.0, 2.0)):
        assert got == pytest.approx(want, rel=0.05)
    assert max(abs(x) for x in dec["b"]) <= 0.02
    assert dec["c"] > 0.0
    assert dec["fit_residual"] < 1e-2
    assert all(dec["constraints"].values()), dec["constraints"]


def test_criterion_9a_kernel_monte_carlo():
    """Spherical-mean kernel values match a Monte Carlo oracle within four
    standard errors on 100 random pairs."""
    from biharm.kernels import legendre_mode_kernel, mc_kernel_oracle
    rng = np.random.default_rng(123)
    worst = 0.0
    for i in range(100):
        r = rng.uniform(0.05, 6.0)
        s = rng.uniform(0.05, 6.0)
        x = rng.standard_normal(3)
        x *= r / np.linalg.norm(x)
        mc, se = mc_kernel_oracle(x, s, 40_000, seed=1000 + i)
        worst = max(worst, abs(mc - legendre_mode_kernel(0, r, s)) / se)
    assert worst < 4.0


def test_criterion_9b_shape_properties_of_shifted_solves(thm1_run,
                                                         flat_q5_run,
                                                         written_even):
    """Converged shifted solves have their minimum at the pinned origin, are
    even (in the rows written for them), and grow with nondecreasing
    difference quotients along rays."""
    cfg1, cont = thm1_run
    prof = cont.final_profile
    rep = cont.final_report
    assert rep.v_origin == 0.0
    assert float(np.min(prof.values)) >= 0.0
    written_even(prof)
    for t in (1.0, 0.0):
        r, vals = analysis.ray_values(prof, t)
        slopes = np.diff(vals) / np.diff(r)
        scale = float(np.max(np.abs(slopes)))
        assert np.all(np.diff(slopes) >= -1e-9 * scale), f"ray t={t}"

    cfg5, prof5, rep5 = flat_q5_run
    assert rep5.v_origin == 0.0
    assert float(np.min(prof5.values)) >= 0.0
    slopes = np.diff(prof5.values) / np.diff(prof5.grid.r)
    scale = float(np.max(np.abs(slopes)))
    assert np.all(np.diff(slopes) >= -1e-9 * scale)


def test_criterion_9c_nonexistence_regime_is_flagged():
    """q <= 1 configurations are flagged, and a forced solve reports the
    regime instead of pretending to converge."""
    cfg = SolveConfig(
        q=1.0,
        poly=QuadraticPolynomial((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 1.0, 0.0),
        kernel_variant="shifted",
        grid=GridSpec("radial", 200, 20.0),
        tol_fixed_point=1e-8, max_iters=50)
    check = validate_config(cfg)
    assert not check.ok
    assert "nonexistence" in check.gate_failures[0]
    prof, rep = solve_fixed_point(cfg)
    assert not rep.converged
    assert rep.diverged_reason


def test_criterion_9_wall_clock_budget(timings):
    """The whole battery, including the fixture solves, fits the stated
    half-hour budget with a wide margin."""
    elapsed = time.perf_counter() - MODULE_T0
    assert elapsed + sum(timings.values()) < 1800.0
