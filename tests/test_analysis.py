import math

import numpy as np
import pytest

from scipy.integrate import quad

from biharm.analysis import (InsufficientTailError, NotIntegrableError,
                             PowerTail, check_hessian_decay, compute_beta,
                             decompose, first_moment, fit_growth,
                             hessian_decay_rate, ray_values)
from biharm.model import AxisymmetricGrid, Profile, RadialGrid
from biharm.operator import solve_fixed_point
from biharm.verify import exact_q7_profile


def _grid(n=2000, r_max=100.0):
    return RadialGrid.graded(n, r_max)


class TestFitGrowth:
    def test_linear(self):
        g = _grid(500, 50.0)
        fit = fit_growth(g.r, 0.3 + 0.7 * g.r, "linear")
        assert fit.params["slope"] == pytest.approx(0.7, rel=1e-10)
        assert fit.params["intercept"] == pytest.approx(0.3, rel=1e-6)
        assert fit.rel_residual < 1e-12

    def test_quadratic(self):
        g = _grid(500, 50.0)
        vals = 1.0 + 0.25 * g.r + 2.0 * g.r**2
        fit = fit_growth(g.r, vals, "quadratic")
        assert fit.params["curvature"] == pytest.approx(2.0, rel=1e-10)
        assert fit.params["slope"] == pytest.approx(0.25, rel=1e-6)

    def test_power(self):
        g = _grid(500, 50.0)
        fit = fit_growth(g.r, 3.0 * g.r**1.5, "power")
        assert fit.params["exponent"] == pytest.approx(1.5, rel=1e-12)
        assert fit.params["coeff"] == pytest.approx(3.0, rel=1e-10)

    def test_explicit_window(self):
        g = _grid(500, 50.0)
        vals = 0.5 * g.r
        vals[g.r < 5] = 7.0  # garbage outside the window
        fit = fit_growth(g.r, vals, "linear", r_window=(10.0, 50.0))
        assert fit.params["slope"] == pytest.approx(0.5, rel=1e-12)
        assert fit.window[0] >= 10.0

    def test_short_window_raises(self):
        g = _grid(50, 10.0)
        with pytest.raises(InsufficientTailError):
            fit_growth(g.r, g.r, "linear", r_window=(9.9, 10.0))

    @pytest.mark.parametrize("floor", [0.0, -1e-20, math.nan])
    def test_power_refuses_a_value_that_is_not_positive(self, floor):
        # a density that underflows to 0 in the tail is a window the power
        # law cannot use, refused as a short window is
        g = _grid(200, 40.0)
        vals = g.r**-3.0
        vals[-5:] = floor
        with pytest.raises(InsufficientTailError,
                           match=r"positive values on the window \[4.096, 40\]"):
            fit_growth(g.r, vals, "power")

    def test_unknown_model(self):
        g = _grid(100, 10.0)
        with pytest.raises(ValueError):
            fit_growth(g.r, g.r, "cubic")


class TestTailPowerFit:
    def test_recovers_power_law(self):
        g = _grid(800, 200.0)
        tail = PowerTail.fit(g.r, 4.0 * g.r**-3.5)
        assert tail.exponent == pytest.approx(3.5, rel=1e-10)
        assert tail.coeff == pytest.approx(4.0, rel=1e-8)

    @pytest.mark.parametrize("k", [-1, 0, 1])
    @pytest.mark.parametrize("excess", [0.5, 2.0, 4.5])
    def test_moments_match_quadrature(self, k, excess):
        # excess = exponent - (k + 3): how fast the integrand decays past 1/s
        coeff, p, r_max = 2.5, k + 3.0 + excess, 40.0
        ref, err = quad(lambda s: coeff * s**-p * s ** (k + 2), r_max, np.inf,
                        epsabs=0.0, epsrel=1e-12)
        got = PowerTail(coeff, p).moment(k, r_max)
        assert got == pytest.approx(ref, rel=1e-9, abs=err)

    def test_divergence_flagged_at_threshold(self):
        # the s^(k+2) moment of s^-p converges exactly when p > k + 3: for
        # the kernel tail (k = -1 and k = 1 pieces) p = 3.5 keeps the r^2
        # piece finite but not the s piece, and p = 4.5 keeps both
        r_max = 50.0
        for k in (-1, 0, 1):
            edge = k + 3.0
            assert PowerTail(1.0, edge).moment(k, r_max) == math.inf
            assert PowerTail(1.0, edge - 0.5).moment(k, r_max) == math.inf
            above = PowerTail(1.0, float(np.nextafter(edge, np.inf)))
            assert math.isfinite(above.moment(k, r_max))
        assert math.isfinite(PowerTail(1.0, 3.5).moment(-1, r_max))
        assert PowerTail(1.0, 3.5).moment(1, r_max) == math.inf
        assert math.isfinite(PowerTail(1.0, 4.5).moment(1, r_max))


class TestBeta:
    def test_exact_q7_beta_is_one(self):
        prof = exact_q7_profile(_grid(2000, 100.0))
        beta, note = compute_beta(prof, 7.0)
        assert beta == pytest.approx(1.0, rel=1e-6)

    def test_slow_decay_raises(self):
        g = _grid(500, 100.0)
        u = (1.0 + g.r**2) ** (1.0 / 3.0)
        prof = Profile(grid=g, values=u)
        # u^-4 ~ r^(-8/3) decays too slowly for a finite slope integral,
        # and so for a finite first moment
        with pytest.raises(NotIntegrableError,
                           match=r"need faster than r\^-3\)"):
            compute_beta(prof, 4.0)
        with pytest.raises(NotIntegrableError,
                           match=r"need faster than r\^-4\)"):
            first_moment(g, g.mode0(u ** -4.0))

    def test_underflowed_tail_is_refused(self):
        # (1 + r^2)^-120 is below the smallest float past r = 22, so the
        # last decade [4, 40] has no power law to fit
        g = _grid(200, 40.0)
        prof = Profile(grid=g, values=1.0 + g.r**2)
        with pytest.raises(InsufficientTailError, match="positive values"):
            compute_beta(prof, 120.0)
        with pytest.raises(InsufficientTailError, match="positive values"):
            first_moment(g, g.mode0(prof.values ** -120.0))
        dec = decompose(prof, 120.0)
        assert dec["first_moment"] is None and dec["gamma_identity_gap"] is None


class TestDecompose:
    def test_exact_q7_recovers_flat_polynomial(self):
        prof = exact_q7_profile(_grid(2000, 100.0))
        dec = decompose(prof, 7.0)
        # u - (1/8pi) int (|x-y| - |y|) u^-7 = u(0) exactly
        assert max(abs(x) for x in dec["a"]) < 1e-6
        assert max(abs(x) for x in dec["b"]) < 1e-8
        assert dec["c"] == pytest.approx(15.0 ** -0.25, rel=1e-6)
        assert dec["fit_residual"] < 1e-6
        assert dec["constraints"]["a_nonneg"]
        assert dec["constraints"]["c_positive"]

    def test_exact_q7_gamma_identity(self):
        # for the unshifted representation u = gamma + beta |x| + o(1) the
        # constant equals the first moment of the density; the exact profile
        # has gamma = 0, i.e. c equals the shifted first moment exactly
        prof = exact_q7_profile(_grid(2000, 100.0))
        dec = decompose(prof, 7.0)
        assert dec["gamma_identity_gap"] is not None
        assert abs(dec["gamma_identity_gap"]) < 1e-6

    def test_flat_q5_solve_decomposes_to_its_polynomial(self, flat_q5_run):
        cfg, prof, report = flat_q5_run
        u = prof.values + prof.grid.poly_values(cfg.poly)
        up = Profile(grid=prof.grid, values=u)
        dec = decompose(up, 5.0)
        assert max(abs(x) for x in dec["a"]) < 1e-6
        assert dec["c"] == pytest.approx(1.0, rel=1e-5)
        assert dec["fit_residual"] < 1e-5

    def test_a_negative_a_within_the_fit_error_is_nonnegative(self, thm2_run):
        # thm2's limit P has a1 = 0; the fitted a1 of v + P_limit is -5e-5,
        # inside the fit's own error (fit_residual 1.8e-3 of a fit of size
        # ~1), so a1 is zero to the fit's accuracy
        cfg, cont = thm2_run
        g = cont.final_profile.grid
        u = cont.final_profile.values + g.poly_values(cfg.limit_poly)
        dec = decompose(Profile(grid=g, values=u), cfg.q)
        assert -1e-4 < dec["a"][0] < 0.0 < dec["fit_residual"] < 1e-2
        assert dec["constraints"]["a_nonneg"]

    def test_a_negative_a_beyond_the_fit_error_is_refused(self):
        # u = 1 + 50 - x1^2 / 2 + rho^2 is positive on r <= 10 and exactly
        # quadratic, so its fit error is the small convolution part's
        g = AxisymmetricGrid.build(64, 16, 10.0)
        u = 51.0 - 0.5 * g.x1**2 + g.rho**2
        dec = decompose(Profile(grid=g, values=u), 8.0)
        assert dec["a"][0] == pytest.approx(-0.5, rel=1e-2)
        assert not dec["constraints"]["a_nonneg"]


class TestHessianDecay:
    def test_rate_switches_at_q_three_halves(self):
        assert hessian_decay_rate(2.0) == ("r^-1", -1.0)
        assert hessian_decay_rate(1.5) == ("r^-1 log r", -1.0)
        label, expo = hessian_decay_rate(1.2)
        assert expo == pytest.approx(-0.4)

    def test_rays_come_from_the_grid(self):
        # one ray with no direction on a radial grid, three polar cosines on
        # an axisymmetric one
        for g, directions in ((_grid(400, 100.0), [None]),
                              (AxisymmetricGrid.build(400, 8, 100.0),
                               [1.0, 0.5, 0.0])):
            v = (1.0 + g.t**2) * np.sqrt(1.0 + g.r_nodes**2)
            res = check_hessian_decay(Profile(grid=g, values=v), 5.0)
            assert [ray["direction"] for ray in res["rays"]] == directions
            assert res["bounded"]

    def test_flat_q5_second_derivative_bounded(self, flat_q5_run):
        cfg, prof, report = flat_q5_run
        res = check_hessian_decay(prof, 5.0)
        assert res["bounded"]
        assert all(ray["trend_exponent"] <= 0.25 for ray in res["rays"])


class TestRayValues:
    def test_radial_profile_returns_radii(self):
        g = _grid(100, 10.0)
        prof = Profile(grid=g, values=np.sin(g.r))
        r, vals = ray_values(prof, 1.0)
        np.testing.assert_array_equal(r, g.r)
        np.testing.assert_array_equal(vals, prof.values)

    def test_axisym_ray_interpolates_polynomial_exactly(self):
        from biharm.model import QuadraticPolynomial
        g = AxisymmetricGrid.build(64, 32, 20.0)
        p = QuadraticPolynomial((1.0, 2.0, 2.0), 1.0)
        vals = p.value_rt(g.r[:, None], g.t[None, :])
        prof = Profile(grid=g, values=vals)
        for t in (1.0, 0.0, 0.6):
            r, ray = ray_values(prof, t)
            np.testing.assert_allclose(
                ray, p.value_rt(r, np.full_like(r, t)), rtol=1e-10)
