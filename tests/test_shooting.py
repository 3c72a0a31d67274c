import math

import numpy as np
import pytest

from biharm import shooting
from biharm.shooting import (BracketNotFoundError, bisect_growth_threshold,
                             borderline_exponent, integrate_radial,
                             threshold_growth_diagnostics,
                             universal_coefficient)
from biharm.verify import exact_q7_value


class TestIntegrate:
    def test_exact_start_tracks_closed_form(self):
        u0 = 15.0 ** -0.25
        w0 = 3.0 * 15.0 ** 0.25
        traj = integrate_radial(7.0, u0, w0, 10.0)
        assert traj.outcome == "survived"
        rel = np.abs(traj.u - exact_q7_value(traj.r)) / exact_q7_value(traj.r)
        assert np.max(rel) < 1e-8

    def test_negative_initial_laplacian_touches_zero(self):
        traj = integrate_radial(5.0, 1.0, -0.1, 100.0)
        assert traj.outcome == "touched_zero"
        assert traj.r_stop is not None
        assert traj.r_stop < 100.0

    def test_interp_matches_nodes(self):
        traj = integrate_radial(7.0, 1.0, 1.0, 10.0)
        mid = 0.5 * (traj.r[10] + traj.r[11])
        left, right = sorted((traj.u[10], traj.u[11]))
        assert left <= traj.interp_u(mid) <= right

    def test_constant_forcing_shifts_the_w_equation(self):
        # with forcing F = u0^-q the fourth-order term vanishes at start:
        # w stays flat much longer than without it
        f = 1.0
        with_f = integrate_radial(5.0, 1.0, 0.0, 10.0, forcing=f)
        plain = integrate_radial(5.0, 1.0, 0.0, 10.0)
        assert abs(with_f.w[5]) < abs(plain.w[5])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            integrate_radial(5.0, -1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            integrate_radial(5.0, 1.0, 0.0, 1e-5)


class TestBorderline:
    def test_exponent_regimes(self):
        model, s = borderline_exponent(2.0)
        assert model == "power" and s == pytest.approx(4.0 / 3.0)
        model, s = borderline_exponent(3.0)
        assert model == "linear_times_log_quarter" and s == 1.0
        model, s = borderline_exponent(5.0)
        assert model == "power" and s == 1.0
        with pytest.raises(ValueError):
            borderline_exponent(0.5)

    def test_universal_coefficient_closed_form(self):
        # C(q)^(q+1) s (s+1) (s-1) (2-s) = 1 with s = 4/(q+1)
        assert universal_coefficient(2.0) == pytest.approx(
            (81.0 / 56.0) ** (1.0 / 3.0), rel=1e-12)
        for q in (1.5, 2.0, 2.5):
            s = 4.0 / (q + 1.0)
            c = universal_coefficient(q)
            assert c ** (q + 1) * s * (s + 1) * (s - 1) * (2 - s) == (
                pytest.approx(1.0, rel=1e-12))


class TestBisect:
    def test_threshold_at_q2(self):
        res = bisect_growth_threshold(2.0, 1.0, 3e3)
        assert res.bracket[0] < res.w_crit <= res.bracket[1]
        assert res.trajectory.outcome == "survived"
        diag = threshold_growth_diagnostics(res.trajectory, 2.0)
        assert diag["model"] == "power"
        assert diag["exponent"] == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_side_separation(self):
        res = bisect_growth_threshold(2.0, 1.0, 3e3)
        low = integrate_radial(2.0, 1.0, 0.9 * res.w_crit, 3e3)
        high = integrate_radial(2.0, 1.0, 1.1 * res.w_crit, 3e3)
        assert low.outcome == "touched_zero"
        assert high.outcome == "survived"

    def test_only_the_returned_trajectory_is_sampled(self, monkeypatch):
        # the shots read only whether u touched zero; t_eval and the dense
        # interpolant are paid for once, at w_crit
        calls = []
        solve_ivp = shooting.solve_ivp

        def counted(*args, **kwargs):
            calls.append("t_eval" in kwargs or "dense_output" in kwargs)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(shooting, "solve_ivp", counted)
        res = bisect_growth_threshold(2.0, 1.0, 3e3)
        assert len(calls) == len(res.history) + 1
        assert sum(calls) == 1 and calls[-1]

    def test_missing_bracket_raises(self):
        # a large u0 makes the density negligible: w0 = 0 already survives,
        # so no touching trajectory exists to bracket against
        with pytest.raises(BracketNotFoundError):
            bisect_growth_threshold(5.0, 100.0, 50.0)
