import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biharm import shooting
from biharm.shooting import (BracketNotFoundError, bisect_growth_threshold,
                             borderline_exponent, integrate_radial,
                             threshold_growth_diagnostics,
                             universal_coefficient)
from biharm.verify import exact_q7_value


_TOO_SMALL = ("integrator failed: Required step size is less than spacing "
              "between numbers.")


def _shot(q, u0, w0, r_end, forcing):
    """(y0, floor, rhs) of one shot: its start and its generated rhs."""
    y0, floor, g_floor = shooting._start(q, u0, w0, r_end, forcing)
    return y0, floor, shooting._shot_code()[1](-q, forcing, g_floor)


def _scipy_shot(q, u0, w0, r_end, forcing=0.0, n_eval=None, calls=None):
    """scipy's solve_ivp (DOP853) on the system of _shot: the oracle for
    the in-module stepper.  Same tolerances and terminal floor event; with
    n_eval, sampled at the same geometric radii as integrate_radial.  calls,
    if given, collects the radius of every right-hand-side call."""
    from scipy.integrate import solve_ivp

    y0, floor, shot_rhs = _shot(q, u0, w0, r_end, forcing)

    def rhs(r, y):
        if calls is not None:
            calls.append(r)
        return shot_rhs(r, y)

    def hit_floor(r, y):
        return y[0] - floor

    hit_floor.terminal = True
    hit_floor.direction = -1.0
    sampling = {} if n_eval is None else {
        "t_eval": np.geomspace(shooting._R_START, r_end, n_eval)}
    res = solve_ivp(rhs, (shooting._R_START, r_end), np.array(y0),
                    method="DOP853", rtol=shooting._RTOL, atol=shooting._ATOL,
                    events=hit_floor, **sampling)
    if not res.success:
        raise shooting.IntegrationError(f"integrator failed: {res.message}")
    return res


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
        assert left <= traj.sol(mid)[0] <= right

    def test_touched_radius_is_pinned(self):
        # r_stop is bracketed to adjacent floats by the threshold search's
        # root-finder, so a change to that rule shows here first
        traj = integrate_radial(5.0, 1.0, -0.1, 100.0)
        assert traj.r_stop == float.fromhex("0x1.6d7efa4b28a8dp+1")

    def test_constant_forcing_shifts_the_w_equation(self):
        # with forcing F = u0^-q the fourth-order term vanishes at start:
        # w stays flat much longer than without it
        f = 1.0
        with_f = integrate_radial(5.0, 1.0, 0.0, 10.0, forcing=f)
        plain = integrate_radial(5.0, 1.0, 0.0, 10.0)
        assert abs(with_f.w[5]) < abs(plain.w[5])

    def test_rejects_bad_inputs(self):
        for q, u0, w0, r_end in [
            (5.0, -1.0, 0.0, 10.0),
            (5.0, 1.0, 0.0, 1e-5),
            (5.0, 1.0, 0.0, math.inf),
            (5.0, 1.0, math.nan, 10.0),
            (400.0, 0.01, 1.0, 10.0),  # u0^(-q) overflows a float
            (math.nan, 1.0, 0.0, 10.0),  # u stays at 1.0 = 1.0^(-nan)
            (math.nan, 1.0, 1.0, 10.0),  # a NaN first step
            (math.inf, 1.0, 1.0, 10.0),
            (-math.inf, 1.0, 1.0, 10.0),
        ]:
            with pytest.raises(ValueError):
                shooting._shoot(q, u0, w0, r_end)
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                integrate_radial(q, u0, w0, r_end)

    def test_density_overflow_is_inf_for_both_float_types(self):
        # a Python float power raises OverflowError where numpy's float64
        # gives inf; both paths share this right-hand side
        _, _, rhs = _shot(50.0, 1.0, 0.0, 10.0, 0.0)
        for y in ((1e-7, 0.0, 0.0, 0.0), np.array([1e-7, 0.0, 0.0, 0.0])):
            with np.errstate(over="ignore"):
                assert rhs(1.0, y)[3] == -math.inf


def _combine(K, terms):
    """sum_j c_j K[j] over (j, c_j) in terms, per component, in stage order."""
    su = sdu = sw = sdw = 0.0
    for j, c in terms:
        ku, kdu, kw, kdw = K[j]
        su += ku * c
        sdu += kdu * c
        sw += kw * c
        sdw += kdw * c
    return su, sdu, sw, sdw


def _loop_step(rhs, r, h, y, f):
    """One DOP853 step as a loop over the tableau (stages: K, f_new last)."""
    C, A, B, E3, E5 = shooting._dop853_tableau()
    u, du, w, dw = y
    K = [f]
    for c, terms in zip(C[1:], A[1:]):
        su, sdu, sw, sdw = _combine(K, terms)
        K.append(rhs(r + c * h, (u + su * h, du + sdu * h,
                                 w + sw * h, dw + sdw * h)))
    y_new = tuple(v + h * s for v, s in zip(y, _combine(K, B)))
    f_new = rhs(r + h, y_new)
    K.append(f_new)
    n5 = n3 = 0.0
    for v, v_new, e5, e3 in zip(y, y_new, _combine(K, E5), _combine(K, E3)):
        scale = shooting._ATOL + max(abs(v), abs(v_new)) * shooting._RTOL
        e5 /= scale
        e3 /= scale
        n5 += e5 * e5
        n3 += e3 * e3
    err = 0.0 if n5 == 0.0 and n3 == 0.0 else (
        h * n5 / math.sqrt((n5 + 0.01 * n3) * 4))
    return y_new, f_new, err, tuple(K)


def _loop_rhs(q, forcing, g_floor, calls=None):
    """The radial system's right-hand side as a plain closure."""
    def rhs(r, y):
        if calls is not None:
            calls.append(r)
        u, du, w, dw = y
        if u > 0:
            try:
                g = u ** (-q)
            except OverflowError:
                g = math.inf
        else:
            g = g_floor
        return (du, w - 2.0 * du / r, dw, forcing - g - 2.0 * dw / r)

    return rhs


def _loop_march(q, u0, w0, r_end, forcing, on_step=None, calls=None):
    """One shot as a Python loop of _loop_step calls on _loop_rhs: the
    reference for the generated march, float operation for float operation.
    calls, if given, collects the radius of every right-hand-side call."""
    y, floor, g_floor = shooting._start(q, u0, w0, r_end, forcing)
    rhs = _loop_rhs(q, forcing, g_floor, calls)
    r, r_end = shooting._R_START, float(r_end)
    f = rhs(r, y)
    h_abs = shooting._initial_step(rhs, r, y, f, r_end)
    g = y[0] - floor
    exponent, safety = shooting._ERROR_EXPONENT, shooting._SAFETY
    while True:
        min_step = 10.0 * abs(math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise shooting.IntegrationError(_TOO_SMALL)
            r_new = min(r + h_abs, r_end)
            h = r_new - r
            y_new, f_new, err, stages = _loop_step(rhs, r, h, y, f)
            if err < 1.0:
                factor = shooting._MAX_FACTOR if err == 0.0 else min(
                    shooting._MAX_FACTOR, safety * err ** exponent)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(shooting._MIN_FACTOR, safety * err ** exponent)
            rejected = True
        if on_step is not None:
            on_step(rhs, r, r_new, y, y_new, stages)
        g_new = y_new[0] - floor
        if g >= 0.0 and g_new <= 0.0:
            return floor, (True, r, r_new, g, g_new, y_new[1])
        if r_new >= r_end:
            return floor, (False, r, r_new, g, g_new, y_new[1])
        r, y, f = r_new, y_new, f_new
        g = g_new


def _recorded_shot(march, *args):
    """(outcome or error message, step count, the bytes of every float that
    on_step saw: radii, states and stages) of one shot.  The outcome is the
    floor's bits, whether u touched it, and the bits of the end state's
    radii, u - floor values and final u'."""
    values = []

    def record(rhs, r, r_new, y, y_new, stages):
        values.extend((r, r_new, *y, *y_new))
        for k in stages:
            values.extend(k)

    try:
        floor, (touched, *end) = march(*args, on_step=record)
        outcome = (floor.hex(), touched, *(v.hex() for v in end))
    except shooting.IntegrationError as exc:
        outcome = str(exc)
    return outcome, len(values) // 62, np.array(values).tobytes()


def _plain_bisection(q, u0, r_end):
    """(w0, outcome) of every shot of a plain bisection: the scan of
    bisect_growth_threshold, then midpoints down to adjacent floats."""
    history = []

    def survives(w0):
        touched = shooting._shoot(q, u0, w0, r_end)[0]
        history.append((w0, "touched_zero" if touched else "survived"))
        return not touched

    assert not survives(0.0)
    lo, hi = 0.0, 1.0
    while not survives(hi):
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if survives(mid):
            hi = mid
        else:
            lo = mid
    return history


class TestStepper:
    """The in-module DOP853 stepper against scipy's solve_ivp."""

    def test_tableau_is_scipys_bit_for_bit(self):
        from scipy.integrate._ivp import dop853_coefficients as want

        got = shooting._dop853_coefficients()
        for name in ("A", "B", "C", "D", "E3", "E5"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_generated_step_equals_the_loop_bit_for_bit(self):
        # whole shots: outcome and end state, step count, every accepted
        # step's radii, states and 13 stages, and the too-small-step failure
        rng = np.random.default_rng(7)
        shots = [(50.0, 1.0, -5.0, 100.0, 0.0),  # the step size collapses
                 (400.0, 1.0, -1.0, 10.0, 0.0)]  # u^(-q) overflows in stages
        for _ in range(300):
            q = float(rng.choice([2.0, 3.0, 5.0, 7.0, 50.0]))
            shots.append((q, float(rng.uniform(0.5, 2.0)),
                          float(rng.uniform(-1.0, 3.0)),
                          float(10.0 ** rng.uniform(0.0, 1.5)),
                          float(rng.choice([0.0, 0.3]))))
        outcomes = set()
        for shot in shots:
            got = _recorded_shot(shooting._march, *shot)
            want = _recorded_shot(_loop_march, *shot)
            assert got == want, shot
            outcomes.add(got[0] if isinstance(got[0], str) else got[0][1])
        assert outcomes == {True, False, _TOO_SMALL}

    @pytest.mark.parametrize("q", [2.0, 3.0, 5.0])
    def test_bisection_outcomes_equal_the_loop_steps(self, q):
        history = bisect_growth_threshold(q, 1.0, 1e4).history
        for w0, outcome in history:
            touched = _loop_march(q, 1.0, w0, 1e4, 0.0)[1][0]
            assert ("touched_zero" if touched else "survived") == outcome

    def test_generated_once_per_process_and_not_at_import(self):
        # a fresh `import biharm.cli` generates nothing; the first shot
        # generates the one march that every later shot reuses
        probe = ("import biharm.cli\n"
                 "from biharm import shooting as s\n"
                 "print(s._shot_code.cache_info().currsize)\n"
                 "s._shoot(3.0, 1.0, 1.3, 100.0)\n"
                 "s.integrate_radial(5.0, 1.0, -0.1, 100.0)\n"
                 "print(s._shot_code.cache_info().misses)\n")
        env = {**os.environ,
               "PYTHONPATH": str(Path(shooting.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]

    # w_crit of bisect_growth_threshold(q, 1.0, 1e4) with solve_ivp shots
    W_CRIT = {2.0: 2.003048244882855, 3.0: 1.3698214805472406,
              5.0: 0.9529904827586941}

    @pytest.mark.parametrize("q", sorted(W_CRIT))
    @pytest.mark.parametrize("delta", [1e-6, 1e-10, 1e-12])
    def test_outcome_matches_solve_ivp_near_the_threshold(self, q, delta):
        for w0 in (self.W_CRIT[q] * (1.0 - delta),
                   self.W_CRIT[q] * (1.0 + delta)):
            touched = len(_scipy_shot(q, 1.0, w0, 1e4).t_events[0]) > 0
            assert shooting._shoot(q, 1.0, w0, 1e4)[0] == touched
            assert integrate_radial(q, 1.0, w0, 1e4).outcome == (
                "touched_zero" if touched else "survived")

    def test_touched_radius_matches_solve_ivp(self):
        # the floor event's root on the step's interpolant, as solve_ivp's
        # brentq finds it on its own
        traj = integrate_radial(3.0, 1.0, 1.3, 1e4)
        want = float(_scipy_shot(3.0, 1.0, 1.3, 1e4).t_events[0][0])
        assert traj.outcome == "touched_zero"
        assert traj.r_stop == pytest.approx(want, rel=1e-12, abs=0.0)
        assert traj.r[-1] <= traj.r_stop

    @pytest.mark.parametrize("q, u0, w0, r_end", [
        (3.0, 1.0, 1.3, 1e4),  # touches the floor near r = 50
        (7.0, 15.0 ** -0.25, 3.0 * 15.0 ** 0.25, 10.0),  # the exact start
        (2.0, 1.0, 2.5, 1e4),  # survives with quadratic growth
    ])
    def test_samples_match_solve_ivp(self, q, u0, w0, r_end):
        # dense output of the same steps up to last-bit differences in the
        # stage sums, which the trajectory carries forward
        traj = integrate_radial(q, u0, w0, r_end)
        want = _scipy_shot(q, u0, w0, r_end, n_eval=400)
        np.testing.assert_array_equal(traj.r, want.t)
        inner = traj.r <= r_end / 2
        for got, ref in zip((traj.u, traj.du, traj.w, traj.dw), want.y):
            np.testing.assert_allclose(got[inner], ref[inner], rtol=1e-10,
                                       atol=0.0)

    def test_too_small_step_fails_like_solve_ivp(self):
        # u dives to the floor where u^(-50) is huge and the step size
        # collapses; the stepper stops there with solve_ivp's error, and its
        # loop reference (bit for bit the same steps) after about as many
        # right-hand-side calls
        with pytest.raises(shooting.IntegrationError) as info:
            shooting._shoot(50.0, 1.0, -5.0, 100.0)
        calls, calls_scipy = [], []
        with pytest.raises(shooting.IntegrationError):
            _loop_march(50.0, 1.0, -5.0, 100.0, 0.0, calls=calls)
        with pytest.raises(shooting.IntegrationError) as info_scipy:
            _scipy_shot(50.0, 1.0, -5.0, 100.0, calls=calls_scipy)
        assert str(info.value) == str(info_scipy.value) == _TOO_SMALL
        assert len(calls) <= 1.1 * len(calls_scipy)


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
        # the shots read only whether u touched zero; the dense output runs
        # on the steps of one shot, at w_crit, and solve_ivp never runs
        calls, dense = [], []
        solve_ivp, dense_rows = shooting.solve_ivp, shooting._dense_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_ivp(*args, **kwargs)

        def counted_rows(rhs, r, *args):
            dense.append(r)
            return dense_rows(rhs, r, *args)

        monkeypatch.setattr(shooting, "solve_ivp", counted)
        monkeypatch.setattr(shooting, "_dense_rows", counted_rows)
        res = bisect_growth_threshold(2.0, 1.0, 3e3)
        assert calls == []
        assert dense == sorted(set(dense)) and dense[0] == shooting._R_START
        assert res.trajectory.r[-1] == 3e3

    @pytest.mark.parametrize("q", [2.0, 3.0, 5.0])
    def test_threshold_trajectory_survives(self, q):
        # the trajectory at w_crit runs on the steps of the shot that saw
        # w_crit survive, so it cannot touch the floor where that shot did not
        res = bisect_growth_threshold(q, 1.0, 1e4)
        traj = res.trajectory
        assert traj.outcome == "survived" and traj.r_stop is None
        assert traj.r[-1] == 1e4
        assert np.all(traj.u > shooting._FLOOR_FRAC * 1.0)

    def test_thmA_iv_threshold_is_unchanged(self):
        # w_crit of shoot --preset thmA-iv on the in-module stepper, to the
        # bit (solve_ivp shots gave 1.3698214805472406, one ulp below): a
        # stepper whose arithmetic drifts by one ulp moves it
        # bisection took 55 shots to the same bracket, and Illinois regula
        # falsi on a gap graded only near the threshold 27
        res = bisect_growth_threshold(3.0, 1.0, 1e4)
        assert res.w_crit == float.fromhex("0x1.5eac9edc4f06fp+0")
        assert res.bracket[0] == float.fromhex("0x1.5eac9edc4f06ep+0")
        assert len(res.history) <= 16

    # shots of bisect_growth_threshold(q, 1.0, r_end) with the gap that
    # was not graded on either side far from the threshold
    UNGRADED_SHOTS = {(2.0, 1e4): 31, (3.0, 1e4): 27, (5.0, 1e4): 31,
                      (2.0, 3e3): 20}

    @pytest.mark.parametrize("q, r_end", sorted(UNGRADED_SHOTS))
    def test_graded_gap_takes_no_more_shots(self, q, r_end):
        res = bisect_growth_threshold(q, 1.0, r_end)
        assert len(res.history) <= self.UNGRADED_SHOTS[q, r_end]

    # w_crit of plain bisection on the in-module stepper
    W_BISECT = {2.0: "0x1.0063e2880a815p+1", 3.0: "0x1.5eac9edc4f06fp+0",
                5.0: "0x1.e7ee5e59b2183p-1"}

    @pytest.mark.parametrize("q", sorted(W_BISECT))
    def test_infinite_gaps_give_plain_bisection(self, q, monkeypatch):
        # with no gap to go by, every point is the midpoint: the shots of
        # the bisection this search replaced, one for one
        history = _plain_bisection(q, 1.0, 1e4)
        monkeypatch.setattr(shooting, "_floor_gap", lambda *end: math.inf)
        res = bisect_growth_threshold(q, 1.0, 1e4)
        assert res.history == history
        assert res.w_crit == float.fromhex(self.W_BISECT[q])

    @pytest.mark.parametrize("q", [2.0, 5.0])
    def test_threshold_matches_plain_bisection(self, q):
        # q = 5's outcome is not monotone in the last bits of w0, so another
        # sequence of shots may end a few ulps away
        res = bisect_growth_threshold(q, 1.0, 1e4)
        assert res.w_crit == pytest.approx(float.fromhex(self.W_BISECT[q]),
                                           rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [2.0, 3.0, 5.0])
    def test_every_shot_lies_strictly_inside_the_bracket(self, q):
        res = bisect_growth_threshold(q, 1.0, 1e4)
        first = next(i for i, (_, outcome) in enumerate(res.history)
                     if outcome == "survived")
        lo, hi = res.history[first - 1][0], res.history[first][0]
        for w0, outcome in res.history[first + 1:]:
            assert lo < w0 < hi
            if outcome == "survived":
                hi = w0
            else:
                lo = w0
        assert (lo, hi) == res.bracket
        assert math.nextafter(lo, math.inf) == hi

    def test_regula_falsi_on_a_smooth_root(self):
        # x^3 - 2 on (1, 2): adjacent floats around 2^(1/3) in 17 points,
        # where bisection takes 52
        points = []

        def side(x):
            points.append(x)
            return x ** 3 >= 2.0, x ** 3 - 2.0

        lo, hi = shooting._regula_falsi(side, 1.0, -1.0, 2.0, 6.0)
        assert math.nextafter(lo, math.inf) == hi
        assert lo ** 3 < 2.0 <= hi ** 3
        assert len(points) <= 20

    @pytest.mark.parametrize("root", [0.3, 1.0 / 3.0, math.pi / 4.0, 0.7])
    @pytest.mark.parametrize("kink", [2.5, 1.0 / 2.5])
    def test_regula_falsi_across_a_kink(self, root, kink):
        # the shape of the graded gap: linear on each side of the root, with
        # slopes that differ by a factor 2.5; a secant on two points of one
        # side lands on the root, then the far end has to move as well
        points = []

        def side(x):
            points.append(x)
            high = x >= root
            return high, (x - root) * (kink if high else 1.0)

        lo, hi = shooting._regula_falsi(side, 0.0, -root, 1.0,
                                        kink * (1.0 - root))
        assert math.nextafter(lo, math.inf) == hi
        assert lo < root <= hi
        assert len(points) <= 20

    def test_small_threshold_ends_on_adjacent_floats(self):
        # w_crit near 9e-7 lies 2^-20 below the first scan point: a cap of
        # 60 halvings stopped 9.6e-13 relative short of float resolution
        res = bisect_growth_threshold(5.0, 1000.0, 1e6)
        lo, hi = res.bracket
        assert 8e-7 < hi < 1e-6
        assert math.nextafter(lo, math.inf) == hi

    def test_missing_bracket_raises(self):
        # a large u0 makes the density negligible: w0 = 0 already survives,
        # so no touching trajectory exists to bracket against
        with pytest.raises(BracketNotFoundError):
            bisect_growth_threshold(5.0, 100.0, 50.0)
