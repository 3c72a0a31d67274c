"""Radial shooting oracle.

Radial solutions of the fourth-order equation satisfy the ODE system

    u'' + (2/r) u' = w,        w'' + (2/r) w' = -u^(-q),

with u(0) = u0 > 0, u'(0) = w'(0) = 0 and the free parameter w0 = w(0), the
Laplacian at the origin.  Integrating this system is an entirely independent
route to the same profiles the fixed-point solver produces: no kernels, no
quadrature, just an explicit Runge-Kutta integrator with a series start.

Small w0 makes u dip to zero in finite radius; large w0 gives quadratic
growth.  The threshold value separates the two and the borderline trajectory
grows like r^(4/(q+1)) for 1 < q < 3 (with a universal coefficient), like
r (log r)^(1/4) at q = 3, and linearly for q > 3.  bisect_growth_threshold
locates it.

scipy is loaded only where it is used.  This module imports scipy.integrate
at its first shot (`solve_ivp` below), so `biharm shoot` loads it.  `biharm
verify` loads scipy.stats for its Halton draw (and scipy.stats imports
scipy.integrate).  `biharm solve` and `biharm sweep` load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class BracketNotFoundError(RuntimeError):
    """No sign change in the shooting outcome over the scanned w0 range."""


@dataclass
class Trajectory:
    q: float
    u0: float
    w0: float
    r: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    du: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    dw: np.ndarray = field(repr=False)
    outcome: str  # "survived" | "touched_zero"
    r_stop: Optional[float]  # crossing radius when touched_zero
    sol: object = field(repr=False, default=None)  # dense interpolant

    def interp_u(self, radii) -> np.ndarray:
        return self.sol(np.asarray(radii, dtype=float))[0]


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


_R_START = 1e-4
_FLOOR_FRAC = 1e-3
_RTOL = 1e-9  # DOP853 tolerances of every shot
_ATOL = 1e-12


def _integrate(q: float, u0: float, w0: float, r_end: float,
               forcing: float = 0.0, **sampling):
    """solve_ivp result of one shot; `sampling` passes t_eval / dense_output.

    The 2/r terms are regular once started at r0 = _R_START with the
    quadratic Taylor expansions u = u0 + w0 r^2/6, w = w0 + (F - u0^(-q)) r^2/6.
    Integration (DOP853 at rtol _RTOL, atol _ATOL) stops when u falls below
    the floor _FLOOR_FRAC u0; the result's t_events[0] holds that radius.
    """
    if u0 <= 0.0:
        raise ValueError(f"u0 must be positive, got {u0}")
    if r_end <= _R_START * 10:
        raise ValueError(f"r_end too small: {r_end}")
    g0 = u0 ** (-q) - forcing
    r0 = _R_START
    y0 = np.array([
        u0 + w0 * r0 * r0 / 6.0,
        w0 * r0 / 3.0,
        w0 - g0 * r0 * r0 / 6.0,
        -g0 * r0 / 3.0,
    ])
    floor = _FLOOR_FRAC * u0

    def rhs(r, y):
        u, du, w, dw = y
        g = abs(u) ** (-q) if u > 0 else floor ** (-q)
        return (du, w - 2.0 * du / r, dw, forcing - g - 2.0 * dw / r)

    def hit_floor(r, y):
        return y[0] - floor

    hit_floor.terminal = True
    hit_floor.direction = -1.0

    res = solve_ivp(rhs, (r0, r_end), y0, method="DOP853", rtol=_RTOL,
                    atol=_ATOL, events=hit_floor, **sampling)
    if not res.success:
        raise RuntimeError(f"integrator failed: {res.message}")
    return res


def integrate_radial(q: float, u0: float, w0: float, r_end: float,
                     n_eval: int = 400, forcing: float = 0.0) -> Trajectory:
    """Integrate the radial system from a series start near the origin.

    The shot (_integrate) stops when u falls below _FLOOR_FRAC u0 (outcome
    "touched_zero"); otherwise it runs to r_end ("survived").  n_eval sample
    radii are geometric, and the trajectory keeps the dense interpolant.  A
    constant `forcing` F adds to the w equation, matching profiles solved
    against a quartic polynomial (its bilaplacian is the constant 120 eps).
    """
    t_eval = np.geomspace(_R_START, r_end, n_eval)
    res = _integrate(q, u0, w0, r_end, forcing, t_eval=t_eval,
                     dense_output=True)
    touched = len(res.t_events[0]) > 0
    return Trajectory(
        q=q, u0=u0, w0=w0,
        r=res.t, u=res.y[0], du=res.y[1], w=res.y[2], dw=res.y[3],
        outcome="touched_zero" if touched else "survived",
        r_stop=float(res.t_events[0][0]) if touched else None,
        sol=res.sol)


def borderline_exponent(q: float) -> tuple[str, float]:
    """(model, exponent) of the threshold trajectory's growth."""
    if q <= 1.0:
        raise ValueError("threshold growth is defined for q > 1")
    if q < 3.0:
        return "power", 4.0 / (q + 1.0)
    if q == 3.0:
        return "linear_times_log_quarter", 1.0
    return "power", 1.0


def universal_coefficient(q: float) -> float:
    """Coefficient of the r^(4/(q+1)) threshold growth for 1 < q < 3.

    Plugging C r^s into the radial bilaplacian gives
    C^(q+1) s (s + 1) (s - 1) (2 - s) = 1 with s = 4/(q+1).
    """
    if not (1.0 < q < 3.0):
        raise ValueError("universal coefficient exists for 1 < q < 3")
    s = 4.0 / (q + 1.0)
    return (1.0 / (s * (s + 1.0) * (s - 1.0) * (2.0 - s))) ** (1.0 / (q + 1.0))


def threshold_growth_diagnostics(traj: Trajectory, q: float) -> dict:
    """Measure the borderline growth law on a threshold trajectory.

    The bisection midpoint follows the borderline solution over a few decades
    and then departs to one side, so global fits are biased.  Instead the
    ratio u / (growth law) is tracked in log r and read off where its local
    log-slope is smallest (the plateau); the effective exponent is
    d log u / d log r there.  Returns the plateau coefficient and radius, the
    effective exponent, and the ratio trace for drift checks.
    """
    model, expo = borderline_exponent(q)
    sel = (traj.u > 0) & (traj.r > 10.0 * _R_START)
    r, u = traj.r[sel], traj.u[sel]
    base = r ** expo
    if model == "linear_times_log_quarter":
        base = base * np.log(np.maximum(r, math.e)) ** 0.25
    ratio = u / base
    lr = np.log(r)
    slope = np.gradient(np.log(ratio), lr)
    dlogu = np.gradient(np.log(u), lr)
    window = (r >= 10.0) & (r <= r[-1] / 4.0)
    if not np.any(window):
        raise ValueError("trajectory too short to locate a growth plateau")
    k = np.flatnonzero(window)[np.argmin(np.abs(slope[window]))]
    return {
        "model": model,
        "target_exponent": expo,
        "coeff": float(ratio[k]),
        "r_plateau": float(r[k]),
        "exponent": float(dlogu[k]),
        "r_trace": r,
        "ratio_trace": ratio,
    }


@dataclass
class BisectResult:
    w_crit: float
    bracket: tuple
    trajectory: Trajectory  # integrated at w_crit
    history: list  # (w0, outcome) pairs in evaluation order


_N_BISECT = 60  # most halvings; the loop also stops at float resolution
_W_SCAN_START = 1.0  # first upper w0 tried, doubled until a shot survives
_BISECT_N_EVAL = 800  # sample radii of the returned trajectory


def bisect_growth_threshold(q: float, u0: float, r_end: float) -> BisectResult:
    """Bisection on w0 between touching zero and surviving to r_end.

    w0 = 0 must touch zero (checked; its failure means the scan range or q is
    outside the regime where the threshold exists) and the upper end is found
    by doubling _W_SCAN_START.  If no survivor appears within 60 doublings,
    BracketNotFoundError is raised.  The shots read only their outcome; the
    returned trajectory, sampled at _BISECT_N_EVAL radii, is integrated at
    the final midpoint.  With up to _N_BISECT halvings it follows the
    borderline growth over several decades before drifting to one side.
    """
    history = []

    def survives(w0: float) -> bool:
        touched = len(_integrate(q, u0, w0, r_end).t_events[0]) > 0
        history.append((w0, "touched_zero" if touched else "survived"))
        return not touched

    if survives(0.0):
        raise BracketNotFoundError(
            f"w0 = 0 survived to r = {r_end:g}; no threshold bracket in this regime")
    lo = 0.0
    hi = _W_SCAN_START
    for _ in range(60):
        if survives(hi):
            break
        lo, hi = hi, hi * 2.0
    else:
        raise BracketNotFoundError(
            f"no surviving trajectory for w0 up to {hi:g} (q = {q}, u0 = {u0})")

    for _ in range(_N_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # float resolution reached
        if survives(mid):
            hi = mid
        else:
            lo = mid
    w_crit = 0.5 * (lo + hi)
    final = integrate_radial(q, u0, w_crit, r_end, n_eval=_BISECT_N_EVAL)
    return BisectResult(w_crit=w_crit, bracket=(lo, hi), trajectory=final,
                        history=history)
