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

One integrator runs every shot (_start: series start and floor; _RHS: the
right-hand side): _march, a Python-float port of scipy's DOP853 as
solve_ivp runs it, with its tableau, step control and floor event (Hairer,
Norsett & Wanner, Solving ODEs I, II.4-II.6; Dormand & Prince 1980).  A
whole shot is one call of a straight-line loop generated from the tableau
at the first shot (_shot_code): the stage sums are written out term by
term and every stage expands the right-hand side in place, so a step costs
its float arithmetic, not a loop over (stage, coefficient) pairs or 12
function calls.  The threshold search's shots read only their outcome and
their end state, from which _floor_gap makes a signed distance in radius to
the threshold, graded by the borderline growth law (_gap_law) so that it is
about linear in w0 on both sides; _regula_falsi steers by the secant of the
last two shots.  The trajectories that are returned (single shots, the
exact start, the one at the threshold) also keep DOP853's order-7 dense
output of each step and are sampled on it.

No command imports scipy: the coefficients are read from scipy's
dop853_coefficients.py by file path at the first shot (_dop853_coefficients),
which needs only numpy.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import textwrap
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
    sol: object = field(repr=False, default=None)  # dense output, r -> y


# no command calls this; perfbench/tracing.py patches this name
def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


class IntegrationError(RuntimeError):
    """A shot's step size fell below the float spacing before r_end, or it
    used up its step budget (_MAX_ATTEMPTS)."""


_R_START = 1e-4
_FLOOR_FRAC = 1e-3
_RTOL = 1e-9  # DOP853 tolerances of every shot
_ATOL = 1e-12
# Step attempts (accepted or rejected) one shot may make.  A shot follows
# a solution smooth on the scale of r in a few dozen steps per decade of r
# (thmA-iv's longest, from 1e-4 to 1e4, takes 189; 400 random shots with q
# up to 316 took at most 307).  A huge q, where u^(-q) overflows as soon as
# u dips below u0, advances only by steps that keep u at u0, and would take
# millions.  10^4 attempts take 0.13-0.19 s on a 2-vCPU Xeon host.
_MAX_ATTEMPTS = 10_000


# The right-hand side at radius {r} and state ({u}, {k}u, {w}, {k}w), where
# {k}u = u' and {k}w = w' are their own derivatives: it sets {k}du = u'' and
# {k}dw = w''.  This is the one definition of the ODE; the rhs(r, y) of a
# shot (_RHS_OF) and every stage of the generated march expand it.
# mq = -q; below u = 0 the density freezes at g_floor, and where u^(-q)
# overflows a Python float it is inf, as numpy's float64 power gives.
_RHS = """\
try: g = {u} ** mq if {u} > 0 else g_floor
except OverflowError: g = inf
{k}du = {w} - 2.0 * {k}u / {r}
{k}dw = forcing - g - 2.0 * {k}w / {r}"""


def _start(q: float, u0: float, w0: float, r_end: float, forcing: float):
    """(y0, floor, g_floor) of one shot from r0 = _R_START.

    The 2/r terms are regular once started at r0 with the quadratic Taylor
    expansions u = u0 + w0 r^2/6, w = w0 + (F - u0^(-q)) r^2/6.  A shot
    stops when u falls to floor = _FLOOR_FRAC u0; below u = 0 the density
    freezes at g_floor = floor^(-q).  A non-finite q is refused: its
    first step would be NaN, or u would stay exactly at 1.0 = 1.0^(-q),
    and the march would never end.
    """
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    if not u0 > 0.0:
        raise ValueError(f"u0 must be positive, got {u0}")
    if not _R_START * 10 < r_end < math.inf:
        raise ValueError(f"r_end must be finite and above {_R_START * 10:g}, "
                         f"got {r_end}")

    def density(u):
        try:
            return u ** (-q)
        except OverflowError:
            return math.inf

    g0 = density(u0) - forcing
    r0 = _R_START
    y0 = (u0 + w0 * r0 * r0 / 6.0, w0 * r0 / 3.0,
          w0 - g0 * r0 * r0 / 6.0, -g0 * r0 / 3.0)
    if not all(map(math.isfinite, y0)):
        raise ValueError(f"the series start is not finite (q = {q}, "
                         f"u0 = {u0}, w0 = {w0})")
    floor = _FLOOR_FRAC * u0
    return y0, floor, density(floor)


@functools.cache
def _dop853_coefficients():
    """scipy's DOP853 coefficient file, executed from its path at the first
    shot.

    The file (scipy/integrate/_ivp/dop853_coefficients.py) needs only numpy.
    find_spec locates the scipy package without importing it; importing the
    file as a scipy module would first run scipy/integrate/__init__, which
    loads all of scipy.integrate.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed; the shooting oracle reads "
                          "its DOP853 coefficients")
    path = os.path.join(spec.submodule_search_locations[0], "integrate", "_ivp",
                        "dop853_coefficients.py")
    file_spec = importlib.util.spec_from_file_location(
        "biharm._dop853_coefficients", path)
    module = importlib.util.module_from_spec(file_spec)
    file_spec.loader.exec_module(module)
    return module


@functools.cache
def _dop853_tableau():
    """DOP853's step coefficients as Python floats.

    (C, A, B, E3, E5): the 12 stage nodes, then for each stage row of A and
    for B, E3 and E5 the (stage index, coefficient) pairs that are not zero.
    """
    dop = _dop853_coefficients()

    def terms(row):
        return tuple((j, float(c)) for j, c in enumerate(row) if c != 0.0)

    n = dop.N_STAGES
    return (tuple(float(c) for c in dop.C[:n]),
            tuple(terms(dop.A[s, :s]) for s in range(n)),
            terms(dop.B), terms(dop.E3), terms(dop.E5))


_SAFETY = 0.9  # DOP853 step-size controller, as in scipy's RungeKutta
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0

# rhs_of(mq, forcing, g_floor) -> rhs(r, y): the derivative tuple at
# y = (u, u', w, w'), numpy or Python floats, for _initial_step, on_step
# (_dense_rows) and the tests' solve_ivp oracle.
_RHS_OF = """\
def rhs_of(mq, forcing, g_floor):
    def rhs(r, y):
        u, ku, w, kw = y
{rhs}
        return ku, kdu, kw, kdw
    return rhs
"""

# One whole shot; {step} computes the stages k0..k12 (k0 = f at (r, y),
# k12 = f_new at (r + h, y_new)), y_new = (nu, ndu, nw, ndw) and err.  A
# stage's k{s}u and k{s}w are its u' and w'.
_MARCH = """\
def march(mq, forcing, g_floor, floor, r, r_end, u, du, w, dw,
          k0u, k0du, k0w, k0dw, h_abs, on_step, rhs):
    event = u - floor
    attempts = 0
    while True:
        min_step = 10.0 * abs(nextafter(r, inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError("integrator failed: Required step size"
                                       " is less than spacing between numbers.")
            attempts += 1
            if attempts > {max_attempts!r}:
                raise IntegrationError("integrator failed: no end of the shot"
                                       " in {max_attempts!r} step attempts")
            r_new = min(r + h_abs, r_end)
            h = r_new - r
{step}
            if err < 1.0:
                factor = ({max_factor!r} if err == 0.0 else
                          min({max_factor!r}, {safety!r} * err ** {exponent!r}))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max({min_factor!r}, {safety!r} * err ** {exponent!r})
            rejected = True
        if on_step is not None:
            on_step(rhs, r, r_new, (u, du, w, dw), (nu, ndu, nw, ndw),
                    ({stages}))
        event_new = nu - floor
        touched = event >= 0.0 and event_new <= 0.0
        if touched or r_new >= r_end:
            return touched, r, r_new, event, event_new, ndu
        r, u, du, w, dw = r_new, nu, ndu, nw, ndw
        k0u, k0du, k0w, k0dw = {f_new}
        event = event_new
"""


def _march_source(C, A, B, E3, E5):
    """The source of _RHS_OF and _MARCH for this tableau.

    Each nonzero coefficient is written as its repr, which reads back as
    the same float, so the source needs no names for them.
    """
    xs = ("u", "du", "w", "dw")

    def total(terms, x):
        return "(0.0" + "".join(f" + k{j}{x} * {c!r}" for j, c in terms) + ")"

    def rhs(k, r, u, w):
        return _RHS.format(k=k, r=r, u=u, w=w)

    def stage(s):
        return ", ".join(f"k{s}{x}" for x in xs)

    step = []
    for s in range(1, len(C)):
        step.append(f"rs = r + {C[s]!r} * h")
        step += [f"{y} = {x} + {total(A[s], x)} * h" for x, y in
                 zip(xs, ("su", f"k{s}u", "sw", f"k{s}w"))]
        step.append(rhs(f"k{s}", "rs", "su", "sw"))
    n = len(C)
    step += [f"n{x} = {x} + h * {total(B, x)}" for x in xs]
    step += [f"rs = r + h\nk{n}u = ndu\nk{n}w = ndw",
             rhs(f"k{n}", "rs", "nu", "nw"), "n5 = n3 = 0.0"]
    for x in xs:
        step += [f"s = {_ATOL!r} + max(abs({x}), abs(n{x})) * {_RTOL!r}",
                 f"e5 = {total(E5, x)} / s",
                 f"e3 = {total(E3, x)} / s",
                 "n5 += e5 * e5\nn3 += e3 * e3"]
    step.append("err = (0.0 if n5 == 0.0 and n3 == 0.0"
                " else h * n5 / sqrt((n5 + 0.01 * n3) * 4))")
    march = _MARCH.format(
        step=textwrap.indent("\n".join(step), " " * 12),
        stages=", ".join(f"({stage(s)})" for s in range(n + 1)),
        f_new=stage(n), max_attempts=_MAX_ATTEMPTS, safety=_SAFETY,
        min_factor=_MIN_FACTOR, max_factor=_MAX_FACTOR,
        exponent=_ERROR_EXPONENT)
    rhs_of = _RHS_OF.format(rhs=textwrap.indent(rhs("k", "r", "u", "w"), " " * 8))
    return rhs_of + "\n\n" + march


@functools.cache
def _shot_code():
    """(march, rhs_of), generated from the tableau at the first shot.

    march(mq, forcing, g_floor, floor, r, r_end, *y, *f, h_abs, on_step,
    rhs) runs one shot from state y with f = rhs(r, y) and first step
    h_abs, and returns its end state (touched, r, r_new, event, event_new,
    u'): whether u touched the floor, the last accepted step's radii and
    its two values of u - floor, and u' at r_new.  Each step is written
    out in full: the 12 stages with _RHS expanded, the order-8 update, the
    error norm and scipy's step-size controller.  Each stage sum reads
    (0.0 + k_j * c_j + ...) over the tableau's nonzero terms in stage order,
    with each c_j a float literal, so every float operation is the one a
    loop over _dop853_tableau() does, in the same order.  The namespace the
    source runs in holds only sqrt, nextafter, inf and IntegrationError.
    The 13 stage tuples (f first, f_new last) are built only for on_step.
    """
    namespace = {"sqrt": math.sqrt, "nextafter": math.nextafter,
                 "inf": math.inf, "IntegrationError": IntegrationError}
    exec(_march_source(*_dop853_tableau()), namespace)
    return namespace["march"], namespace["rhs_of"]


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values)) / 2.0  # 4 components


def _initial_step(rhs, r0: float, y0, f0, r_end: float) -> float:
    """scipy's select_initial_step for DOP853 (error estimator order 7).

    A start whose scaled derivative norm d1 overflows (u^(-q) near the top
    of the float range) gives h0 = 0, where scipy divides by zero: that is
    an IntegrationError here.
    """
    scale = [_ATOL + abs(v) * _RTOL for v in y0]
    d0 = _rms(v / s for v, s in zip(y0, scale))
    d1 = _rms(v / s for v, s in zip(f0, scale))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:
        raise IntegrationError("integrator failed: the derivative at the "
                               "start is beyond float range")
    span = abs(r_end - r0)
    h0 = min(h0, span)
    f1 = rhs(r0 + h0, tuple(v + h0 * dv for v, dv in zip(y0, f0)))
    d2 = _rms((a - b) / s for a, b, s in zip(f1, f0, scale)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, span)


def _march(q: float, u0: float, w0: float, r_end: float, forcing: float,
           on_step=None):
    """Run one shot (_start) on DOP853 until u touches the floor or r = r_end.

    scipy's DOP853 as solve_ivp runs it, ported to Python floats: the same
    tableau, initial step, step-size controller, error norm, clip of the last
    step to r_end, and too-small-step failure (IntegrationError), plus a
    budget of _MAX_ATTEMPTS step attempts (IntegrationError).  Touched
    means u - floor goes from >= 0 to <= 0 between accepted steps, solve_ivp's
    rule for a terminal event of direction -1.  After the series start and
    the initial step, the whole shot is one call of the generated march
    (_shot_code), whose stage sums skip zero coefficients and add in stage
    order, so they can differ from scipy's BLAS dot products in the last
    bit.  on_step(rhs, r, r_new, y, y_new, stages) sees every accepted step.
    Returns (floor, end), with end the march's end state (_shot_code).
    """
    march, rhs_of = _shot_code()
    y, floor, g_floor = _start(q, u0, w0, r_end, forcing)
    rhs = rhs_of(-q, forcing, g_floor)
    r, r_end = _R_START, float(r_end)
    f = rhs(r, y)
    h_abs = _initial_step(rhs, r, y, f, r_end)
    return floor, march(-q, forcing, g_floor, floor, r, r_end, *y, *f, h_abs,
                        on_step, rhs)


def _gap_law(q: float, u0: float, r_end: float):
    """(p, sigma) of the threshold model that grades _floor_gap.

    Near the threshold a shot follows the borderline growth U(r) (module
    docstring) and leaves it along the fastest-growing perturbation: u is
    about U(r) (1 - k (r / r_end)^p), with k linear in w0 and k = 1 at the
    threshold of this r_end, where u meets the floor at r_end with slope
    -sigma = -p U(r_end) / r_end.  For 1 < q < 3, U = C r^s with s =
    4/(q+1) and C the universal coefficient, and the perturbation r^lambda
    solves the radial bilaplacian linearized about U, lambda (lambda + 1)
    (lambda - 1) (lambda - 2) = q s (s + 1) (s - 1) (2 - s), so p = lambda -
    s (0.58 at q = 1.5, 0.84 at q = 2).  For q >= 3 the perturbation is r^2
    against linear growth: p = 1, with U = 2^(1/4) r (log(r / u0))^(1/4) at
    q = 3 (r / u0 taken at least e), and U = u0^((3-q)/4) r for q > 3,
    whose coefficient scales with u0 as the equation does (u0 -> c^s u0
    with r -> c r); the linear law also serves as a scale for q <= 1, where
    no threshold law exists.
    """
    if 1.0 < q < 3.0:
        s = 4.0 / (q + 1.0)
        # the quartic in lambda is mu (mu - 2) with mu = lambda (lambda - 1)
        mu = 1.0 + math.sqrt(1.0 + q * s * (s + 1.0) * (s - 1.0) * (2.0 - s))
        p = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mu)) - s
        return p, p * universal_coefficient(q) * r_end ** (s - 1.0)
    if q == 3.0:
        return 1.0, 2.0 ** 0.25 * math.log(max(r_end / u0, math.e)) ** 0.25
    return 1.0, u0 ** ((3.0 - q) / 4.0)


def _floor_gap(q: float, u0: float, r_end: float, touched: bool, r: float,
               r_new: float, event: float, event_new: float,
               du: float) -> float:
    """Signed distance in radius from a shot's end state to the threshold
    of its r_end, graded by the threshold model (_gap_law): about linear in
    w0 on both sides, far from the threshold too.

    A touched shot gives (r_end / p) (1 - (r_end / r_c)^p) < 0, which the
    model makes linear in k; r_c is the root of u - floor interpolated
    linearly across the last step (event >= 0 >= event_new), and near the
    threshold the gap is r_c - r_end.  A survivor gives (u - floor) /
    max(-u', sigma) > 0 at r_end: the radius still to go to the floor at the
    steeper of its own final descent and the model's slope at the
    threshold.  The first is linear in w0 close to the threshold, where u
    dives onto the floor; the second keeps the gap finite and linear once u
    turns up.  From w0 = 0 to 2 w_crit (q = 1.5 to 8) the gap's slope in w0
    stays within a factor 3.5 of its slope at the threshold, on both sides.
    """
    p, sigma = _gap_law(q, u0, r_end)
    if touched:
        r_c = r if event == 0.0 else r + (r_new - r) * (
            event / (event - event_new))
        return r_end / p * (1.0 - (r_end / r_c) ** p)
    slope = max(-du, sigma)
    return event_new / slope if slope > 0.0 else math.inf


def _shoot(q: float, u0: float, w0: float, r_end: float):
    """(touched, gap) of one shot (_floor_gap); nothing is sampled."""
    end = _march(q, u0, w0, r_end, 0.0)[1]
    return end[0], _floor_gap(q, u0, r_end, *end)


def _dense_rows(rhs, r: float, h: float, y, y_new, stages) -> np.ndarray:
    """The 7 x 4 rows F of DOP853's order-7 interpolant on one step.

    As scipy's DOP853._dense_output_impl: the 3 extra stages and the D rows
    of the coefficient file, built on the step's own 13 stage values, with
    y(r + x h) = y + x (F0 + (1 - x) (F1 + x (F2 + ...))) (Hairer, Norsett &
    Wanner, Solving ODEs I, II.6).
    """
    dop = _dop853_coefficients()
    K = np.empty((dop.N_STAGES_EXTENDED, 4))
    K[:dop.N_STAGES + 1] = stages
    y_old = np.array(y)
    for s in range(dop.N_STAGES + 1, dop.N_STAGES_EXTENDED):
        dy = np.dot(K[:s].T, dop.A[s, :s]) * h
        K[s] = rhs(r + dop.C[s] * h, tuple((y_old + dy).tolist()))
    delta = np.array(y_new) - y_old
    return np.vstack([delta, h * K[0] - delta,
                      2 * delta - h * (K[dop.N_STAGES] + K[0]),
                      h * np.dot(dop.D, K)])


def _interpolant(ends, starts, y_olds, rows):
    """sol(radii) -> y (4 rows) on the accepted steps' interpolants.

    A radius in (start, end] of a step is read on that step's rows, the step
    choice of solve_ivp's OdeSolution; radii outside the steps extrapolate
    the first or last step.  The Horner sum is scipy's Dop853DenseOutput's.
    """
    def sol(radii):
        t = np.asarray(radii, dtype=float)
        k = np.minimum(np.searchsorted(ends, t.ravel()), ends.size - 1)
        x = ((t.ravel() - starts[k]) / (ends[k] - starts[k]))[:, None]
        y = np.zeros((k.size, 4))
        for i, f in enumerate(rows[k][:, ::-1].transpose(1, 0, 2)):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += y_olds[k]
        return y[0] if t.ndim == 0 else y.T

    return sol


def _regula_falsi(side, lo: float, f_lo: float, hi: float, f_hi: float):
    """Shrink the bracket (lo, hi) to adjacent floats; returns (lo, hi).

    side(x) -> (high, f): whether x takes the place of hi (otherwise of lo),
    and f(x), a value that changes sign between the ends and goes smoothly
    through the root, or inf where it is not known.  Each next x is the
    secant root of the last two points (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4), which start as lo and then hi; a
    secant root less than one ulp from the last point is moved to the next
    float past it, toward the other end, so that the far end of a bracket
    the secant approaches from one side moves too.  The midpoint is taken
    instead when an f is not finite, the secant root is not strictly inside
    (lo, hi), or the last three points did not halve the bracket, so the
    bracket halves at least every fourth point.  With every f infinite this
    is plain bisection.
    """
    a, f_a, b, f_b = lo, f_lo, hi, f_hi  # the last two points, b the later
    # the bracket's width before each of the last three x
    widths = (math.inf,) * 3
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        x = mid
        if (hi - lo <= 0.5 * widths[0] and math.isfinite(f_a)
                and math.isfinite(f_b) and f_b != f_a):
            secant = b - f_b * ((b - a) / (f_b - f_a))
            if abs(secant - b) < math.ulp(b):
                secant = math.nextafter(b, hi if b == lo else lo)
            if lo < secant < hi:
                x = secant
        widths = widths[1:] + (hi - lo,)
        high, f_x = side(x)
        if high:
            hi = x
        else:
            lo = x
        a, f_a, b, f_b = b, f_b, x, f_x


def integrate_radial(q: float, u0: float, w0: float, r_end: float,
                     n_eval: int = 400, forcing: float = 0.0) -> Trajectory:
    """Integrate the radial system from a series start near the origin.

    The shot runs on the DOP853 stepper (_march), the threshold search's, and
    stops when u falls to _FLOOR_FRAC u0 (outcome "touched_zero", r_stop the
    root of u - floor on that step's interpolant, bracketed by _regula_falsi
    down to adjacent floats: the first radius seen at or below the floor);
    otherwise it runs to r_end ("survived").  Every accepted step keeps
    DOP853's order-7 dense output (_dense_rows); the n_eval geometric sample
    radii up to r_stop or r_end are read from it, and the trajectory keeps
    it as its interpolant.
    A constant `forcing` F adds to the w equation, matching profiles solved
    against a quartic polynomial (its bilaplacian is the constant 120 eps).
    """
    steps = []

    def keep(rhs, r, r_new, y, y_new, stages):
        steps.append((r_new, r, y,
                      _dense_rows(rhs, r, r_new - r, y, y_new, stages)))

    floor, (touched, r, r_new, event, event_new, _) = _march(
        q, u0, w0, r_end, forcing, keep)
    sol = _interpolant(*map(np.array, zip(*steps)))
    r_stop = None
    if touched:
        def at_or_below(radius):
            u = float(sol(radius)[0])
            return not u > floor, u - floor

        r_stop = _regula_falsi(at_or_below, r, event, r_new, event_new)[1]
    radii = np.geomspace(_R_START, r_end, n_eval)
    if touched:
        radii = radii[radii <= r_stop]
    u, du, w, dw = sol(radii)
    return Trajectory(q=q, u0=u0, w0=w0, r=radii, u=u, du=du, w=w, dw=dw,
                      outcome="touched_zero" if touched else "survived",
                      r_stop=r_stop, sol=sol)


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

    The threshold trajectory follows the borderline solution over a few decades
    and then departs to one side, so global fits are biased.  Instead the
    ratio u / (growth law) is tracked in log r and read off where its local
    log-slope is smallest (the plateau); the effective exponent is
    d log u / d log r there.  Returns the plateau coefficient and radius and
    the effective exponent.
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
    }


@dataclass
class BisectResult:
    w_crit: float
    bracket: tuple
    trajectory: Trajectory  # integrated at w_crit
    history: list  # (w0, outcome) pairs in evaluation order


_W_SCAN_START = 1.0  # first upper w0 tried, doubled until a shot survives
_BISECT_N_EVAL = 800  # sample radii of the returned trajectory


def bisect_growth_threshold(q: float, u0: float, r_end: float) -> BisectResult:
    """Bracket w0 between touching zero and surviving to r_end.

    w0 = 0 must touch zero (checked; its failure means the scan range or q is
    outside the regime where the threshold exists) and the upper end is found
    by doubling _W_SCAN_START.  If no survivor appears within 60 doublings,
    BracketNotFoundError is raised.  The shots (_shoot) read their outcome
    and their signed gap in radius to the threshold (_floor_gap), which goes
    through 0 there and is about linear in w0 on both sides; _regula_falsi
    picks each next w0 from the gaps of the last two shots and ends only
    when the bracket's ends are adjacent floats, at any scale of the
    threshold.  w_crit is the upper end of the final bracket, the least w0
    seen to survive.  The returned trajectory, sampled at _BISECT_N_EVAL
    radii, is integrated at w_crit (integrate_radial) on the same steps as
    the shot that saw it survive, so its outcome is "survived".  Resolved
    to the last bit of w0, it follows the borderline growth over several
    decades before drifting to one side.

    The outcome is not monotone in the last ulps of w0: there a shot's
    rounding and step control move u more than one ulp of w0 does.  At
    u0 = 1, r_end = 1e4, isolated shots within about 16 ulps of w_crit land
    on the other side (around q = 5's w_crit the outcomes read
    ttttttttStttSStt|SSSSSSSSSStSSSSSS, | at w_crit); at q = 5, u0 = 1000,
    r_end = 1e6 the mixed band is several hundred ulps wide.  So w_crit is
    one of several adjacent-float brackets, and another sequence of shots
    can end elsewhere in the band: Illinois regula falsi on a gap graded
    only near the threshold ended at most 1.1e-14 relative away on q = 1.2
    to 12, u0 = 0.5 to 2, r_end = 1e2 to 1e4, and 4.8e-14 away on that
    q = 5 case.
    """
    history = []

    def survives(w0: float):
        touched, gap = _shoot(q, u0, w0, r_end)
        history.append((w0, "touched_zero" if touched else "survived"))
        return not touched, gap

    survived, gap_lo = survives(0.0)
    if survived:
        raise BracketNotFoundError(
            f"w0 = 0 survived to r = {r_end:g}; no threshold bracket in this regime")
    lo = 0.0
    hi = _W_SCAN_START
    for _ in range(60):
        survived, gap_hi = survives(hi)
        if survived:
            break
        lo, gap_lo, hi = hi, gap_hi, hi * 2.0
    else:
        raise BracketNotFoundError(
            f"no surviving trajectory for w0 up to {hi:g} (q = {q}, u0 = {u0})")

    lo, hi = _regula_falsi(survives, lo, gap_lo, hi, gap_hi)
    final = integrate_radial(q, u0, hi, r_end, n_eval=_BISECT_N_EVAL)
    return BisectResult(w_crit=hi, bracket=(lo, hi), trajectory=final,
                        history=history)
