"""Far-field structure analysis of computed profiles.

Everything here reads node values only: growth-law fits along rays
(fit_growth, the one judge of a fit window: each it cannot use is an
InsufficientTailError), the power-law tail beyond r_max (PowerTail: fitted
to the last decade, closed-form moments, inf when they diverge), the far-field slope
beta = (1/8 pi) int u^-q dy and the first moment (1/8 pi) int |y| u^-q dy
(each the grid's truncated moment plus that tail, _tail_moment), the split
of a solution into polynomial part plus kernel convolution (kernels.convolve),
and decay-rate checks for second derivatives of the correction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (InsufficientTailError, NonFiniteError, NotIntegrableError,
                    Profile)
from .kernels import convolve

FIT_MODELS = ("linear", "quadratic", "power")
FIT_MIN_NODES = 30  # fewest nodes a fit window may hold


@dataclass
class GrowthFit:
    """Least-squares fit of node values against a growth law on a radial window."""

    model: str
    params: dict
    rel_residual: float
    window: tuple
    n_nodes: int
    direction: Optional[float] = None  # polar cosine of the ray, None if radial

    def to_dict(self) -> dict:
        return {"model": self.model, "params": dict(self.params),
                "rel_residual": self.rel_residual,
                "window": list(self.window), "n_nodes": self.n_nodes,
                "direction": self.direction}


def fit_growth(r: np.ndarray, values: np.ndarray, model: str,
               r_window=None, direction: Optional[float] = None) -> GrowthFit:
    """Fit one growth law to values(r) on a window (default: the last decade).

    Models: "linear" c0 + c1 r; "quadratic" c0 + c1 r + c2 r^2; "power"
    C r^p.  rel_residual is the max deviation over the window divided by the
    max magnitude of the data there.  A window the fit cannot use raises
    InsufficientTailError: fewer than FIT_MIN_NODES nodes, radii spanning a
    factor below 3, or (power) a value that is not positive, as a density
    that underflows to 0 in the tail.
    """
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    if r_window is None:
        r_window = (r[-1] / 10.0, r[-1])
    lo, hi = float(r_window[0]), float(r_window[1])
    mask = (r >= lo) & (r <= hi)
    rw, vw = r[mask], values[mask]
    if rw.size < FIT_MIN_NODES:
        raise InsufficientTailError(f"fit window [{lo:g}, {hi:g}] contains "
                                    f"{rw.size} nodes, need {FIT_MIN_NODES}")
    if rw[-1] < 3.0 * rw[0]:
        raise InsufficientTailError(
            f"fit window [{rw[0]:g}, {rw[-1]:g}] spans a factor "
            f"{rw[-1] / rw[0]:.2f} < 3 in radius")
    scale = float(np.max(np.abs(vw))) or 1.0

    if model in ("linear", "quadratic"):
        A = np.vander(rw, 2 if model == "linear" else 3, increasing=True)
        coef, *_ = np.linalg.lstsq(A, vw, rcond=None)
        fitted = A @ coef
        params = dict(zip(("intercept", "slope", "curvature"), map(float, coef)))
    elif model == "power":
        if not np.all(vw > 0.0):
            raise InsufficientTailError(
                f"power-law fit needs positive values on the window "
                f"[{rw[0]:g}, {rw[-1]:g}]")
        A = np.stack([np.ones_like(rw), np.log(rw)], axis=1)
        coef, *_ = np.linalg.lstsq(A, np.log(vw), rcond=None)
        fitted = np.exp(A @ coef)
        params = {"coeff": float(math.exp(coef[0])), "exponent": float(coef[1])}
    else:
        raise ValueError(f"unknown fit model {model!r}; choose from {FIT_MODELS}")

    rel = float(np.max(np.abs(vw - fitted)) / scale)
    return GrowthFit(model=model, params=params, rel_residual=rel,
                     window=(float(rw[0]), float(rw[-1])), n_nodes=rw.size,
                     direction=direction)


@dataclass(frozen=True)
class PowerTail:
    """Power law coeff * s^-exponent continuing a radial profile beyond r_max."""

    coeff: float
    exponent: float

    @classmethod
    def fit(cls, r: np.ndarray, values: np.ndarray) -> "PowerTail":
        """Fit the last decade of positive values(r) (fit_growth's power model)."""
        fit = fit_growth(r, values, "power")
        return cls(fit.params["coeff"], -fit.params["exponent"])

    def moment(self, k: int, r_max: float) -> float:
        """int_{r_max}^inf coeff s^-exponent s^(k+2) ds in closed form.

        Returns inf when the integral diverges (exponent <= k + 3).
        """
        e = k + 3.0
        if self.exponent <= e:
            return math.inf
        return self.coeff * r_max ** (e - self.exponent) / (self.exponent - e)


def ray_values(profile: Profile, t: float):
    """(radii, values) along the ray with polar cosine t.

    The profile is resynthesized from its even Legendre modes, which
    evaluates the ray exactly within the grid's angular band (t = +-1 gives
    the symmetry axis).  A radial profile has the one mode l = 0, the same
    on every ray; grid.rays gives its ray as t = 1.
    """
    red = profile.grid.reduction
    return profile.grid.r, red.synthesize_at(red.analyze(profile.values), t)


def _tail_moment(grid, g0: np.ndarray, k: int, integral: str):
    """(grid part, tail part, fitted tail) of (1/8 pi) int |y|^k g dy, k = 0
    or 1, from the angular mean g0 of g: the grid's truncated moment and the
    moment beyond r_max of a power law fitted to the last decade of g0.
    NotIntegrableError names `integral` when that tail diverges."""
    fit = PowerTail.fit(grid.r, g0)
    tail = 0.5 * fit.moment(k, grid.r_max)
    if math.isinf(tail):
        raise NotIntegrableError(
            f"{integral} diverges: angular mean of u^-q decays like "
            f"r^-{fit.exponent:.3g} (need faster than r^-{k + 3})")
    return grid.moment(k, g0), tail, fit


def compute_beta(u_profile: Profile, q: float):
    """Far-field slope beta = (1/8 pi) int u^-q dy with a fitted power-law tail.

    The grid integral covers r <= r_max; the remainder is integrated in closed
    form from a power law fitted to the angular mean of u^-q over the last
    decade.  Raises NotIntegrableError when the fitted decay makes the tail
    divergent (exponent <= 3) and InsufficientTailError when that decade
    cannot be fitted (too few nodes, or u^-q underflowing to 0 there).
    """
    g = u_profile.grid
    u = u_profile.values
    if np.min(u) <= 0.0:
        raise NonFiniteError("beta needs a strictly positive profile")
    quad, tail, fit = _tail_moment(g, g.mode0(u ** (-q)), 0, "int u^-q")
    note = (f"grid part {quad:.6g}, tail beyond r_max adds {tail:.3g} "
            f"(fitted decay r^-{fit.exponent:.3g})")
    return quad + tail, note


def first_moment(grid, g0: np.ndarray) -> float:
    """(1/8 pi) int |y| g(y) dy from the angular mean g0 of a density g.

    The grid sum covers r <= r_max and a power law fitted to the last decade
    of g0 the rest.  Raises NotIntegrableError when that tail diverges
    (fitted decay r^-4 or slower) and InsufficientTailError when the grid
    has no usable last decade (too few nodes, or g0 not positive there).
    """
    quad, tail, _ = _tail_moment(grid, g0, 1, "first moment int |y| u^-q dy")
    return quad + tail


def _columns(*arrays) -> np.ndarray:
    """The arrays, flattened, as the columns of one matrix."""
    return np.stack([a.ravel() for a in arrays], axis=1)


def decompose(u_profile: Profile, q: float) -> dict:
    """Split u into polynomial part plus kernel convolution of u^-q.

    Computes v = (1/8 pi) int (|x-y| - |y|) u(y)^-q dy on the grid, fits
    w = u - v by an even quadratic of the grid's symmetry class (b = 0: every
    field on a grid is even in x1, so it has no linear part) with weights
    (1 + r^2)^-2 under the R^3 measure, and reports the coefficients, the
    relative fit residual in the quadratic-weighted sup norm, and the
    constraint checks: c > 0, and min a >= -max |w - fit| / (1 + r^2), as an
    a_i within the fit's own error in that norm is zero to its accuracy.
    gamma_identity_gap is the fitted constant minus (1/8 pi) int |y| u^-q
    dy; it vanishes when u itself satisfies the unshifted integral identity.
    """
    g = u_profile.grid
    u = u_profile.values
    if np.min(u) <= 0.0:
        raise NonFiniteError("decomposition needs a strictly positive profile")
    v_dec, modes = convolve(g, u ** (-q), shifted=True)
    w = u - v_dec

    # quadratics of the grid's symmetry class (constant first) as the
    # columns of A, and the one of them setting each axis of P's a; the
    # basis arrays are freed once A holds them, before lstsq copies A twice
    basis, axes = g.even_quadratics()
    A = _columns(np.ones(g.shape), *basis)
    del basis
    quad_scale = 1.0 + g.r_nodes**2
    wts = g.weights / quad_scale**2

    sw = np.sqrt(wts.ravel())
    coef, *_ = np.linalg.lstsq(A * sw[:, None], w.ravel() * sw, rcond=None)
    fit_vals = (A @ coef).reshape(w.shape)
    denom = float(np.max(np.abs(fit_vals) / quad_scale))
    fit_error = float(np.max(np.abs(w - fit_vals) / quad_scale))
    fit_residual = fit_error / max(denom, 1e-300)

    c, *rest = (float(x) for x in coef)
    a = [rest[i] for i in axes]

    # first moment of the density, for the identity gap (finite iff decay
    # > 4, and fittable only on a last decade fit_growth can use); optional,
    # so either failure leaves the rest of the decomposition standing
    try:
        moment1 = first_moment(g, modes[:, 0])
    except (NotIntegrableError, InsufficientTailError):
        moment1 = None

    constraints = {"a_nonneg": bool(min(a) >= -fit_error),
                   "c_positive": bool(c > 0.0)}
    return {"a": a, "b": [0.0, 0.0, 0.0], "c": c, "fit_residual": fit_residual,
            "gamma_identity_gap": None if moment1 is None else c - moment1,
            "first_moment": moment1, "constraints": constraints}


def _second_derivative_nonuniform(r: np.ndarray, vals: np.ndarray):
    """Three-point second derivative at interior nodes of a nonuniform grid."""
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    d2 = 2.0 * (hm * vals[2:] - (hm + hp) * vals[1:-1] + hp * vals[:-2]) / (
        hm * hp * (hm + hp))
    return r[1:-1], d2


def hessian_decay_rate(q: float) -> tuple[str, float]:
    """Expected decay law of second derivatives of the correction term."""
    if q > 1.5:
        return "r^-1", -1.0
    if q == 1.5:
        return "r^-1 log r", -1.0
    return f"r^{2.0 - 2.0 * q:g}", 2.0 - 2.0 * q


_HESSIAN_RAYS = (1.0, 0.5, 0.0)  # polar cosines checked on axisymmetric grids


def check_hessian_decay(v_profile: Profile, q: float) -> dict:
    """Check that second radial derivatives of v decay at the expected rate.

    Along each ray (the polar cosines _HESSIAN_RAYS; one ray on a radial
    grid) the second derivative (a diagonal entry of the Hessian in the
    radial direction) is compared to the decay law for the given q on radii
    [2, r_max / 2]; the envelope coefficient is the max ratio over that
    window and the trend is the fitted power of the ratio, which should not
    grow.  fit_growth refuses a window of fewer than 30 interior nodes.
    """
    g = v_profile.grid
    r_window = (2.0, g.r_max / 2.0)
    label, expo = hessian_decay_rate(q)
    coeffs = g.reduction.analyze(v_profile.values)

    results = []
    for t, direction in g.rays(_HESSIAN_RAYS):
        vals = g.reduction.synthesize_at(coeffs, t)
        rm, d2 = _second_derivative_nonuniform(g.r, vals)
        sel = (rm >= r_window[0]) & (rm <= r_window[1])
        rr, dd = rm[sel], np.abs(d2[sel])
        envelope = rr ** expo
        if q == 1.5:
            envelope = envelope * np.log(np.maximum(rr, math.e))
        ratio = dd / envelope
        floor = 1e-14 * max(float(np.max(dd, initial=0.0)), 1e-300)
        trend = fit_growth(rr, np.maximum(ratio, floor), "power",
                           r_window=r_window)
        results.append({
            "direction": direction,
            "envelope_coeff": float(np.max(ratio)),
            "trend_exponent": trend.params["exponent"],
            "bounded": bool(trend.params["exponent"] <= 0.25),
        })
    return {"law": label, "rays": results,
            "bounded": bool(all(r["bounded"] for r in results))}
