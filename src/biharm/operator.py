"""Fixed-point machinery for the integral operator.

The map under iteration is

    T(v)(x) = (1/8 pi) int kernel(x, y) (P(y) + |v(y)|)^(-q) dy,

with kernel |x - y| (unshifted) or |x - y| - |y| (shifted).  The shifted
variant pins T(v)(0) = 0 and produces fields with at most linear growth; the
unshifted variant requires an integrable first moment and keeps the constant.

The density is expanded in even Legendre modes of cos theta (the grid's
transform pair, grid.reduction: exact Gauss-Legendre on axisymmetric grids,
the single l = 0 mode on radial ones, where the angular integral is the
closed-form spherical mean), each mode is convolved with its closed-form
radial kernel, and the field is resynthesized; no pointwise kernel
singularity is ever evaluated.  Each mode's radial kernel is semiseparable,
so the convolution runs as prefix and suffix recurrences over the radii
(kernels.ModeConvolution, one per grid for both kernel variants:
grid.convolution): one application costs O(n_modes * n_r log n_r) time, and
the grid keeps 2 n_modes * n_r log2(n_r) scan coefficients (one table per
doubling level, shared by the prefix and the suffix sums), not dense tables.
The slope alpha and the unshifted origin value are the grid's truncated
moments of the density's angular mean (grid.moment), read from the l = 0
column of the analysis the application already made; the analytic bound on
the mass beyond r_max is a moment of analysis.PowerTail.

Iteration is Anderson mixing of depth 5 (Walker & Ni, SIAM J. Numer. Anal.
49, 2011) with mixing weight theta = cfg.damping, safeguarded: an
extrapolated iterate whose residual exceeds the last accepted one's is
rejected, theta is halved and plain steps v + theta (T(v) - v) refill the
history.  The stop test and the reported residual are the undamped
|T(v) - v|_X of the returned iterate.  Divergence is a flag on the report,
never an exception.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .model import (ConfigError, NonFiniteError, Profile, SolutionReport,
                    SolveConfig, validate_config, x_norm)
from .model import SphericalReduction  # noqa: F401  (perfbench/tracing.py patches this name)
from .kernels import mode_kernel_table  # noqa: F401  (perfbench/tracing.py patches this name)
from .analysis import PowerTail


class OperatorContext:
    """Grid (with its mode convolution), polynomial values and tail bound
    for one config."""

    def __init__(self, cfg: SolveConfig):
        self.cfg = cfg
        self.shifted = cfg.kernel_variant == "shifted"
        self.grid = g = cfg.build_grid()
        g.convolution  # built here, so setting up a context holds its cost
        self.p_values = g.poly_values(cfg.poly)
        self.tail_bound = self.tail_bound_alpha()

    def with_poly(self, poly) -> "OperatorContext":
        """The context for this config with another polynomial.

        The grid (with its Legendre transforms and mode convolutions)
        depends only on the grid spec, so it is shared.
        """
        other = copy.copy(self)
        other.cfg = self.cfg.replace_poly(poly)
        other.p_values = self.grid.poly_values(poly)
        other.tail_bound = other.tail_bound_alpha()
        return other

    # -- pieces ------------------------------------------------------------

    def density(self, v: np.ndarray) -> np.ndarray:
        """(P + |v|)^(-q); raises NonFiniteError on overflow or invalid input."""
        base = self.p_values + np.abs(v)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            try:
                dens = base ** (-self.cfg.q)
            except FloatingPointError as exc:
                raise NonFiniteError(
                    f"density (P + |v|)^-q not finite: min denominator "
                    f"{float(np.min(base)):g}") from exc
        if not np.all(np.isfinite(dens)):
            raise NonFiniteError("density (P + |v|)^-q not finite")
        return dens

    def alpha_quadrature(self, g0: np.ndarray) -> float:
        """(1/8 pi) int density dy truncated at r_max (the far-field slope),
        from the density's angular mean g0 (its l = 0 mode, grid.mode0)."""
        return self.grid.moment(0, g0)

    def origin_value(self, g0: np.ndarray) -> float:
        """Field value at the origin from the density's angular mean g0:
        0 shifted, (1/2) int s^3 g0 ds unshifted."""
        if self.shifted:
            return 0.0
        return self.grid.moment(1, g0)

    def tail_bound_alpha(self) -> float:
        """Analytic bound on the slope mass beyond r_max, from P's leading power.

        P^-q decays like lead^-q r^-(m q) for P's growth order m; the slope
        mass is (1/2) int_{r_max}^inf of it against s^2 ds.
        """
        q, p = self.cfg.q, self.cfg.poly
        lead = p.tail_leading_coeff()
        if lead <= 0.0:  # no growth (m = 0): no decay to bound with
            return math.inf
        try:
            coeff = lead ** (-q)
        except OverflowError:  # lead too small for a float coefficient
            return math.inf
        tail = PowerTail(coeff, p.growth_order() * q)
        return 0.5 * tail.moment(0, self.grid.r_max)

    def iterate_bound(self, dens0: np.ndarray | None = None) -> float:
        """Bound (1/8 pi) int P^-q dy on the weighted sup norm of every
        iterate; pass dens0 = self.density(0) when the caller already has it."""
        if dens0 is None:
            dens0 = self.density(np.zeros_like(self.p_values))
        tb = self.tail_bound
        return (self.alpha_quadrature(self.grid.mode0(dens0))
                + (tb if math.isfinite(tb) else 0.0))

    def apply(self, v: np.ndarray, dens: np.ndarray | None = None):
        """(T(v), density modes); pass dens = self.density(v) when the caller
        already has it.

        T(v) is the grid's Legendre analysis of the density, its mode
        convolution and the synthesis.  The density modes (n_r, n_modes) are
        that analysis; their l = 0 column gives the slope and origin value
        of the iterate without analyzing the density again.
        """
        if dens is None:
            dens = self.density(v)
        red = self.grid.reduction
        g = red.analyze(dens)
        out = red.synthesize(self.grid.convolution(g, self.shifted))
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("operator output not finite")
        return out, g


_DIVERGENCE_FACTOR = 1e6  # x-norm blowup threshold relative to the iterate bound
_ANDERSON_DEPTH = 5  # residual differences the mixing keeps
_MIN_DAMPING = 0.125  # floor of the mixing weight after rejected steps


class _MixingHistory:
    """The last _ANDERSON_DEPTH iterate differences dx and residual
    differences df (f = T(v) - v), kept as df and dx + theta df in
    preallocated ring buffers, with the Gram matrix of the df in the weighted
    inner product sum w^2 a b, w = 1/(1 + r).  theta changes only when the
    history is cleared.
    """

    def __init__(self, shape: tuple, scale: np.ndarray):
        self.df = np.empty((_ANDERSON_DEPTH,) + shape)
        self.dm = np.empty((_ANDERSON_DEPTH,) + shape)
        self.gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
        self._w2 = scale ** -2.0  # broadcasts against shape
        self.count = 0  # differences pushed since the last clear

    @property
    def m(self) -> int:
        return min(self.count, _ANDERSON_DEPTH)

    def clear(self) -> None:
        self.count = 0

    def _dots(self, a: np.ndarray) -> np.ndarray:
        """Weighted inner products of a with the stored df."""
        m = self.m
        return self.df[:m].reshape(m, -1) @ (a * self._w2).ravel()

    def push(self, dx: np.ndarray, df: np.ndarray, theta: float) -> None:
        slot = self.count % _ANDERSON_DEPTH
        self.df[slot] = df
        np.multiply(df, theta, out=self.dm[slot])
        self.dm[slot] += dx
        self.count += 1
        row = self._dots(df)
        self.gram[slot, :row.size] = row
        self.gram[:row.size, slot] = row

    def mix(self, v: np.ndarray, f: np.ndarray, theta: float) -> np.ndarray:
        """Anderson step v + theta f - (dX + theta dF) gamma, with gamma
        minimizing the weighted |f - dF gamma|_2.

        The combination runs row by row, elementwise, so an iterate even in
        the polar angle stays exactly even.
        """
        m = self.m
        gamma = np.linalg.lstsq(self.gram[:m, :m], self._dots(f), rcond=None)[0]
        out = v + theta * f
        for i in range(m):
            out -= gamma[i] * self.dm[i]
        return out


def solve_fixed_point(cfg: SolveConfig, v0: Profile | None = None,
                      context: OperatorContext | None = None):
    """Anderson-accelerated fixed point of T from v = 0 (or a warm start).

    Every iterate v is applied once and its residual |T(v) - v|_X recorded;
    the iteration stops when that residual is below tol (1 + |v|_X).  New
    iterates mix the last _ANDERSON_DEPTH steps (Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011) with weight theta = cfg.damping.  An extrapolated iterate
    whose residual exceeds the last accepted one's is rejected: the iteration
    returns to the accepted iterate, clears the history, halves theta (down
    to _MIN_DAMPING) and takes plain steps v + theta (T(v) - v) until the
    history is full again.  The slope alpha of each iterate (alpha_history,
    and report.alpha for the returned one) comes from the l = 0 column of the
    density analysis its application made (OperatorContext.apply), so each
    iterate's density is analyzed once.  Each iterate's density is computed
    once too: a cold start's v = 0 has density P^-q, which also gives the
    iterate bound.

    Returns (profile, report); report.iters counts the iterates after the
    start value, and final_residual is the residual of the returned profile.
    Structural config problems raise ConfigError; everything else
    (integrability gate, oscillation, blowup, non-finite arithmetic) lands in
    the report with converged = False and a reason string.
    """
    check = validate_config(cfg)
    if check.hard_errors:
        raise ConfigError("; ".join(check.hard_errors))

    if check.gate_failures:
        grid = cfg.build_grid()
        prof = Profile(grid=grid, values=np.zeros(grid.shape))
        report = SolutionReport(converged=False, iters=0, final_residual=math.nan,
                                damping_final=cfg.damping, q=cfg.q,
                                kernel_variant=cfg.kernel_variant,
                                diverged_reason=check.gate_failures[0])
        return prof, report

    ctx = context if context is not None else OperatorContext(cfg)
    grid = ctx.grid
    x = np.zeros_like(ctx.p_values) if v0 is None else np.array(v0.values, dtype=float)
    theta = cfg.damping
    history = _MixingHistory(x.shape, 1.0 + grid.r_nodes)
    diff_history, alpha_history = [], []
    bound = math.nan
    # the accepted iterate: v, its residual f, density's angular mean and |f|_X
    v, f, g0, res = x, None, None, math.nan
    extrapolated = refill = False
    converged = False
    reason = None

    for k in range(cfg.max_iters + 1):
        if k:
            x = history.mix(v, f, theta) if extrapolated else v + theta * f
        try:
            if not k and v0 is not None:  # P^-q may already overflow
                bound = ctx.iterate_bound()
            dens = ctx.density(x)
            if not k and v0 is None:  # a cold start's v = 0 has density P^-q
                bound = ctx.iterate_bound(dens)
            tx, modes = ctx.apply(x, dens)
            del dens  # not held while the next iterate is mixed
        except NonFiniteError as exc:
            reason = str(exc)
            break
        fx = np.subtract(tx, x, out=tx)
        g0_x = modes[:, 0]  # the density's angular mean
        res_x, xn = x_norm(Profile(grid, fx)), x_norm(Profile(grid, x))
        diff_history.append(res_x)
        alpha_history.append(ctx.alpha_quadrature(g0_x))

        if xn > _DIVERGENCE_FACTOR * max(bound, 1.0) or not math.isfinite(xn):
            v, g0, res = x, g0_x, res_x
            reason = (f"iterate norm {xn:g} exceeded "
                      f"{_DIVERGENCE_FACTOR:g} x bound {bound:g}")
            break
        if res_x < cfg.tol_fixed_point * (1.0 + xn):
            v, g0, res = x, g0_x, res_x
            converged = True
            break
        if extrapolated and res_x > res:
            history.clear()
            theta = max(theta / 2.0, _MIN_DAMPING)
            refill = True
        else:
            if k:
                history.push(x - v, fx - f, theta)
            v, f, g0, res = x, fx, g0_x, res_x
            refill = refill and history.count < _ANDERSON_DEPTH
        extrapolated = history.count > 0 and not refill
    else:
        reason = f"no convergence within max_iters = {cfg.max_iters}"

    prof = Profile(grid=grid, values=v)
    alpha = v_origin = math.nan
    if g0 is not None:
        alpha, v_origin = ctx.alpha_quadrature(g0), ctx.origin_value(g0)
    report = SolutionReport(
        converged=converged,
        iters=k,
        final_residual=res,
        damping_final=theta,
        q=cfg.q,
        kernel_variant=cfg.kernel_variant,
        diverged_reason=None if converged else reason,
        alpha=alpha,
        v_origin=v_origin,
        u_origin=cfg.poly.c + v_origin,
        x_norm_v=x_norm(prof),
        iterate_bound=bound,
        tail_bound=ctx.tail_bound,
        diff_history=diff_history,
        alpha_history=alpha_history,
    )
    return prof, report


@dataclass
class ContinuationResult:
    """Stages of a decreasing-epsilon continuation with warm starts, up to
    the first that did not converge (one stage without continuation), with
    the profile of the last stage only."""

    eps_values: list
    final_profile: Profile
    reports: list
    cauchy: list  # sup over r <= 10 of |v_i - v_{i-1}| between consecutive stages
    limit_poly: object

    @property
    def final_report(self) -> SolutionReport:
        return self.reports[-1]


def continuation_eps_to_zero(cfg: SolveConfig) -> ContinuationResult:
    """Solve cfg.stages() in turn, warm-starting each stage, up to the first
    that does not converge.

    A config without continuation is the one-stage case: the plain solve,
    with limit_poly = cfg.poly and no eps values.  The grid, its Legendre
    reduction and the mode convolution are shared across stages (only the
    polynomial changes: OperatorContext.with_poly).  Cauchy diagnostics
    record sup_{r <= 10} |v_i - v_{i-1}|; a decreasing sequence is the
    empirical sign that the family converges.
    """
    cont = cfg.continuation
    reports, cauchy = [], []
    ctx = None
    warm = None  # the previous stage's profile: its start and Cauchy reference
    for stage_cfg in cfg.stages():
        if ctx is not None:
            ctx = ctx.with_poly(stage_cfg.poly)
        elif validate_config(stage_cfg).ok:  # a refused stage needs no context
            ctx = OperatorContext(stage_cfg)
        prof, rep = solve_fixed_point(stage_cfg, v0=warm, context=ctx)
        reports.append(rep)
        if warm is not None:
            delta = np.abs(prof.values - warm.values)[prof.grid.r <= 10.0]
            cauchy.append(float(np.max(delta)))
        warm = prof
        if not rep.converged:
            break
    eps_values, limit_poly = [], cfg.poly
    if cont is not None:
        eps_values = list(cont.eps_sequence[:len(reports)])
        limit_poly = cfg.poly.with_eps(cont.eps_param, 0.0)
    return ContinuationResult(eps_values=eps_values, final_profile=warm,
                              reports=reports, cauchy=cauchy,
                              limit_poly=limit_poly)
