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
so the convolution (kernels.convolve) runs as prefix and suffix recurrences
over the radii (kernels.ModeConvolution): one application costs
O(n_modes * n_r log n_r) time and O(n_modes * n_r log n_r) memory, with no
dense kernel tables.  The analytic bound on the mass beyond r_max is a
moment of analysis.PowerTail.

Iteration is damped Picard: v <- (1 - theta) v + theta T(v), with theta from
the config and automatic halving when the step norm keeps rising.  Divergence
is a flag on the report, never an exception.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .model import (ConfigError, NonFiniteError, Profile, SolutionReport,
                    SolveConfig, validate_config, x_norm)
from .model import SphericalReduction  # noqa: F401  (perfbench/tracing.py patches this name)
from .kernels import ModeConvolution, convolve
from .kernels import mode_kernel_table  # noqa: F401  (perfbench/tracing.py patches this name)
from .analysis import PowerTail


class OperatorContext:
    """Grid, polynomial values and mode convolution for one config."""

    def __init__(self, cfg: SolveConfig):
        self.cfg = cfg
        self.shifted = cfg.kernel_variant == "shifted"
        self.grid = g = cfg.build_grid()
        self.modes = ModeConvolution(g, g.l_values, self.shifted)
        self.p_values = g.poly_values(cfg.poly)
        self._s2w = 0.5 * g.r**2 * g.line_w
        self._s3w = 0.5 * g.r**3 * g.line_w

    def with_poly(self, poly) -> "OperatorContext":
        """The context for this config with another polynomial.

        The grid (with its Legendre transforms) and the mode convolution
        depend only on the grid and the kernel variant, so they are shared.
        """
        other = copy.copy(self)
        other.cfg = self.cfg.replace_poly(poly)
        other.p_values = self.grid.poly_values(poly)
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

    def alpha_quadrature(self, dens: np.ndarray) -> float:
        """(1/8 pi) int density dy truncated at r_max (the far-field slope)."""
        return float(self._s2w @ self.grid.mode0(dens))

    def origin_value(self, dens: np.ndarray) -> float:
        """Field value at the origin: 0 shifted, (1/2) int s^3 g_0 ds unshifted."""
        if self.shifted:
            return 0.0
        return float(self._s3w @ self.grid.mode0(dens))

    def tail_bound_alpha(self) -> float:
        """Analytic bound on the slope mass beyond r_max, from P's leading power.

        P^-q decays like lead^-q r^-(m q) for P's growth order m; the slope
        mass is (1/2) int_{r_max}^inf of it against s^2 ds.
        """
        q, p = self.cfg.q, self.cfg.poly
        lead = p.tail_leading_coeff()
        if lead <= 0.0:  # no growth (m = 0): no decay to bound with
            return math.inf
        tail = PowerTail(lead ** (-q), p.growth_order() * q)
        return 0.5 * tail.moment(0, self.grid.r_max)

    def iterate_bound(self) -> float:
        """Bound (1/8 pi) int P^-q dy on the weighted sup norm of every iterate."""
        dens0 = self.density(np.zeros_like(self.p_values))
        tb = self.tail_bound_alpha()
        return self.alpha_quadrature(dens0) + (tb if math.isfinite(tb) else 0.0)

    def apply(self, v: np.ndarray, dens: np.ndarray | None = None) -> np.ndarray:
        """T(v); pass dens = self.density(v) when the caller already has it."""
        if dens is None:
            dens = self.density(v)
        out = convolve(self.grid, dens, self.shifted, self.modes)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("operator output not finite")
        return out


_DIVERGENCE_FACTOR = 1e6  # x-norm blowup threshold relative to the iterate bound


def solve_fixed_point(cfg: SolveConfig, v0: Profile | None = None,
                      context: OperatorContext | None = None):
    """Damped Picard iteration from v = 0 (or a warm start).

    Returns (profile, report).  Structural config problems raise
    ConfigError; everything else (integrability gate, oscillation, blowup,
    non-finite arithmetic) lands in the report with converged = False and a
    reason string.
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
    v = np.zeros_like(ctx.p_values) if v0 is None else np.array(v0.values, dtype=float)
    r_col = grid.r_nodes

    theta = cfg.damping
    diff_history, alpha_history = [], []
    bound = ctx.iterate_bound()
    rising = 0
    converged = False
    reason = None
    dens = None  # density of the current v, once computed

    for _ in range(cfg.max_iters):
        try:
            tv = ctx.apply(v, dens)
        except NonFiniteError as exc:
            reason = str(exc)
            break
        v_next = (1.0 - theta) * v + theta * tv
        diff = float(np.max(np.abs(v_next - v) / (1.0 + r_col)))
        vn_norm = float(np.max(np.abs(v_next) / (1.0 + r_col)))
        diff_history.append(diff)
        dens = ctx.density(v_next)
        alpha_history.append(ctx.alpha_quadrature(dens))
        v = v_next

        if vn_norm > _DIVERGENCE_FACTOR * max(bound, 1.0) or not math.isfinite(vn_norm):
            reason = (f"iterate norm {vn_norm:g} exceeded "
                      f"{_DIVERGENCE_FACTOR:g} x bound {bound:g}")
            break
        if diff < cfg.tol_fixed_point * (1.0 + vn_norm):
            converged = True
            break
        # halve the damping when the step norm stalls or oscillates: three
        # steps without real improvement cover both monotone growth and the
        # flip-flop of a marginally unstable far-field slope
        if len(diff_history) >= 2 and diff > 0.9 * diff_history[-2]:
            rising += 1
            if rising >= 3:
                theta = max(theta / 2.0, 0.125)
                rising = 0
        else:
            rising = 0

    if not converged and reason is None:
        reason = f"no convergence within max_iters = {cfg.max_iters}"

    prof = Profile(grid=grid, values=v)
    if dens is None:
        dens = ctx.density(v)
    report = SolutionReport(
        converged=converged,
        iters=len(diff_history),
        final_residual=diff_history[-1] if diff_history else math.nan,
        damping_final=theta,
        q=cfg.q,
        kernel_variant=cfg.kernel_variant,
        diverged_reason=None if converged else reason,
        alpha=ctx.alpha_quadrature(dens),
        v_origin=ctx.origin_value(dens),
        u_origin=cfg.poly.c + ctx.origin_value(dens),
        x_norm_v=x_norm(prof),
        iterate_bound=bound,
        tail_bound=ctx.tail_bound_alpha(),
        diff_history=diff_history,
        alpha_history=alpha_history,
    )
    return prof, report


@dataclass
class ContinuationResult:
    """Stages of a decreasing-epsilon continuation with warm starts, up to
    the first that did not converge (one stage without continuation)."""

    eps_values: list
    profiles: list
    reports: list
    cauchy: list  # sup over r <= 10 of |v_i - v_{i-1}| between consecutive stages
    limit_poly: object

    @property
    def final_profile(self) -> Profile:
        return self.profiles[-1]

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
    profiles, reports, cauchy = [], [], []
    ctx = None
    warm = None
    for stage_cfg in cfg.stages():
        ctx = (OperatorContext(stage_cfg) if ctx is None
               else ctx.with_poly(stage_cfg.poly))
        prof, rep = solve_fixed_point(stage_cfg, v0=warm, context=ctx)
        profiles.append(prof)
        reports.append(rep)
        if warm is not None:
            delta = np.abs(prof.values - profiles[-2].values)
            cauchy.append(float(np.max(delta[prof.grid.r <= 10.0])))
        warm = prof
        if not rep.converged:
            break
    eps_values, limit_poly = [], cfg.poly
    if cont is not None:
        eps_values = list(cont.eps_sequence[:len(profiles)])
        limit_poly = cfg.poly.with_eps(cont.eps_param, 0.0)
    return ContinuationResult(eps_values=eps_values, profiles=profiles,
                              reports=reports, cauchy=cauchy,
                              limit_poly=limit_poly)
