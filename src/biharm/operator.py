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
radial kernel, and the field is resynthesized: kernels.convolve, which
OperatorContext.apply calls and which also returns the density's modes.  No
pointwise kernel singularity is ever evaluated.  Only the band of leading
modes above the analysis' own roundoff is convolved (the grid's chop rule,
grid.reduction.chop: the field the dropped modes would add is below the
roundoff of the field), which is every mode of a density the grid does not
resolve.  Each mode's radial kernel is semiseparable, so the convolution
runs as prefix and suffix sums over the radii, rescaled block by block
(kernels.ModeConvolution, one per grid for both kernel variants:
grid.convolution): one application costs O(band * n_r) time, plus
O(n_modes^2 n_r) for the analysis and synthesis, and the grid keeps
source and weight tables of 8 band * n_r floats, and a workspace of
4 band * n_r, for the widest band its densities have needed, not dense
tables.  A context holds only what its config fixes: the first
application builds the tables of its band, and a later one grows them
when its density needs more modes.  The slope alpha and
the unshifted origin value are the grid's truncated moments of the
density's angular mean (grid.moment), read from the l = 0 column of the
analysis the application already made; the analytic bound on the mass
beyond r_max is a moment of analysis.PowerTail.  A warm
start carries its grid: a solve started from a profile sets up its context
on that profile's grid, which must be the one cfg.grid builds, so the
stages of a continuation share one reduction and one mode convolution.

Iteration is Anderson mixing of depth 5 (Walker & Ni, SIAM J. Numer. Anal.
49, 2011) with mixing weight theta = cfg.damping, safeguarded: an
extrapolated iterate whose residual exceeds the last accepted one's is
rejected, theta is halved and plain steps v + theta (T(v) - v) refill the
history.  Each iterate costs the mixing one pass over the history of
n nodes: one push writes the new differences through preallocated ring
buffers and takes its 2m weighted inner products (the new Gram row and
those of the new residual) in one np.einsum, m <= 5, which sums in a
fixed order without BLAS, so the iterates are the same bits whatever the
BLAS thread count; a mix takes gamma from the eigenvalues of the m x m
Gram matrix and the m-term combination in one more np.einsum: 3m n
multiply-adds and ten elementwise passes in all, about 0.15 ms on thm2's
n = 16384 on one core of a 2-vCPU Xeon host.  The stop test and the
reported residual are the undamped |T(v) - v|_X of the returned iterate.
Divergence is a flag on the report, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ConfigError, NonFiniteError, Profile, SolutionReport,
                    SolveConfig, validate_config)
from .model import SphericalReduction  # noqa: F401  (perfbench/tracing.py patches this name)
from .kernels import mode_kernel_table  # noqa: F401  (perfbench/tracing.py patches this name)
from .kernels import convolve
from .analysis import PowerTail


class OperatorContext:
    """What one config fixes: the grid (with its mode convolution), P at
    the nodes and the tail bound.  grid, when given, is one built from
    cfg.grid to share (a warm start's), else cfg.grid is built; ConfigError
    when it is another grid (kind, n_r, n_angle, r_max or grading).  The
    config itself is valid, as every SolveConfig is.  Set-up computes no
    density; each application computes and analyzes its own, and the first
    one builds the tables of its band."""

    def __init__(self, cfg: SolveConfig, grid=None):
        if grid is not None and grid.spec.to_dict() != cfg.grid.to_dict():
            raise ConfigError(f"warm start grid {grid.spec.to_dict()} is not "
                              f"the config's {cfg.grid.to_dict()}")
        self.cfg = cfg
        self.shifted = cfg.kernel_variant == "shifted"
        self.grid = g = cfg.grid.build() if grid is None else grid
        self.p_values = g.poly_values(cfg.poly)
        self.tail_bound = self.tail_bound_alpha()

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
        m, lead = p.leading_term()
        if m == 0:  # no growth: no decay to bound with
            return math.inf
        try:
            coeff = lead ** (-q)
        except OverflowError:  # lead too small for a float coefficient
            return math.inf
        tail = PowerTail(coeff, m * q)
        return 0.5 * tail.moment(0, self.grid.r_max)

    def iterate_bound(self, g0: np.ndarray | None = None) -> float:
        """Bound (1/8 pi) int P^-q dy on the weighted sup norm of every
        iterate, from the angular mean g0 of P^-q; pass g0 when the caller
        already has it (a cold start's first application analyzed P^-q)."""
        if g0 is None:
            g0 = self.grid.mode0(self.density(np.zeros_like(self.p_values)))
        tb = self.tail_bound
        return self.grid.moment(0, g0) + (tb if math.isfinite(tb) else 0.0)

    def apply(self, v: np.ndarray):
        """(T(v), density modes).

        T(v) is kernels.convolve of the density (P + |v|)^(-q) with the
        context's kernel variant.  The density modes (n_r, n_modes) are its
        analysis; their l = 0 column gives the slope and origin value of the
        iterate without analyzing the density again.
        """
        out, g = convolve(self.grid, self.density(v), self.shifted)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("operator output not finite")
        return out, g


_DIVERGENCE_FACTOR = 1e6  # x-norm blowup threshold relative to the iterate bound
_ANDERSON_DEPTH = 5  # residual differences the mixing keeps
_MIN_DAMPING = 0.125  # floor of the mixing weight after rejected steps


class _MixingHistory:
    """The last _ANDERSON_DEPTH iterate differences dx and residual
    differences df (f = T(v) - v), kept in preallocated ring buffers as
    w df and dx + theta df, w = 1/(1 + r), with the Gram matrix of the w df
    and their inner products with w f for the residual f of the last push.
    Each push takes the new Gram row and those inner products in one
    np.einsum, which sums in a fixed order without BLAS, so the iterates do
    not depend on the BLAS thread count.  theta changes only when the
    history is cleared.
    """

    def __init__(self, shape: tuple, scale: np.ndarray):
        self.dfw = np.empty((_ANDERSON_DEPTH,) + shape)
        self.dm = np.empty((_ANDERSON_DEPTH,) + shape)
        self.gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
        self.dots = np.empty(_ANDERSON_DEPTH)
        self._w = np.broadcast_to(1.0 / scale, shape).copy()
        self._df = np.empty(shape)
        self._y = np.empty((2,) + shape)  # w df and w f of the last push
        self.count = 0  # differences pushed since the last clear

    @property
    def m(self) -> int:
        return min(self.count, _ANDERSON_DEPTH)

    def clear(self) -> None:
        self.count = 0

    def push(self, x: np.ndarray, v: np.ndarray, fx: np.ndarray,
             f: np.ndarray, theta: float) -> None:
        """Keep the accepted step from v (residual f) to x (residual fx),
        whose fx the next mix extrapolates from."""
        slot = self.count % _ANDERSON_DEPTH
        df, dm, y = self._df, self.dm[slot], self._y
        np.subtract(fx, f, out=df)
        np.multiply(df, self._w, out=y[0])
        np.multiply(fx, self._w, out=y[1])
        self.dfw[slot] = y[0]
        np.subtract(x, v, out=dm)
        df *= theta
        dm += df
        self.count += 1
        m = self.m
        row, self.dots[:m] = np.einsum("kj,ij->ki", y.reshape(2, -1),
                                       self.dfw[:m].reshape(m, -1))
        self.gram[slot, :m] = row
        self.gram[:m, slot] = row

    def mix(self, v: np.ndarray, f: np.ndarray, theta: float) -> np.ndarray:
        """Anderson step v + theta f - (dX + theta dF) gamma from the
        accepted iterate v and its residual f, the last one pushed, with
        gamma minimizing the weighted |f - dF gamma|_2: the pseudoinverse
        of the Gram matrix applied to the inner products, from its
        eigenvalues above lstsq's cutoff (m eps times the largest), so a
        rank-deficient history mixes too."""
        m = self.m
        lam, vec = np.linalg.eigh(self.gram[:m, :m])
        size = np.abs(lam)
        coef = np.divide(self.dots[:m] @ vec, lam, out=np.zeros(m),
                         where=size > m * np.finfo(float).eps * size.max())
        out = np.multiply(f, theta)
        out += v
        out -= np.einsum("i,i...->...", vec @ coef, self.dm[:m])
        return out


def solve_fixed_point(cfg: SolveConfig, v0: Profile | None = None):
    """Anderson-accelerated fixed point of T from v = 0 (or a warm start v0
    on a grid built from cfg.grid, which the solve then shares; a v0 on
    another grid is refused with ConfigError by OperatorContext).

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
    iterate's density is computed and analyzed once.  A cold start's v = 0
    has density P^-q, so its first application's l = 0 column also gives
    the iterate bound; a warm start computes P^-q for the bound first.

    Returns (profile, report); report.iters counts the iterates after the
    start value, and final_residual is the residual of the returned profile.
    cfg is valid, as every SolveConfig is; everything else (integrability
    gate, oscillation, blowup, non-finite arithmetic) lands in the report
    with converged = False and a reason string.
    """
    gates = validate_config(cfg).gate_failures
    if gates:
        grid = cfg.grid.build()
        prof = Profile(grid=grid, values=np.zeros(grid.shape))
        report = SolutionReport(converged=False, iters=0, final_residual=math.nan,
                                damping_final=cfg.damping, q=cfg.q,
                                kernel_variant=cfg.kernel_variant,
                                diverged_reason=gates[0])
        return prof, report

    ctx = OperatorContext(cfg, None if v0 is None else v0.grid)
    grid = ctx.grid
    x = np.zeros_like(ctx.p_values) if v0 is None else np.array(v0.values, dtype=float)
    theta = cfg.damping
    history = _MixingHistory(x.shape, 1.0 + grid.r_nodes)
    diff_history, alpha_history = [], []
    bound = math.nan
    # the accepted iterate: v, its residual f, its density's modes and |f|_X
    v, f, gv, res = x, None, None, math.nan
    extrapolated = refill = False
    converged = False
    reason = None

    for k in range(cfg.max_iters + 1):
        if k:
            x = history.mix(v, f, theta) if extrapolated else v + theta * f
        try:
            if not k and v0 is not None:  # P^-q may already overflow
                bound = ctx.iterate_bound()
            tx, modes = ctx.apply(x)
            if not k and v0 is None:  # a cold start's v = 0 has density P^-q
                bound = ctx.iterate_bound(modes[:, 0])
        except NonFiniteError as exc:
            reason = str(exc)
            break
        fx = np.subtract(tx, x, out=tx)
        res_x, xn = grid.x_norm(fx), grid.x_norm(x)
        diff_history.append(res_x)
        alpha_history.append(grid.moment(0, modes[:, 0]))

        if xn > _DIVERGENCE_FACTOR * max(bound, 1.0) or not math.isfinite(xn):
            v, gv, res = x, modes, res_x
            reason = (f"iterate norm {xn:g} exceeded "
                      f"{_DIVERGENCE_FACTOR:g} x bound {bound:g}")
            break
        if res_x < cfg.tol_fixed_point * (1.0 + xn):
            v, gv, res = x, modes, res_x
            converged = True
            break
        if extrapolated and res_x > res:
            history.clear()
            theta = max(theta / 2.0, _MIN_DAMPING)
            refill = True
        else:
            if k:
                history.push(x, v, fx, f, theta)
            v, f, gv, res = x, fx, modes, res_x
            refill = refill and history.count < _ANDERSON_DEPTH
        extrapolated = history.count > 0 and not refill
    else:
        reason = f"no convergence within max_iters = {cfg.max_iters}"

    prof = Profile(grid=grid, values=v)
    alpha = v_origin = math.nan
    density_tail = None
    if gv is not None:
        g0 = gv[:, 0]  # the density's angular mean
        alpha, v_origin = grid.moment(0, g0), ctx.origin_value(g0)
        if not grid.reduction.chop(gv)[1]:
            density_tail = float(np.max(np.abs(gv[:, -1])) / np.max(np.abs(g0)))
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
        x_norm_v=grid.x_norm(v),
        iterate_bound=bound,
        tail_bound=ctx.tail_bound,
        diff_history=diff_history,
        alpha_history=alpha_history,
        density_tail=density_tail,
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

    @property
    def final_report(self) -> SolutionReport:
        return self.reports[-1]


def continuation_eps_to_zero(cfg: SolveConfig) -> ContinuationResult:
    """Solve cfg.stages() in turn, warm-starting each stage, up to the first
    that does not converge.

    A config without continuation is the one-stage case: the plain solve,
    with no eps values.  Each stage starts from the previous stage's
    profile and so shares its grid, with the Legendre reduction and the mode
    convolution.  Cauchy diagnostics record sup_{r <= 10} |v_i - v_{i-1}|;
    a decreasing sequence is the empirical sign that the family converges.
    The limit problem's P is cfg.limit_poly.
    """
    cont = cfg.continuation
    reports, cauchy = [], []
    warm = None  # the previous stage's profile: its start and Cauchy reference
    for stage_cfg in cfg.stages():
        prof, rep = solve_fixed_point(stage_cfg, v0=warm)
        reports.append(rep)
        if warm is not None:
            delta = np.abs(prof.values - warm.values)[prof.grid.r <= 10.0]
            cauchy.append(float(np.max(delta)))
        warm = prof
        if not rep.converged:
            break
    eps_values = [] if cont is None else list(cont.eps_sequence[:len(reports)])
    return ContinuationResult(eps_values=eps_values, final_profile=warm,
                              reports=reports, cauchy=cauchy)
