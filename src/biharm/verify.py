"""Independent verification of computed profiles.

Nothing here reuses the solver's mode convolution as ground truth: the PDE
residual differentiates node values with local polynomial stencils, the
integral identity is re-evaluated at off-diagonal sample points from the raw
mode kernels, and the Pohozaev balance integrates two different moments of
the solution.  Tails beyond r_max are analysis.PowerTail fits and angular
transforms are the grid's own.  Each check returns a normalized scalar plus
enough context to judge it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import FOUR_PI, InsufficientTailError, NonFiniteError, Profile
from .kernels import kernel_row
from .analysis import PowerTail

A_Q7 = math.sqrt(1.0 / 15.0)  # sqrt(a + r^2) solves the q = 7 equation
_N_SAMPLES = 20  # Halton points drawn by integral_residual


def exact_q7_value(r):
    """Radial exact solution u(x) = sqrt(a + |x|^2), a = 15^(-1/2), for q = 7."""
    r = np.asarray(r, dtype=float)
    return np.sqrt(A_Q7 + r * r)


def exact_q7_profile(grid) -> Profile:
    """The exact q = 7 solution at the nodes of a grid of either kind."""
    return Profile(grid=grid, values=exact_q7_value(grid.r_nodes) * np.ones(grid.shape))


# ---------------------------------------------------------------------------
# finite-difference radial Laplacian


_STENCIL_WIDTH = 5  # nodes per Laplacian stencil (odd: centered rows)


class RadialLaplacian:
    """f'' + (2/r) f' on a nonuniform radial grid by local polynomial stencils.

    Weights come from degree 4 interpolation through the _STENCIL_WIDTH = 5
    nearest nodes.  Values extend evenly across r = 0 (valid for every even
    Legendre mode), which keeps centered stencils available down to the first
    node; at the outer boundary the window shifts inward, so the last p = 2
    nodes carry one-sided truncation error and callers should mask them.
    All n windows are built as one (n, 5) index array and their transposed
    Vandermonde systems solved in one batched np.linalg.solve; each system
    is the one a per-radius solve would see, so the weights are the same.
    """

    def __init__(self, r: np.ndarray):
        width = _STENCIL_WIDTH
        r = np.asarray(r, dtype=float)
        n = r.size
        p = width // 2
        self.p = p
        re = np.concatenate([-r[p - 1::-1], r])
        idx = np.minimum(np.arange(n), re.size - width)[:, None] + np.arange(width)
        window = re[idx] - r[:, None]
        vmat = np.vander(window.ravel(), width, increasing=True).reshape(
            n, width, width).transpose(0, 2, 1)
        rhs = np.zeros((n, width, 2))
        rhs[:, 1, 0] = 1.0
        rhs[:, 2, 1] = 2.0
        d = np.linalg.solve(vmat, rhs)
        self.idx = idx
        self.wts = d[..., 1] + (2.0 / r)[:, None] * d[..., 0]

    def apply(self, vals: np.ndarray) -> np.ndarray:
        """The Laplacian along axis 0 of an (n_r,) or (n_r, n_modes) array,
        each column as if it were passed alone.  The stencil terms are added
        one at a time, in the order a sum over the stencil axis takes, with
        no (n_r, _STENCIL_WIDTH, n_modes) gather."""
        ext = np.concatenate([vals[self.p - 1::-1], vals])
        wts = self.wts.reshape(self.wts.shape + (1,) * (ext.ndim - 1))
        out = wts[:, 0] * ext[self.idx[:, 0]]
        for k in range(1, _STENCIL_WIDTH):
            out += wts[:, k] * ext[self.idx[:, k]]
        return out


@dataclass
class PDEResidualResult:
    max_rel: float
    window: tuple


def _noise_cut(r: np.ndarray, floor: np.ndarray, norm: float) -> float:
    """Smallest radius whose noise floor is at most 1e-4 norm, and never one
    past the first quarter of the radii (the innermost radius if none is)."""
    ok = floor <= 1e-4 * norm
    cut = float(r[np.argmax(ok)]) if np.any(ok) else float(r[0])
    return min(cut, float(r[r.size // 4]))


def pde_residual(u_profile: Profile, q: float,
                 eps_quartic: float = 0.0) -> PDEResidualResult:
    """max |Lap^2 u + u^-q - 120 eps| / max u^-q over an interior window.

    The bilaplacian is two applications of the discrete Laplacian on each
    Legendre mode of the grid's reduction (l = 0 alone on a radial grid),
    finite differences in radius, taken for all modes in one call: every
    mode, not the chop rule's band, since the noise window below reads the
    top modes.  The 120 eps constant is the exact bilaplacian of an
    eps |x|^4 term, so profiles computed with a quartic confinement can be
    checked against the equation they actually solve.
    The window drops the outer nodes whose composed stencil reaches a
    one-sided row (the last 2 p radii; grids with more than 2 _STENCIL_WIDTH
    radii end the window at the 2 _STENCIL_WIDTH-th radius from the end) and
    the innermost nodes where roundoff amplified by h^-4 (and, for
    l > 0, by the l(l+1)/r^2 terms) exceeds any attainable truncation error;
    the reported window records the cut.
    """
    g = u_profile.grid
    u = u_profile.values
    if np.min(u) <= 0.0:
        raise NonFiniteError("pde residual needs a strictly positive profile")
    dens = u ** (-q)
    forcing = 120.0 * eps_quartic
    norm = float(np.max(dens))

    red = g.reduction
    coeffs = red.analyze(u)
    lap = RadialLaplacian(g.r)
    ll = np.array([l * (l + 1) for l in red.l_values], dtype=float)
    inv_r2 = (1.0 / (g.r * g.r))[:, None]
    lap1 = lap.apply(coeffs) - ll * coeffs * inv_r2
    bilap = red.synthesize(lap.apply(lap1) - ll * lap1 * inv_r2)
    res = bilap + dens - forcing
    # two stencil applications amplify value-level roundoff by about
    # 36 eps |u| / h^4 with h the local spacing; on strongly graded grids
    # this floor dwarfs any truncation error at the innermost nodes
    h = np.diff(g.r)
    h = np.concatenate((h[:1], h))
    u_ray = np.max(np.abs(u).reshape(g.r.size, -1), axis=1)
    roundoff_floor = 36.0 * np.finfo(float).eps * u_ray / h**4
    # two angular derivative pairs amplify the high-mode noise floor of
    # the data by (l_max (l_max + 1) / r^2)^2; the floor is measured from
    # the top modes (where true coefficients have decayed under it)
    l_max = red.l_values[-1]
    amp = (l_max * (l_max + 1.0)) ** 2
    n_tail = min(3, coeffs.shape[1])
    sigma = np.max(np.abs(coeffs[:, -n_tail:]), axis=1)
    ang_floor = sigma * amp / g.r**4
    lo = max(_noise_cut(g.r, roundoff_floor, norm), _noise_cut(g.r, ang_floor, norm))
    hi = float(g.r[-2 * _STENCIL_WIDTH] if g.r.size > 2 * _STENCIL_WIDTH
               else g.r[-(2 * lap.p + 1)])
    sel = (g.r >= lo) & (g.r <= hi)
    return PDEResidualResult(max_rel=float(np.max(np.abs(res[sel])) / norm),
                             window=(lo, hi))


# ---------------------------------------------------------------------------
# pointwise integral identity


@dataclass
class IntegralResidualResult:
    max_rel: float
    gamma: float  # fitted constant offset u - P - I
    samples: list
    note: str = ""
    tail_diverges: bool = False  # kernel mass beyond r_max is infinite


def _halton(n: int, seed: int) -> np.ndarray:
    """n points of the scrambled 2-D Halton sequence, as an (n, 2) array.

    The scheme pinned is scipy's qmc.Halton(d=2, scramble=True, seed=seed)
    (Owen, "A randomized Halton algorithm in R", arXiv:1706.02808), point for
    point: the generator is np.random.default_rng(seed); base 2, then base 3,
    gets ceil(54 / log2(b)) - 1 shuffled permutations of its digits, and
    each coordinate sums perm_j[digit_j] b^-(j+1) digit by digit.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(n)
    points = np.zeros((n, 2))
    for col, base in enumerate((2, 3)):
        perms = np.repeat(np.arange(base)[None],
                          math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        k, b2r = index.copy(), 1.0 / base
        for perm in perms:
            points[:, col] += perm[k % base] * b2r
            b2r /= base
            k //= base
    return points


def _sample_indices(r: np.ndarray, r_lo: float, r_hi: float,
                    u01: np.ndarray) -> np.ndarray:
    """Distinct node indices log-spread over [r_lo, r_hi]."""
    targets = r_lo * (r_hi / r_lo) ** u01
    idx = np.searchsorted(r, targets)
    idx = np.clip(idx, 0, r.size - 1)
    return np.unique(idx)


def integral_residual(u_profile: Profile, q: float, poly,
                      seed: int = 0) -> IntegralResidualResult:
    """Re-evaluate u(x) = P(x) + gamma + (1/8 pi) int |x-y| u(y)^-q dy.

    Sample points are grid nodes chosen by the first _N_SAMPLES = 20 points
    of a scrambled Halton sequence (fewer when two fall on one node),
    log-spread over radii [r_max/500, r_max/2] (truncation of the integral
    grows toward the boundary, so the outer half is excluded), at the polar
    node of all n_angle nearest a second Halton coordinate, read at its
    stored mirror when t < 0.  The kernel is re-expanded at
    each sample from the closed-form mode kernels, off the solver's
    precomputed path, over the band of leading modes that the reduction's
    chop rule keeps for this function's own analysis of u^-q (the modes
    above the analysis' roundoff, whose field the dropped ones change by
    less than its own roundoff): one kernel_row call gives the sample's
    rows of the band's modes, the Legendre values P_l(t) come from the
    reduction's node table (the sample sits on a node column), and I sums
    the modes' products row @ g_l one by one in mode order.  gamma is
    fitted as the mean offset; for the shifted kernel variant it estimates
    -(1/8 pi) int |y| u^-q dy, for unshifted solutions and entire solutions
    it should vanish.  The residual is
    max |u - P - I - gamma| / |u| over the samples.  A power-law tail fitted
    to the angular mean of u^-q supplies the kernel mass beyond r_max; if
    that mass diverges, tail_diverges is set and max_rel is of no use.
    """
    g = u_profile.grid
    u = u_profile.values
    if np.min(u) <= 0.0:
        raise NonFiniteError("integral residual needs a strictly positive profile")
    dens = u ** (-q)
    red = g.reduction
    ghat = red.analyze(dens)
    l_band = red.l_values[:red.chop(ghat)[0]]
    u_nodes = u.reshape(g.r.size, -1)
    p_nodes = g.poly_values(poly).reshape(g.r.size, -1)
    n_polar = 2 * red.t.size

    note = ""
    try:
        power = PowerTail.fit(g.r, ghat[:, 0])
    except InsufficientTailError as exc:
        power = None
        note = f"no tail correction ({exc})"
    # the s part of the far kernel needs faster decay than its r^2 / s part
    diverges = power is not None and math.isinf(power.moment(1, g.r_max))
    if diverges:
        note = (f"kernel mass beyond r_max diverges for fitted decay "
                f"r^-{power.exponent:.3g}; the residual measures the "
                f"truncated integral")
        power = None
    u01 = _halton(_N_SAMPLES, seed)
    r_lo, r_hi = g.r_max / 500.0, g.r_max / 2.0
    idx = _sample_indices(g.r, max(r_lo, g.r[0]), r_hi, u01[:, 0])

    samples = []
    for pos, k in enumerate(idx):
        rk = float(g.r[k])
        j = round(float(u01[pos, 1]) * (n_polar - 1))  # u01 lies in [0, 1)
        tj = abs(2 * j - (n_polar - 1)) // 2  # the stored node j or its mirror
        tval = red.t[tj]
        # the band's rows in one call; accumulated mode by mode, since
        # synthesize_at's dot product sums in another order, which moves the
        # written residual's last digits
        rows = kernel_row(rk, g, l_band, shifted=False)
        pl_row = red.pl[tj].tolist()  # P_l(t) at the sample's node column
        ival = 0.0
        for j, row in enumerate(rows):
            ival += float(row @ ghat[:, j]) * pl_row[j]
        if power is not None:
            # spherical mean of |x - y| for |y| = s > r is s + r^2 / (3 s):
            # (1/2) int_{r_max}^inf (s + r^2 / (3 s)) C s^-p s^2 ds
            r2_term = PowerTail(power.coeff * (rk * rk) / 3.0, power.exponent)
            ival += 0.5 * (r2_term.moment(-1, g.r_max) + power.moment(1, g.r_max))
        uval = float(u_nodes[k, tj])
        pval = float(p_nodes[k, tj])
        samples.append({"r": rk, "t": tval, "u": uval, "P": pval, "I": ival,
                        "offset": uval - pval - ival})

    offsets = np.array([s["offset"] for s in samples])
    gamma = float(np.mean(offsets))
    rel = float(np.max(np.abs(offsets - gamma)
                       / np.array([abs(s["u"]) for s in samples])))
    return IntegralResidualResult(max_rel=rel, gamma=gamma, samples=samples,
                                  note=note, tail_diverges=diverges)


# ---------------------------------------------------------------------------
# Pohozaev balance


@dataclass
class PohozaevResult:
    residual: Optional[float]
    note: str = ""


def pohozaev_residual(u_profile: Profile, q: float, poly,
                      gamma_offset: float = 0.0) -> PohozaevResult:
    """Scaling balance (1/2 - 3/(q-1)) int u^(1-q) + (1/2) int (2 x.grad P - P) u^-q = 0.

    Holds for solutions with u - P bounded by C (1 + |x|); both integrals are
    evaluated on the grid with power-law tail extrapolation from the last
    decade.  gamma_offset shifts the constant term of P (shifted-kernel
    solutions match the identity with c replaced by c + gamma, whose sign is
    unconstrained).  Returns residual = |t1 + t2| / max(|t1|, |t2|), or None
    with a note when a tail diverges or cannot be fitted (an integrand that
    underflows to 0 in the last decade).
    """
    g = u_profile.grid
    u = u_profile.values
    if np.min(u) <= 0.0:
        raise NonFiniteError("pohozaev residual needs a strictly positive profile")
    if q <= 1.0:
        return PohozaevResult(None, "identity needs q > 1")
    c_q = 0.5 - 3.0 / (q - 1.0)

    dil = u ** (1.0 - q)
    wgt = g.pohozaev_weight(replace(poly, c=poly.c + gamma_offset)) * u ** (-q)

    terms = []
    for vals in (dil, wgt):
        total = g.integrate(vals)
        m0 = g.mode0(vals)
        try:
            fit = PowerTail.fit(g.r, np.abs(m0))
        except InsufficientTailError as exc:
            return PohozaevResult(None, f"tail fit failed: {exc}")
        tail = PowerTail(FOUR_PI * fit.coeff, fit.exponent).moment(0, g.r_max)
        if math.isinf(tail):
            return PohozaevResult(None, f"integrand tail decays like "
                                        f"r^-{fit.exponent:.3g}, integral diverges")
        total += math.copysign(tail, m0[-1])
        terms.append(total)

    t1 = c_q * terms[0]
    t2 = 0.5 * terms[1]
    denom = max(abs(t1), abs(t2))
    if denom < 1e-300:
        return PohozaevResult(0.0, "both terms vanish")
    return PohozaevResult(abs(t1 + t2) / denom)
