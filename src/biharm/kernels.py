"""Distance kernels for the integral operator.

The operator inverts the bilaplacian through the kernel |x - y| / (8 pi).  On
symmetric grids the angular integrals collapse to closed forms, the Legendre
modes of |x - y| = sum_l K_l(r, s) P_l(cos gamma):

      K_l(r, s) = r_> (xi^(l+2) / (2l + 3) - xi^l / (2l - 1)),   xi = r_< / r_>,

derived from the generating function of the Legendre polynomials and written
once, in legendre_mode_kernel.  The sum telescopes to |r - s| at
cos gamma = 1 and to r + s at cos gamma = -1, which the tests check.  K_0 =
r_> + r_<^2 / (3 r_>) is the spherical mean of |x - y| over |y| = s, with
K_0(r, 0) = r, K_0(0, s) = s and max(r, s) <= K_0 <= r + s.

kernel_row weights K_l with the grid's s^2 ds quadrature (K_0(r, s) - s for
the shifted l = 0 mode); mode_kernel_table stacks its rows at the grid radii
into dense per-mode matrices, the reference the tests hold ModeConvolution
to.  ModeConvolution applies the same quadrature in O(n_r log n_r) per mode
(two doubling scans sharing one table per level), and convolve() applies
(1/8 pi) int kernel(x, y) density(y) dy on a grid: the grid's Legendre
analysis, its ModeConvolution (grid.convolution, one per grid for both
kernel variants), synthesis (a radial grid is the one-mode case).

A Monte-Carlo sphere average with a counter-based generator (Philox) serves as
the model-independent oracle for all of the above.
"""

from __future__ import annotations

import math

import numpy as np


def legendre_mode_kernel(l, r, s):
    """Mode-l radial kernel K_l(r, s) of the expansion of |x - y|.

    l is one mode, or a list of modes for one kernel per mode stacked along
    a new first axis, each bitwise the single-mode kernel: xi^l is taken
    mode by mode with an integer exponent, because numpy squares xi for
    l = 2 and an array exponent would round that power differently.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    hi = np.maximum(r, s)
    lo = np.minimum(r, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0)
    if np.ndim(l):
        xil = np.stack([xi**int(k) for k in l])
        l = np.reshape(l, (-1,) + (1,) * xi.ndim)
    else:
        xil = xi**l
    out = hi * (xil * xi * xi / (2 * l + 3) - xil / (2 * l - 1))
    return out if out.shape else float(out)


def mc_kernel_oracle(x, s: float, n_samples: int, seed: int):
    """Monte-Carlo estimate of the spherical mean of |x - y| over |y| = s.

    Returns (mean, standard_error).  Uses the Philox counter-based generator,
    so results are deterministic for a given seed and independent of chunking.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    total = 0.0
    total_sq = 0.0
    remaining = int(n_samples)
    while remaining > 0:
        m = min(remaining, 1 << 18)
        g = rng.standard_normal((m, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        d = np.linalg.norm(x[None, :] - s * g, axis=1)
        total += float(np.sum(d))
        total_sq += float(np.sum(d * d))
        remaining -= m
    n = float(n_samples)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def mode_kernel_table(grid, l_values, shifted: bool) -> np.ndarray:
    """Stacked per-mode operator matrices mapping density modes to field modes.

    T[i] applied to the mode-l_values[i] coefficients g_l at the grid radii
    returns (1/8pi) * the mode coefficients of int |x-y| g(y) dy: row j is
    kernel_row at r_j, the quadrature of K_l(r_j, s) s^2 g_l(s) / (2 (2l+1)).
    For the shifted variant the l = 0 matrix uses K_0(r, s) - s, which
    subtracts the constant (1/8pi) int |y| g(y) dy and pins the origin to 0.
    """
    return np.stack([kernel_row(grid.r[:, None], grid, l, shifted)
                     for l in l_values])


class ModeConvolution:
    """The quadrature of mode_kernel_table, applied in O(n_r log n_r) per mode.

    K_l(r, s) is a sum of products of a function of r_< and one of r_>, so
    each mode's matrix is semiseparable.  With h = g_l s^2 w / (2 (2l+1)),
    A = 1/(2l+3) and B = 1/(2l-1), row j of the table product splits into the
    sources inside (s <= r_j, diagonal included) and outside r_j:

        inner  r_j (A P^(l+2)_j - B P^l_j),  P^k_j = (r_{j-1}/r_j)^k P^k_{j-1} + h_j
        outer  A Q^(l+2)_j - B Q^l_j,        Q^k_j = (r_j/r_{j+1})^k (Q^k_{j+1} + r_{j+1} h_{j+1})

    The shifted kernel's l = 0 mode subtracts the scalar sum r h; there
    B = -1, so the outer term -B Q^0_j minus that sum is exactly
    -sum_{i<=j} r_i h_i, which is summed directly to keep the field accurate
    relative to its size as r -> 0.

    The P and Q recurrences run as two log-depth doubling scans (Hillis &
    Steele, CACM 1986) over (n_r, 2 n_modes), forward and backward, sharing
    one table per level: at span d its row j, the product of (r_{i-1}/r_i)^k
    over i = j-d+1..j, carries x_{j-d} into x_j forward and x_j into x_{j-d}
    backward.  Every multiplier is a radius ratio <= 1, so nothing
    overflows, and products below the smallest normal float are flushed to
    0.  The tables depend on neither the density nor the kernel variant, so
    they are built once here and serve both variants.
    """

    def __init__(self, grid, l_values):
        r = grid.r
        n = r.size
        l = np.asarray(list(l_values), dtype=float)
        self.a = 1.0 / (2.0 * l + 3.0)
        self.b = 1.0 / (2.0 * l - 1.0)
        self.r = r
        self.hw = (r**2 * grid.line_w)[:, None] / (2.0 * (2.0 * l + 1.0))
        self.l0_cols = np.flatnonzero(l == 0.0)
        self.n_modes = l.size
        # rho[j] = r_{j-1} / r_j; the prefix sums multiply by rho[j]^k, the
        # suffix sums by rho[j+1]^k, so one table per level serves both
        rho = np.zeros(n)
        rho[1:] = r[:-1] / r[1:]
        c = rho[:, None] ** np.concatenate([l, l + 2.0])
        base = c[1:].copy()  # unflushed, it weights the suffix sources
        c[c < np.finfo(float).tiny] = 0.0
        self.levels = []
        d = 1
        while d < n:
            self.levels.append((d, c[d:].copy()))
            c[d:] *= c[:-d]
            c[c < np.finfo(float).tiny] = 0.0
            d *= 2
        first = self.levels[0][1]  # the base, unless the flush changed it
        self.rho_k = first if np.array_equal(first, base) else base

    def __call__(self, g: np.ndarray, shifted: bool) -> np.ndarray:
        """Field modes (n_r, n_modes) from density modes g (n_r, n_modes),
        for the shifted or the unshifted kernel."""
        m = self.n_modes
        h = g * self.hw
        p = np.concatenate([h, h], axis=1)
        q = np.zeros_like(p)  # outer sources r_{j+1} h_{j+1} rho[j+1]^k
        np.multiply(p[1:], self.r[1:, None], out=q[:-1])
        q[:-1] *= self.rho_k
        for d, c in self.levels:
            p[d:] += c * p[:-d]
            q[:-d] += c * q[d:]
        far = -self.b * q[:, :m]
        if shifted:
            far[:, self.l0_cols] = -np.cumsum(self.r[:, None] * h[:, self.l0_cols], axis=0)
        return self.r[:, None] * (self.a * p[:, m:] - self.b * p[:, :m]) + (self.a * q[:, m:] + far)


def convolve(grid, density, shifted: bool):
    """(1/8 pi) int kernel(x, y) density(y) dy on the grid nodes.

    density is node values in the layout grid.shape; returns field values in
    the same layout.  The mode convolution is the grid's own
    (grid.convolution), built once per grid for both kernel variants.
    """
    red = grid.reduction
    return red.synthesize(grid.convolution(red.analyze(density), shifted))


def kernel_row(r_target, grid, l=0, shifted: bool = False) -> np.ndarray:
    """Quadrature row of mode l for a target radius (off-grid evaluation).

    r_target is a float (one row) or an array of radii shaped (n, 1), which
    gives one row per radius.  For a float r_target, l may be a list of
    modes: the rows of all of them, (len(l), n_r), each bitwise the row of
    its own call.
    """
    kl = legendre_mode_kernel(l, r_target, grid.r)
    if np.ndim(l):  # one row per mode
        l = np.reshape(l, (-1, 1))
        if shifted:
            kl[l[:, 0] == 0] -= grid.r
    elif shifted and l == 0:
        kl = kl - grid.r
    return kl * grid.r**2 * grid.line_w / (2.0 * (2 * l + 1))
