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
to.  ModeConvolution applies the same quadrature in O(n_r) per mode (one
forward and one reversed prefix sum, rescaled block by block, from
per-radius source and weight tables), and convolve() applies (1/8 pi) int
kernel(x, y) density(y) dy on a grid: the grid's Legendre
analysis, its ModeConvolution (grid.convolution, one per grid for both
kernel variants) on the band of leading modes above the analysis' roundoff
(grid.reduction.chop), synthesis (a radial grid is the one-mode case).  The
solver and the decomposition both call it; it returns the density's modes
with the field, so callers take the density's moments from them.

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


_BLOCK_BITS = 1024  # bound on log2 (r_{b-1}/r_a)^k_max over one block [a, b)


class ModeConvolution:
    """The quadrature of mode_kernel_table, applied in O(n_r) per mode.

    K_l(r, s) is a sum of products of a function of r_< and one of r_>, so
    each mode's matrix is semiseparable.  With h = g_l s^2 w / (2 (2l+1)),
    A = 1/(2l+3) and B = 1/(2l-1), row j of the table product splits into the
    sources inside (s <= r_j, diagonal included) and outside r_j:

        inner  r_j (A P^(l+2)_j - B P^l_j),  P^k_j = sum_{i<=j} (r_i/r_j)^k h_i
        outer  A Q^(l+2)_j - B Q^l_j,        Q^k_j = sum_{i>j} (r_j/r_i)^k r_i h_i

    The shifted kernel's l = 0 mode subtracts the scalar sum r h; there
    B = -1, so the outer term -B Q^0_j minus that sum is exactly
    -sum_{i<=j} r_i h_i, which is summed directly to keep the field accurate
    relative to its size as r -> 0.

    Both sums run as rescaled prefix sums (Blelloch, "Prefix sums and their
    applications", CMU-CS-90-190, 1990).  The radii are cut into blocks
    [a, b) over which (r_{b-1}/r_a)^(l_max + 2) <= 2^_BLOCK_BITS for the
    grid's top mode l_max, and each power is taken against its block's
    reference radius c = sqrt(r_a r_{b-1}): T^k_i = (r_i/c)^k, which lies
    within 2^(+-_BLOCK_BITS / 2) for every mode.  Inside a block
    (r_i/r_j)^k = T_i / T_j, so

        P_j = (carry + sum_{a<=i<=j} T_i h_i) / T_j
        Q_j = T_j (carry + sum_{j<i<b} r_i h_i / T_i)

    are one forward and one reversed np.cumsum per block, scaled back by
    T_j.  The carry is the neighbouring block's sum at the boundary, P_{a-1}
    forward or r_b h_b + Q_b backward, taken to its true size through the
    table and into this block's scale by the boundary factor (r_{a-1}/c)^k
    or (c/r_b)^k, both at most 1: one (2, band) vector per block boundary.

    grow() folds everything but the density into per-radius, per-mode
    tables, so a call is two broadcast products into one preallocated
    (2, 2, n_r, band) workspace (inner and outer half, k = l and l + 2),
    the block scans above, one product with the weights and three sums:

        source  (-B, A) hw_i T_i  and  (-B, A) hw_i r_i / T_i
        weight  r_j / T_j         and  T_j

    with hw = r^2 w / (2 (2l + 1)), so a field entry is the sum of the four
    weighted scans.  source and weight (2, 2, n_r, band) hold 8 band n_r
    floats, the workspace 4 band n_r, the boundary factors carry
    4 band (n_blocks - 1); scale, the powers T (2, n_r, band), is the
    outer half of weight.  The blocks come from the grid's top mode, not
    from the band, and every step works column by column, so each mode's
    field column is computed the same way whatever the band.  The tables
    depend on neither the density nor the kernel variant, so they serve
    both variants; they hold only the first self.n_modes modes, the widest
    band asked for, bit for bit the first columns of the whole grid's, and
    grow() rebuilds them for a wider band when a density needs more modes.
    A call returns a new array; no view of the workspace escapes.

    Accuracy.  A source h_i reaches P_j or Q_j through T_i, through 1/T
    and a boundary factor at each block boundary between i and j, and
    through the weight's T_j, each a rounded ratio raised to k, so within
    (k + 2) u of its value (u = 2^-53; the ratio's rounding is raised to
    the kth power, the power adds one ulp), with a product (or the
    weight's one division) per factor, and through at most n_r - 1
    additions (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 4.2).  The rest of a path is at most 9 roundings: hw (3),
    the rounded -B or A and its product with hw (2), the product with g,
    the outer source's product with r / T, and the four-term sum (2 or 3
    additions, the weight product counted with its factor).  With
    k <= l + 2, a field entry is within

        (2 n_blocks (l + 5) + n_r + 10) u sum_i |K|_l(r_j, r_i) |h_i|

    of the exact sum of its quadrature, where |K|_l = r_> (A xi^(l+2) +
    |B| xi^l) bounds every term of both sums (plus s for the shifted l = 0
    mode, whose inner sum is one np.cumsum, written over the outer l = 0
    scan, whose weight T^0 is exactly 1).  On thm2's grid (two blocks)
    that is (4 l + 286) u.

    Range.  Every power T is a normal float, within 2^+-512, and the
    sources and weights are T or 1/T times r, hw and a constant at most 1.
    The scaled sources T_i h_i and r_i h_i / T_i and their sums stay below
    2^512 times sum |h| or sum r |h| (a carry enters its block at most at
    its true size), so nothing overflows while those sums stay below 2^511
    (about 7e153).  A scaled value is subnormal only where its true size is
    below 2^-510 (about 3e-154); where one is, or a boundary factor
    underflows, the bound gains an absolute term below
    (n_r + 2 n_blocks) 2^-562 (1 + r_j) (1 + sum |h| + sum r |h|).  The
    densities the solver convolves lie far inside that range (the nonzero
    sources of the thm1, thm2 and thmA-iii solves are above 6e-43 and their
    sums below 4e9), so the hot path makes no subnormal products and needs
    no flush of tiny table entries.
    """

    def __init__(self, grid, l_values):
        self.r = r = grid.r
        self.l_values = np.asarray(list(l_values), dtype=float)
        self.rw = r**2 * grid.line_w
        span = (self.l_values[-1] + 2.0) * np.log2(r)  # log2 of r^k_max
        edges = [0]
        while edges[-1] < r.size:
            a = edges[-1]
            b = np.searchsorted(span, span[a] + _BLOCK_BITS, side="right")
            edges.append(max(int(b), a + 1))
        self.edges = edges  # block i is edges[i]:edges[i + 1]
        c = np.sqrt(r[edges[:-1]] * r[np.array(edges[1:]) - 1])
        self.ratio = r / np.repeat(c, np.diff(edges))  # r_i / c of its block
        a = np.array(edges[1:-1], dtype=int)  # first radius of each block but one
        self.step = np.stack([r[a - 1] / c[1:], c[:-1] / r[a]])
        self.n_modes = 0

    def grow(self, n_modes: int) -> None:
        """Hold the tables of at least the first n_modes modes."""
        if n_modes <= self.n_modes:
            return
        self.source = self.weight = self._work = None  # freed before the wider ones
        l = self.l_values[:n_modes]
        k = np.stack([l, l + 2.0])
        coef = np.stack([-1.0 / (2.0 * l - 1.0), 1.0 / (2.0 * l + 3.0)])[:, None]
        hwc = self.rw[:, None] * (coef / (2.0 * (2.0 * l + 1.0)))  # -B hw, A hw
        self.weight = w = np.empty((2, 2, self.r.size, n_modes))
        # the powers vary along the last axis: numpy squares for a broadcast
        # exponent of 2, which would round the l = 0 column differently
        # with the band
        w[1] = np.moveaxis(self.ratio[:, None, None] ** k, 1, 0)
        self.scale = w[1]  # T, (2, n_r, n_modes)
        np.divide(self.r[:, None], self.scale, out=w[0])  # r / T
        self.source = np.stack([hwc * self.scale, hwc * w[0]])
        self.carry = self.step[..., None, None] ** k  # (2, n_blocks - 1, 2, n_modes)
        self._work = np.empty(w.size)
        self.n_modes = n_modes

    def __call__(self, g: np.ndarray, shifted: bool) -> np.ndarray:
        """Field modes (n_r, band) from the first band density modes g
        (n_r, band), for the shifted or the unshifted kernel."""
        m = g.shape[1]
        self.grow(m)
        t, (into, back) = self.scale[..., :m], self.carry[..., :m]
        src = self.source[..., :m]
        ws = self._work[:4 * g.size].reshape(2, 2, -1, m)
        p, q = ws  # inner sources T_i c h_i; q[:, j]: r_{j+1} c h_{j+1} / T_{j+1}
        np.multiply(g, src[0], out=p)
        np.multiply(g[1:], src[1, :, 1:], out=q[:, :-1])
        q[:, -1] = 0.0
        edges = self.edges
        for i in range(len(edges) - 1):
            a, b = edges[i], edges[i + 1]
            if i:  # P_{a-1} into this block's scale
                p[:, a] += into[i - 1] * (p[:, a - 1] / t[:, a - 1])
            np.cumsum(p[:, a:b], axis=1, out=p[:, a:b])
        for i in reversed(range(len(edges) - 1)):
            a, b = edges[i], edges[i + 1]
            if i < len(edges) - 2:  # r_b h_b + Q_b into this block's scale
                q[:, b - 1] += q[:, b]  # q[:, b - 1] holds the source at r_b
                q[:, b - 1] *= t[:, b]
                q[:, b - 1] *= back[i]
            rev = q[:, a:b][:, ::-1]
            np.cumsum(rev, axis=1, out=rev)
        if shifted:  # every band starts at l = 0, whose outer weight is 1
            inner = q[0, :, 0]
            np.multiply(g[:, 0], src[1, 0, :, 0], out=inner)  # r_i h_i
            np.cumsum(inner, out=inner)
            inner *= -1.0  # numpy 2.4's in-place np.negative misreads it
        ws *= self.weight[..., :m]
        out = p[0] + p[1]
        out += q[0]
        out += q[1]
        return out


def convolve(grid, density, shifted: bool):
    """(field, density modes): (1/8 pi) int kernel(x, y) density(y) dy on
    the grid nodes, and the Legendre analysis of the density it convolved.

    density is node values in the layout grid.shape; the field has the same
    layout and the modes are (n_r, n_modes), their l = 0 column the
    density's angular mean.  Only the band of leading modes the grid's
    chop rule keeps (grid.reduction.chop: the modes above the analysis'
    own roundoff) is convolved, with the grid's own mode convolution
    (grid.convolution, one per grid for both kernel variants, whose tables
    grow to the widest band asked of them); the field is synthesized from
    the band alone.
    """
    red = grid.reduction
    modes = red.analyze(density)
    band, _ = red.chop(modes)
    return red.synthesize(grid.convolution(modes[:, :band], shifted)), modes


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
