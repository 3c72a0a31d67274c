from types import SimpleNamespace

import numpy as np
import pytest

from biharm.kernels import (ModeConvolution, kernel_row, legendre_mode_kernel,
                            mc_kernel_oracle, mode_kernel_table)
from biharm.model import AxisymmetricGrid, RadialGrid


class TestRadialKernel:
    def test_closed_form_values(self):
        # K(r, s) = r_> + r_<^2 / (3 r_>)
        assert legendre_mode_kernel(0, 1.0, 1.0) == pytest.approx(4.0 / 3.0)
        assert legendre_mode_kernel(0, 2.0, 1.0) == pytest.approx(13.0 / 6.0)
        assert legendre_mode_kernel(0, 5.0, 1.0) == pytest.approx(
            5.0 + 1.0 / 15.0)

    def test_degenerate_radii(self):
        assert legendre_mode_kernel(0, 3.0, 0.0) == pytest.approx(3.0)
        assert legendre_mode_kernel(0, 0.0, 2.0) == pytest.approx(2.0)
        assert legendre_mode_kernel(0, 0.0, 0.0) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(7)
        r = rng.uniform(0, 10, 200)
        s = rng.uniform(0, 10, 200)
        k = legendre_mode_kernel(0, r, s)
        np.testing.assert_allclose(k, legendre_mode_kernel(0, s, r),
                                   rtol=1e-15)
        assert np.all(k >= np.maximum(r, s) - 1e-12)
        assert np.all(k <= r + s + 1e-12)

    def test_quadrature_oracle(self):
        # direct angular integral of |x - y| over the source sphere
        t, wt = np.polynomial.legendre.leggauss(200)
        r, s = 1.3, 2.7
        vals = np.sqrt(r * r + s * s - 2 * r * s * t)
        assert 0.5 * np.sum(wt * vals) == pytest.approx(
            legendre_mode_kernel(0, r, s), rel=1e-12)


class TestLegendreModes:
    def test_mode_zero_matches_spherical_mean(self):
        r = np.linspace(0.1, 5, 40)
        s = 1.7
        mean = np.maximum(r, s) + np.minimum(r, s) ** 2 / (3 * np.maximum(r, s))
        np.testing.assert_allclose(legendre_mode_kernel(0, r, s), mean,
                                   rtol=1e-14)

    def test_telescoping_at_aligned_points(self):
        # sum_l K_l P_l(1) = |r - s|, alternating sum = r + s
        r, s = 2.0, 1.0
        total_plus = sum(legendre_mode_kernel(l, r, s) for l in range(80))
        total_minus = sum((-1) ** l * legendre_mode_kernel(l, r, s)
                          for l in range(80))
        assert total_plus == pytest.approx(abs(r - s), abs=1e-10)
        assert total_minus == pytest.approx(r + s, abs=1e-10)

    def test_mode_projection_oracle(self):
        # project |x - y| onto P_l in 30-digit arithmetic.  A float64 Gauss
        # projection is no oracle here: its O(1) terms cancel to ~1e-5 for
        # l = 10, leaving a noise floor near 1e-12 absolute.  The closed form
        # is two float64 terms; xi^l carries l roundings of xi and each term
        # a few more, so its error is below (l + 8) eps times their absolute sum.
        import mpmath

        r, s = 1.9, 0.8
        rm, sm = mpmath.mpf(r), mpmath.mpf(s)
        with mpmath.workdps(30):
            for l in (1, 2, 5, 10):
                integral, quad_err = mpmath.quad(
                    lambda t: mpmath.legendre(l, t)
                    * mpmath.sqrt(rm * rm + sm * sm - 2 * rm * sm * t),
                    [-1, 1], error=True)
                proj = (2 * l + 1) / mpmath.mpf(2) * integral
                xi = s / r
                terms = r * (xi ** (l + 2) / (2 * l + 3) + xi ** l / abs(2 * l - 1))
                tol = (l + 8) * np.finfo(float).eps * terms + float(quad_err) * (2 * l + 1)
                got = legendre_mode_kernel(l, r, s)
                assert abs(got - float(proj)) <= tol, (l, got, float(proj), tol)

    def test_even_modes_decay_geometrically(self):
        r, s = 3.0, 1.0
        xi = 1.0 / 3.0
        k2 = abs(legendre_mode_kernel(2, r, s))
        k8 = abs(legendre_mode_kernel(8, r, s))
        assert k8 < k2 * xi**5


class TestMCOracle:
    def test_hundred_random_pairs_within_four_sigma(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for i in range(100):
            r = rng.uniform(0.05, 6.0)
            s = rng.uniform(0.05, 6.0)
            x = rng.standard_normal(3)
            x *= r / np.linalg.norm(x)
            mc, se = mc_kernel_oracle(x, s, 40_000, seed=1000 + i)
            dev = abs(mc - legendre_mode_kernel(0, r, s)) / se
            worst = max(worst, dev)
        assert worst < 4.0

    def test_deterministic_for_fixed_seed(self):
        a = mc_kernel_oracle([1.0, 0, 0], 2.0, 10_000, seed=42)
        b = mc_kernel_oracle([1.0, 0, 0], 2.0, 10_000, seed=42)
        assert a == b


class TestModeTables:
    def test_rows_match_kernel_row(self):
        g = RadialGrid.graded(64, 10.0)
        tables = mode_kernel_table(g, [0, 2, 4], shifted=True)
        for i, l in enumerate([0, 2, 4]):
            row = kernel_row(g.r[17], g, l=l, shifted=True)
            np.testing.assert_allclose(tables[i][17], row, rtol=1e-13)

    def test_shifted_subtracts_source_radius_only_in_mode_zero(self):
        g = RadialGrid.graded(32, 5.0)
        plain = mode_kernel_table(g, [0, 2], shifted=False)
        shifted = mode_kernel_table(g, [0, 2], shifted=True)
        sw = g.r**2 * g.line_w / 2.0
        np.testing.assert_allclose(plain[0] - shifted[0],
                                   np.tile(g.r * sw, (g.n, 1)), rtol=1e-12)
        np.testing.assert_array_equal(plain[1], shifted[1])

    def test_table_applies_the_quadrature(self):
        # mode-0 action on a gaussian density against direct quadrature
        g = RadialGrid.graded(400, 20.0)
        dens = np.exp(-g.r**2)
        tables = mode_kernel_table(g, [0], shifted=False)
        v = tables[0] @ dens
        j = 123
        direct = 0.5 * np.sum(legendre_mode_kernel(0, g.r[j], g.r) * g.r**2
                              * g.line_w * dens)
        assert v[j] == pytest.approx(direct, rel=1e-12)

    def test_shifted_row_vanishes_at_origin_limit(self):
        # K_0(r, s) - s -> 0 as r -> 0
        g = RadialGrid.graded(64, 10.0)
        row = kernel_row(1e-9, g, l=0, shifted=True)
        assert np.max(np.abs(row)) < 1e-9

    @pytest.mark.parametrize("shifted", [False, True])
    def test_rows_of_all_modes_are_the_single_mode_rows_bitwise(self, shifted):
        # one call for every mode (verify.integral_residual) must give the
        # same bits as one call per mode; l = 2 is where numpy's square and
        # a general power round differently
        g = AxisymmetricGrid.build(64, 16, 10.0)
        assert 2 in g.l_values
        for rk in (float(g.r[0]), float(g.r[17]), 3.3, float(g.r[-1])):
            rows = kernel_row(rk, g, g.l_values, shifted=shifted)
            assert rows.shape == (len(g.l_values), g.n_r)
            for j, l in enumerate(g.l_values):
                one = kernel_row(rk, g, l, shifted=shifted)
                np.testing.assert_array_equal(rows[j].view(np.int64),
                                              one.view(np.int64))


class _TwoTableScan:
    """Reference for ModeConvolution: the scan with a second, reversed table
    per level for the suffix sums, run as one forward scan over
    (n_r, 4 n_modes) with the suffix half read backward."""

    def __init__(self, grid, l_values):
        r = grid.r
        l = np.asarray(list(l_values), dtype=float)
        self.a, self.b = 1.0 / (2.0 * l + 3.0), 1.0 / (2.0 * l - 1.0)
        self.r = r
        self.hw = (r**2 * grid.line_w)[:, None] / (2.0 * (2.0 * l + 1.0))
        self.l0_cols = np.flatnonzero(l == 0.0)
        self.n_modes = l.size
        rho = np.zeros(r.size)
        rho[1:] = r[:-1] / r[1:]
        pre = rho[:, None] ** np.concatenate([l, l + 2.0])
        suf = np.zeros_like(pre)
        suf[:-1] = pre[1:]
        self.suf_rev = suf[::-1]
        c = np.concatenate([pre, self.suf_rev], axis=1)
        c[c < np.finfo(float).tiny] = 0.0
        self.levels = []
        d = 1
        while d < r.size:
            self.levels.append((d, c[d:].copy()))
            c[d:] *= c[:-d]
            c[c < np.finfo(float).tiny] = 0.0
            d *= 2

    def __call__(self, g, shifted):
        m = self.n_modes
        h = g * self.hw
        rh = self.r[:, None] * h
        src = np.zeros_like(rh)
        src[1:] = rh[:0:-1]
        x = np.concatenate([h, h, src, src], axis=1)
        x[:, 2 * m:] *= self.suf_rev
        for d, c in self.levels:
            x[d:] += c * x[:-d]
        p_l, p_l2 = x[:, :m], x[:, m:2 * m]
        q_l, q_l2 = x[::-1, 2 * m:3 * m], x[::-1, 3 * m:]
        far = -self.b * q_l
        if shifted:
            far[:, self.l0_cols] = -np.cumsum(rh[:, self.l0_cols], axis=0)
        return self.r[:, None] * (self.a * p_l2 - self.b * p_l) + (self.a * q_l2 + far)


class TestModeConvolution:
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("kind", ["radial", "axisymmetric"])
    def test_matches_dense_table(self, kind, shifted):
        # same quadrature as mode_kernel_table, summed in another order: the
        # rounding of any order is a few eps times sum |K_l| |h| (plus s |h|
        # where the shift subtracts s), so 1e-12 of that bounds the gap
        if kind == "radial":
            grid, l_values, checked = RadialGrid.graded(400, 40.0), [0], [0]
        else:
            grid = AxisymmetricGrid.build(400, 256, 40.0)
            l_values = list(range(0, 256, 2))
            checked = [0, 2, 10, 64, 128, 200, 254]
        r = grid.r
        assert r[-1] / r[0] >= 1e5
        g = np.random.default_rng(3).standard_normal((r.size, len(l_values)))
        got = ModeConvolution(grid, l_values)(g, shifted)
        assert np.all(np.isfinite(got))
        tables = mode_kernel_table(grid, checked, shifted)
        for table, l in zip(tables, checked):
            col = l_values.index(l)
            h = np.abs(g[:, col]) * r**2 * grid.line_w / (2 * (2 * l + 1))
            k = np.abs(legendre_mode_kernel(l, r[:, None], r[None, :]))
            if shifted and l == 0:
                k = k + r[None, :]
            err = np.abs(got[:, col] - table @ g[:, col])
            assert np.all(err <= 1e-12 * (k @ h)), (l, np.max(err / (k @ h)))

    @pytest.mark.parametrize("grid", [
        RadialGrid.graded(400, 40.0),
        RadialGrid.graded(2000, 400.0),
        AxisymmetricGrid.build(256, 128, 80.0),
        AxisymmetricGrid.build(256, 256, 60.0),
        AxisymmetricGrid.build(400, 256, 40.0),  # flushes 25,604 table entries
        # radii doubling from node to node: 2^-1024 and 2^-1028 are subnormal
        # powers rho^k, which weight the suffix sources unflushed
        SimpleNamespace(r=2.0 ** np.arange(-30.0, 34.0), line_w=np.ones(64),
                        l_values=[0, 2, 1022, 1026]),
    ], ids=["radial400", "radial2000", "axisym256x128", "axisym256x256",
            "axisym400x256", "subnormal"])
    def test_one_table_scan_is_the_two_table_scan_bit_for_bit(self, grid):
        # the backward scan reads the prefix table, which holds bit for bit the
        # reversed suffix table: the same factors multiplied in the same tree
        l_values = getattr(grid, "l_values", [0])
        conv, ref = ModeConvolution(grid, l_values), _TwoTableScan(grid, l_values)
        np.testing.assert_array_equal(conv.rho_k, ref.suf_rev[:0:-1])
        assert [d for d, _ in conv.levels] == [d for d, _ in ref.levels]
        for (d, c), (_, c_ref) in zip(conv.levels, ref.levels):
            assert c.shape == (grid.r.size - d, 2 * len(l_values))
            np.testing.assert_array_equal(c[::-1].view(np.int64),
                                          c_ref[:, c.shape[1]:].view(np.int64))
        g = np.random.default_rng(11).standard_normal((grid.r.size, len(l_values)))
        for shifted in (False, True):
            np.testing.assert_array_equal(conv(g, shifted).view(np.int64),
                                          ref(g, shifted).view(np.int64))
