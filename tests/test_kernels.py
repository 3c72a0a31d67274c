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
                                   np.tile(g.r * sw, (g.r.size, 1)), rtol=1e-12)
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
            assert rows.shape == (len(g.l_values), g.r.size)
            for j, l in enumerate(g.l_values):
                one = kernel_row(rk, g, l, shifted=shifted)
                np.testing.assert_array_equal(rows[j].view(np.int64),
                                              one.view(np.int64))


# radii doubling from node to node: with l up to 1026 a single step spans
# more than 2^1024, so every block is one radius and every carry crosses a
# boundary factor (1/2)^k as small as 2^-1028, a subnormal
_DOUBLING = SimpleNamespace(r=2.0 ** np.arange(-30.0, 34.0), line_w=np.ones(64),
                            l_values=[0, 2, 1022, 1026])
_GRIDS = {
    "radial": lambda: RadialGrid.graded(400, 40.0),
    "radial2000": lambda: RadialGrid.graded(2000, 400.0),
    "axisymmetric": lambda: AxisymmetricGrid.build(400, 256, 40.0),
    "thm1": lambda: AxisymmetricGrid.build(256, 256, 60.0),
    "thm2": lambda: AxisymmetricGrid.build(256, 128, 80.0),
    "axisym256x512": lambda: AxisymmetricGrid.build(256, 512, 80.0),
    "doubling": lambda: _DOUBLING,
}


def _absolute_kernel(l, r, s, shifted):
    """|K|_l = r_> (A xi^(l+2) + |B| xi^l), plus s for the shifted l = 0
    mode: a bound on every term either computation sums."""
    hi, lo = np.maximum(r, s), np.minimum(r, s)
    xi = lo / hi
    k = hi * (xi ** (l + 2) / (2 * l + 3) + xi ** l / abs(2 * l - 1))
    return k + s if shifted and l == 0 else k


def _assert_within_bounds(conv, grid, g, got, checked, shifted):
    """Each checked mode's field against its dense table, within the sum of
    ModeConvolution's docstring bound and the dense table's own: kernel_row
    rounds xi^l within (l + 2) u, the rest of a row within 12 u, and the
    product with g adds n_r roundings; its underflows are far below the
    docstring's absolute term."""
    r, n_r = grid.r, grid.r.size
    n_blocks = len(conv.edges) - 1
    tables = mode_kernel_table(grid, checked, shifted)
    for table, l in zip(tables, checked):
        col = list(grid.l_values).index(l)
        h = np.abs(g[:, col]) * r**2 * grid.line_w / (2 * (2 * l + 1))
        scale = _absolute_kernel(l, r[:, None], r[None, :], shifted) @ h
        factor = 2 * n_blocks * (l + 5) + n_r + 10 + (l + 14 + n_r)
        tiny = (n_r + 2 * n_blocks) * 2.0**-562 * (1 + r) * (1 + h.sum() + r @ h)
        err = np.abs(got[:, col] - table @ g[:, col])
        assert np.all(err <= factor * 2.0**-53 * scale + tiny), (
            l, np.max(err / scale) / 2.0**-53, factor)


class TestModeConvolution:
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("kind", list(_GRIDS))
    def test_matches_dense_table(self, kind, shifted):
        # the quadrature of mode_kernel_table, summed in another order and
        # rescaled block by block, within the docstring's error bound
        grid = _GRIDS[kind]()
        l_values = list(grid.l_values)
        r = grid.r
        assert r[-1] / r[0] >= 6e4
        g = np.random.default_rng(3).standard_normal((r.size, len(l_values)))
        conv = ModeConvolution(grid, l_values)
        got = conv(g, shifted)
        assert np.all(np.isfinite(got))
        picks = (0, 1, 5, 32, len(l_values) // 2, len(l_values) - 1)
        checked = sorted({l_values[i] for i in picks if i < len(l_values)})
        _assert_within_bounds(conv, grid, g, got, checked, shifted)

    def test_doubling_radii_make_one_block_per_radius(self):
        conv = ModeConvolution(_DOUBLING, _DOUBLING.l_values)
        assert conv.edges == list(range(65))
        conv.grow(4)
        np.testing.assert_array_equal(conv.scale, 1.0)  # c is the one radius
        assert np.all(conv.carry[:, :, 1, 3] < np.finfo(float).tiny)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_sources_across_the_float_range_give_a_finite_field(self, shifted):
        # the scale table reaches 2^+-512; sources with |h| and r |h| spread
        # log-uniformly from 2^-520 to 2^505 / n_r keep the scaled sums
        # below 2^1017, so the field is finite, and within its bound where
        # the smallest sources make subnormal products
        grid = AxisymmetricGrid.build(256, 512, 80.0)
        l_values, r = grid.l_values, grid.r
        conv = ModeConvolution(grid, l_values)
        conv.grow(len(l_values))
        assert 500 < np.max(np.abs(np.log2(conv.scale))) <= 512
        rng = np.random.default_rng(9)
        exps = rng.uniform(-505.0, 505.0, (r.size, len(l_values)))
        h = np.exp2(exps) / (r.size * np.maximum(r, 1.0))[:, None]
        h *= rng.choice([-1.0, 1.0], h.shape)
        hw = (r**2 * grid.line_w)[:, None] / (2.0 * (2.0 * np.array(l_values) + 1.0))
        g = h / hw
        got = conv(g, shifted)
        assert np.all(np.isfinite(got))
        _assert_within_bounds(conv, grid, g, got, [0, 2, 254, 510], shifted)

    def test_the_tables_hold_one_power_per_radius_mode_and_sum(self):
        # 4 band n_r source factors and 4 band n_r weights (the powers T
        # among them), plus 4 band boundary factors per block boundary:
        # no table per doubling level as the log-depth scan kept
        for grid, band, n_blocks in ((AxisymmetricGrid.build(256, 128, 80.0), 64, 2),
                                     (AxisymmetricGrid.build(256, 256, 60.0), 19, 4),
                                     (RadialGrid.graded(2000, 400.0), 1, 1)):
            conv = ModeConvolution(grid, grid.l_values)
            conv(np.ones((grid.r.size, band)), False)
            assert len(conv.edges) - 1 == n_blocks
            assert conv.source.shape == conv.weight.shape == (2, 2, grid.r.size, band)
            assert conv.scale.shape == (2, grid.r.size, band)
            assert np.shares_memory(conv.scale, conv.weight)
            assert conv.carry.shape == (2, n_blocks - 1, 2, band)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_a_returned_field_outlives_the_next_call(self, shifted):
        # the workspace is reused by every call; a field is its own array
        grid = _GRIDS["thm1"]()
        conv = ModeConvolution(grid, grid.l_values)
        assert conv.edges == [0, 3, 16, 68, 256]
        rng = np.random.default_rng(11)
        g1, g2 = rng.standard_normal((2, grid.r.size, 19))
        first = conv(g1, shifted)
        kept = first.copy()
        second = conv(g2, shifted)
        assert not np.shares_memory(first, conv._work)
        np.testing.assert_array_equal(first.view(np.int64), kept.view(np.int64))
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_a_band_is_the_first_columns_of_every_mode_bit_for_bit(self,
                                                                   shifted):
        # each mode's column of the tables is computed on its own, and the
        # blocks come from the grid's top mode, so a band's tables, and its
        # field, are the first columns of the whole grid's, whether built
        # for the band or grown to it
        grid = AxisymmetricGrid.build(256, 256, 60.0)
        l_values = grid.l_values
        g = np.random.default_rng(5).standard_normal((grid.r.size, len(l_values)))
        full = ModeConvolution(grid, l_values)
        want = full(g, shifted)
        assert full.n_modes == len(l_values)
        grown = ModeConvolution(grid, l_values)
        for band in (1, 17, 9, 40):  # the tables grow, and a band below serves
            built = ModeConvolution(grid, l_values)
            for conv in (built, grown):
                got = conv(g[:, :band], shifted)
                assert got.shape == (grid.r.size, band)
                np.testing.assert_array_equal(got.view(np.int64),
                                              want[:, :band].view(np.int64))
            assert built.n_modes == band and built.edges == full.edges
            for name in ("scale", "carry"):
                np.testing.assert_array_equal(
                    getattr(built, name).view(np.int64),
                    getattr(full, name)[..., :band].view(np.int64))
        assert grown.n_modes == 40
