import math

import numpy as np
import pytest

from biharm import verify
from biharm.model import (AxisymmetricGrid, Profile, QuadraticPolynomial,
                          RadialGrid, SphericalReduction)
from biharm.verify import (A_Q7, RadialLaplacian, exact_q7_profile,
                           exact_q7_value, integral_residual, pde_residual,
                           pohozaev_residual)


def _flat(c):
    """Constant polynomial for integral checks against bare profiles."""
    return QuadraticPolynomial((0.0, 0.0, 0.0), c=c)


def _loop_laplacian_weights(r):
    """RadialLaplacian's (idx, wts) built one radius at a time."""
    width = 5
    p = width // 2
    re = np.concatenate([-r[p - 1::-1], r])
    idx = np.empty((r.size, width), dtype=int)
    wts = np.empty((r.size, width))
    for k in range(r.size):
        lo = min(k, re.size - width)
        window = re[lo:lo + width] - r[k]
        vmat = np.vander(window, width, increasing=True).T
        rhs = np.zeros((width, 2))
        rhs[1, 0] = 1.0
        rhs[2, 1] = 2.0
        d = np.linalg.solve(vmat, rhs)
        idx[k] = np.arange(lo, lo + width)
        wts[k] = d[:, 1] + (2.0 / r[k]) * d[:, 0]
    return idx, wts


class TestRadialLaplacian:
    @pytest.mark.parametrize("n, r_max, grading", [
        (256, 40.0, 2.0), (2000, 100.0, 2.0), (300, 30.0, 1.0), (8, 5.0, 3.0)])
    def test_batched_weights_equal_the_per_radius_loop(self, n, r_max, grading):
        r = RadialGrid.graded(n, r_max, grading).r
        lap = RadialLaplacian(r)
        idx, wts = _loop_laplacian_weights(r)
        np.testing.assert_array_equal(lap.idx, idx)
        np.testing.assert_array_equal(lap.wts, wts)

    @pytest.mark.parametrize("shape", [(256,), (256, 128), (256, 7)])
    def test_term_by_term_sum_is_the_gathered_sum_bit_for_bit(self, shape):
        # apply adds the stencil terms one at a time; the (n_r, 5, n_modes)
        # gather summed over its stencil axis gives the same bits
        lap = RadialLaplacian(RadialGrid.graded(256, 60.0).r)
        vals = np.random.default_rng(4).standard_normal(shape)
        ext = np.concatenate([vals[lap.p - 1::-1], vals])
        wts = lap.wts.reshape(lap.wts.shape + (1,) * (ext.ndim - 1))
        want = np.sum(wts * ext[lap.idx], axis=1)
        np.testing.assert_array_equal(lap.apply(vals).view(np.int64),
                                      want.view(np.int64))

    def test_exact_on_low_degree_polynomials(self):
        g = RadialGrid.graded(200, 10.0)
        lap = RadialLaplacian(g.r)
        np.testing.assert_allclose(lap.apply(g.r**2), np.full(200, 6.0),
                                   rtol=1e-9)
        np.testing.assert_allclose(lap.apply(g.r**4)[:-5], 20.0 * g.r[:-5]**2,
                                   rtol=1e-8)

    def test_high_order_convergence(self):
        # away from the origin (where graded spacing makes roundoff dominate)
        # halving h shrinks the truncation error by an order > 8
        def err(n):
            g = RadialGrid.graded(n, 8.0)
            f = np.exp(-g.r**2)
            exact = (4.0 * g.r**2 - 6.0) * f
            e = RadialLaplacian(g.r).apply(f) - exact
            sel = (g.r > 0.5) & (g.r < 7.0)
            return np.max(np.abs(e[sel]))

        assert err(400) / err(800) > 8.0

    def test_exact_q7_laplacian_closed_form(self):
        g = RadialGrid.graded(1000, 30.0)
        lap = RadialLaplacian(g.r)
        got = lap.apply(exact_q7_value(g.r))
        # Laplacian of sqrt(a + r^2) in R^3
        expect = (3.0 * A_Q7 + 2.0 * g.r**2) * (A_Q7 + g.r**2) ** -1.5
        np.testing.assert_allclose(got[:-10], expect[:-10], rtol=1e-7)


def _loop_bilaplacian_modes(g, u):
    """Lap^2 of each Legendre mode of u, one mode at a time."""
    red = g.reduction
    coeffs = red.analyze(u)
    lap = RadialLaplacian(g.r)
    out = np.empty_like(coeffs)
    inv_r2 = 1.0 / (g.r * g.r)
    for j, l in enumerate(red.l_values):
        f = coeffs[:, j]
        lap1 = lap.apply(f) - l * (l + 1) * f * inv_r2
        out[:, j] = lap.apply(lap1) - l * (l + 1) * lap1 * inv_r2
    return out


class TestPDEResidual:
    @pytest.mark.parametrize("g", [
        RadialGrid.graded(300, 30.0),
        AxisymmetricGrid.build(96, 24, 20.0)], ids=["radial", "axisymmetric"])
    def test_all_modes_at_once_equal_the_mode_loop_bit_for_bit(
            self, g, monkeypatch):
        t = g.t
        u = 1.0 + g.r_nodes**2 * (1.0 + 0.3 * t * t) + 0.01 * g.r_nodes**3 * t**4
        seen = []
        synthesize = SphericalReduction.synthesize

        def record(self, coeffs):
            seen.append(coeffs.copy())
            return synthesize(self, coeffs)

        monkeypatch.setattr(SphericalReduction, "synthesize", record)
        pde_residual(Profile(grid=g, values=u), 5.0)
        expect = _loop_bilaplacian_modes(g, u)
        assert seen[0].shape == expect.shape
        assert np.all(np.isfinite(expect))
        assert seen[0].tobytes() == expect.tobytes()

    def test_exact_q7_battery(self):
        g = RadialGrid.graded(2000, 100.0)
        res = pde_residual(exact_q7_profile(g), 7.0)
        assert res.max_rel < 1e-3

    def test_exact_q7_profile_fills_the_node_layout(self):
        # each polar node column of an axisymmetric grid holds the radial
        # closed form, so the battery runs on either grid kind
        g = AxisymmetricGrid.build(64, 4, 10.0)
        prof = exact_q7_profile(g)
        assert prof.values.shape == g.shape
        assert np.all(prof.values == exact_q7_value(g.r)[:, None])

    def test_detects_smooth_perturbation(self):
        g = RadialGrid.graded(2000, 100.0)
        clean = pde_residual(exact_q7_profile(g), 7.0)
        u = exact_q7_value(g.r) * (1.0 + 1e-3 * np.exp(-((g.r - 5.0) ** 2)))
        res = pde_residual(Profile(grid=g, values=u), 7.0)
        assert res.max_rel > 20.0 * clean.max_rel

    def test_quartic_forcing_is_subtracted(self, flat_q5_run):
        # adding eps r^4 to a solution adds exactly 120 eps to Lap^2 u
        cfg, prof, report = flat_q5_run
        g = prof.grid
        u = prof.values + g.poly_values(cfg.poly)
        base = Profile(grid=g, values=u)
        r0 = pde_residual(base, 5.0)
        eps = 1e-3
        bumped = Profile(grid=g, values=u + eps * g.r**4)
        # the density changes, so compare the bilaplacian part only through
        # the forcing cancellation: residual stays small with the matching
        # eps_quartic and blows up without it
        ok = pde_residual(bumped, 5.0, eps_quartic=eps)
        bad = pde_residual(bumped, 5.0)
        assert ok.max_rel < 0.02
        assert bad.max_rel > 10.0 * ok.max_rel
        assert bad.max_rel == pytest.approx(120.0 * eps, rel=0.05)
        assert r0.max_rel < 1e-3

    def test_positivity_required(self):
        g = RadialGrid.graded(100, 10.0)
        with pytest.raises(Exception):
            pde_residual(Profile(grid=g, values=np.linspace(-1, 1, 100)), 5.0)


class TestIntegralResidual:
    @pytest.mark.parametrize("n", [4, 20, 37])
    def test_halton_draw_is_scipys_bit_for_bit(self, n):
        from scipy.stats import qmc

        for seed in range(100):
            want = qmc.Halton(d=2, scramble=True, seed=seed).random(n)
            assert verify._halton(n, seed).tobytes() == want.tobytes()

    def test_exact_q7_identity(self):
        g = RadialGrid.graded(2000, 100.0)
        res = integral_residual(exact_q7_profile(g), 7.0, _flat(0.0), seed=0)
        assert res.max_rel < 1e-3
        assert abs(res.gamma) < 1e-2

    def test_seed_changes_samples_not_conclusion(self):
        g = RadialGrid.graded(2000, 100.0)
        r1 = integral_residual(exact_q7_profile(g), 7.0, _flat(0.0), seed=1)
        r2 = integral_residual(exact_q7_profile(g), 7.0, _flat(0.0), seed=2)
        s1 = [s["r"] for s in r1.samples]
        s2 = [s["r"] for s in r2.samples]
        assert s1 != s2
        assert r1.max_rel < 1e-3 and r2.max_rel < 1e-3

    def test_detects_scaling_corruption(self, flat_q5_run):
        cfg, prof, report = flat_q5_run
        g = prof.grid
        u = prof.values + g.poly_values(cfg.poly)
        res = integral_residual(Profile(grid=g, values=1.05 * u),
                                5.0, _flat(1.05), seed=0)
        assert res.max_rel > 1e-2  # 1.05 u is not a solution

    def test_accepts_true_solution(self, flat_q5_run):
        cfg, prof, report = flat_q5_run
        g = prof.grid
        u = prof.values + g.poly_values(cfg.poly)
        res = integral_residual(Profile(grid=g, values=u),
                                5.0, _flat(1.0), seed=0)
        assert res.max_rel < 1e-4

    # (radius index, polar node index of all n_angle = 256 nodes) of each
    # sample on thm1's grid, as drawn before the grid stored only its
    # t > 0 half, for seeds 0 and 11
    THM1_SAMPLES = {
        0: [(12, 14), (13, 184), (15, 99), (17, 42), (21, 212), (25, 127),
            (27, 70), (30, 240), (35, 155), (42, 4), (50, 174), (54, 89),
            (59, 33), (71, 203), (84, 118), (100, 61), (109, 231), (119, 146),
            (141, 23), (168, 193)],
        11: [(13, 76), (14, 161), (15, 246), (18, 48), (22, 133), (26, 218),
             (28, 20), (31, 105), (37, 190), (44, 57), (52, 142), (57, 227),
             (62, 29), (74, 114), (88, 199), (104, 1), (114, 86), (124, 171),
             (147, 67), (175, 152)],
    }

    @pytest.mark.parametrize("seed", sorted(THM1_SAMPLES))
    def test_thm1_samples_keep_their_nodes(self, thm1_run, seed):
        # the Halton draw spans all polar nodes; a t < 0 node is read at
        # its stored mirror, so each sample keeps its radius and |t|
        cfg, cont = thm1_run
        prof = cont.final_profile
        g = prof.grid
        u = Profile(grid=g, values=prof.values + g.poly_values(cfg.stages()[-1].poly))
        t, _ = np.polynomial.legendre.leggauss(g.n_angle)
        t = 0.5 * (t - t[::-1])
        res = integral_residual(u, cfg.q, cfg.stages()[-1].poly, seed=seed)
        got = [(s["r"], s["t"]) for s in res.samples]
        assert got == [(g.r[k], abs(t[j])) for k, j in self.THM1_SAMPLES[seed]]
        j = [int(np.flatnonzero(g.t == s["t"])[0]) for s in res.samples]
        k = [k for k, _ in self.THM1_SAMPLES[seed]]
        assert [s["u"] for s in res.samples] == u.values[k, j].tolist()


    def test_band_is_the_chop_of_its_own_analysis(self, thm1_run,
                                                  monkeypatch):
        # the oracle chops its own analysis of u^-q, whatever band the
        # grid's mode convolution was built for: one kernel_row call per
        # sample, each for the same leading modes
        cfg, cont = thm1_run
        poly = cfg.stages()[-1].poly
        g = cfg.grid.build()  # a grid of its own, whose convolution is forced
        u = Profile(grid=g, values=cont.final_profile.values + g.poly_values(poly))
        red = g.reduction
        band = red.chop(red.analyze(u.values ** -cfg.q))[0]
        assert 1 < band < len(red.l_values)
        rows = []
        kernel_row = verify.kernel_row
        monkeypatch.setattr(verify, "kernel_row", lambda r, grid, l, shifted:
                            rows.append(list(l)) or kernel_row(r, grid, l, shifted))
        want = integral_residual(u, cfg.q, poly, seed=5)
        assert rows == [red.l_values[:band]] * len(want.samples)
        for forced in (2, len(red.l_values)):
            g.convolution.n_modes = 0
            g.convolution.grow(forced)
            got = integral_residual(u, cfg.q, poly, seed=5)
            assert (got.max_rel, got.gamma, got.samples) == (
                want.max_rel, want.gamma, want.samples)

class TestPohozaev:
    def test_flat_q5_solution_balances(self, flat_q5_run):
        # the effective constant c + gamma is negative here (~ -1.04); the
        # identity is sign-agnostic and still balances, limited only by the
        # power-law tail extrapolation of the slowly decaying u^-4 integrand
        cfg, prof, report = flat_q5_run
        g = prof.grid
        u = prof.values + g.poly_values(cfg.poly)
        from biharm.analysis import first_moment as moment1
        first_moment = moment1(g, u ** -5.0)
        assert cfg.poly.c - first_moment < 0.0
        res = pohozaev_residual(Profile(grid=g, values=u),
                                5.0, cfg.poly, gamma_offset=-first_moment)
        assert res.residual is not None
        assert res.residual < 1e-3

    def test_scaling_corruption_unbalances(self, flat_q5_run):
        cfg, prof, report = flat_q5_run
        g = prof.grid
        u = prof.values + g.poly_values(cfg.poly)
        dens = u ** -5.0
        fm = 0.5 * float(np.sum(g.r**3 * g.line_w * dens))
        res = pohozaev_residual(Profile(grid=g, values=1.3 * u),
                                5.0, cfg.poly, gamma_offset=-fm)
        assert res.residual is None or res.residual > 1e-2

    def test_small_q_notes_inapplicability(self):
        g = RadialGrid.graded(200, 20.0)
        u = 1.0 + g.r**2
        res = pohozaev_residual(Profile(grid=g, values=u),
                                0.5, QuadraticPolynomial((1, 1, 1), 1.0))
        assert res.residual is None
        assert "q > 1" in res.note

    def test_underflowed_tail_notes(self):
        # u^(1-q) and u^-q underflow to 0 in the last decade at q = 120
        g = RadialGrid.graded(200, 40.0)
        poly = QuadraticPolynomial((1, 1, 1), 1.0)
        prof = Profile(grid=g, values=g.poly_values(poly))
        res = pohozaev_residual(prof, 120.0, poly)
        assert res.residual is None
        assert res.note.startswith("tail fit failed: power-law fit needs "
                                   "positive values")
        integ = integral_residual(prof, 120.0, poly)
        assert integ.note.startswith("no tail correction (power-law fit")
        assert not integ.tail_diverges

    def test_divergent_tail_notes(self):
        # u ~ r gives u^(1-q) ~ r^-1 at q = 2: integral diverges
        g = RadialGrid.graded(400, 50.0)
        u = 1.0 + g.r
        res = pohozaev_residual(Profile(grid=g, values=u),
                                2.0, QuadraticPolynomial((0, 0, 0), 1.0))
        assert res.residual is None
        assert "diverges" in res.note
