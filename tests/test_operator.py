import filecmp
import json
import math
import tracemalloc

import numpy as np
import pytest

from biharm import cli
from biharm.kernels import ModeConvolution, legendre_mode_kernel
from biharm.model import (ConfigError, GridSpec, NonFiniteError, Profile,
                          RadialGrid, SolveConfig, SphericalReduction)
from biharm.operator import (OperatorContext, _MixingHistory,
                             continuation_eps_to_zero, solve_fixed_point)


def _radial_cfg(q=5.0, a=1.0, c=1.0, eps=0.0, n=400, r_max=40.0,
                variant="shifted", **over):
    d = {
        "q": q,
        "poly": {"a": [a, a, a], "b": [0, 0, 0], "c": c, "eps_quartic": eps},
        "kernel_variant": variant,
        "grid": {"kind": "radial", "n_r": n, "r_max": r_max},
        "tol_fixed_point": 1e-10,
        "max_iters": 200,
    }
    d.update(over)
    return SolveConfig.from_dict(d)


def _axisym_cfg(q=5.0, a=(1.0, 2.0, 2.0), c=1.0, eps=0.0, n_r=96, n_angle=32,
                r_max=30.0, variant="shifted", **over):
    d = {
        "q": q,
        "poly": {"a": list(a), "b": [0, 0, 0], "c": c, "eps_quartic": eps},
        "kernel_variant": variant,
        "grid": {"kind": "axisymmetric", "n_r": n_r, "n_angle": n_angle,
                 "r_max": r_max},
        "tol_fixed_point": 1e-10,
        "max_iters": 200,
    }
    d.update(over)
    return SolveConfig.from_dict(d)


class TestSphericalReduction:
    def test_roundtrip_even_field(self):
        cfg = _axisym_cfg()
        g = cfg.grid.build()
        red = g.reduction
        f = np.cos(g.x1) * np.exp(-g.rho**2 / 9.0)
        back = red.synthesize(red.analyze(f))
        np.testing.assert_allclose(back, f, atol=1e-10)

    def test_synthesize_at_matches_grid_nodes(self):
        cfg = _axisym_cfg(r_max=6.0)
        g = cfg.grid.build()
        red = g.reduction
        f = np.exp(-(g.x1**2 + 0.5 * g.rho**2))
        coeffs = red.analyze(f)
        j = 3
        vals = red.synthesize_at(coeffs, float(g.t[j]))
        np.testing.assert_allclose(vals, red.synthesize(coeffs)[:, j],
                                   rtol=1e-9, atol=1e-12)

    def test_node_table_is_the_legendre_row_of_each_node(self):
        # verify.integral_residual reads P_l(t) of a node column off pl
        g = _axisym_cfg().grid.build()
        red = g.reduction
        for j, t in enumerate(g.t.tolist()):
            np.testing.assert_array_equal(red.pl[j].view(np.int64),
                                          red.legendre_row(t).view(np.int64))
        radial = RadialGrid.graded(16, 4.0).reduction
        np.testing.assert_array_equal(radial.pl[0], radial.legendre_row(1.0))

    @pytest.mark.parametrize("preset", ["thmA-iii", "thm1", "thm2"])
    def test_a_band_synthesizes_as_its_zero_padded_modes(self, preset):
        # kernels.convolve synthesizes the field of the band it convolved
        # from the band alone: the columns of the modes past it would only
        # add zeros
        red = GridSpec.from_dict(cli.load_preset(preset)["grid"]).build().reduction
        coeffs = np.random.default_rng(7).standard_normal(
            (red.shape[0], len(red.l_values)))
        for band in range(1, coeffs.shape[1] + 1):
            padded = np.zeros_like(coeffs)
            padded[:, :band] = coeffs[:, :band]
            np.testing.assert_array_equal(red.synthesize(coeffs[:, :band]),
                                          red.synthesize(padded))

    def test_radial_round_trip_keeps_every_bit(self):
        # a radial grid's one node column gives the tables [[1.0]]; only a
        # -0.0 would come back as 0.0, since the matmul adds to a zero
        g = RadialGrid.graded(16, 4.0)
        red = g.reduction
        assert isinstance(red, SphericalReduction) and red.l_values == [0]
        v = np.random.default_rng(5).standard_normal(g.r.size)
        v[:2] = np.inf, 1e-310
        back = red.synthesize(red.analyze(v))
        assert back.shape == (g.r.size,)
        np.testing.assert_array_equal(back.view(np.int64), v.view(np.int64))

    def test_built_once_per_grid(self, monkeypatch, tmp_path):
        # the solve, the ray fits, beta and the decomposition all read the
        # transform of the one grid the solve built
        built = []
        init = SphericalReduction.__init__
        monkeypatch.setattr(SphericalReduction, "__init__",
                            lambda self, grid: built.append(grid) or init(self, grid))
        cfg = _axisym_cfg(q=5.0, a=(1.0, 2.0, 2.0), n_r=96, n_angle=32)
        report, u = cli._solve_into(cfg, tmp_path)
        assert report.converged
        assert report.beta is not None and report.decomposition is not None
        assert len(report.growth_fits) == 2
        assert len(built) == 1 and built[0] is u.grid


class _FullLayout:
    """The axisymmetric node layout on all n_angle polar nodes: the
    symmetrized Gauss-Legendre rule, its even-mode transform pair, and a
    synthesis that computes the t > 0 half and mirrors it.  A field stored
    on the t > 0 half is mirror(field) here."""

    def __init__(self, grid):
        n = grid.n_angle
        t, wt = np.polynomial.legendre.leggauss(n)
        t, wt = 0.5 * (t - t[::-1]), 0.5 * (wt + wt[::-1])
        self.half = n // 2
        l_values = list(range(0, n, 2))
        self.pl = np.polynomial.legendre.legvander(t, n - 1)[:, l_values]
        scale = np.array([(2 * l + 1) / 2.0 for l in l_values])
        self.forward = (self.pl * wt[:, None]).T * scale[:, None]
        self.weights = 2.0 * math.pi * np.outer(grid.r**2 * grid.line_w, wt)

    @staticmethod
    def mirror(values):
        return np.concatenate([values[:, ::-1], values], axis=1)

    def analyze(self, values):
        return values @ self.forward.T

    def synthesize(self, coeffs):
        return self.mirror(coeffs @ self.pl[self.half:].T)


class TestFullLayoutReference:
    def test_half_layout_matches_the_full_one_on_thm2s_grid(self, thm2_run):
        # the half layout's operator, angular mean, quadrature and X-norm
        # against the full layout's, on thm2's solution and grid
        cfg, cont = thm2_run
        ctx = OperatorContext(cfg.stages()[-1])
        g = ctx.grid
        full = _FullLayout(g)
        v = cont.final_profile.values
        assert v.shape == (g.r.size, full.half)

        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        dens = ctx.density(v)
        out, modes = ctx.apply(v)
        modes_ref = full.analyze(full.mirror(dens))
        out_ref = full.synthesize(g.convolution(modes_ref, ctx.shifted))
        assert rel(modes, modes_ref) < 1e-14
        assert rel(full.mirror(out), out_ref) < 1e-14
        assert rel(g.mode0(v), full.analyze(full.mirror(v))[:, 0]) < 1e-14
        for f in (dens, v):
            assert g.integrate(f) == pytest.approx(
                float(np.sum(full.weights * full.mirror(f))), rel=1e-14, abs=0)
        assert g.x_norm(v) == float(
            np.max(np.abs(full.mirror(v)) / (1.0 + g.r[:, None])))


class TestMixingHistory:
    @staticmethod
    def _push(hist, rng, shape, theta):
        """Push a random step; return its dx, df and residual."""
        x, v, fx, f = rng.standard_normal((4,) + shape)
        hist.push(x, v, fx, f, theta)
        return x - v, fx - f, fx

    @staticmethod
    def _check(hist, kept, f, w, theta):
        """The kept Gram matrix and inner products against a direct
        recomputation, and one mix against its formula."""
        m = hist.m
        assert m == len(kept)
        dx = np.array([k[0] for k in kept])
        df = np.array([k[1] for k in kept])
        order = [(hist.count - m + i) % 5 for i in range(m)]  # oldest first
        want = np.einsum("ijk,ljk->il", df * w, df * w)
        got = hist.gram[np.ix_(order, order)]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(hist.dots[order],
                                   np.einsum("ijk,jk->i", df * w, f * w), rtol=1e-12)
        v = np.random.default_rng(1).standard_normal(f.shape)
        a = (df * w).reshape(m, -1).T
        gamma = np.linalg.lstsq(a, (f * w).ravel(), rcond=None)[0]
        mixed = v + theta * f - np.einsum("i,ijk->jk", gamma, dx + theta * df)
        np.testing.assert_allclose(hist.mix(v, f, theta), mixed, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(mixed)))

    def test_gram_and_inner_products_match_a_recomputation(self):
        shape = (12, 4)
        r = np.linspace(0.0, 9.0, 12)[:, None]
        w = 1.0 / (1.0 + r)
        hist = _MixingHistory(shape, 1.0 + r)
        rng = np.random.default_rng(7)
        kept = []
        for _ in range(8):  # more than the depth: the ring wraps
            dx, df, f = self._push(hist, rng, shape, 0.5)
            kept = (kept + [(dx, df)])[-5:]
        self._check(hist, kept, f, w, 0.5)
        hist.clear()
        kept = []
        for _ in range(3):
            dx, df, f = self._push(hist, rng, shape, 0.25)
            kept.append((dx, df))
        self._check(hist, kept, f, w, 0.25)

    def test_a_rank_deficient_history_still_mixes(self):
        shape = (10,)
        r = np.linspace(0.0, 5.0, 10)
        hist = _MixingHistory(shape, 1.0 + r)
        rng = np.random.default_rng(3)
        x, v, f = rng.standard_normal((3, 10))
        fx = f + rng.standard_normal(10)
        hist.push(x, v, fx, f, 1.0)
        hist.push(x, v, fx, f, 1.0)  # the same df twice
        out = hist.mix(v, fx, 1.0)
        assert np.all(np.isfinite(out))
        # gamma splits the one direction's coefficient between the two
        df = fx - f
        w = 1.0 / (1.0 + r)
        c = ((df * w) @ (fx * w)) / ((df * w) @ (df * w))
        np.testing.assert_allclose(out, v + fx - c * ((x - v) + df), rtol=1e-12)


class TestOperatorPieces:
    def test_shifted_field_vanishes_at_origin(self):
        cfg = _radial_cfg()
        ctx = OperatorContext(cfg)
        v, _ = ctx.apply(np.zeros(cfg.grid.n_r))
        # v(r) -> 0 as r -> 0; first node sits at r_max/n^2
        assert abs(v[0]) < 1e-5 * np.max(np.abs(v))
        dens = ctx.density(np.zeros(cfg.grid.n_r))
        assert ctx.origin_value(ctx.grid.mode0(dens)) == 0.0

    def test_unshifted_origin_value_oracle(self):
        cfg = _radial_cfg(variant="unshifted")
        ctx = OperatorContext(cfg)
        dens = ctx.density(np.zeros(cfg.grid.n_r))
        g = ctx.grid
        expect = 0.5 * np.sum(g.r**3 * g.line_w * dens)
        assert ctx.origin_value(g.mode0(dens)) == pytest.approx(expect,
                                                                rel=1e-13)
        v, _ = ctx.apply(np.zeros(cfg.grid.n_r))
        # K(r, s) -> s as r -> 0, so v(0) = (1/2) int s^3 g ds
        assert v[0] == pytest.approx(expect, rel=1e-4)

    def test_first_iterate_has_the_alpha_slope(self):
        # v1 = T(0) grows like alpha r with alpha = (1/8pi) int P^-q
        cfg = _radial_cfg(q=2.0, a=1.0, eps=0.05, n=2000, r_max=200.0)
        ctx = OperatorContext(cfg)
        v, modes = ctx.apply(np.zeros(cfg.grid.n_r))
        alpha = ctx.grid.moment(0, modes[:, 0])
        g = ctx.grid
        sel = g.r > 0.5 * g.r_max
        slope = np.polyfit(g.r[sel], v[sel], 1)[0]
        assert slope == pytest.approx(alpha, rel=1e-3)

    def test_axisym_apply_matches_radial_for_radial_data(self):
        qa = _axisym_cfg(a=(1.0, 1.0, 1.0), n_r=200, n_angle=16, r_max=20.0)
        qr = _radial_cfg(a=1.0, n=200, r_max=20.0)
        ctx_a = OperatorContext(qa)
        ctx_r = OperatorContext(qr)
        va, _ = ctx_a.apply(np.zeros((200, 8)))
        vr, _ = ctx_r.apply(np.zeros(200))
        np.testing.assert_allclose(va, np.tile(vr[:, None], (1, 8)),
                                   rtol=1e-9, atol=1e-12)

    def test_density_overflow_raises_nonfinite(self):
        # P identically 1e-300 underflows (P + |v|)^-q
        cfg = _radial_cfg(q=5.0, a=0.0, c=1e-300, n=32, r_max=5.0)
        ctx = OperatorContext(cfg)
        with pytest.raises(NonFiniteError):
            ctx.density(np.zeros(32))

    def test_dilation_covariance(self):
        # K(lam r, lam s) = lam K(r, s): scaling the grid and the density
        # argument scales the convolution by lam^4
        lam = 2.5
        g1 = RadialGrid.graded(300, 10.0)
        g2 = RadialGrid.graded(300, 10.0 * lam)
        dens = np.exp(-g1.r)
        dens2 = np.exp(-g2.r / lam)
        v1 = 0.5 * legendre_mode_kernel(0, g1.r[:, None], g1.r[None, :]) @ (
            g1.r**2 * g1.line_w * dens)
        v2 = 0.5 * legendre_mode_kernel(0, g2.r[:, None], g2.r[None, :]) @ (
            g2.r**2 * g2.line_w * dens2)
        np.testing.assert_allclose(v2, lam**4 * v1, rtol=1e-12)

    def test_large_axisym_grid_applies(self):
        # 128 dense mode tables of 2048^2 entries took 4.3 GB; the power
        # table, shared by the prefix and the suffix sums, takes 4.2 MB, and
        # one application's arrays a few MB each (33 MB in all)
        cfg = _axisym_cfg(n_r=2048, n_angle=256, r_max=100.0)
        tracemalloc.start()
        try:
            ctx = OperatorContext(cfg)
            v, _ = ctx.apply(np.zeros((2048, 128)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(v))
        assert peak < 0.05e9

    def test_iterate_bound_holds_along_the_iteration(self):
        cfg = _radial_cfg(q=5.0, a=0.0, c=1.0, n=600, r_max=100.0)
        ctx = OperatorContext(cfg)
        bound = ctx.iterate_bound()
        v = np.zeros(600)
        g = ctx.grid
        for _ in range(5):
            v, _ = ctx.apply(v)
            assert np.max(np.abs(v) / (1.0 + g.r)) <= bound * (1 + 1e-12)


class TestSolve:
    def test_radial_shifted_solve_properties(self):
        cfg = _radial_cfg(q=5.0, a=0.0, c=1.0, n=800, r_max=100.0)
        prof, report = solve_fixed_point(cfg)
        assert report.converged
        v = prof.values
        r = prof.grid.r
        assert v[0] < 1e-6 * np.max(v)  # pinned origin
        assert np.all(np.diff(v) > 0)  # increasing
        # convexity of the radial profile: increasing difference quotients
        quot = np.diff(v) / np.diff(r)
        assert np.min(np.diff(quot)) > -1e-9 * np.max(quot)
        assert report.u_origin == pytest.approx(1.0)

    def test_fixed_point_is_a_fixed_point(self):
        cfg = _radial_cfg(q=5.0, a=0.0, c=1.0, n=800, r_max=100.0)
        prof, report = solve_fixed_point(cfg)
        again, _ = OperatorContext(cfg).apply(prof.values)
        assert prof.grid.x_norm(again - prof.values) < 10 * cfg.tol_fixed_point

    def test_damping_controller_engages_on_flat_polynomial(self, flat_q5_run):
        # extrapolated steps overshoot the flip-flopping far-field slope at
        # q = 5; each rejection halves the mixing weight, down to its floor
        cfg, prof, report = flat_q5_run
        assert report.converged
        halvings = math.log2(cfg.damping / report.damping_final)
        assert halvings >= 1 and halvings == int(halvings)
        assert report.damping_final >= 0.125
        # a rejected iterate's residual exceeds the accepted one before it
        res = report.diff_history
        assert any(b > a for a, b in zip(res, res[1:]))

    @pytest.mark.parametrize("cfg", [
        _radial_cfg(q=5.0, a=0.0, c=1.0, n=400, r_max=100.0),
        # half steps: a stop on the damped step would end one iterate early
        _radial_cfg(q=5.0, a=1.0, n=400, r_max=100.0, damping=0.5),
        _axisym_cfg(q=8.0, a=(0.0, 1.0, 1.0), eps=0.05, n_r=64, n_angle=16,
                    variant="unshifted"),
    ], ids=["radial-flat", "radial-damped", "axisym-degenerate"])
    def test_final_residual_is_the_returned_profiles(self, cfg):
        # the stop rule measures the undamped |T(v) - v|_X of the profile
        # it returns, not a damped step
        prof, report = solve_fixed_point(cfg)
        assert report.converged
        tv, _ = OperatorContext(cfg).apply(prof.values)
        g = prof.grid
        assert report.final_residual == g.x_norm(tv - prof.values)
        assert report.final_residual <= cfg.tol_fixed_point * (
            1.0 + g.x_norm(prof.values))

    def test_histories_have_one_entry_per_application(self, flat_q5_run):
        # trace.csv zips the two; iterate k has residual and alpha entry k
        _, _, report = flat_q5_run
        assert len(report.diff_history) == len(report.alpha_history)
        assert len(report.diff_history) == report.iters + 1
        assert report.diff_history[-1] == report.final_residual
        assert report.alpha_history[-1] == report.alpha

    def test_matches_damped_picard(self):
        cfg = _axisym_cfg(q=5.0, a=(1.0, 2.0, 2.0), n_r=48, n_angle=16,
                          r_max=20.0, tol_fixed_point=1e-12)
        prof, report = solve_fixed_point(cfg)
        assert report.converged
        # the reference: plain half steps v + (T(v) - v) / 2 to the same tol
        ctx = OperatorContext(cfg)
        scale = 1.0 + ctx.grid.r_nodes
        v = np.zeros(ctx.grid.shape)
        for _ in range(500):
            step = ctx.apply(v)[0] - v
            if np.max(np.abs(step) / scale) < 1e-12 * (1.0 + np.max(np.abs(v) / scale)):
                break
            v = v + 0.5 * step
        else:
            pytest.fail("damped Picard did not converge")
        assert report.iters < 50
        assert np.max(np.abs(prof.values - v) / scale) < 1e-9

    def test_axisym_solve_is_even_bit_exact(self, written_even):
        cfg = _axisym_cfg(q=5.0, a=(1.0, 2.0, 2.0), n_r=96, n_angle=32)
        prof, report = solve_fixed_point(cfg)
        assert report.converged
        assert prof.values.shape == (96, 16)  # one node per mirror pair
        written_even(prof)

    def test_gate_failure_is_flagged_not_raised(self):
        cfg = _radial_cfg(q=0.5, a=1.0)
        prof, report = solve_fixed_point(cfg)
        assert not report.converged
        assert "nonexistence" in report.diverged_reason
        assert np.all(prof.values == 0.0)

    def test_max_iters_reported_honestly(self):
        cfg = _radial_cfg(q=5.0, a=0.0, c=1.0, n=200, r_max=50.0,
                          max_iters=2, tol_fixed_point=1e-14)
        prof, report = solve_fixed_point(cfg)
        assert not report.converged
        assert "max_iters" in report.diverged_reason

    def test_blown_up_iterate_is_reported_and_exits_two(self, tmp_path,
                                                        monkeypatch, capsys):
        # the first extrapolated iterate becomes 1e12 everywhere: positive,
        # so its density stays finite, and past 1e6 times the bound
        monkeypatch.setattr(_MixingHistory, "mix",
                            lambda self, v, f, theta: np.full_like(v, 1e12))
        cfg = _radial_cfg(q=5.0, a=0.0, c=1.0, n=200, r_max=50.0)
        _, report = solve_fixed_point(cfg)
        assert not report.converged and report.iters == 2
        assert report.iterate_bound < 1e5
        assert report.diverged_reason.startswith("iterate norm ")
        assert " exceeded 1e+06 x bound " in report.diverged_reason
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code = cli.main(["solve", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"diverged: {report.diverged_reason}\n"

    def test_density_is_evaluated_once_per_iterate(self, monkeypatch):
        cfg = _radial_cfg(q=5.0, a=0.0, c=1.0, n=200, r_max=50.0)
        calls = []
        density = OperatorContext.density
        monkeypatch.setattr(OperatorContext, "density",
                            lambda self, v: calls.append(1) or density(self, v))
        cold, report = solve_fixed_point(cfg)
        assert report.converged
        # one per application: the cold start's P^-q, which also gives the
        # iterate bound, then one per new iterate
        assert len(calls) == report.iters + 1
        calls.clear()
        warm = Profile(grid=cold.grid, values=0.5 * cold.values)
        _, report = solve_fixed_point(cfg, v0=warm)
        assert report.converged and report.iters > 0
        # P^-q, the warm start value, then one per new iterate
        assert len(calls) == report.iters + 2

    @pytest.mark.parametrize("cfg", [
        _radial_cfg(q=5.0, a=0.0, c=1.0, n=200, r_max=50.0),
        _axisym_cfg(q=5.0, a=(1.0, 2.0, 2.0), n_r=48, n_angle=16)],
        ids=["radial", "axisymmetric"])
    def test_density_is_analyzed_once_per_application(self, cfg, monkeypatch):
        analyzed, applied = [], []
        analyze, apply = SphericalReduction.analyze, OperatorContext.apply
        monkeypatch.setattr(SphericalReduction, "analyze", lambda self, values:
                            analyzed.append(1) or analyze(self, values))
        monkeypatch.setattr(OperatorContext, "apply", lambda self, v:
                            applied.append(1) or apply(self, v))
        cold, report = solve_fixed_point(cfg)
        assert report.converged
        # the cold start's bound reads its first application's analysis
        assert len(analyzed) == len(applied) == report.iters + 1
        analyzed.clear()
        applied.clear()
        warm = Profile(grid=cold.grid, values=0.5 * cold.values)
        _, report = solve_fixed_point(cfg, v0=warm)
        assert report.converged and len(applied) == report.iters + 1
        # and a warm start analyzes P^-q for its bound
        assert len(analyzed) == len(applied) + 1

    @pytest.mark.parametrize("cfg, grid", [
        (_radial_cfg(n=200, r_max=30.0), {"kind": "radial", "n_r": 100, "r_max": 30.0}),
        (_radial_cfg(n=200, r_max=30.0), {"kind": "radial", "n_r": 200, "r_max": 10.0}),
        (_radial_cfg(n=200, r_max=30.0),
         {"kind": "radial", "n_r": 200, "r_max": 30.0, "grading": 1.5}),
        (_radial_cfg(n=200, r_max=30.0),
         {"kind": "axisymmetric", "n_r": 200, "n_angle": 4, "r_max": 30.0}),
        (_axisym_cfg(n_r=48, n_angle=16),
         {"kind": "axisymmetric", "n_r": 48, "n_angle": 32, "r_max": 30.0}),
    ], ids=["n_r", "r_max", "grading", "kind", "n_angle"])
    def test_warm_start_on_another_grid_is_refused(self, cfg, grid):
        # the solve runs on the warm start's grid, so it must be cfg's
        g = GridSpec.from_dict(grid).build()
        with pytest.raises(ConfigError, match="^warm start grid .* is not the config's"):
            solve_fixed_point(cfg, v0=Profile(grid=g, values=np.zeros(g.shape)))
        own = cfg.grid.build()  # another build of cfg's grid is its grid
        warm = Profile(grid=own, values=np.zeros(own.shape))
        assert solve_fixed_point(cfg, v0=warm)[1].converged

    def test_warm_start_context_reuse(self):
        cfg = _radial_cfg(q=5.0, a=1.0, eps=0.1, n=300, r_max=30.0)
        prof1, rep1 = solve_fixed_point(cfg)
        cfg2 = cfg.replace_poly(cfg.poly.with_eps("quartic", 0.05))
        prof2a, rep2a = solve_fixed_point(cfg2, v0=prof1)
        # the warm start carries its grid, with the grid's mode convolution
        assert prof2a.grid.convolution is prof1.grid.convolution
        prof2b, rep2b = solve_fixed_point(cfg2)
        assert rep2a.converged and rep2b.converged
        assert rep2a.iters < rep2b.iters  # warm start saves iterations
        np.testing.assert_allclose(prof2a.values, prof2b.values, atol=1e-8)


class TestContinuation:
    def test_stages_converge_and_cauchy_decreases(self):
        cfg = _radial_cfg(q=3.0, a=1.0, n=300, r_max=30.0,
                          continuation={"eps_sequence": [0.3, 0.1, 0.03],
                                        "eps_param": "quartic"})
        res = continuation_eps_to_zero(cfg)
        assert all(r.converged for r in res.reports)
        assert len(res.cauchy) == 2
        assert res.cauchy[1] < res.cauchy[0]

    def test_working_set_of_the_thm1_continuation(self):
        # the solve holds the grid's power table for its band of at most 19
        # modes (78 kB, 0.5 MB for all 128), the mixing history (2.6 MB)
        # and a few node arrays of 0.26 MB, on the t > 0 half of the 256
        # polar nodes; earlier stages' profiles are dropped, except the one
        # the next stage starts from
        cfg = SolveConfig.from_dict(
            {k: v for k, v in cli.load_preset("thm1").items() if k != "command"})
        tracemalloc.start()
        try:
            res = continuation_eps_to_zero(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert isinstance(res.final_profile, Profile) and not hasattr(res, "profiles")
        # the Cauchy gaps of keeping every stage's profile
        profiles = []
        for stage_cfg in cfg.stages():
            prev = profiles[-1] if profiles else None
            profiles.append(solve_fixed_point(stage_cfg, v0=prev)[0])
        near = profiles[0].grid.r <= 10.0
        assert res.cauchy == [float(np.max(np.abs(b.values - a.values)[near]))
                              for a, b in zip(profiles, profiles[1:])]
        np.testing.assert_array_equal(res.final_profile.values, profiles[-1].values)

    def test_gate_refusal_builds_no_context(self, monkeypatch):
        built = []
        init = OperatorContext.__init__
        monkeypatch.setattr(OperatorContext, "__init__",
                            lambda self, cfg, grid=None:
                            built.append(cfg) or init(self, cfg, grid))
        cfg = _radial_cfg(q=0.5, a=1.0)
        res = continuation_eps_to_zero(cfg)
        assert not res.final_report.converged
        assert "nonexistence" in res.final_report.diverged_reason
        assert built == []

    def test_config_without_continuation_is_one_stage(self):
        cfg = _radial_cfg()
        res = continuation_eps_to_zero(cfg)
        prof, report = solve_fixed_point(cfg)
        assert len(res.reports) == 1 and res.cauchy == [] and res.eps_values == []
        np.testing.assert_array_equal(res.final_profile.values, prof.values)
        assert res.final_report == report


def _preset_cfg(name):
    return SolveConfig.from_dict(
        {k: v for k, v in cli.load_preset(name).items() if k != "command"})


@pytest.fixture
def bands(monkeypatch):
    """The band of every mode convolution, in call order."""
    seen = []
    call = ModeConvolution.__call__
    monkeypatch.setattr(ModeConvolution, "__call__", lambda self, g, shifted:
                        seen.append(g.shape[1]) or call(self, g, shifted))
    return seen


class TestBand:
    """The solve convolves the band of modes SphericalReduction.chop keeps."""

    def test_the_first_application_builds_the_tables_of_its_band(
            self, bands, monkeypatch):
        calls = []
        density = OperatorContext.density
        monkeypatch.setattr(OperatorContext, "density",
                            lambda self, v: calls.append(1) or density(self, v))
        ctx = OperatorContext(_preset_cfg("thm1").stages()[0])
        red, conv = ctx.grid.reduction, ctx.grid.convolution
        assert conv.n_modes == 0 and calls == []  # set-up computes neither
        v = np.zeros_like(ctx.p_values)
        _, modes = ctx.apply(v)
        band = red.chop(modes)[0]
        assert bands == [band] == [conv.n_modes] and band < len(red.l_values)
        source = conv.source
        assert source.shape == (2, 2, ctx.grid.r.size, band)
        ctx.apply(v)  # the same band again: its tables serve
        assert bands == [band, band] and conv.source is source

    def test_presets_apply_their_bands(self, bands):
        # thm1's density reaches its roundoff plateau within 32 of its 128
        # modes; thm2's does not, so it keeps all 64
        continuation_eps_to_zero(_preset_cfg("thm1"))
        assert max(bands) <= 32
        bands.clear()
        continuation_eps_to_zero(_preset_cfg("thm2"))
        assert set(bands) == {64}

    def test_a_growing_band_writes_the_bits_of_every_mode(self, tmp_path,
                                                          capsys, monkeypatch,
                                                          bands):
        # later stages need more modes than P^-q; the tables grow, and the
        # written files are those of a solve forced onto every mode
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_axisym_cfg(
            q=2.0, n_r=64, n_angle=64, continuation={
                "eps_sequence": [0.1, 0.03, 0.01], "eps_param": "quartic"}
        ).to_dict()))
        assert cli.main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "band")]) == 0
        assert bands[0] < max(bands) < 32
        chop = SphericalReduction.chop
        monkeypatch.setattr(SphericalReduction, "chop", lambda self, m:
                            (m.shape[1], chop(self, m)[1]))
        bands.clear()
        assert cli.main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "full")]) == 0
        assert set(bands) == {32}
        capsys.readouterr()
        for name in ("report.json", "profile.csv", "trace.csv"):
            assert filecmp.cmp(tmp_path / "band" / name,
                               tmp_path / "full" / name, shallow=False), name
