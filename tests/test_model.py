import json
import math
from dataclasses import replace

import numpy as np
import pytest

from biharm.kernels import ModeConvolution, convolve
from biharm.model import (AxisymmetricGrid, ConfigError, GridSpec, Profile,
                          QuadraticPolynomial, RadialGrid, SolveConfig,
                          load_profile_csv, report_json, save_profile_csv,
                          validate_config, x_norm)


def _cfg(**over):
    base = {
        "q": 2.0,
        "poly": {"a": [1.0, 2.0, 2.0], "b": [0.0, 0.0, 0.0], "c": 1.0,
                 "eps_quartic": 0.0},
        "kernel_variant": "shifted",
        "grid": {"kind": "axisymmetric", "n_r": 32, "n_angle": 8,
                 "r_max": 10.0},
    }
    base.update(over)
    return SolveConfig.from_dict(base)


class TestPolynomial:
    def test_cartesian_and_spherical_evaluations_agree(self):
        p = QuadraticPolynomial((1.0, 2.0, 2.0), (0, 0, 0), 0.7, 0.05)
        rng = np.random.default_rng(1)
        r = rng.uniform(0.1, 5.0, 40)
        t = rng.uniform(-1.0, 1.0, 40)
        pts = np.stack([r * t, r * np.sqrt(1 - t**2), np.zeros(40)], axis=-1)
        np.testing.assert_allclose(p(pts), p.value_rt(r, t), rtol=1e-13)

    def test_radial_evaluation(self):
        p = QuadraticPolynomial((3.0, 3.0, 3.0), (0, 0, 0), 2.0, 0.1)
        r = np.array([0.0, 1.0, 2.0])
        g = RadialGrid(r=r, line_w=np.ones(3), r_max=2.0, grading=1.0)
        np.testing.assert_allclose(g.poly_values(p),
                                   2.0 + 3.0 * r**2 + 0.1 * r**4)

    def test_value_rt_rejects_non_axisymmetric(self):
        p = QuadraticPolynomial((1.0, 2.0, 3.0), (0, 0, 0), 1.0)
        with pytest.raises(ConfigError):
            p.value_rt(np.ones(3), np.zeros(3))

    def test_growth_order(self):
        flat = QuadraticPolynomial((0, 0, 0), (0, 0, 0), 1.0)
        degenerate = QuadraticPolynomial((0, 1, 1), (0, 0, 0), 1.0)
        quad = QuadraticPolynomial((1, 2, 2), (0, 0, 0), 1.0)
        quartic = QuadraticPolynomial((1, 2, 2), (0, 0, 0), 1.0, 0.5)
        assert flat.growth_order() == 0
        assert degenerate.growth_order() == 0
        assert quad.growth_order() == 2
        assert quartic.growth_order() == 4
        assert quartic.tail_leading_coeff() == 0.5
        assert quad.tail_leading_coeff() == 1.0

    def test_pohozaev_weight_matches_finite_differences(self):
        # 2 x . grad P - P, checked against a directional derivative
        p = QuadraticPolynomial((1.0, 2.0, 2.0), (0, 0, 0), 0.9, 0.02)
        r, t = 1.7, 0.4
        h = 1e-6
        dil = (p.value_rt(np.array(r * (1 + h)), np.array(t))
               - p.value_rt(np.array(r * (1 - h)), np.array(t))) / (2 * h)
        expect = 2.0 * dil - p.value_rt(np.array(r), np.array(t))
        got = p.pohozaev_weight_rt(np.array(r), np.array(t))
        assert got == pytest.approx(expect, rel=1e-8)

    def test_with_eps_variants(self):
        p = QuadraticPolynomial((0, 1, 1), (0, 0, 0), 1.0)
        assert p.with_eps("quartic", 0.3).eps_quartic == 0.3
        assert p.with_eps("axis1", 0.3).a == (0.3, 1.0, 1.0)
        assert p.with_eps("isotropic", 0.3).a == (0.3, 0.3, 0.3)
        with pytest.raises(ConfigError):
            p.with_eps("nope", 0.3)


class TestGrids:
    def test_radial_quadrature_integrates_gaussian(self):
        g = RadialGrid.graded(800, 30.0)
        val = g.integrate(np.exp(-g.r**2))
        assert val == pytest.approx(math.pi**1.5, rel=1e-6)

    def test_axisymmetric_quadrature_integrates_gaussian(self):
        g = AxisymmetricGrid.build(400, 16, 30.0)
        f = np.exp(-(g.x1**2 + g.rho**2))
        assert g.integrate(f) == pytest.approx(math.pi**1.5, rel=1e-6)

    def test_angular_nodes_mirror_bit_exactly(self):
        g = AxisymmetricGrid.build(16, 64, 5.0)
        assert np.all(g.t == -g.t[::-1])
        assert np.all(g.wt == g.wt[::-1])

    def test_grading_clusters_nodes_at_origin(self):
        g = RadialGrid.graded(100, 10.0, 2.0)
        assert g.r[0] == pytest.approx(10.0 / 100**2)
        assert np.all(np.diff(g.r) > 0)

    def test_grid_spec_roundtrip(self):
        spec = GridSpec("axisymmetric", 32, 10.0, 2.0, 8)
        again = GridSpec.from_dict(spec.to_dict())
        assert again == spec
        assert isinstance(again.build(), AxisymmetricGrid)


class TestProfileIO:
    def test_radial_roundtrip(self, tmp_path):
        g = RadialGrid.graded(64, 8.0)
        prof = Profile(grid=g, values=np.cos(g.r))
        path = tmp_path / "p.csv"
        save_profile_csv(prof, path)
        back = load_profile_csv(path, g)
        np.testing.assert_array_equal(back.values, prof.values)

    def test_axisymmetric_roundtrip(self, tmp_path):
        g = AxisymmetricGrid.build(16, 8, 5.0)
        vals = np.cos(g.x1) + g.rho
        prof = Profile(grid=g, values=vals)
        path = tmp_path / "p.csv"
        save_profile_csv(prof, path)
        back = load_profile_csv(path, g)
        np.testing.assert_array_equal(back.values, vals)

    def test_grid_mismatch_is_config_error(self, tmp_path):
        g = RadialGrid.graded(64, 8.0)
        save_profile_csv(Profile(grid=g, values=np.ones(64)), tmp_path / "p.csv")
        other = RadialGrid.graded(64, 9.0)
        with pytest.raises(ConfigError):
            load_profile_csv(tmp_path / "p.csv", other)

    def test_rows_are_the_repr_of_each_float(self, tmp_path):
        # the writer copies the mirror's row of a bit-identical value and
        # formats every other row itself; either way a row is its reprs
        g = AxisymmetricGrid.build(8, 6, 5.0)
        even = np.cos(np.abs(g.x1)) / 3.0 + g.rho  # exactly even in x1
        unmirrored = even.copy()  # one value a bit off its mirror (2, 4)
        unmirrored[2, 1] = np.nextafter(even[2, 1], 1.0)
        signed_zeros = even.copy()  # a mirror pair equal under ==, not in bits
        signed_zeros[3, 0], signed_zeros[3, 5] = 0.0, -0.0
        skewed = replace(g, t=g.t + 1e-3)  # t nodes not antisymmetric
        radial = RadialGrid.graded(8, 5.0)
        for grid, vals in [(g, even), (g, unmirrored), (g, signed_zeros),
                           (skewed, even), (radial, np.cos(radial.r) / 3.0)]:
            save_profile_csv(Profile(grid=grid, values=vals),
                             tmp_path / "p.csv")
            lines = (tmp_path / "p.csv").read_text().splitlines()
            if grid is radial:
                header, cols = "r,value", [grid.r, vals]
            else:
                header, cols = "x1,rho,value", [grid.x1, grid.rho, vals]
            assert lines[0] == header
            assert lines[1:] == [",".join(f"{x!r}" for x in row) for row in
                                 zip(*(c.ravel().tolist() for c in cols))]

    def test_header_and_rows_are_checked(self, tmp_path):
        g = RadialGrid.graded(8, 8.0)
        path = tmp_path / "p.csv"
        save_profile_csv(Profile(grid=g, values=np.ones(8)), path)
        text = path.read_text()
        path.write_text(text.replace("r,value", "r,u", 1))
        with pytest.raises(ConfigError, match=r"expected header r,value, got \('r', 'u'\)"):
            load_profile_csv(path, g)
        path.write_text(text.replace(",1.0\n", ",one\n", 1))
        with pytest.raises(ConfigError, match="unreadable profile row"):
            load_profile_csv(path, g)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid, header", [
        (RadialGrid.graded(8, 8.0), "r,value"),
        (AxisymmetricGrid.build(8, 6, 5.0), "x1,rho,value"),
    ], ids=["radial", "axisymmetric"])
    def test_header_only_profile_has_zero_rows(self, tmp_path, grid, header):
        # the row count is the reason, for both grid kinds, and numpy's
        # "input contained no data" warning is not passed on
        path = tmp_path / "p.csv"
        path.write_text(header + "\n")
        n = grid.r.size * len(grid.reduction.t)
        with pytest.raises(ConfigError, match=f"^profile has 0 rows, grid has {n} nodes$"):
            load_profile_csv(path, grid)

    def test_shape_mismatch_is_config_error(self):
        g = RadialGrid.graded(64, 8.0)
        with pytest.raises(ConfigError):
            Profile(grid=g, values=np.ones(65))


_GRIDS = {
    "radial": lambda: RadialGrid.graded(48, 12.0),
    "axisymmetric": lambda: AxisymmetricGrid.build(48, 12, 12.0),
}


@pytest.mark.parametrize("kind", sorted(_GRIDS))
class TestGridContract:
    """The node-layout interface both grid kinds share."""

    def test_profile_rejects_other_layouts(self, kind):
        g = _GRIDS[kind]()
        Profile(grid=g, values=np.ones(g.shape))
        n = g.r.size
        for shape in ((n + 1,) + g.shape[1:], (n, 1), (n * 2,), (1, n)):
            with pytest.raises(ConfigError):
                Profile(grid=g, values=np.ones(shape))

    def test_r_nodes_broadcasts_against_node_values(self, kind):
        g = _GRIDS[kind]()
        radii = np.zeros(g.shape) + g.r_nodes
        assert radii.shape == g.shape
        np.testing.assert_array_equal(radii.reshape(g.r.size, -1)[:, -1], g.r)
        prof = Profile(grid=g, values=-2.0 * (1.0 + radii))
        assert x_norm(prof) == pytest.approx(2.0)

    def test_round_trip_gives_an_even_field(self, kind):
        g = _GRIDS[kind]()
        red = g.reduction
        rng = np.random.default_rng(3)
        v = rng.standard_normal(g.shape)
        back = red.synthesize(red.analyze(v))
        assert back.shape == g.shape
        cols = back.reshape(g.r.size, -1)
        np.testing.assert_array_equal(cols, cols[:, ::-1])  # even in x1
        even = 0.5 * (v + v.reshape(g.r.size, -1)[:, ::-1].reshape(g.shape))
        np.testing.assert_allclose(red.synthesize(red.analyze(even)), even,
                                   rtol=0, atol=1e-12)
        assert g.l_values == red.l_values and g.l_values[0] == 0

    def test_mode0_is_the_first_analyzed_mode(self, kind):
        g = _GRIDS[kind]()
        v = np.random.default_rng(4).standard_normal(g.shape)
        np.testing.assert_array_equal(g.mode0(v), g.reduction.analyze(v)[:, 0])

    @pytest.mark.parametrize("shifted", [False, True])
    def test_radial_density_convolves_to_the_l0_column(self, kind, shifted):
        g = _GRIDS[kind]()
        dens = np.zeros(g.shape) + (1.0 + g.r_nodes**2) ** -2.5
        col = ModeConvolution(g, [0])(g.mode0(dens)[:, None], shifted)[:, 0]
        expect = np.zeros(g.shape) + col.reshape(g.r_nodes.shape)
        field = convolve(g, dens, shifted)
        if kind == "radial":
            np.testing.assert_array_equal(field, expect)
        else:  # the other modes of a radial density vanish up to rounding
            np.testing.assert_allclose(field, expect, rtol=1e-12,
                                       atol=1e-14 * np.max(np.abs(col)))


class TestXNorm:
    def test_weighted_sup(self):
        g = RadialGrid.graded(50, 10.0)
        v = 3.0 * (1.0 + g.r)
        prof = Profile(grid=g, values=v)
        assert x_norm(prof) == pytest.approx(3.0)


class TestStages:
    def test_without_continuation_the_config_is_its_one_stage(self):
        cfg = _cfg()
        assert cfg.stages() == [cfg]

    @pytest.mark.parametrize("param", ["quartic", "axis1", "isotropic"])
    def test_one_stage_per_eps(self, param):
        cfg = _cfg(continuation={"eps_sequence": [0.3, 0.1, 0.03],
                                 "eps_param": param})
        stages = cfg.stages()
        assert [s.poly for s in stages] == [
            cfg.poly.with_eps(param, e) for e in (0.3, 0.1, 0.03)]
        assert all(s.continuation is None for s in stages)
        assert all(s.replace_poly(cfg.poly) == cfg.replace_poly(cfg.poly)
                   for s in stages)


class TestValidation:
    def test_clean_config_passes(self):
        # q m > 4 with growth order 2 needs q > 2
        res = validate_config(_cfg(q=3.0))
        assert res.ok and not res.warnings

    def test_q_at_most_one_hits_the_gate(self):
        res = validate_config(_cfg(q=1.0))
        assert not res.ok
        assert res.nonexistence_regime
        assert "nonexistence" in res.gate_failures[0]

    def test_negative_q_is_hard_error(self):
        res = validate_config(_cfg(q=-2.0))
        assert res.hard_errors

    def test_quadratic_gate_needs_mq_above_four(self):
        # growth order 2 with q = 2 leaves the first moment divergent
        cfg = _cfg(q=2.0, poly={"a": [1.0, 1.0, 1.0], "b": [0, 0, 0],
                                "c": 1.0},
                   grid={"kind": "radial", "n_r": 32, "r_max": 10.0})
        res = validate_config(cfg)
        assert not res.ok and res.gate_failures
        ok = validate_config(_cfg(q=3.0, poly={"a": [1.0, 1.0, 1.0],
                                               "b": [0, 0, 0], "c": 1.0},
                                  grid={"kind": "radial", "n_r": 32,
                                        "r_max": 10.0}))
        assert ok.ok

    def test_quartic_term_opens_the_gate(self):
        cfg = _cfg(q=2.0, poly={"a": [1.0, 1.0, 1.0], "b": [0, 0, 0],
                                "c": 1.0, "eps_quartic": 0.1},
                   grid={"kind": "radial", "n_r": 32, "r_max": 10.0})
        assert validate_config(cfg).ok

    def test_continuation_gates_the_stage_not_the_limit(self):
        cfg = _cfg(q=2.0, continuation={"eps_sequence": [0.1, 0.03],
                                        "eps_param": "quartic"})
        assert validate_config(cfg).ok

    def test_flat_polynomial_warns_for_large_q(self):
        cfg = _cfg(q=5.0, poly={"a": [0.0, 0.0, 0.0], "b": [0, 0, 0],
                                "c": 1.0},
                   grid={"kind": "radial", "n_r": 32, "r_max": 10.0})
        res = validate_config(cfg)
        assert res.ok and res.warnings

    def test_flat_polynomial_small_q_fails_gate(self):
        cfg = _cfg(q=2.5, poly={"a": [0.0, 0.0, 0.0], "b": [0, 0, 0],
                                "c": 1.0},
                   grid={"kind": "radial", "n_r": 32, "r_max": 10.0})
        res = validate_config(cfg)
        assert not res.ok and res.gate_failures

    def test_nonpositive_polynomial_is_hard_error(self):
        res = validate_config(_cfg(poly={"a": [1.0, 2.0, 2.0], "b": [0, 0, 0],
                                         "c": -1.0}))
        assert res.hard_errors

    def test_odd_polynomial_is_hard_error(self):
        res = validate_config(_cfg(poly={"a": [1.0, 2.0, 2.0],
                                         "b": [0.5, 0, 0], "c": 1.0}))
        assert res.hard_errors

    @pytest.mark.parametrize("grid, message", [
        ({"kind": "radial", "n_r": 7, "r_max": 10.0},
         "radial grid needs at least 8 nodes"),
        ({"kind": "radial", "n_r": 32, "r_max": 0.0},
         "radial grid needs r_max > 0 and grading >= 1"),
        ({"kind": "radial", "n_r": 32, "r_max": 10.0, "grading": 0.5},
         "radial grid needs r_max > 0 and grading >= 1"),
        ({"kind": "axisymmetric", "n_r": 7, "r_max": 10.0},
         "axisymmetric grid needs at least 8 radii"),
        ({"kind": "axisymmetric", "n_r": 32, "n_angle": 7, "r_max": 10.0},
         "axisymmetric grid needs an even n_angle >= 4"),
        ({"kind": "axisymmetric", "n_r": 32, "n_angle": 2, "r_max": 10.0},
         "axisymmetric grid needs an even n_angle >= 4"),
        ({"kind": "axisymmetric", "n_r": 32, "r_max": -1.0},
         "axisymmetric grid needs r_max > 0 and grading >= 1"),
        ({"kind": "axisymmetric", "n_r": 32, "r_max": 10.0, "grading": 0.9},
         "axisymmetric grid needs r_max > 0 and grading >= 1"),
        ({"kind": "polar", "n_r": 32, "r_max": 10.0},
         "unknown grid kind 'polar'"),
    ])
    def test_grid_errors_are_the_ones_build_raises(self, grid, message):
        with pytest.raises(ConfigError) as exc:
            GridSpec.from_dict(grid).build()
        assert str(exc.value) == message
        assert message in validate_config(_cfg(grid=grid)).hard_errors

    def test_increasing_eps_sequence_is_hard_error(self):
        res = validate_config(_cfg(continuation={"eps_sequence": [0.01, 0.1]}))
        assert res.hard_errors

    def test_malformed_config_raises(self):
        with pytest.raises(ConfigError):
            SolveConfig.from_dict({"q": 2.0})


class TestReportJson:
    def test_fixed_precision_and_sorted_keys(self, tmp_path):
        doc = {"b": 1.0 / 3.0, "a": {"x": np.float64(2.5)},
               "nanval": float("nan")}
        text1 = report_json(doc, tmp_path / "r.json")
        text2 = report_json(doc)
        assert text1 == text2
        loaded = json.loads(text1)
        assert loaded["nanval"] is None
        assert abs(loaded["b"] - 1.0 / 3.0) < 1e-11
        assert text1.index('"a"') < text1.index('"b"')
