import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biharm import model
from biharm.kernels import ModeConvolution, convolve
from biharm.model import (AxisymmetricGrid, ConfigError, ContinuationSpec,
                          GridSpec, Profile, QuadraticPolynomial, RadialGrid,
                          SolveConfig, load_profile_csv, report_json,
                          save_profile_csv, validate_config)


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
        p = QuadraticPolynomial((1.0, 2.0, 2.0), 0.7, 0.05)
        rng = np.random.default_rng(1)
        r = rng.uniform(0.1, 5.0, 40)
        t = rng.uniform(-1.0, 1.0, 40)
        x = np.stack([r * t, r * np.sqrt(1 - t**2), np.zeros(40)], axis=-1)
        cartesian = 0.7 + x**2 @ np.array(p.a) + 0.05 * np.sum(x**2, axis=-1)**2
        np.testing.assert_allclose(cartesian, p.value_rt(r, t), rtol=1e-13)

    def test_radial_evaluation(self):
        p = QuadraticPolynomial((3.0, 3.0, 3.0), 2.0, 0.1)
        r = np.array([0.0, 1.0, 2.0])
        g = RadialGrid(r=r, line_w=np.ones(3), r_max=2.0, grading=1.0)
        np.testing.assert_allclose(g.poly_values(p),
                                   2.0 + 3.0 * r**2 + 0.1 * r**4)

    def test_value_rt_rejects_non_axisymmetric(self):
        p = QuadraticPolynomial((1.0, 2.0, 3.0), 1.0)
        with pytest.raises(ConfigError):
            p.value_rt(np.ones(3), np.zeros(3))
        with pytest.raises(ConfigError):
            p.pohozaev_weight_rt(np.ones(3), np.zeros(3))

    def test_growth_order(self):
        flat = QuadraticPolynomial((0, 0, 0), 1.0)
        degenerate = QuadraticPolynomial((0, 1, 1), 1.0)
        quad = QuadraticPolynomial((1, 2, 2), 1.0)
        quartic = QuadraticPolynomial((1, 2, 2), 1.0, 0.5)
        assert flat.leading_term() == (0, 0.0)
        assert degenerate.leading_term() == (0, 0.0)
        assert quad.leading_term() == (2, 1.0)
        assert quartic.leading_term() == (4, 0.5)

    def test_pohozaev_weight_matches_finite_differences(self):
        # 2 x . grad P - P, checked against a directional derivative
        p = QuadraticPolynomial((1.0, 2.0, 2.0), 0.9, 0.02)
        r, t = 1.7, 0.4
        h = 1e-6
        dil = (p.value_rt(np.array(r * (1 + h)), np.array(t))
               - p.value_rt(np.array(r * (1 - h)), np.array(t))) / (2 * h)
        expect = 2.0 * dil - p.value_rt(np.array(r), np.array(t))
        got = p.pohozaev_weight_rt(np.array(r), np.array(t))
        assert got == pytest.approx(expect, rel=1e-8)

    def test_with_eps_variants(self):
        p = QuadraticPolynomial((0, 1, 1), 1.0)
        assert p.with_eps("quartic", 0.3).eps_quartic == 0.3
        assert p.with_eps("axis1", 0.3).a == (0.3, 1.0, 1.0)
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
        # the stored nodes are the t > 0 half of Gauss-Legendre nodes made
        # antisymmetric bit for bit, each with the weight of both mirrors
        g = AxisymmetricGrid.build(16, 64, 5.0)
        t, wt = np.polynomial.legendre.leggauss(64)
        t, wt = 0.5 * (t - t[::-1]), 0.5 * (wt + wt[::-1])
        assert g.n_angle == 64 and g.shape == (16, 32)
        assert np.all(t[32:] > 0.0) and np.all(t[:32] == -t[32:][::-1])
        np.testing.assert_array_equal(g.t, t[32:])
        np.testing.assert_array_equal(g.wt, wt[32:] + wt[:32][::-1])

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
        # one row per radius: the repr of r, then of u at each stored polar
        # cosine t > 0, whose reprs make the header; a radial profile is the
        # one-column case with the header r,value
        g = AxisymmetricGrid.build(8, 6, 5.0)
        smooth = np.cos(g.x1) / 3.0 + g.rho
        signed_zeros = smooth.copy()  # "-0.0" written and read as such
        signed_zeros[3, 0], signed_zeros[3, 2] = 0.0, -0.0
        skewed = replace(g, t=g.t + 1e-3)  # other t > 0 nodes
        radial = RadialGrid.graded(8, 5.0)
        for grid, vals in [(g, smooth), (g, signed_zeros), (skewed, smooth),
                           (radial, np.cos(radial.r) / 3.0)]:
            path = tmp_path / "p.csv"
            save_profile_csv(Profile(grid=grid, values=vals), path)
            lines = path.read_text().splitlines()
            names = ["value"] if grid is radial else [repr(t) for t in grid.t.tolist()]
            assert lines[0] == ",".join(["r", *names])
            assert lines[1:] == [",".join(map(repr, [r, *u])) for r, u in
                                 zip(grid.r.tolist(),
                                     vals.reshape(grid.r.size, -1).tolist())]
            back = load_profile_csv(path, grid).values
            assert back.tobytes() == vals.tobytes()

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
    @pytest.mark.parametrize("grid, fields", [
        (RadialGrid.graded(8, 8.0), 2),
        (AxisymmetricGrid.build(8, 6, 5.0), 4),
    ], ids=["radial", "axisymmetric"])
    def test_header_only_profile_has_zero_rows(self, tmp_path, grid, fields):
        # the row count is the reason, for both grid kinds, and numpy's
        # "input contained no data" warning is not passed on; a file has a
        # row for each radius, of r and u at each of the n_angle / 2 stored
        # polar cosines
        path = tmp_path / "p.csv"
        save_profile_csv(Profile(grid=grid, values=np.ones(grid.shape)), path)
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        with pytest.raises(ConfigError, match=(
                f"^profile has 0 rows of {fields} fields, grid needs 8 of {fields}$")):
            load_profile_csv(path, grid)

    def test_shape_mismatch_is_config_error(self):
        g = RadialGrid.graded(64, 8.0)
        with pytest.raises(ConfigError):
            Profile(grid=g, values=np.ones(65))



def _loadtxt_rows(path):
    """The body of a profile.csv as one np.loadtxt pass reads it."""
    with open(path) as f:
        f.readline()
        return np.loadtxt(f, delimiter=",", ndmin=2)


class TestMirroredProfileReader:
    """load_profile_csv on an axisymmetric file: it holds the t > 0 half of
    a field even in x1, the t < 0 half being its mirror, as the Profile's
    own (n_r, n_angle / 2) table with the polar cosines in its header, and
    the body is parsed in one np.loadtxt pass."""

    GRID = AxisymmetricGrid.build(8, 6, 5.0)

    def _write(self, tmp_path, values=None):
        g = self.GRID
        values = np.cos(g.x1) / 3.0 + g.rho if values is None else values
        path = tmp_path / "p.csv"
        save_profile_csv(Profile(grid=g, values=values), path)
        return path, values

    def test_a_thm1_profile_reads_like_loadtxt(self, thm1_run, tmp_path):
        prof = thm1_run[1].final_profile
        path = tmp_path / "profile.csv"
        save_profile_csv(prof, path)
        rows = _loadtxt_rows(path)
        got = load_profile_csv(path, prof.grid).values
        assert got.tobytes() == np.ascontiguousarray(rows[:, 1:]).tobytes()
        assert got.tobytes() == prof.values.tobytes()
        assert len(path.read_text().splitlines()) == prof.grid.r.size + 1

    def test_reformatted_numbers_load(self, tmp_path):
        # 1.50 is another form of the float 1.5, and reads as it
        values = np.cos(self.GRID.x1) / 3.0 + self.GRID.rho
        values[4, 1] = 1.5
        path, _ = self._write(tmp_path, values)
        text = path.read_text()
        assert text.count(",1.5,") == 1
        path.write_text(text.replace(",1.5,", ",1.50,"))
        assert load_profile_csv(path, self.GRID).values.tobytes() == values.tobytes()

    def test_upper_row_with_a_leading_space_parses(self, tmp_path):
        # every row holds t > 0 nodes; " X" is the number X
        path, values = self._write(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = " " + lines[4].replace(",", ", ")
        path.write_text("".join(lines))
        assert load_profile_csv(path, self.GRID).values.tobytes() == values.tobytes()

    def test_crlf_line_ends(self, tmp_path):
        path, values = self._write(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_profile_csv(path, self.GRID).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("edit", ["malformed", "short", "long"])
    def test_errors_are_those_of_one_pass(self, tmp_path, edit):
        # a malformed number gives np.loadtxt's own message; missing or
        # extra rows give the table's shape
        path, _ = self._write(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        if edit == "malformed":
            lines[6] = lines[6].replace(",", ",x", 1)
        elif edit == "short":
            lines = lines[:-3]
        else:
            lines += lines[-2:]
        path.write_text("".join(lines))
        try:
            rows = _loadtxt_rows(path)
        except ValueError as exc:
            want = f"unreadable profile row: {exc}"
        else:
            want = f"profile has {rows.shape[0]} rows of 4 fields, grid needs 8 of 4"
        assert edit == "malformed" or want.startswith("profile has ")
        with pytest.raises(ConfigError) as got:
            load_profile_csv(path, self.GRID)
        assert str(got.value) == want

    @pytest.mark.parametrize("grid, why", [
        (AxisymmetricGrid.build(8, 8, 5.0), "^profile has 8 rows of 4 fields, grid needs 8 of 5$"),
        (AxisymmetricGrid.build(8, 6, 5.5), "^profile coordinates do not match"),
        (replace(GRID, t=GRID.t + 2e-9), "^profile coordinates do not match"),
    ], ids=["n_angle", "r_max", "t"])
    def test_another_grid_is_refused(self, tmp_path, grid, why):
        path, _ = self._write(tmp_path)
        with pytest.raises(ConfigError, match=why):
            load_profile_csv(path, grid)

    def test_coordinates_within_the_bound_load(self, tmp_path):
        # radii and polar cosines may be off by 1e-9 (1 + r) and 1e-9
        path, values = self._write(tmp_path)
        g = replace(self.GRID, r=self.GRID.r + 0.5e-9, t=self.GRID.t - 0.5e-9)
        assert load_profile_csv(path, g).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("header", ["x1,rho,value", "r,t=0.5,0.7,0.9"],
                             ids=["old_layout", "not_a_number"])
    def test_a_header_off_the_writers_names_the_expected_one(self, tmp_path,
                                                            header):
        path, _ = self._write(tmp_path)
        path.write_text(header + "\n" + path.read_text().split("\n", 1)[1])
        with pytest.raises(ConfigError, match=re.escape(
                "expected header r,t_1,...,t_3 (the grid's polar cosines "
                f"t > 0), got {tuple(header.split(','))}")):
            load_profile_csv(path, self.GRID)


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
        assert g.x_norm(prof.values) == pytest.approx(2.0)

    def test_round_trip_gives_an_even_field(self, kind):
        # the nodes hold one value per mirror pair, as many as there are
        # even modes: any node field is an even field, and the round trip
        # gives it back; a ray and its mirror synthesize the same values
        g = _GRIDS[kind]()
        red = g.reduction
        rng = np.random.default_rng(3)
        v = rng.standard_normal(g.shape)
        coeffs = red.analyze(v)
        back = red.synthesize(coeffs)
        assert back.shape == g.shape
        np.testing.assert_allclose(back, v, rtol=0, atol=1e-12)
        cols = back.reshape(g.r.size, -1)
        for j, t in enumerate(red.t):
            np.testing.assert_allclose(red.synthesize_at(coeffs, -t), cols[:, j],
                                       rtol=0, atol=1e-12)
        assert g.l_values == red.l_values and g.l_values[0] == 0
        assert len(g.l_values) == cols.shape[1]

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
        field, modes = convolve(g, dens, shifted)
        np.testing.assert_array_equal(modes, g.reduction.analyze(dens))
        if kind == "radial":
            np.testing.assert_array_equal(field, expect)
        else:  # the other modes of a radial density vanish up to rounding
            np.testing.assert_allclose(field, expect, rtol=1e-12,
                                       atol=1e-14 * np.max(np.abs(col)))


class TestChop:
    """SphericalReduction.chop on synthetic spectra: mode l of the density
    at radius r is env_l g_0(r), against the roundoff bound
    n u (2l + 1) g_0(r) of the analysis (reduction.floor)."""

    @staticmethod
    def _modes(env):
        r = np.linspace(0.1, 10.0, 40)
        g0 = (1.0 + r * r) ** -2.0
        signs = np.where(np.arange(r.size) % 3, 1.0, -1.0)[:, None]
        return g0[:, None] * signs * np.asarray(env)[None, :]

    def test_geometric_decay_onto_a_plateau_cuts_at_its_start(self):
        red = AxisymmetricGrid.build(40, 64, 10.0).reduction
        n = len(red.l_values)
        start = 10
        env = 0.1 ** np.arange(n)  # 1e-9 at mode 9, above its bound
        env[start:] = 0.5 * red.floor[start:]  # a plateau below the bound
        assert env[start - 1] > red.floor[start - 1]
        assert red.chop(self._modes(env)) == (start, True)
        # the plateau is the trailing run below the bound: a mode above it
        # further on moves the cut past that mode
        env[20] = 2.0 * red.floor[20]
        assert red.chop(self._modes(env)) == (21, True)

    def test_no_plateau_keeps_every_mode_unresolved(self):
        red = AxisymmetricGrid.build(40, 64, 10.0).reduction
        n = len(red.l_values)
        env = 0.5 ** np.arange(n)  # 5e-10 at the last mode, still decaying
        assert red.chop(self._modes(env)) == (n, False)
        env[1:-1] = 0.0  # only the last mode above its bound
        assert red.chop(self._modes(env)) == (n, False)

    def test_a_radial_grid_keeps_its_one_mode_resolved(self):
        red = RadialGrid.graded(40, 10.0).reduction
        assert red.chop(self._modes([1.0])) == (1, True)

    def test_the_bound_is_n_u_times_2l_plus_1(self):
        red = AxisymmetricGrid.build(8, 16, 10.0).reduction
        l = np.array(red.l_values, dtype=float)
        np.testing.assert_array_equal(red.floor, 8 * 2.0 ** -53 * (2 * l + 1))


def test_only_model_names_the_grid_classes():
    # what differs by grid kind, callers ask the grid (grid.reduction,
    # grid.rays, grid.even_quadratics); no other module names a grid class
    src = Path(model.__file__).parent
    naming = [p.name for p in sorted(src.glob("*.py")) if p.name != "model.py"
              and re.search(r"\b(RadialGrid|AxisymmetricGrid)\b", p.read_text())]
    assert naming == []


class TestXNorm:
    def test_weighted_sup(self):
        g = RadialGrid.graded(50, 10.0)
        v = 3.0 * (1.0 + g.r)
        assert g.x_norm(v) == pytest.approx(3.0)


class TestStages:
    def test_without_continuation_the_config_is_its_one_stage(self):
        cfg = _cfg()
        assert cfg.stages() == [cfg]

    @pytest.mark.parametrize("param", ["quartic", "axis1"])
    def test_one_stage_per_eps(self, param):
        cfg = _cfg(continuation={"eps_sequence": [0.3, 0.1, 0.03],
                                 "eps_param": param})
        stages = cfg.stages()
        assert [s.poly for s in stages] == [
            cfg.poly.with_eps(param, e) for e in (0.3, 0.1, 0.03)]
        assert all(s.continuation is None for s in stages)
        assert all(s.replace_poly(cfg.poly) == cfg.replace_poly(cfg.poly)
                   for s in stages)

    @pytest.mark.parametrize("param, a, eps", [
        (None, (1.0, 2.0, 2.0), 0.05), ("quartic", (1.0, 2.0, 2.0), 0.0),
        ("axis1", (0.0, 2.0, 2.0), 0.05)], ids=["none", "quartic", "axis1"])
    def test_limit_poly_sets_the_continuation_parameter_to_zero(self, param,
                                                                a, eps):
        cont = param and {"eps_sequence": [0.3, 0.1], "eps_param": param}
        cfg = _cfg(poly={"a": [1.0, 2.0, 2.0], "eps_quartic": 0.05},
                   continuation=cont)
        assert cfg.limit_poly == QuadraticPolynomial(a, eps_quartic=eps)


_RADIAL_GRID = {"kind": "radial", "n_r": 32, "r_max": 10.0}
_READ_FIELD = {"poly": QuadraticPolynomial.from_dict, "grid": GridSpec.from_dict,
               "continuation": ContinuationSpec.from_dict}

# each structural rule in the order a config checks them: fields of _cfg's
# config that break it, and the ConfigError text (an odd P is refused by
# the polynomial reader, before any other rule)
_HARD_ERRORS = [
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"q": -2.0}, "q must be positive, got -2.0"),
    ({"q": math.inf}, "q must be finite, got inf"),
    ({"kernel_variant": "cubic"}, "unknown kernel_variant 'cubic'"),
    ({"damping": 2.0}, "damping must lie in (0, 1], got 2.0"),
    ({"damping": 0.0}, "damping must lie in (0, 1], got 0.0"),
    ({"tol_fixed_point": 0.0}, "tol_fixed_point must be positive, got 0.0"),
    ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
    ({"grid": {**_RADIAL_GRID, "kind": "axisymmetric", "n_angle": 7}},
     "axisymmetric grid needs an even n_angle >= 4"),
    ({"poly": {"a": [1.0, 2.0, 2.0], "eps_quartic": -0.1}},
     "eps_quartic must be >= 0, got -0.1"),
    ({"poly": {"a": [-1.0, 2.0, 2.0]}},
     "quadratic coefficients must be >= 0, got a = (-1.0, 2.0, 2.0)"),
    ({"poly": {"a": [1.0, 2.0, 2.0], "c": -1.0}},
     "constant term must be positive, got c = -1.0 (P(0) = -1.0 <= 0)"),
    ({"poly": {"a": [1.0, 2.0, 2.0], "b": [0.5, 0.0, 0.0]}},
     "iteration requires an even polynomial, got b = [0.5, 0.0, 0.0]"),
    ({"grid": _RADIAL_GRID},
     "radial grid requires a radial polynomial (equal a_i)"),
    ({"poly": {"a": [1.0, 2.0, 3.0]}}, "axisymmetric grid requires a2 == a3"),
    ({"continuation": {"eps_sequence": [0.01, 0.1]}},
     "eps_sequence must be strictly decreasing and positive"),
    ({"continuation": {"eps_sequence": []}},
     "eps_sequence must be strictly decreasing and positive"),
    ({"continuation": {"eps_sequence": [0.1], "eps_param": "axis2"}},
     "unknown eps_param 'axis2'"),
    ({"continuation": {"eps_sequence": [0.1], "eps_param": "isotropic"}},
     "unknown eps_param 'isotropic'"),
]


class TestConstruction:
    """A SolveConfig that exists is valid: each structural rule is checked
    when a config is made, whether from JSON or by replace."""

    @pytest.mark.parametrize("over, message", _HARD_ERRORS)
    def test_each_hard_error_is_raised_where_the_config_is_made(self, over,
                                                                 message):
        with pytest.raises(ConfigError) as exc:
            _cfg(**over)
        assert str(exc.value) == message
        with pytest.raises(ConfigError) as exc:  # an odd P fails the read
            fields = {k: _READ_FIELD.get(k, lambda v: v)(v) for k, v in over.items()}
            replace(_cfg(), **fields)
        assert str(exc.value) == message

    def test_every_fault_is_named_in_order(self):
        with pytest.raises(ConfigError) as exc:
            _cfg(seed=-1, damping=2.0, poly={"a": [1.0, 2.0, 2.0], "c": 0.0})
        assert str(exc.value) == (
            "seed must be a non-negative integer, got -1; damping must lie "
            "in (0, 1], got 2.0; constant term must be positive, got c = 0.0 "
            "(P(0) = 0.0 <= 0)")

    def test_replace_poly_refuses_a_polynomial_off_the_grid(self):
        with pytest.raises(ConfigError, match="^axisymmetric grid requires"):
            _cfg().replace_poly(QuadraticPolynomial((1.0, 2.0, 3.0)))

    def test_a_continuation_is_valid_when_its_stages_are(self):
        # axis1 sets a1 = eps, which a radial grid's P cannot have at every
        # stage: the config is refused when it is made, not when a stage is
        poly = {"a": [1.0, 1.0, 1.0]}
        cont = {"eps_sequence": [0.3, 0.1], "eps_param": "axis1"}
        message = "radial grid requires a radial polynomial (equal a_i)"
        with pytest.raises(ConfigError) as exc:
            _cfg(grid=_RADIAL_GRID, poly=poly, continuation=cont)
        assert str(exc.value) == message
        radial = _cfg(grid=_RADIAL_GRID, poly=poly)
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(radial, continuation=ContinuationSpec.from_dict(cont))
        assert len(replace(radial, continuation=ContinuationSpec(
            (0.3, 0.1), "quartic")).stages()) == 2


class TestValidation:
    def test_clean_config_passes(self):
        # q m > 4 with growth order 2 needs q > 2
        res = validate_config(_cfg(q=3.0))
        assert res.ok and not res.warnings

    def test_q_at_most_one_hits_the_gate(self):
        res = validate_config(_cfg(q=1.0))
        assert not res.ok
        assert "nonexistence" in res.gate_failures[0]

    def test_negative_q_is_hard_error(self):
        with pytest.raises(ConfigError, match="^q must be positive"):
            _cfg(q=-2.0)

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
        with pytest.raises(ConfigError, match="^constant term must be positive"):
            _cfg(poly={"a": [1.0, 2.0, 2.0], "b": [0, 0, 0], "c": -1.0})

    def test_odd_polynomial_is_hard_error(self):
        with pytest.raises(ConfigError, match="^iteration requires an even"):
            _cfg(poly={"a": [1.0, 2.0, 2.0], "b": [0.5, 0, 0], "c": 1.0})

    def test_a_zero_b_still_loads_as_no_linear_part(self):
        # configs written before P lost its linear part name b = [0, 0, 0]
        want = _cfg(poly={"a": [1.0, 2.0, 2.0]})
        for b in ([0, 0, 0], [0.0, -0.0, 0.0]):
            assert _cfg(poly={"a": [1.0, 2.0, 2.0], "b": b}) == want
        assert "b" not in want.to_dict()["poly"]

    def test_every_odd_polynomial_is_refused_as_odd(self):
        # b != 0 is refused as odd whatever a, c and eps are, so P's
        # positivity needs no check of its own for b != 0: the reader
        # refuses it before the config is made, and so any b but three zeros
        for kind, a, b, (c, eps) in itertools.product(
                ["radial", "axisymmetric"],
                [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 2.0, 2.0],
                 [3.0, 0.5, 0.5]],
                [[0.5, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1e-300],
                 [2.0, 2.0, -2.0], [0.0, math.nan, 0.0], [0.0, 0.0],
                 [False, 0, 0], "000", None],
                [(1.0, 0.0), (1e-3, 0.1), (-1.0, 0.0)]):
            grid = {"kind": kind, "n_r": 32, "r_max": 10.0}
            with pytest.raises(ConfigError) as exc:
                _cfg(q=3.0, grid=grid, poly={"a": a, "b": b, "c": c,
                                             "eps_quartic": eps})
            assert str(exc.value) == (f"iteration requires an even "
                                      f"polynomial, got b = {b}")

    @pytest.mark.parametrize("grid, message", [
        ({"kind": "radial", "n_r": 7, "r_max": 10.0},
         "radial grid needs at least 8 nodes"),
        ({"kind": "radial", "n_r": 32, "r_max": 0.0},
         "radial grid needs finite r_max > 0 and grading >= 1"),
        ({"kind": "radial", "n_r": 32, "r_max": 10.0, "grading": 0.5},
         "radial grid needs finite r_max > 0 and grading >= 1"),
        ({"kind": "axisymmetric", "n_r": 7, "r_max": 10.0},
         "axisymmetric grid needs at least 8 radii"),
        ({"kind": "axisymmetric", "n_r": 32, "n_angle": 7, "r_max": 10.0},
         "axisymmetric grid needs an even n_angle >= 4"),
        ({"kind": "axisymmetric", "n_r": 32, "n_angle": 2, "r_max": 10.0},
         "axisymmetric grid needs an even n_angle >= 4"),
        ({"kind": "axisymmetric", "n_r": 32, "r_max": -1.0},
         "axisymmetric grid needs finite r_max > 0 and grading >= 1"),
        ({"kind": "axisymmetric", "n_r": 32, "r_max": 10.0, "grading": 0.9},
         "axisymmetric grid needs finite r_max > 0 and grading >= 1"),
        ({"kind": "polar", "n_r": 32, "r_max": 10.0},
         "unknown grid kind 'polar'"),
    ])
    def test_grid_errors_are_the_ones_build_raises(self, grid, message):
        with pytest.raises(ConfigError) as exc:
            GridSpec.from_dict(grid).build()
        assert str(exc.value) == message
        with pytest.raises(ConfigError) as exc:
            _cfg(grid=grid)
        assert message in str(exc.value).split("; ")

    def test_increasing_eps_sequence_is_hard_error(self):
        with pytest.raises(ConfigError, match="^eps_sequence must be strictly"):
            _cfg(continuation={"eps_sequence": [0.01, 0.1]})

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
