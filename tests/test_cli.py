"""End-to-end checks of the command-line contract: exit codes, file
outputs, determinism, and preset handling, all run in-process."""

import csv
import dataclasses
import filecmp
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from biharm import cli, shooting, verify
from biharm.kernels import ModeConvolution
from biharm.model import (ConfigError, ContinuationSpec, ExactQ7Thresholds,
                          GridSpec, Profile, QuadraticPolynomial, RadialGrid,
                          SolveConfig, check_seed, load_profile_csv,
                          save_profile_csv)
from biharm.operator import solve_fixed_point


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def quick_config(tmp_path, **over):
    d = {
        "q": 5.0,
        "poly": {"a": [1.0, 1.0, 1.0], "b": [0.0, 0.0, 0.0], "c": 1.0,
                 "eps_quartic": 0.0},
        "kernel_variant": "shifted",
        "grid": {"kind": "radial", "n_r": 400, "r_max": 40.0, "grading": 2.0},
        "damping": 1.0,
        "tol_fixed_point": 1e-10,
        "max_iters": 200,
        "seed": 3,
    }
    d.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    return path


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One quick solve shared by the read-only CLI tests."""
    tmp = tmp_path_factory.mktemp("solved")
    cfg = quick_config(tmp)
    out = tmp / "run"
    code = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return cfg, out


class TestSolve:
    def test_outputs_and_exit_zero(self, solved):
        _, out = solved
        for name in ("report.json", "profile.csv", "trace.csv", "config.json"):
            assert (out / name).exists(), name
        rep = json.loads((out / "report.json").read_text())
        assert rep["result"]["converged"] is True
        assert rep["result"]["v_origin"] == 0.0

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        cfg = quick_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(a))[0] == 0
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(b))[0] == 0
        assert filecmp.cmp(a / "report.json", b / "report.json", shallow=False)
        assert filecmp.cmp(a / "profile.csv", b / "profile.csv", shallow=False)

    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # thm2's Anderson inner products and mixing sum in a fixed order
        # without BLAS, whose sums split across threads
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for n in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "biharm.cli", "solve", "--preset", "thm2",
                 "--out", n], cwd=tmp_path, capture_output=True, text=True,
                env={**env, "OPENBLAS_NUM_THREADS": n}, timeout=300)
            assert proc.returncode == 0, proc.stderr
        for name in ("report.json", "profile.csv", "trace.csv", "config.json"):
            assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name,
                               shallow=False), name

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = quick_config(tmp_path)
        out = tmp_path / "s"
        code, _, _ = run(capsys, "solve", "--config", str(cfg),
                         "--out", str(out), "--seed", "42")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["config"]["seed"] == 42

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "config"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, flag):
        # verify would refuse it later; solve refuses it before writing
        cfg = quick_config(tmp_path, seed=3 if flag else -5)
        out = tmp_path / "s"
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(out), *(["--seed", "-5"] if flag else []))
        assert code == 1
        assert err == "error: seed must be a non-negative integer, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset, warns", [
        ("thm2", True), ("thm1", False), ("thmA-iii", False)])
    def test_warns_when_the_angle_does_not_resolve_the_density(
            self, tmp_path, capsys, preset, warns):
        # thm2's last-stage density has no roundoff plateau within its 64
        # modes; thm1's reaches it, and a radial grid's one mode is resolved
        out = tmp_path / preset
        assert run(capsys, "solve", "--preset", preset, "--out", str(out))[0] == 0
        lines = [w for w in json.loads((out / "report.json").read_text())[
            "warnings"] if w.startswith("n_angle = ")]
        if not warns:
            assert lines == []
            return
        (line,) = lines
        assert line.startswith("n_angle = 128 does not resolve the last "
                               "stage's density")
        tail = float(line.split("max_r |g_0| = ")[1].split(" ")[0])
        assert 1e-6 < tail < 1e-3 and "at l = 126)" in line

    def test_env_output_dir(self, tmp_path, capsys, monkeypatch):
        cfg = quick_config(tmp_path)
        target = tmp_path / "from_env"
        monkeypatch.setenv("BIHARM_OUT", str(target))
        code, _, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert (target / "report.json").exists()

    def test_short_last_decade_keeps_decomposition_and_reasons(
            self, tmp_path, capsys):
        # 28 nodes in [4, 40]: no tail fit, so no growth fits, beta or first
        # moment, but the quadratic fit needs no tail and is still written
        cfg = quick_config(tmp_path, grid={"kind": "radial", "n_r": 40,
                                           "r_max": 40.0, "grading": 2.0})
        assert run(capsys, "solve", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))[0] == 0
        res = json.loads((tmp_path / "o" / "report.json").read_text())["result"]
        dec = res["decomposition"]
        assert "error" not in dec
        assert dec["a"] == pytest.approx([1.0] * 3, rel=1e-6)
        assert dec["c"] == pytest.approx(1.0, rel=1e-6)
        assert dec["fit_residual"] < 1e-6
        assert dec["first_moment"] is None
        assert dec["gamma_identity_gap"] is None
        assert res["growth_fits"] == []
        assert res["beta"] is None
        assert res["beta_note"].startswith(
            "growth fits skipped: fit window [4, 40] contains 28 nodes")
        # beta fails for the same reason, which the note gives once
        assert res["beta_note"].count("need 30") == 1

    def test_nonexistence_regime_exits_two(self, tmp_path, capsys):
        cfg = quick_config(tmp_path, q=0.5)
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "d"))
        assert code == 2
        assert "diverged" in err

    def test_overflowing_density_exits_two_with_a_reason(self, tmp_path,
                                                         capsys):
        # P = 1e-300 overflows P^-q before the first iterate is applied
        cfg = quick_config(
            tmp_path, poly={"a": [0.0, 0.0, 0.0], "c": 1e-300},
            grid={"kind": "radial", "n_r": 32, "r_max": 5.0})
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert "not finite" in err
        res = json.loads((tmp_path / "o" / "report.json").read_text())["result"]
        assert not res["converged"]
        assert res["diverged_reason"].startswith(
            "density (P + |v|)^-q not finite")

    @pytest.mark.parametrize("a", [1e-300, 0.0])
    def test_unbounded_tail_is_written_as_null(self, tmp_path, capsys, a):
        # lead^-q overflows a float for a = 1e-300 (q = 5); the tail bound is
        # then inf, as for a P with no growth, and report.json writes null
        cfg = quick_config(tmp_path, poly={"a": [a, a, a], "c": 1.0},
                           grid={"kind": "radial", "n_r": 32, "r_max": 5.0})
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code in (0, 2), err
        res = json.loads((tmp_path / "o" / "report.json").read_text())["result"]
        assert res["converged"] or res["diverged_reason"]
        assert res["tail_bound"] is None

    @pytest.mark.parametrize("variant", ["shifted", "unshifted"])
    def test_solve_builds_one_convolution(self, tmp_path, capsys, monkeypatch,
                                          variant):
        # the decomposition convolves on the solve's grid, with the shifted
        # kernel whatever the solve's variant, and reuses the solve's build
        built = []
        init = ModeConvolution.__init__
        monkeypatch.setattr(ModeConvolution, "__init__", lambda self, *a:
                            built.append(a) or init(self, *a))
        cfg = quick_config(tmp_path, kernel_variant=variant,
                           grid={"kind": "radial", "n_r": 100, "r_max": 20.0})
        assert run(capsys, "solve", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))[0] == 0
        res = json.loads((tmp_path / "o" / "report.json").read_text())["result"]
        assert "error" not in res["decomposition"]
        assert len(built) == 1

    def test_one_grid_per_command(self, tmp_path, capsys, monkeypatch):
        # validation checks the grid arguments without building a grid, the
        # six continuation stages share the solve's grid, and verify builds
        # the profile's; each build calls leggauss once
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        out = tmp_path / "thm2"
        assert run(capsys, "solve", "--preset", "thm2",
                   "--out", str(out))[0] == 0
        assert calls == [128]
        assert run(capsys, "verify", "--preset", "thm2", "--profile",
                   str(out / "profile.csv"),
                   "--out", str(tmp_path / "v"))[0] == 0
        assert calls == [128, 128]

    def test_early_stopped_continuation_writes_the_stage_it_stopped_at(
            self, tmp_path, capsys):
        # three iterations cannot converge the first stage: the stored
        # profile is v + P of that stage, and nothing is fitted to it
        cont = {"eps_sequence": [0.3, 0.1, 0.03], "eps_param": "quartic"}
        cfg_path = quick_config(tmp_path, q=3.0, max_iters=3,
                                grid={"kind": "radial", "n_r": 300,
                                      "r_max": 30.0, "grading": 2.0},
                                continuation=cont)
        out = tmp_path / "early"
        code, _, err = run(capsys, "solve", "--config", str(cfg_path),
                           "--out", str(out))
        assert code == 2 and "diverged" in err
        stage = SolveConfig.from_dict(
            {**json.loads(cfg_path.read_text()), "continuation": None,
             "poly": {"a": [1.0] * 3, "c": 1.0, "eps_quartic": 0.3}})
        v, _ = solve_fixed_point(stage)
        g = v.grid
        written = load_profile_csv(out / "profile.csv", g)
        np.testing.assert_array_equal(written.values,
                                      v.values + g.poly_values(stage.poly))
        doc = json.loads((out / "report.json").read_text())
        assert doc["result"]["growth_fits"] == []
        assert doc["continuation"]["eps_values"] == [0.3]
        assert doc["continuation"]["converged"] == [False]
        assert doc["continuation"]["iters"] == [3]

    def test_trace_has_one_row_per_iterate(self, solved):
        _, out = solved
        rep = json.loads((out / "report.json").read_text())["result"]
        with open(out / "trace.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["iter"]) for r in rows] == list(range(rep["iters"] + 1))
        assert float(rows[-1]["diff_xnorm"]) == pytest.approx(
            rep["final_residual"], rel=1e-11)

    def test_bad_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "solve", "--config", str(bad),
                           "--out", str(tmp_path / "e"))
        assert code == 1
        assert "error" in err

    def test_config_and_preset_required(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--out", str(tmp_path / "f"))
        assert code == 1

    def test_shoot_preset_refuses_other_flags(self, tmp_path, capsys):
        # the preset fixes every shoot input, so a flag given with it would
        # be dropped without a word: it is an error instead
        code, _, err = run(capsys, "shoot", "--preset", "thmA-iv", "--q", "5",
                           "--r-end", "100", "--out", str(tmp_path / "s"))
        assert code == 1
        assert err == ("error: --preset thmA-iv takes no other shoot flags, "
                       "got --q, --r-end\n")
        assert not (tmp_path / "s").exists()

    def test_preset_for_wrong_subcommand(self, tmp_path, capsys):
        for cmd, preset, drives in (("solve", "exact-q7", "verify"),
                                    ("verify", "thmA-iv", "shoot")):
            code, _, err = run(capsys, cmd, "--preset", preset,
                               "--out", str(tmp_path / "g"))
            assert code == 1
            assert err == (f"error: this preset drives the {drives!r} "
                           f"subcommand, not {cmd}\n")


_SMALL_GRID = {"kind": "radial", "n_r": 64, "r_max": 10.0}


def _small_config(**over) -> dict:
    """A valid solve config on a 64-radius grid, with over's fields."""
    return {"q": 5.0, "poly": {"a": [1.0, 1.0, 1.0]},
            "kernel_variant": "shifted", "grid": _SMALL_GRID, **over}


# a JSON true where a number is read, and the "<what>: <field>" of its error
_BOOL_NUMBERS = [
    ("solve", _small_config(q=True), "malformed config: q:"),
    ("solve", _small_config(poly={"a": [1.0, 1.0, 1.0], "c": True}),
     "malformed polynomial spec: c:"),
    ("solve", _small_config(grid={**_SMALL_GRID, "r_max": True}),
     "malformed grid spec: r_max:"),
    ("solve", _small_config(damping=True), "malformed config: damping:"),
    ("verify", {"command": "verify", "grid": _SMALL_GRID,
                "thresholds": {"pde": True}}, "malformed exact-q7 thresholds: pde:"),
    ("sweep", {"base": _small_config(), "grid": {"q": [True]}},
     "sweep grid 'q' is not a list of numbers"),
]
_BOOL_IDS = ["solve-q-true", "solve-c-true", "solve-r_max-true",
             "solve-damping-true", "verify-exact-q7-pde-true", "sweep-q-true"]


@pytest.mark.parametrize("cmd, doc", [
    ("solve", "[1, 2]"),
    ("verify", "[1, 2]"),
    ("verify", '{"command": "verify"}'),
    ("verify", '{"command": "verify", "thresholds": [1], "grid": '
               '{"kind": "radial", "n_r": 64, "r_max": 10.0}}'),
    ("solve", '"abc"'),
    ("solve", b"\xff\xfe"),
    ("sweep", "[1, 2]"),
    ("sweep", '{"base": [], "grid": {}}'),
    ("sweep", '{"base": {}, "grid": [1]}'),
    ("sweep", '{"base": {}, "grid": {"q": ["abc"]}}'),
    ("sweep", '{"base": {}, "grid": {"kappa1": [null]}}'),
    ("sweep", '{"base": {}, "grid": {"eps": 0.5}}'),
    ("sweep", '{"base": {}, "grid": {"q": [1%s]}}' % ("0" * 400)),
    ("verify", '{"command": "verify", "grid": '
               '{"kind": "radial", "n_r": 1e999, "r_max": 10.0}}'),
    ("solve", '{"q": 5.0, "poly": {"a": [1.0, 1.0, 1.0]}, "kernel_variant": '
              '"shifted", "grid": {"kind": "radial", "n_r": 64, "r_max": 10.0}, '
              '"max_iters": 1e999}'),
    ("solve", json.dumps(_small_config(grid={**_SMALL_GRID, "n_r": 64.9}))),
    ("solve", json.dumps(_small_config(grid={
        **_SMALL_GRID, "kind": "axisymmetric", "n_angle": 64.5}))),
    ("solve", json.dumps(_small_config(max_iters=2.7))),
    ("solve", json.dumps(_small_config(seed=1.5))),
    ("solve", json.dumps(_small_config(seed=True))),
    *[(cmd, json.dumps(doc)) for cmd, doc, _ in _BOOL_NUMBERS],
], ids=["solve-array", "verify-array", "verify-exact-q7-no-grid",
        "verify-exact-q7-thresholds-array",
        "solve-string", "solve-not-utf8", "sweep-array", "sweep-base-array",
        "sweep-grid-array", "sweep-q-string", "sweep-kappa1-null",
        "sweep-eps-scalar", "sweep-q-int-past-float",
        "verify-exact-q7-n_r-inf", "solve-max-iters-inf", "solve-n_r-64.9",
        "solve-n_angle-64.5", "solve-max-iters-2.7", "solve-seed-1.5",
        "solve-seed-true", *_BOOL_IDS])
def test_malformed_config_exits_one_with_one_error_line(tmp_path, capsys,
                                                        cmd, doc):
    path = tmp_path / "cfg.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc)
    argv = [cmd, "--config", str(path), "--out", str(tmp_path / "out")]
    if cmd == "verify":
        argv += ["--profile", str(tmp_path / "profile.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("cmd, doc, where", _BOOL_NUMBERS, ids=_BOOL_IDS)
def test_a_json_bool_is_not_read_as_a_number(tmp_path, capsys, cmd, doc,
                                             where):
    # float(true) is 1.0; every float field, threshold and sweep value
    # refuses it and names where it was
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = [cmd, "--config", str(path), "--out", str(tmp_path / "out")]
    if cmd == "verify":
        argv += ["--profile", str(tmp_path / "profile.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


@pytest.mark.parametrize("over, message", [
    ({"kernel_variant": "bogus"}, "unknown kernel_variant 'bogus'"),
    ({"damping": 0.0}, "damping must lie in (0, 1], got 0.0"),
    ({"damping": 1.5}, "damping must lie in (0, 1], got 1.5"),
    ({"tol_fixed_point": 0.0}, "tol_fixed_point must be positive, got 0.0"),
    ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
    ({"poly": {"a": [1.0, 1.0, 1.0], "eps_quartic": -0.1}},
     "eps_quartic must be >= 0, got -0.1"),
    ({"poly": {"a": [-1.0, -1.0, -1.0]}},
     "quadratic coefficients must be >= 0, got a = (-1.0, -1.0, -1.0)"),
    ({"continuation": {"eps_sequence": [0.1], "eps_param": "bogus"}},
     "unknown eps_param 'bogus'"),
], ids=["kernel_variant", "damping-0", "damping-1.5", "tol_fixed_point",
        "max_iters", "eps_quartic", "a", "eps_param"])
def test_config_hard_error_exits_one_with_its_message(tmp_path, capsys, over,
                                                      message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_config(**over)))
    code, _, err = run(capsys, "solve", "--config", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


# each float a solve config reads, named as its error names it, and the
# fields of _small_config's config that put a value there (b, which must be
# zeros, is refused as odd)
_FLOAT_FIELDS = {
    "q": lambda x: {"q": x},
    "poly.a[0]": lambda x: {"poly": {"a": [x, 1.0, 1.0]}},
    "poly.b[1]": lambda x: {"poly": {"a": [1.0, 1.0, 1.0], "b": [0.0, x, 0.0]}},
    "poly.c": lambda x: {"poly": {"a": [1.0, 1.0, 1.0], "c": x}},
    "poly.eps_quartic": lambda x: {"poly": {"a": [1.0, 1.0, 1.0],
                                            "eps_quartic": x}},
    "grid.r_max": lambda x: {"grid": {**_SMALL_GRID, "r_max": x}},
    "grid.grading": lambda x: {"grid": {**_SMALL_GRID, "grading": x}},
    "damping": lambda x: {"damping": x},
    "tol_fixed_point": lambda x: {"tol_fixed_point": x},
    "continuation.eps_sequence[1]": lambda x: {
        "continuation": {"eps_sequence": [0.1, x]}},
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("field", list(_FLOAT_FIELDS))
def test_nonfinite_number_exits_one_naming_its_field(tmp_path, capsys, field,
                                                     value):
    # json reads NaN and Infinity; no rule of a config can judge them, so
    # they are refused alone, before the rest
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_config(**_FLOAT_FIELDS[field](value))))
    code, _, err = run(capsys, "solve", "--config", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    message = f"{field} must be finite, got {value}"
    if field == "poly.b[1]":  # b must be zeros, which a non-finite b is not
        message = f"iteration requires an even polynomial, got b = [0.0, {value}, 0.0]"
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("field", ["pde", "integral", "gamma"])
def test_nonfinite_exact_q7_threshold_exits_one_naming_it(tmp_path, capsys,
                                                          field, value):
    # every value fails `value < nan`, and every value passes `< inf`
    path = tmp_path / "q7.json"
    path.write_text(json.dumps({"command": "verify", "grid": _SMALL_GRID,
                                "thresholds": {field: value}}))
    code, _, err = run(capsys, "verify", "--config", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f"error: thresholds.{field} must be finite, got {value}\n"
    assert not (tmp_path / "out" / "verification.json").exists()


# a misspelled key at each level a config is read at: the subcommand that
# reads it, the config, and the object and key its error names
_MISSPELLED_KEYS = {
    "top": ("solve", _small_config(max_iter=3), "config", "max_iter"),
    "poly": ("solve", _small_config(poly={"a": [1.0, 1.0, 1.0],
                                          "eps_quartc": 0.5}),
             "polynomial spec", "eps_quartc"),
    "grid": ("solve", _small_config(grid={**_SMALL_GRID, "n_angel": 64}),
             "grid spec", "n_angel"),
    "continuation": ("solve", _small_config(continuation={
        "eps_sequence": [0.1], "eps_parm": "axis1"}), "continuation spec",
        "eps_parm"),
    "thresholds": ("verify", {"command": "verify", "grid": _SMALL_GRID,
                              "thresholds": {"pdf": 0.1}},
                   "exact-q7 thresholds", "pdf"),
    "sweep-base": ("sweep", {"base": _small_config(poly={
        "a": [1.0, 1.0, 1.0], "eps_quartc": 0.5}), "grid": {"q": [4.0, 5.0]}},
        "polynomial spec", "eps_quartc"),
    "exact-q7": ("verify", {"command": "verify", "mode": "exact-q7",
                            "grid": _SMALL_GRID, "threshold": {"pde": 1e-9}},
                 "exact-q7 config", "threshold"),
    "sweep": ("sweep", {"base": _small_config(), "gird": {"q": [4.0, 5.0]},
                        "grid": {"q": [5.0]}}, "sweep config", "gird"),
}


@pytest.mark.parametrize("level", list(_MISSPELLED_KEYS))
def test_a_key_no_field_reads_exits_one_naming_it(tmp_path, capsys, level):
    # such a key was ignored, so the field it meant kept its default
    cmd, doc, what, key = _MISSPELLED_KEYS[level]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, _, err = run(capsys, cmd, "--config", str(path), "--out", str(out))
    assert code == 1
    assert err.startswith(f"error: malformed {what}: unknown key {key!r}; "
                          f"its keys are ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_a_sweep_base_is_read_as_a_solve_config(tmp_path, capsys):
    # the base goes through the one entry of a solve config, which reads
    # its command key: "solve" is accepted, another subcommand is refused
    path = tmp_path / "sweep.json"
    for command, want in (("solve", 0), ("shoot", 1)):
        path.write_text(json.dumps({"base": _small_config(command=command),
                                    "grid": {"q": [5.0]}}))
        code, _, err = run(capsys, "sweep", "--config", str(path), "--out",
                           str(tmp_path / command), "--threads", "1")
        assert code == want
    assert err == "error: this preset drives the 'shoot' subcommand, not sweep\n"
    assert not (tmp_path / "shoot").exists()


def test_exact_q7_battery_on_an_axisymmetric_grid(tmp_path, capsys):
    # the closed form fills every polar node column of the grid
    path = tmp_path / "q7.json"
    path.write_text(json.dumps({"command": "verify", "grid": {
        "kind": "axisymmetric", "n_r": 400, "n_angle": 16, "r_max": 100.0}}))
    code, _, _ = run(capsys, "verify", "--config", str(path),
                     "--out", str(tmp_path / "out"))
    assert code == 0
    doc = json.loads((tmp_path / "out" / "verification.json").read_text())
    assert {k: v["status"] for k, v in doc["checks"].items()} == {
        "pde": "pass", "integral": "pass", "gamma": "pass"}
    assert doc["checks"]["pde"]["value"] < 1e-4


def test_refused_tails_and_numbers_end_in_an_exit_code(tmp_path):
    # each run ends with a documented exit code and no traceback.  At
    # q = 120 on r <= 40, u^-q underflows to 0 in the last decade: the
    # solve converges, and every tail fit of that decade is refused and
    # noted (beta, the first moment, the Pohozaev constant)
    q120 = {"q": 120.0, "poly": {"a": [1.0, 1.0, 1.0], "c": 1.0},
            "kernel_variant": "shifted", "tol_fixed_point": 1e-10,
            "grid": {"kind": "radial", "n_r": 200, "r_max": 40.0}}
    docs = {"q120.json": q120, "sweep.json": {"base": q120, "grid": {"q": [120]}},
            "nan.json": _small_config(q=math.nan),
            "inf.json": _small_config(poly={"a": [1.0, 1.0, 1.0], "c": math.inf}),
            "q7.json": {"command": "verify", "grid": {
                "kind": "axisymmetric", "n_r": 400, "n_angle": 16,
                "r_max": 100.0}}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    runs = [
        (["solve", "--config", "q120.json", "--out", "solve"], {0}),
        (["verify", "--config", "q120.json", "--profile", "solve/profile.csv",
          "--out", "verify"], {0, 3}),
        (["sweep", "--config", "sweep.json", "--out", "sweep", "--threads", "1"],
         {0}),
        (["solve", "--config", "nan.json", "--out", "nan"], {1}),
        (["solve", "--config", "inf.json", "--out", "inf"], {1}),
        (["verify", "--config", "q7.json", "--out", "q7"], {0}),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv, codes in runs:
        proc = subprocess.run([sys.executable, "-m", "biharm.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode in codes, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv

    assert sorted(p.name for p in (tmp_path / "solve").iterdir()) == [
        "config.json", "profile.csv", "report.json", "trace.csv"]
    result = json.loads((tmp_path / "solve" / "report.json").read_text())["result"]
    assert result["converged"] and result["beta"] is None
    assert "power-law fit needs positive values" in result["beta_note"]
    assert result["decomposition"]["first_moment"] is None
    checks = json.loads(
        (tmp_path / "verify" / "verification.json").read_text())["checks"]
    assert checks["pohozaev"]["status"] == "not_applicable"
    with open(tmp_path / "sweep" / "sweep.csv") as f:
        (row,) = csv.DictReader(f)
    assert row["converged"] == "True" and row["beta"] == "" and not row["error"]
    assert (tmp_path / "sweep" / "point_0000" / "report.json").is_file()


@pytest.mark.parametrize("argv", [
    ["shoot", "--q", "-inf", "--w0", "1"],  # -inf reads as an option
    ["solve", "--preset", "thm1", "--no-such-option"],
    ["solve", "--seed", "x"],
    ["no-such-command"],
], ids=["shoot-q-minus-inf", "solve-unknown-option", "solve-seed-not-int",
        "unknown-command"])
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    # argparse exits 2, the code of a diverged solve, unless told otherwise
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("biharm")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["shoot", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: biharm")


def test_schema_bounds_match_the_code():
    # jsonschema is not a dependency, so the schema's numbers are read from
    # the file and held against the checks the code makes
    schema = json.loads(resources.files("biharm").joinpath(
        "schemas/config.schema.json").read_text())
    defs = schema["definitions"]
    grid = defs["grid"]["properties"]
    n_r, n_angle = grid["n_r"]["minimum"], grid["n_angle"]["minimum"]
    step = grid["n_angle"]["multipleOf"]

    def error(kind="axisymmetric", **over):
        spec = {"n_r": n_r, "r_max": 10.0, "n_angle": n_angle, **over}
        return GridSpec(kind=kind, **spec).error()

    assert (n_r, n_angle, step) == (8, 4, 2)
    assert error() is None and error("radial") is None
    assert error(n_angle=n_angle + step) is None
    for over in ({"n_r": n_r - 1}, {"n_angle": n_angle - step},
                 {"n_angle": n_angle + 1}):
        assert error(**over) is not None, over
    assert error("radial", n_r=n_r - 1) is not None
    seed = defs["solveConfig"]["properties"]["seed"]["minimum"]
    assert check_seed(seed) == seed
    with pytest.raises(ConfigError, match="seed must be a non-negative"):
        check_seed(seed - 1)
    # each object a reader reads names exactly its dataclass's fields (a
    # solve config also its command), and the schema refuses any other key
    # as the reader does
    readers = {"polynomial": (defs["polynomial"], QuadraticPolynomial),
               "grid": (defs["grid"], GridSpec),
               "continuation": (defs["continuation"], ContinuationSpec),
               "solveConfig": (defs["solveConfig"], SolveConfig),
               "thresholds": (defs["verifyPreset"]["properties"]["thresholds"],
                              ExactQ7Thresholds)}
    for name, (definition, cls) in readers.items():
        read = {f.name for f in dataclasses.fields(cls)}
        if cls is SolveConfig:
            read.add("command")
        assert set(definition["properties"]) == read, name
        assert definition["additionalProperties"] is False, name
    r_end = defs["shootPreset"]["properties"]["r_end"]["exclusiveMinimum"]
    with pytest.raises(ValueError, match="r_end"):
        shooting.integrate_radial(3.0, 1.0, 1.4, r_end)
    assert shooting.integrate_radial(3.0, 1.0, 1.4, 2.0 * r_end).outcome
    # every field the schema types as an integer is read by the integer
    # rule: x.0 loads as x, and x.5 and true are refused, naming the field;
    # a definition this table lacks fails the lookup
    section = {"solveConfig": (), "grid": ("grid",)}
    base = _small_config(grid={**_SMALL_GRID, "kind": "axisymmetric",
                               "n_angle": 8}, max_iters=200, seed=3)
    integers = [(section[name], key) for name, definition in defs.items()
                for key, prop in definition.get("properties", {}).items()
                if prop.get("type") == "integer"]
    assert {"n_r", "seed"} <= {key for _, key in integers}
    for path, key in integers:
        d = json.loads(json.dumps(base))
        owner = d
        for part in path:
            owner = owner[part]
        x = owner[key]
        owner[key] = float(x)
        assert SolveConfig.from_dict(d) == SolveConfig.from_dict(base), key
        for value in (x + 0.5, True):
            owner[key] = value
            with pytest.raises(ConfigError, match=f": {key}: {value!r} is "
                                                  f"not an integer$"):
                SolveConfig.from_dict(d)


# Run in a fresh interpreter: prints the scipy modules loaded after the
# import of biharm.cli, and the exit code and loaded scipy modules after each
# (name, argv) step of the JSON list in sys.argv[1], run in order.
_SCIPY_PROBE = """
import json, sys
from biharm import cli
def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
seen = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [cli.main(argv), loaded()]
print(json.dumps(seen))
"""


def test_no_command_loads_scipy(tmp_path):
    # verify draws its Halton points in numpy and shoot reads the DOP853
    # coefficients from scipy's file by path, so no command pays for loading
    # a scipy package
    small = {"kind": "radial", "n_r": 64, "r_max": 10.0, "grading": 2.0}
    cfg = quick_config(tmp_path, grid=small)
    sw = tmp_path / "sweep.json"
    sw.write_text(json.dumps({"base": json.loads(cfg.read_text()),
                              "grid": {"q": [5.0]}}))
    steps = [
        ("solve", ["solve", "--config", str(cfg),
                   "--out", str(tmp_path / "solve")]),
        ("sweep", ["sweep", "--config", str(sw), "--threads", "1",
                   "--out", str(tmp_path / "sweep")]),
        ("verify", ["verify", "--config", str(cfg), "--profile",
                    str(tmp_path / "solve" / "profile.csv"),
                    "--out", str(tmp_path / "verify")]),
        ("verify_exact", ["verify", "--exact-q7",
                          "--out", str(tmp_path / "verify_exact")]),
        ("shoot", ["shoot", "--q", "3", "--w0", "1.4",
                   "--out", str(tmp_path / "shoot")]),
        ("bisect", ["shoot", "--q", "2", "--bisect", "--r-end", "3e3",
                    "--out", str(tmp_path / "bisect")]),
        ("exact_start", ["shoot", "--q", "7", "--exact-start", "--r-end", "10",
                         "--out", str(tmp_path / "exact_start")]),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           json.dumps(steps)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("import") == []
    assert {name: modules for name, (_, modules) in seen.items()} == {
        name: [] for name, _ in steps}
    # the 64-radius grid is too coarse to pass every check (exit 3)
    assert seen.pop("verify")[0] in (0, 3)
    assert {name: code for name, (code, _) in seen.items()} == {
        name: 0 for name, _ in steps if name != "verify"}


class TestVerify:
    def test_exact_battery_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "--exact-q7",
                           "--out", str(tmp_path / "v"))
        assert code == 0
        doc = json.loads((tmp_path / "v" / "verification.json").read_text())
        assert all(c["status"] == "pass" for c in doc["checks"].values())

    def test_solved_profile_passes(self, solved, tmp_path, capsys):
        cfg, out = solved
        code, _, _ = run(capsys, "verify", "--config", str(cfg),
                         "--profile", str(out / "profile.csv"),
                         "--out", str(tmp_path / "v2"))
        assert code == 0
        doc = json.loads((tmp_path / "v2" / "verification.json").read_text())
        assert doc["checks"]["pde"]["status"] == "pass"
        assert doc["checks"]["integral"]["status"] == "pass"
        assert doc["checks"]["pohozaev"]["status"] == "pass"

    def test_corrupted_profile_fails_checks(self, solved, tmp_path, capsys):
        cfg, out = solved
        lines = (out / "profile.csv").read_text().splitlines()
        head, rows = lines[0], lines[1:]
        bad = [head]
        for i, line in enumerate(rows):
            r, val = line.split(",")
            if i % 2 == 0:
                val = str(2.0 * float(val))
            bad.append(f"{r},{val}")
        p = tmp_path / "corrupt.csv"
        p.write_text("\n".join(bad) + "\n")
        code, _, _ = run(capsys, "verify", "--config", str(cfg),
                         "--profile", str(p), "--out", str(tmp_path / "v3"))
        assert code == 3

    @pytest.mark.parametrize("value", ["0.0", "-1.0", "nan", "inf"])
    def test_nonpositive_or_nonfinite_profile_exits_one(self, solved, tmp_path,
                                                        capsys, value):
        # one bad value refuses the profile before any check runs (a NaN
        # passed the positivity check, an inf also two residual checks)
        cfg, out = solved
        lines = (out / "profile.csv").read_text().splitlines(keepends=True)
        r, _ = lines[100].split(",")
        lines[100] = f"{r},{value}\n"
        p = tmp_path / "profile.csv"
        p.write_text("".join(lines))
        code, _, err = run(capsys, "verify", "--config", str(cfg),
                           "--profile", str(p), "--out", str(tmp_path / "v"))
        assert code == 1
        assert err == "error: stored profile is not finite and strictly positive\n"
        assert not (tmp_path / "v" / "verification.json").exists()

    @pytest.mark.parametrize("exact", [True, False])
    def test_negative_seed_exits_one(self, solved, tmp_path, capsys, exact):
        # numpy's default_rng refuses a negative seed with a traceback; the
        # exact battery takes it from --seed, a profile check from the config
        _, out = solved
        argv = (["--exact-q7", "--seed", "-1"] if exact else
                ["--config", str(quick_config(tmp_path, seed=-1)),
                 "--profile", str(out / "profile.csv")])
        code, _, err = run(capsys, "verify", *argv,
                           "--out", str(tmp_path / "v"))
        assert code == 1
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "v" / "verification.json").exists()

    def test_negative_seed_flag_exits_one(self, solved, tmp_path, capsys):
        # --seed is checked like a config's seed, before the profile is read
        cfg, out = solved
        code, _, err = run(capsys, "verify", "--config", str(cfg), "--profile",
                           str(out / "profile.csv"), "--seed", "-5",
                           "--out", str(tmp_path / "v"))
        assert code == 1
        assert err == "error: seed must be a non-negative integer, got -5\n"
        assert not (tmp_path / "v" / "verification.json").exists()

    def test_seed_flag_is_the_seed_written(self, solved, tmp_path, capsys):
        # --seed 1 on a seed-3 config writes what the config with seed 1
        # writes: the seed that drew the samples, and those samples' checks
        cfg, out = solved
        argv = ["--profile", str(out / "profile.csv")]
        assert run(capsys, "verify", "--config", str(cfg), *argv, "--seed", "1",
                   "--out", str(tmp_path / "flag"))[0] == 0
        assert run(capsys, "verify", "--config",
                   str(quick_config(tmp_path, seed=1)), *argv,
                   "--out", str(tmp_path / "config"))[0] == 0
        doc = (tmp_path / "flag" / "verification.json").read_text()
        assert json.loads(doc)["config"]["seed"] == 1
        assert doc == (tmp_path / "config" / "verification.json").read_text()

    @pytest.mark.parametrize("flag,seed", [([], 0), (["--seed", "5"], 5)],
                             ids=["default", "flag"])
    def test_exact_battery_writes_its_seed(self, tmp_path, capsys, flag, seed):
        code, _, _ = run(capsys, "verify", "--exact-q7", *flag,
                         "--out", str(tmp_path / "v"))
        assert code == 0
        doc = json.loads((tmp_path / "v" / "verification.json").read_text())
        assert doc["seed"] == seed

    @pytest.mark.parametrize("given", ["preset", "config"])
    def test_exact_flag_with_a_solve_config_exits_one(self, solved, tmp_path,
                                                      capsys, given):
        # the flag runs the closed-form battery alone, so a solve config
        # given with it is an error, not a profile check run instead
        cfg, out = solved
        argv = ["--preset", "thm1"] if given == "preset" else ["--config", str(cfg)]
        code, _, err = run(capsys, "verify", "--exact-q7", *argv, "--profile",
                           str(out / "profile.csv"), "--out", str(tmp_path / "v"))
        assert code == 1
        assert err == ("error: --exact-q7 runs the closed-form battery, not "
                       "a 'solve' config\n")
        assert not (tmp_path / "v" / "verification.json").exists()

    def test_early_stopped_continuation_is_checked_at_its_stage(
            self, tmp_path, capsys):
        # the run stops unconverged at eps = 0.3; its profile is v + P(0.3),
        # so the checks use the eps = 0.3 equation and say it did not converge
        cont = {"eps_sequence": [0.3, 0.1, 0.03], "eps_param": "quartic"}
        cfg = quick_config(tmp_path, q=3.0, max_iters=3,
                           grid={"kind": "radial", "n_r": 300, "r_max": 30.0,
                                 "grading": 2.0},
                           continuation=cont)
        out = tmp_path / "early"
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(out))[0] == 2
        run(capsys, "verify", "--config", str(cfg), "--profile",
            str(out / "profile.csv"), "--out", str(tmp_path / "chk"))
        doc = json.loads((tmp_path / "chk" / "verification.json").read_text())
        assert doc["stage"]["eps"] == 0.3
        assert doc["stage"]["converged"] is False
        assert "did not converge" in doc["stage"]["note"]
        g = RadialGrid.graded(300, 30.0)
        pde = verify.pde_residual(load_profile_csv(out / "profile.csv", g),
                                  3.0, eps_quartic=0.3)
        assert doc["checks"]["pde"]["value"] == pytest.approx(pde.max_rel,
                                                              rel=1e-11)

    def test_a_report_written_before_p_lost_b_names_its_stage(self, tmp_path,
                                                              capsys):
        # such a report's config names poly.b = [0, 0, 0]; read as a config,
        # it is the config verify is given, so its stage (eps = 0.3) is used
        cont = {"eps_sequence": [0.3, 0.1], "eps_param": "quartic"}
        cfg = quick_config(tmp_path, q=3.0, max_iters=3, continuation=cont)
        out = tmp_path / "early"
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(out))[0] == 2
        report = json.loads((out / "report.json").read_text())
        report["config"]["poly"]["b"] = [0.0, 0.0, 0.0]
        (out / "report.json").write_text(json.dumps(report))
        run(capsys, "verify", "--config", str(cfg), "--profile",
            str(out / "profile.csv"), "--out", str(tmp_path / "chk"))
        doc = json.loads((tmp_path / "chk" / "verification.json").read_text())
        assert (doc["stage"]["eps"], doc["stage"]["converged"]) == (0.3, False)

    @pytest.mark.filterwarnings("error")
    def test_header_only_profile_exits_one(self, solved, tmp_path, capsys):
        cfg, _ = solved
        p = tmp_path / "profile.csv"
        p.write_text("r,value\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg),
                           "--profile", str(p), "--out", str(tmp_path / "v"))
        assert code == 1
        assert err == "error: profile has 0 rows of 2 fields, grid needs 400 of 2\n"

    @pytest.mark.parametrize("moved, why", [
        (True, "no report.json"),               # the profile copied alone
        (False, "another config's report.json"),  # solved with another tol
    ])
    def test_profile_without_its_report_is_checked_at_the_last_stage(
            self, solved, tmp_path, capsys, moved, why):
        cfg, out = solved
        prof = out / "profile.csv"
        if moved:
            prof = tmp_path / "profile.csv"
            prof.write_bytes((out / "profile.csv").read_bytes())
        else:
            cfg = quick_config(tmp_path, tol_fixed_point=1e-9)
        code, _, _ = run(capsys, "verify", "--config", str(cfg), "--profile",
                         str(prof), "--out", str(tmp_path / "chk"))
        assert code == 0
        doc = json.loads((tmp_path / "chk" / "verification.json").read_text())
        assert doc["stage"]["converged"] is None
        assert why in doc["stage"]["note"]

    @pytest.mark.parametrize("key, value", [("result", {}), ("config", 7)])
    def test_malformed_report_next_to_the_profile(self, solved, tmp_path,
                                                  capsys, key, value):
        # a matching report without result.converged cannot say which stage
        # the profile holds; a report whose config is not an object is
        # another config's
        cfg, out = solved
        (tmp_path / "profile.csv").write_bytes((out / "profile.csv").read_bytes())
        doc = json.loads((out / "report.json").read_text())
        (tmp_path / "report.json").write_text(json.dumps({**doc, key: value}))
        code, _, err = run(capsys, "verify", "--config", str(cfg), "--profile",
                           str(tmp_path / "profile.csv"),
                           "--out", str(tmp_path / "chk"))
        if key == "result":
            assert code == 1
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: report.json")
        else:
            assert code == 0
            doc = json.loads((tmp_path / "chk" / "verification.json").read_text())
            assert "another config's report.json" in doc["stage"]["note"]

    def test_continuation_round_trip_passes(self, tmp_path, capsys):
        # solve with a vanishing-quartic continuation, then verify the stored
        # stage profile; the equation check must window out the noise that
        # the angular modes amplify near the origin
        d = {
            "q": 2.0,
            "poly": {"a": [1.0, 2.0, 2.0], "b": [0.0, 0.0, 0.0], "c": 1.0,
                     "eps_quartic": 0.0},
            "kernel_variant": "shifted",
            "grid": {"kind": "axisymmetric", "n_r": 96, "n_angle": 96,
                     "r_max": 40.0, "grading": 2.0},
            "damping": 1.0, "tol_fixed_point": 1e-10, "max_iters": 200,
            "seed": 0,
            "continuation": {"eps_sequence": [0.1, 0.03],
                             "eps_param": "quartic"},
        }
        cfg = tmp_path / "cont.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert run(capsys, "solve", "--config", str(cfg),
                   "--out", str(out))[0] == 0
        code, _, _ = run(capsys, "verify", "--config", str(cfg),
                         "--profile", str(out / "profile.csv"),
                         "--out", str(tmp_path / "chk"))
        assert code == 0
        doc = json.loads((tmp_path / "chk" / "verification.json").read_text())
        assert doc["checks"]["pde"]["status"] == "pass"
        assert doc["checks"]["integral"]["status"] == "pass"

    @pytest.mark.parametrize("n_r, power, why", [
        (400, 0.39, "first moment"),  # u^-5 ~ r^-3.9: the moment diverges
        (40, 0.5, "need 30"),         # 28 nodes in the last decade: no fit
    ])
    def test_undefined_shifted_constant_makes_pohozaev_not_applicable(
            self, tmp_path, capsys, n_r, power, why):
        # the shifted kernel's Pohozaev constant is the first moment of u^-q;
        # a truncated grid sum in its place gives a meaningless number
        cfg = quick_config(tmp_path, poly={"a": [0.0, 0.0, 0.0], "c": 1.0},
                           grid={"kind": "radial", "n_r": n_r,
                                 "r_max": 400.0, "grading": 2.0})
        g = RadialGrid.graded(n_r, 400.0)
        prof = tmp_path / "u.csv"
        save_profile_csv(Profile(grid=g, values=(1.0 + g.r**2) ** power), prof)
        run(capsys, "verify", "--config", str(cfg), "--profile", str(prof),
            "--out", str(tmp_path / "v"))
        doc = json.loads((tmp_path / "v" / "verification.json").read_text())
        poh = doc["checks"]["pohozaev"]
        assert poh["status"] == "not_applicable"
        assert why in poh["note"]
        if n_r == 400:
            # the unshifted kernel's mass beyond r_max diverges as well, so
            # the truncated integral identity grades nothing either
            integ = doc["checks"]["integral"]
            assert integ["status"] == "not_applicable"
            assert "r^-3.9" in integ["note"] and "diverges" in integ["note"]

    def test_axisym_grid_with_few_radii_verifies(self, tmp_path, capsys):
        # configs allow n_r >= 8; the equation check's window must not index
        # past the radii (it raised IndexError for n_r < 2 * stencil width),
        # and it ends before the last 4 radii, whose composed stencil reaches
        # a one-sided row
        cfg = quick_config(tmp_path, poly={"a": [1.0, 2.0, 2.0], "c": 1.0},
                           grid={"kind": "axisymmetric", "n_r": 9,
                                 "n_angle": 8, "r_max": 10.0,
                                 "grading": 2.0})
        assert run(capsys, "solve", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))[0] == 0
        code, _, _ = run(capsys, "verify", "--config", str(cfg),
                         "--profile", str(tmp_path / "o" / "profile.csv"),
                         "--out", str(tmp_path / "v"))
        assert code in (0, 3)
        doc = json.loads((tmp_path / "v" / "verification.json").read_text())
        assert doc["checks"]["pde"]["status"] in ("pass", "fail")
        r = RadialGrid.graded(9, 10.0).r
        assert doc["pde_window"][1] == pytest.approx(r[4])

    def test_truncated_profile_is_structural_error(self, solved, tmp_path,
                                                   capsys):
        cfg, out = solved
        lines = (out / "profile.csv").read_text().splitlines()
        p = tmp_path / "short.csv"
        p.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg),
                           "--profile", str(p), "--out", str(tmp_path / "v4"))
        assert code == 1

    @pytest.mark.parametrize("edit, why", [
        ("n_angle", "profile has 16 rows of 7 fields, grid needs 16 of 5"),
        ("r_max", "profile coordinates do not match the configured grid"),
        ("short_row", "unreadable profile row: the number of columns changed"),
        ("malformed", "unreadable profile row: could not convert string '1.5x'"),
        ("old_layout", "expected header r,t_1,...,t_4 (the grid's polar "
                       "cosines t > 0), got ('x1', 'rho', 'value')"),
    ], ids=["n_angle", "r_max", "short_row", "malformed", "old_layout"])
    def test_profile_for_another_grid_or_malformed_exits_one(
            self, tmp_path, capsys, edit, why):
        # the config's grid is (n_r 16, n_angle 8, r_max 10); the profile
        # is solved on another grid, loses a value, holds a malformed number,
        # or is in the x1,rho,value layout of earlier versions
        spec = {"kind": "axisymmetric", "n_r": 16, "n_angle": 8, "r_max": 10.0}
        cfg = quick_config(tmp_path, poly={"a": [1.0, 2.0, 2.0], "c": 1.0},
                           grid=spec)
        other = {"n_angle": {"n_angle": 12}, "r_max": {"r_max": 12.0}}.get(edit, {})
        g = GridSpec.from_dict({**spec, **other}).build()
        p = tmp_path / "profile.csv"
        save_profile_csv(Profile(grid=g, values=2.0 + g.x1**2 + g.rho), p)
        lines = p.read_text().splitlines(keepends=True)
        if edit == "short_row":
            lines[6] = lines[6].rsplit(",", 1)[0] + "\n"
        elif edit == "malformed":
            r, _, rest = lines[6].split(",", 2)
            lines[6] = f"{r},1.5x,{rest}"
        elif edit == "old_layout":
            lines = ["x1,rho,value\n"] + [
                f"{x!r},{y!r},{u!r}\n" for x, y, u in zip(
                    g.x1.ravel().tolist(), g.rho.ravel().tolist(),
                    (2.0 + g.x1**2 + g.rho).ravel().tolist())]
        p.write_text("".join(lines))
        code, _, err = run(capsys, "verify", "--config", str(cfg),
                           "--profile", str(p), "--out", str(tmp_path / "v"))
        assert code == 1
        assert err.startswith(f"error: {why}")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "v" / "verification.json").exists()


class TestShoot:
    def test_exact_start_summary(self, tmp_path, capsys):
        code, _, _ = run(capsys, "shoot", "--q", "7", "--exact-start",
                         "--r-end", "10", "--out", str(tmp_path / "sh"))
        assert code == 0
        doc = json.loads((tmp_path / "sh" / "summary.json").read_text())
        assert doc["outcome"] == "survived"
        assert doc["max_rel_deviation_from_closed_form"] < 1e-8
        assert (tmp_path / "sh" / "trajectory.csv").exists()

    def test_bisect_writes_threshold(self, tmp_path, capsys):
        code, _, _ = run(capsys, "shoot", "--q", "2", "--bisect",
                         "--r-end", "3e3", "--out", str(tmp_path / "bi"))
        assert code == 0
        doc = json.loads((tmp_path / "bi" / "summary.json").read_text())
        assert doc["w0_critical"] > 0.0
        assert doc["growth"]["exponent"] == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_bisect_trajectory_survives_at_q5(self, tmp_path, capsys):
        # the trajectory at w0_critical runs on the steps of the shot that
        # saw it survive (solve_ivp at the same w0 touched the floor)
        code, _, _ = run(capsys, "shoot", "--q", "5", "--u0", "1", "--r-end",
                         "1e4", "--bisect", "--out", str(tmp_path / "q5"))
        assert code == 0
        doc = json.loads((tmp_path / "q5" / "summary.json").read_text())
        assert doc["outcome"] == "survived"
        rows = (tmp_path / "q5" / "trajectory.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == 1e4

    def test_no_bracket_exits_four(self, tmp_path, capsys):
        code, _, err = run(capsys, "shoot", "--q", "5", "--u0", "100",
                           "--bisect", "--r-end", "50",
                           "--out", str(tmp_path / "nb"))
        assert code == 4
        assert "bracket" in err

    @pytest.mark.parametrize("argv", [
        ["--q", "3", "--u0", "-1", "--w0", "1"],
        ["--q", "3", "--u0", "-1", "--bisect"],
        ["--q", "3", "--w0", "1", "--r-end", "1e-5"],
        ["--q", "3", "--w0", "nan"],
        ["--q", "400", "--u0", "0.01", "--w0", "1", "--r-end", "10"],
    ])
    def test_bad_input_exits_one(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, "shoot", *argv,
                           "--out", str(tmp_path / "bad"))
        assert code == 1
        assert err.startswith("error: ")

    def test_infinite_r_end_prints_only_the_error(self, tmp_path):
        # r_end is checked before the sample radii are built, so numpy has
        # no invalid value to warn about
        env = {**os.environ, "PYTHONWARNINGS": "default",
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "biharm.cli", "shoot", "--q", "3", "--w0",
             "1", "--r-end", "inf", "--out", str(tmp_path / "inf")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: r_end ")

    @pytest.mark.parametrize("argv", [
        ["--q", "nan", "--bisect"],
        ["--q", "inf", "--bisect"],
        ["--q", "nan", "--w0", "1", "--r-end", "100"],
        ["--q", "inf", "--w0", "1", "--r-end", "100"],
    ])
    def test_nonfinite_q_exits_one_at_once(self, tmp_path, argv):
        # a march on a non-finite q never ends; run apart with a timeout, so
        # that a hang fails the test instead of stalling the suite
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "biharm.cli", "shoot", *argv,
             "--out", str(tmp_path / "q")],
            env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1
        assert proc.stderr == f"error: q must be finite, got {argv[1]}\n"
        assert not (tmp_path / "q" / "trajectory.csv").exists()

    def test_huge_q_exits_two_at_once(self, tmp_path):
        # u^(-1e15) overflows as soon as u dips below u0 = 1, so only steps
        # that keep u at 1.0 are accepted and the march would not end; the
        # step budget stops it.  Run apart with a timeout, so that a hang
        # fails the test instead of stalling the suite
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "biharm.cli", "shoot", "--q", "1e15",
             "--w0", "0", "--out", str(tmp_path / "q")],
            env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: integrator failed: no end of the shot "
                               f"in {shooting._MAX_ATTEMPTS} step attempts\n")
        assert not (tmp_path / "q" / "trajectory.csv").exists()

    @pytest.mark.parametrize("u0, w0", [("0.2", "1"), ("0.155", "-4.9")])
    def test_derivative_beyond_float_range_exits_two(self, tmp_path, capsys,
                                                     u0, w0):
        # u0^(-250) is finite, but the norm of the start's derivative that
        # picks the first step overflows (with w0 < 0, u^(-q) itself)
        code, _, err = run(capsys, "shoot", "--q", "250", "--u0", u0,
                           "--w0", w0, "--r-end", "100",
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == ("error: integrator failed: the derivative at the "
                       "start is beyond float range\n")

    def test_integrator_failure_exits_two(self, tmp_path, capsys):
        # u dives to the floor where u^(-50) is huge: the step size falls
        # below the float spacing
        code, _, err = run(capsys, "shoot", "--q", "50", "--w0", "-5",
                           "--r-end", "100", "--out", str(tmp_path / "fail"))
        assert code == 2
        assert err.startswith("error: integrator failed: ")


class TestSweep:
    def test_empty_grid_gives_header_only(self, tmp_path, capsys):
        base = json.loads(quick_config(tmp_path).read_text())
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": base, "grid": {"q": []}}))
        out = tmp_path / "sw0"
        code, _, _ = run(capsys, "sweep", "--config", str(sw),
                         "--out", str(out), "--threads", "1")
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines == [",".join(cli.SWEEP_COLUMNS)]

    @pytest.mark.parametrize("grid, kappa2", [
        ({"kind": "radial", "n_r": 200, "r_max": 30.0}, 1.0),
        ({"kind": "axisymmetric", "n_r": 96, "n_angle": 8, "r_max": 30.0}, 2.0),
    ], ids=["radial", "axisymmetric"])
    def test_eperp_exponent_only_on_axisymmetric_grids(self, tmp_path, capsys,
                                                       grid, kappa2):
        # the sweep fits a power law on each ray of the grid: e1 on both
        # kinds, and the perpendicular ray only where there is one
        base = json.loads(quick_config(tmp_path, grid=grid).read_text())
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": base,
                                  "grid": {"q": [5.0], "kappa2": [kappa2]}}))
        out = tmp_path / "sw"
        assert run(capsys, "sweep", "--config", str(sw), "--out", str(out),
                   "--threads", "1")[0] == 0
        with open(out / "sweep.csv") as f:
            (row,) = csv.DictReader(f)
        assert row["converged"] == "True" and not row["error"]
        assert float(row["exponent_e1"]) == pytest.approx(2.0, rel=0.05)
        if grid["kind"] == "radial":
            assert row["exponent_eperp"] == ""
        else:
            assert float(row["exponent_eperp"]) == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("over, message", [
        ({"seed": -5}, "seed must be a non-negative integer, got -5"),
        ({"damping": 2.0}, "damping must lie in (0, 1], got 2.0"),
    ], ids=["seed", "damping"])
    def test_negative_base_seed_exits_one(self, tmp_path, capsys, over,
                                          message):
        # every point's config starts from the base, so the sweep refuses
        # a base that breaks a rule once, before any point runs
        base = json.loads(quick_config(tmp_path, **over).read_text())
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": base, "grid": {"q": [4.0, 5.0]}}))
        out = tmp_path / "sw"
        code, _, err = run(capsys, "sweep", "--config", str(sw),
                           "--out", str(out), "--threads", "1")
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (out / "sweep.csv").exists()
        assert not list(out.glob("point_*"))

    @pytest.mark.parametrize("preset, axis", [("thm1", "eps"),
                                              ("thm2", "kappa1")])
    def test_an_axis_the_continuation_sets_is_refused(self, tmp_path, capsys,
                                                      preset, axis):
        # each stage sets this axis itself and the limit sets it to 0, so
        # the points of such an axis would all solve one problem
        base = cli.load_preset(preset)
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": base,
                                  "grid": {axis: [0.5, 1.0, 2.0]}}))
        out = tmp_path / "sw"
        code, _, err = run(capsys, "sweep", "--config", str(sw),
                           "--out", str(out), "--threads", "1")
        assert code == 1
        param = base["continuation"]["eps_param"]
        assert err == (f"error: sweep grid lists {axis!r}, which the base's "
                       f"{param!r} continuation sets at every stage\n")
        assert not (out / "sweep.csv").exists()
        assert not list(out.glob("point_*"))

    def test_an_axis1_continuation_holds_kappa1_at_its_limit(self, tmp_path,
                                                              capsys):
        base = cli.load_preset("thm2")
        base["grid"].update(n_r=64, n_angle=16)
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": base, "grid": {"q": [8.0]}}))
        out = tmp_path / "sw"
        assert run(capsys, "sweep", "--config", str(sw), "--out", str(out),
                   "--threads", "1")[0] == 0
        with open(out / "sweep.csv") as f:
            (row,) = csv.DictReader(f)
        assert row["converged"] == "True" and row["kappa1"] == "0.0"
        doc = json.loads((out / "point_0000" / "report.json").read_text())
        assert doc["config"]["poly"]["a"] == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("grid, poly, axes", [
        ({"kind": "axisymmetric", "n_r": 64, "n_angle": 8, "r_max": 20.0},
         {"a": [2.0, 3.0, 3.0]}, ("2.0", "3.0", "0.0")),
        (_SMALL_GRID, {"a": [1.0, 1.0, 1.0], "eps_quartic": 0.05},
         ("1.0", "1.0", "0.05")),
    ], ids=["curvatures", "eps"])
    def test_an_axis_the_grid_leaves_out_keeps_the_base_value(
            self, tmp_path, capsys, grid, poly, axes):
        base = _small_config(grid=grid, poly=poly)
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": base, "grid": {"q": [5.0]}}))
        out = tmp_path / "sw"
        assert run(capsys, "sweep", "--config", str(sw), "--out", str(out),
                   "--threads", "1")[0] == 0
        written = json.loads((out / "point_0000" / "config.json").read_text())
        assert written["poly"] == SolveConfig.from_dict(base).poly.to_dict()
        with open(out / "sweep.csv") as f:
            (row,) = csv.DictReader(f)
        assert (row["kappa1"], row["kappa2"], row["eps"]) == axes

    @pytest.mark.parametrize("grid, message", [
        ({"q": [math.nan, 5.0], "kappa2": [math.inf]},
         "error: sweep point q = nan, kappa1 = 1.0, kappa2 = inf, eps = 0.0: "
         "q must be finite, got nan; poly.a[1] must be finite, got inf; "
         "poly.a[2] must be finite, got inf"),
        ({"q": [5.0], "kappa1": [1.0, 2.0]},
         "error: sweep point q = 5.0, kappa1 = 2.0, kappa2 = 1.0, eps = 0.0: "
         "radial grid requires a radial polynomial (equal a_i)"),
        ({"q": [5.0], "kapa2": [3.0]},
         "error: sweep grid key 'kapa2' names no axis; the axes are q, "
         "kappa1, kappa2, eps"),
    ], ids=["nonfinite", "radial-kappa1", "unknown-key"])
    def test_a_point_that_breaks_a_rule_is_refused_before_any_point_runs(
            self, tmp_path, capsys, grid, message):
        # every point's config is made from the base before the first runs,
        # so one refused point leaves no point directory and no sweep.csv
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": _small_config(), "grid": grid}))
        out = tmp_path / "sw"
        code, _, err = run(capsys, "sweep", "--config", str(sw),
                           "--out", str(out), "--threads", "1")
        assert code == 1
        assert err == message + "\n"
        assert not (out / "sweep.csv").exists()
        assert not list(out.glob("point_*"))

    def test_failing_point_is_isolated(self, tmp_path, capsys):
        base = json.loads(quick_config(tmp_path).read_text())
        base["grid"] = {"kind": "radial", "n_r": 200, "r_max": 30.0,
                        "grading": 2.0}
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps(
            {"base": base, "grid": {"q": [1.0, 5.0, 6.0]}}))
        out = tmp_path / "sw1"
        code, _, _ = run(capsys, "sweep", "--config", str(sw),
                         "--out", str(out), "--threads", "1")
        assert code == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["q"]) for r in rows] == [1.0, 5.0, 6.0]
        assert rows[0]["converged"] == "False" and rows[0]["error"]
        assert rows[1]["converged"] == "True"
        assert rows[2]["converged"] == "True"
        assert float(rows[1]["exponent_e1"]) == pytest.approx(2.0, rel=0.05)

    def test_a_worker_pool_writes_what_one_process_writes(self, tmp_path,
                                                          capsys):
        # the points run in two worker processes write the same sweep.csv
        # and point files, byte for byte, as the points run in turn; the
        # q = 1 point fails the integrability gate and is written too
        base = json.loads(quick_config(
            tmp_path, grid={"kind": "radial", "n_r": 200, "r_max": 30.0}
        ).read_text())
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": base,
                                  "grid": {"q": [1.0, 5.0, 6.0]}}))
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert run(capsys, "sweep", "--config", str(sw), "--out", str(out),
                       "--threads", threads)[0] == 0
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        names = ("config.json", "profile.csv", "report.json", "trace.csv")
        assert sorted(map(str, trees[0])) == [
            f"point_{i:04d}/{n}" for i in range(3) for n in names] + ["sweep.csv"]
        assert trees[0] == trees[1]

    def test_a_continuation_runs_at_every_point(self, tmp_path, capsys):
        # thm1's quartic continuation at q = 2: the limit problem alone is
        # gated out (m q = 4), so the sweep must run each point's stages
        base = cli.load_preset("thm1")
        del base["command"]
        base["grid"].update(n_r=64, n_angle=16)
        sw = tmp_path / "sweep.json"
        sw.write_text(json.dumps({"base": base, "grid": {
            "q": [2.0], "kappa1": [1.0], "kappa2": [2.0]}}))
        out = tmp_path / "sw"
        assert run(capsys, "sweep", "--config", str(sw), "--out", str(out),
                   "--threads", "1")[0] == 0
        with open(out / "sweep.csv") as f:
            (row,) = csv.DictReader(f)
        assert row["converged"] == "True" and not row["error"]
        # the row's eps is the continuation's limit 0, and its exponents are
        # fits on v + P_limit, as the report's growth fits are (on v + P of
        # the last stage, with its 0.01 |x|^4, they read 3.54 and 3.31)
        assert row["eps"] == "0.0"
        for key in ("exponent_e1", "exponent_eperp"):
            assert float(row[key]) == pytest.approx(2.0, abs=0.05)
        point = out / "point_0000"
        doc = json.loads((point / "report.json").read_text())
        assert doc["continuation"]["converged"] == [True, True, True]
        assert doc["config"]["continuation"] == base["continuation"]
        # the point directory is a solve directory: verify reads its stage
        # from the report next to the profile (its pde check fails on this
        # coarse grid, so no exit code is asserted), and solve of the
        # point's config writes the same files
        run(capsys, "verify", "--config", str(point / "config.json"),
            "--profile", str(point / "profile.csv"), "--out", str(out / "v"))
        stage = json.loads((out / "v" / "verification.json").read_text())["stage"]
        assert stage == {"converged": True, "eps": 0.01, "note": ""}
        assert run(capsys, "solve", "--config", str(point / "config.json"),
                   "--out", str(out / "solve"))[0] == 0
        for name in ("config.json", "profile.csv", "report.json", "trace.csv"):
            assert filecmp.cmp(point / name, out / "solve" / name,
                               shallow=False), name
