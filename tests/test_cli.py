"""End-to-end checks of the command-line contract: exit codes, file
outputs, determinism, and preset handling, all run in-process."""

import csv
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biharm import cli, verify
from biharm.kernels import ModeConvolution
from biharm.model import (Profile, RadialGrid, SolveConfig, load_profile_csv,
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

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = quick_config(tmp_path)
        out = tmp_path / "s"
        code, _, _ = run(capsys, "solve", "--config", str(cfg),
                         "--out", str(out), "--seed", "42")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["config"]["seed"] == 42

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

    def test_preset_for_wrong_subcommand(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--preset", "exact-q7",
                           "--out", str(tmp_path / "g"))
        assert code == 1
        assert "verify" in err


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

    @pytest.mark.filterwarnings("error")
    def test_header_only_profile_exits_one(self, solved, tmp_path, capsys):
        cfg, _ = solved
        p = tmp_path / "profile.csv"
        p.write_text("r,value\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg),
                           "--profile", str(p), "--out", str(tmp_path / "v"))
        assert code == 1
        assert err == "error: profile has 0 rows, grid has 400 nodes\n"

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
