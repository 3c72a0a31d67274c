"""Command-line interface.

Subcommands: solve (fixed-point iteration, optionally with continuation),
verify (residual battery on a stored profile), shoot (radial ODE integration
and threshold bisection), sweep (cartesian parameter grid in a worker pool:
each point is the base config with the axes its grid lists replaced, q,
kappa1 = a1, kappa2 = a2 = a3 and eps = eps_quartic; an axis it leaves out
keeps the base's q or the value in its limit polynomial, so the axis a
continuation sets stays at its limit 0.  Every point's config is made and
checked before any runs; each point's directory holds solve's four files).

Exit codes: 0 success / all checks pass; 1 structural error (usage, bad
config, a sweep point's included, or shooting input, I/O, shape mismatch);
2 solve finished Diverged, or a shot's integrator failed; 3 verification
check failed; 4 shooting bracket not found.
Reports are JSON with floats fixed to 12 significant digits and sorted keys,
so identical config and seed give byte-identical output.  The default output
directory is $BIHARM_OUT or ./biharm_out.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (ConfigError, ExactQ7Thresholds, GridSpec, NonFiniteError,
                    Profile, QuadraticPolynomial, SolveConfig, _number,
                    check_seed, load_profile_csv, refuse_unknown_keys,
                    report_json, save_profile_csv, validate_config)
from .operator import continuation_eps_to_zero
from .operator import solve_fixed_point  # noqa: F401  (perfbench/tracing.py patches this name)
from . import analysis, shooting, verify

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CHECK_FAILED = 3
EXIT_NO_BRACKET = 4

PRESETS = ("thm1", "thm2", "thmA-iii", "thmA-iv", "exact-q7")

DEFAULT_THRESHOLDS = {"pde": 1e-2, "integral": 1e-2, "pohozaev": 1e-2}

# the defaults of the shoot inputs, for the flags not given and the keys a
# shoot preset leaves out
SHOOT_DEFAULTS = {"q": None, "u0": 1.0, "w0": None, "r_end": 1e4,
                  "bisect": False, "exact_start": False}


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("BIHARM_OUT") or "biharm_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def load_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    ref = resources.files("biharm").joinpath(f"presets/{name}.json")
    return json.loads(ref.read_text())


def _read_json(path, what: str) -> dict:
    """The JSON object at path; ConfigError names `what` when it is malformed
    or its top level is not an object."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} is not a JSON object")
    return doc


def _load_config_dict(args) -> dict:
    if getattr(args, "preset", None):
        return load_preset(args.preset)
    if getattr(args, "config", None):
        return _read_json(args.config, "config")
    raise ConfigError("need --config PATH or --preset NAME")


def _write_trace(path: Path, report) -> None:
    """One row per iterate, the start value being iter 0: its residual
    |T(v) - v|_X and the slope alpha of its density."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iter", "diff_xnorm", "alpha_estimate"])
        for i, (d, a) in enumerate(zip(report.diff_history,
                                       report.alpha_history)):
            w.writerow([i, repr(float(d)), repr(float(a))])


def _enrich_report(report, u: Profile, u_limit: Profile, limit_poly, q: float):
    """Attach growth fits, beta, and the decomposition to a converged report.

    u = v + P is the profile with the polynomial its stage solved, which
    beta reads.  The growth fits and the decomposition read u_limit = v + P
    with P the continuation limit limit_poly (the object the limit
    statements are about), which is u itself without continuation.
    """
    g = u.grid

    def ray_model(t: float) -> str:
        # growth along a ray: quartic term dominates everywhere, otherwise
        # the quadratic coefficient in that direction, otherwise the
        # iterate's own linear growth
        if limit_poly.eps_quartic > 0.0:
            return "power"
        return "quadratic" if limit_poly.angular_factor(t) > 0.0 else "linear"

    fits = []
    try:
        for t, direction in g.rays((1.0, 0.0)):
            r, vals = analysis.ray_values(u_limit, t)
            fits.append(analysis.fit_growth(r, vals, ray_model(t),
                                            direction=direction).to_dict())
    except analysis.InsufficientTailError as exc:
        report.beta_note = f"growth fits skipped: {exc}"
    report.growth_fits = fits

    try:
        beta, note = analysis.compute_beta(u, q)
    except (analysis.NotIntegrableError,
            analysis.InsufficientTailError) as exc:
        beta, note = None, str(exc)
    report.beta = beta
    # after the reason the growth fits were skipped, if they were, unless
    # beta failed for that same reason
    if note not in report.beta_note:
        report.beta_note = "; ".join(filter(None, (report.beta_note, note)))
    # the decomposition basis is quadratic, so for continuation runs it
    # applies to the limit object v + P_limit, not the quartic stage
    try:
        report.decomposition = analysis.decompose(u_limit, q)
    except (analysis.NotIntegrableError, analysis.InsufficientTailError,
            NonFiniteError) as exc:
        report.decomposition = {"error": str(exc)}


def _solve_config(d: dict, command: str, seed: int | None) -> SolveConfig:
    """The solve config of the dict d (solve's, verify's or a sweep's base),
    read by `command`, with its seed replaced by the --seed flag's if given;
    ConfigError when d drives another subcommand or is malformed, and
    SolveConfig's own when it breaks a rule (a radial grid needs radial P)."""
    if d.get("command", "solve") != "solve":
        raise ConfigError(f"this preset drives the {d.get('command')!r} "
                          f"subcommand, not {command}")
    cfg = SolveConfig.from_dict({k: v for k, v in d.items() if k != "command"})
    return cfg if seed is None else replace(cfg, seed=seed)


def _solve_into(cfg: SolveConfig, out: Path) -> tuple:
    """Solve cfg, through its continuation when it has one, and write the
    run to the directory out: profile.csv (u = v + P of the last stage
    attempted), trace.csv, report.json and config.json.  Returns the report,
    with fits, beta and decomposition when it converged, and v + P_limit,
    the profile its growth fits read (u itself without continuation)."""
    cont = continuation_eps_to_zero(cfg)
    prof, report = cont.final_profile, cont.final_report
    stage_cfg = cfg.stages()[len(cont.reports) - 1]  # the last stage attempted
    g = prof.grid
    u = Profile(grid=g, values=prof.values + g.poly_values(stage_cfg.poly))
    limit_poly = cfg.limit_poly
    u_limit = u if limit_poly == stage_cfg.poly else Profile(
        grid=g, values=prof.values + g.poly_values(limit_poly))
    if report.converged:
        _enrich_report(report, u, u_limit, limit_poly, cfg.q)
    extra = {}
    if cfg.continuation is not None:
        extra["continuation"] = {
            "eps_values": list(cont.eps_values),
            "converged": [r.converged for r in cont.reports],
            "iters": [r.iters for r in cont.reports],
            "u_origin": [r.u_origin for r in cont.reports],
            "cauchy_sup_r10": list(cont.cauchy),
        }

    warnings = validate_config(cfg).warnings
    if report.density_tail is not None:  # only an axisymmetric grid has a tail
        warnings.append(
            f"n_angle = {g.n_angle} does not resolve the last stage's density: "
            f"its Legendre modes reach no roundoff plateau (max_r |g_l| / "
            f"max_r |g_0| = {report.density_tail:.1e} at l = {g.l_values[-1]}); "
            f"the results are those of this grid")
    out.mkdir(parents=True, exist_ok=True)
    save_profile_csv(u, out / "profile.csv")
    _write_trace(out / "trace.csv", report)
    doc = {"config": cfg.to_dict(), "result": report.to_dict(), **extra,
           "warnings": warnings}
    report_json(doc, out / "report.json")
    cfg.to_json(out / "config.json")
    return report, u_limit


def cmd_solve(args) -> int:
    cfg = _solve_config(_load_config_dict(args), "solve", args.seed)
    out = _out_dir(args)
    report, _ = _solve_into(cfg, out)
    if not report.converged:
        print(f"diverged: {report.diverged_reason}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"converged in {report.iters} iterations; report in {out}")
    return EXIT_OK


def _check(value, threshold, note=""):
    if value is None:
        return {"status": "not_applicable", "note": note}
    status = "pass" if value < threshold else "fail"
    return {"value": float(value), "threshold": threshold, "status": status,
            "note": note}


def _residual_checks(prof: Profile, q: float, poly, seed: int, th: dict):
    """The pde and integral checks of a profile of u, its integral residual,
    and the verification.json keys both verify modes write from them."""
    pde = verify.pde_residual(prof, q, eps_quartic=poly.eps_quartic)
    integ = verify.integral_residual(prof, q, poly, seed=seed)
    integral = _check(integ.max_rel, th["integral"])
    if integ.tail_diverges:  # a truncated, divergent tail grades nothing
        integral = _check(None, th["integral"], f"NotApplicable: {integ.note}")
    checks = {"pde": _check(pde.max_rel, th["pde"]), "integral": integral}
    return checks, integ, {"gamma": integ.gamma, "pde_window": list(pde.window)}


def _write_verification(doc: dict, out: Path) -> int:
    """Write doc to verification.json, print its checks and grade them."""
    report_json(doc, out / "verification.json")
    checks = doc["checks"]
    for k, v in checks.items():
        print(f"{k}: {v['status']}" + (f" ({v['value']:.3g})"
                                       if "value" in v else ""))
    failed = any(v["status"] == "fail" for v in checks.values())
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _run_exact_q7(d: dict, out: Path, seed: int) -> int:
    refuse_unknown_keys(d, "exact-q7 config", ["command", "mode", "grid", "thresholds"])
    th = vars(ExactQ7Thresholds.from_dict(d.get("thresholds", {})))
    gspec = GridSpec.from_dict(d.get("grid", {}))
    prof = verify.exact_q7_profile(gspec.build())
    checks, integ, keys = _residual_checks(
        prof, 7.0, QuadraticPolynomial((0, 0, 0), c=0.0), seed, th)
    checks["gamma"] = _check(abs(integ.gamma), th["gamma"])
    return _write_verification({"mode": "exact-q7", "q": 7.0, "seed": seed,
                                "grid": gspec.to_dict(), "checks": checks,
                                **keys}, out)


def _profile_stage(cfg: SolveConfig, profile_path) -> tuple:
    """(stage config, stage record) of the stage a stored profile holds.

    A continuation that stops early stores v + P of the stage it stopped at;
    the report.json that solve wrote next to the profile says which one.
    Without such a report (or with one for another config) the profile is
    taken to be the last stage's.
    """
    stages = cfg.stages()
    eps = list(cfg.continuation.eps_sequence) if cfg.continuation else [None]
    path = Path(profile_path).with_name("report.json")
    doc = _read_json(path, "report.json") if path.is_file() else None
    written = None if doc is None else doc.get("config")

    def unseeded(c):  # the config as report.json writes it, less its seed
        return report_json(replace(c, seed=0).to_dict())

    try:  # read as a config: a report written before P lost b names b = 0
        same = unseeded(SolveConfig.from_dict(written)) == unseeded(cfg)
    except ConfigError:
        same = False
    if not same:
        why = "no" if doc is None else "another config's"
        return stages[-1], {
            "eps": eps[-1], "converged": None,
            "note": f"{why} report.json next to the profile: checked against "
                    f"the last stage"}
    try:
        converged = bool(doc["result"]["converged"])
        k = len(doc["continuation"]["converged"]) - 1 if cfg.continuation else 0
        stage_cfg = stages[k]
    except (KeyError, TypeError, IndexError) as exc:
        raise ConfigError(
            "report.json next to the profile matches the config but lacks "
            "result.converged or continuation.converged") from exc
    note = "" if converged else (
        "this stage did not converge: the profile is its last iterate, "
        "not a solution")
    return stage_cfg, {"eps": eps[k], "converged": converged, "note": note}


def cmd_verify(args) -> int:
    out = _out_dir(args)
    d = (load_preset("exact-q7") if args.exact_q7 and not (args.preset or args.config)
         else _load_config_dict(args))
    command = d.get("command", "solve")
    if command == "verify":
        return _run_exact_q7(d, out, args.seed or 0)
    if args.exact_q7:
        raise ConfigError(f"--exact-q7 runs the closed-form battery, not a {command!r} config")
    cfg = _solve_config(d, "verify", args.seed)
    if args.profile is None:
        raise ConfigError("verify needs --profile PATH (the profile.csv that solve "
                          "wrote for this config)")
    stage_cfg, stage = _profile_stage(cfg, args.profile)
    grid = stage_cfg.grid.build()
    prof = load_profile_csv(args.profile, grid)  # ConfigError on mismatch
    u = prof.values
    if not np.all((u > 0.0) & (u < np.inf)):  # NaN fails both
        raise ConfigError("stored profile is not finite and strictly positive")
    poly = stage_cfg.poly
    residual_checks, integ, keys = _residual_checks(prof, cfg.q, poly, cfg.seed,
                                                    DEFAULT_THRESHOLDS)

    po_value, po_note = None, ""
    if cfg.q <= 4.0:
        po_note = f"NotApplicable: q = {cfg.q:g} (identity checked for q > 4)"
    else:
        try:
            gamma_offset = 0.0
            if cfg.kernel_variant == "shifted":
                # shifted-kernel solutions carry -(1/8 pi) int |y| u^-q dy
                gamma_offset = -analysis.first_moment(
                    grid, grid.mode0(u ** (-cfg.q)))
        except (analysis.NotIntegrableError,
                analysis.InsufficientTailError) as exc:
            po_note = f"NotApplicable: shifted-kernel constant undefined: {exc}"
        else:
            po = verify.pohozaev_residual(prof, cfg.q, poly,
                                          gamma_offset=gamma_offset)
            po_value, po_note = po.residual, po.note

    checks = {
        "positivity": {"status": "pass", "note": "u > 0 on all nodes"},
        **residual_checks,
        "pohozaev": _check(po_value, DEFAULT_THRESHOLDS["pohozaev"], po_note),
    }
    return _write_verification({"config": cfg.to_dict(), "checks": checks,
                                "stage": stage, "integral_note": integ.note,
                                **keys}, out)


def cmd_shoot(args) -> int:
    given = {k: v for k, v in vars(args).items() if k in SHOOT_DEFAULTS}
    if args.preset:  # the preset fixes every input
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ConfigError(f"--preset {args.preset} takes no other shoot "
                              f"flags, got {flags}")
        d = load_preset(args.preset)
        if d.get("command") != "shoot":
            raise ConfigError(f"preset {args.preset!r} does not drive shoot")
    else:
        d = given
    d = {**SHOOT_DEFAULTS, **d}
    out = _out_dir(args)
    q, u0, w0, r_end = d["q"], d["u0"], d["w0"], d["r_end"]

    summary = {"q": q, "u0": u0, "r_end": r_end}
    try:
        if d["exact_start"]:
            u0 = 15.0 ** -0.25
            w0 = 3.0 * 15.0 ** 0.25
            traj = shooting.integrate_radial(7.0, u0, w0, min(r_end, 10.0))
            dev = np.max(np.abs(traj.u - verify.exact_q7_value(traj.r))
                         / verify.exact_q7_value(traj.r))
            summary.update({"q": 7.0, "u0": u0, "w0": w0,
                            "max_rel_deviation_from_closed_form": float(dev),
                            "outcome": traj.outcome})
        elif d["bisect"]:
            if q is None or q <= 1.0:
                raise ConfigError("bisect mode needs q > 1")
            res = shooting.bisect_growth_threshold(q, u0, r_end)
            traj = res.trajectory
            diag = shooting.threshold_growth_diagnostics(traj, q)
            summary.update({
                "w0_critical": res.w_crit,
                "bracket": list(res.bracket),
                "outcome": traj.outcome,
                "growth": {k: diag[k] for k in
                           ("model", "target_exponent", "coeff", "exponent",
                            "r_plateau")},
                "n_shots": len(res.history),
            })
            if 1.0 < q < 3.0:
                summary["growth"]["universal_coeff"] = shooting.universal_coefficient(q)
        else:
            if q is None or w0 is None:
                raise ConfigError("single-shot mode needs --q and --w0")
            traj = shooting.integrate_radial(q, u0, w0, r_end)
            summary.update({"w0": w0, "outcome": traj.outcome,
                            "r_stop": traj.r_stop})
    except ValueError as exc:  # shooting's check of q, u0, w0, r_end
        raise ConfigError(str(exc)) from exc

    with open(out / "trajectory.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["r", "u", "du", "w", "dw"])
        for row in zip(traj.r, traj.u, traj.du, traj.w, traj.dw):
            w.writerow([repr(float(x)) for x in row])
    report_json(summary, out / "summary.json")
    print(json.dumps(summary, default=str)[:400])
    return EXIT_OK


# -- sweep -------------------------------------------------------------------


SWEEP_AXES = ("q", "kappa1", "kappa2", "eps")
SWEEP_COLUMNS = [*SWEEP_AXES, "converged", "iters", "beta", "alpha",
                 "exponent_e1", "exponent_eperp", "error"]


def _sweep_point(payload):
    """Solve one sweep point's config into its directory, as solve would;
    returns its sweep.csv row, its exponents fitted on v + P_limit."""
    cfg, point, point_dir = payload
    row = {**dict.fromkeys(SWEEP_COLUMNS, ""), **dict(zip(SWEEP_AXES, point)),
           "converged": False, "iters": 0}
    try:
        report, u = _solve_into(cfg, Path(point_dir))
        row.update(converged=report.converged, iters=report.iters)
        if report.converged:
            row["alpha"] = report.alpha
            row["beta"] = "" if report.beta is None else report.beta
            # a radial grid has one ray, so no exponent_eperp
            for key, (t, _) in zip(("exponent_e1", "exponent_eperp"),
                                   u.grid.rays((1.0, 0.0))):
                r, vals = analysis.ray_values(u, t)
                row[key] = analysis.fit_growth(r, vals, "power").params["exponent"]
        else:
            row["error"] = report.diverged_reason or ""
    except Exception as exc:  # per-point isolation: record, never abort
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _sweep_points(grid: dict, cfg: SolveConfig) -> list:
    """(axis values, config) of each point of a sweep grid, sorted: the base
    config cfg with the point's q, a = (kappa1, kappa2, kappa2) and
    eps_quartic = eps.  An axis the grid leaves out holds cfg's value: its
    q, and the a1, a2 and eps_quartic of its limit polynomial.  ConfigError
    for a key that names no axis or a point whose config breaks a rule."""
    unknown = [key for key in grid if key not in SWEEP_AXES]
    if unknown:
        raise ConfigError(f"sweep grid key {unknown[0]!r} names no axis; the "
                          f"axes are {', '.join(SWEEP_AXES)}")
    lim, axes = cfg.limit_poly, []
    for key, value in zip(SWEEP_AXES, (cfg.q, lim.a[0], lim.a[1], lim.eps_quartic)):
        values = grid.get(key, [value])
        try:
            if not isinstance(values, list):
                raise TypeError
            axes.append([_number(x) for x in values])
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"sweep grid {key!r} is not a list of numbers") from None
    points = []
    for q, k1, k2, eps in sorted(itertools.product(*axes)):
        poly = replace(cfg.poly, a=(k1, k2, k2), eps_quartic=eps)
        try:
            points.append(((q, k1, k2, eps), replace(cfg, q=q, poly=poly)))
        except ConfigError as exc:
            raise ConfigError(f"sweep point q = {q}, kappa1 = {k1}, kappa2 = "
                              f"{k2}, eps = {eps}: {exc}") from None
    return points


def cmd_sweep(args) -> int:
    sw = _read_json(args.config, "sweep config")
    refuse_unknown_keys(sw, "sweep config", ["base", "grid"])
    base, grid = sw.get("base"), sw.get("grid")
    if not (isinstance(base, dict) and isinstance(grid, dict)):
        raise ConfigError("sweep config needs objects 'base' and 'grid'")
    cfg = _solve_config(base, "sweep", None)
    # a base's continuation sets one axis at every stage and ends with it
    # at 0, so every point of a grid listing that axis would solve one problem
    cont = cfg.continuation
    held = cont and {"axis1": "kappa1", "quartic": "eps"}[cont.eps_param]
    if held in grid:
        raise ConfigError(f"sweep grid lists {held!r}, which the base's "
                          f"{cont.eps_param!r} continuation sets at every stage")
    # every point's config is made, and so checked, before any point runs
    points = _sweep_points(grid, cfg)
    out = _out_dir(args)
    payloads = [(point_cfg, values, str(out / f"point_{i:04d}"))
                for i, (values, point_cfg) in enumerate(points)]
    threads = args.threads or min(4, os.cpu_count() or 1)
    if threads > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~12 ms to import

        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    # deterministic ordering by parameter tuple (points were pre-sorted)
    with open(out / "sweep.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
        w.writeheader()
        w.writerows(rows)
    n_ok = sum(1 for r in rows if r["converged"])
    print(f"{len(rows)} points, {n_ok} converged; results in {out}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser with usage errors exiting EXIT_CONFIG, not 2 (the
    code of a diverged solve); subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="biharm",
        description="Entire solutions of a fourth-order equation with an "
                    "inverse-power nonlinearity, by integral fixed point")
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("solve", help="run the fixed-point solver")
    ps.add_argument("--config", help="solve config JSON")
    ps.add_argument("--preset", help=f"built-in preset: {', '.join(PRESETS)}")
    ps.add_argument("--out", help="output directory (default $BIHARM_OUT)")
    ps.add_argument("--seed", type=int, default=None)
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="residual checks on a stored profile")
    pv.add_argument("--config", help="the config the profile was solved with")
    pv.add_argument("--preset", help="verification preset (exact-q7)")
    pv.add_argument("--profile", help="profile.csv written by solve for this "
                    "config: one row per radius of r and u at each t > 0")
    pv.add_argument("--exact-q7", action="store_true",
                    help="run the closed-form battery (same as --preset exact-q7)")
    pv.add_argument("--out", help="output directory")
    pv.add_argument("--seed", type=int, default=None)
    pv.set_defaults(func=cmd_verify)

    ph = sub.add_parser("shoot", help="radial ODE integration / bisection",
                        argument_default=argparse.SUPPRESS)  # flags not given
    ph.add_argument("--q", type=float)
    ph.add_argument("--u0", type=float)
    ph.add_argument("--w0", type=float)
    ph.add_argument("--r-end", type=float)
    ph.add_argument("--bisect", action="store_true")
    ph.add_argument("--exact-start", action="store_true",
                    help="start from the closed-form q=7 origin data")
    ph.add_argument("--preset", default=None, help="shoot preset (thmA-iv)")
    ph.add_argument("--out", default=None, help="output directory")
    ph.set_defaults(func=cmd_shoot)

    pw = sub.add_parser("sweep", help="cartesian parameter sweep")
    pw.add_argument("--config", required=True, help="sweep config JSON")
    pw.add_argument("--out", help="output directory")
    pw.add_argument("--threads", type=int, default=None)
    pw.set_defaults(func=cmd_sweep)
    return p


# the exit code of each error a subcommand may raise, first match wins
ERROR_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    shooting.BracketNotFoundError: EXIT_NO_BRACKET,
    shooting.IntegrationError: EXIT_DIVERGED,
    OSError: EXIT_CONFIG,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # solve's or verify's
            check_seed(args.seed)
        return args.func(args)
    except tuple(ERROR_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
