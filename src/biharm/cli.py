"""Command-line interface.

Subcommands: solve (fixed-point iteration, optionally with continuation),
verify (residual battery on a stored profile, or the exact-q7 battery),
shoot (radial ODE integration and threshold bisection), sweep (cartesian
parameter grid in a worker pool, SweepConfig.points).  Each input, a config,
a preset or shoot's flags, is a frozen dataclass read by model._read_fields,
and _read_input alone reads a config's or preset's "command"; all of it is
read and checked before anything is written.

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
from dataclasses import dataclass, make_dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (ConfigError, ExactQ7Config, NonFiniteError, Profile,
                    QuadraticPolynomial, SolveConfig, _number, _read_fields,
                    check_seed, load_profile_csv, report_json,
                    save_profile_csv, validate_config)
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

# the "command" of each config or preset a subcommand reads: verify checks a
# solve config's profile or runs a verify preset's exact-q7 battery
_READS = {"solve": ("solve",), "verify": ("solve", "verify"),
          "shoot": ("shoot",), "sweep": ("solve",)}


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


def _read_input(d: dict, what: str, subcommand: str):
    """The input of subcommand in the config or preset d: d less its
    "command", read by the reader of the subcommand that key names ("solve"
    if none).  The one reader of "command": ConfigError "this <what> drives
    ..." for a command subcommand does not read (_READS)."""
    d = {**d}  # a TypeError for a sweep's base that is not an object
    command = d.pop("command", "solve")
    if command not in _READS[subcommand]:
        raise ConfigError(f"this {what} drives the {command!r} subcommand, "
                          f"not {subcommand}")
    reader = {"solve": SolveConfig, "verify": ExactQ7Config, "shoot": ShootSpec}
    return reader[command].from_dict(d)


def _read_given(args, subcommand: str):
    """The input of the --preset or --config that args name (_read_input)."""
    if args.preset:
        return _read_input(load_preset(args.preset), "preset", subcommand)
    if args.config:
        return _read_input(_read_json(args.config, "config"), "config", subcommand)
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
    cfg = _read_given(args, "solve")
    cfg = cfg if args.seed is None else replace(cfg, seed=args.seed)
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


def _write_verification(doc: dict, args) -> int:
    """Write doc to verification.json in the output directory of args, print
    its checks and grade them."""
    report_json(doc, _out_dir(args) / "verification.json")
    checks = doc["checks"]
    for k, v in checks.items():
        print(f"{k}: {v['status']}" + (f" ({v['value']:.3g})"
                                       if "value" in v else ""))
    failed = any(v["status"] == "fail" for v in checks.values())
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _run_exact_q7(cfg: ExactQ7Config, args) -> int:
    th, seed = vars(cfg.thresholds), args.seed or 0
    prof = verify.exact_q7_profile(cfg.grid.build())
    checks, integ, keys = _residual_checks(
        prof, 7.0, QuadraticPolynomial((0, 0, 0), c=0.0), seed, th)
    checks["gamma"] = _check(abs(integ.gamma), th["gamma"])
    return _write_verification({"mode": "exact-q7", "q": 7.0, "seed": seed,
                                "grid": cfg.grid.to_dict(), "checks": checks,
                                **keys}, args)


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
    if args.exact_q7 and not (args.preset or args.config):
        args.preset = "exact-q7"  # the flag alone runs the preset's battery
    cfg = _read_given(args, "verify")
    if isinstance(cfg, ExactQ7Config):  # like shoot's preset, it takes no other input
        if args.profile is not None:
            raise ConfigError("the exact-q7 battery builds its own profile, so "
                              "it takes no --profile")
        return _run_exact_q7(cfg, args)
    if args.exact_q7:
        raise ConfigError("--exact-q7 runs the closed-form battery, not a 'solve' config")
    cfg = cfg if args.seed is None else replace(cfg, seed=args.seed)
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
                                **keys}, args)


@dataclass(frozen=True)
class ShootSpec:
    """The input of shoot, its flags or a shoot preset's keys: a shot from
    (q, u0, w0) to r_end, the threshold search over w0 (bisect), or a shot
    from the q = 7 closed form's u0 and w0 (exact_start) to r <= 10."""

    q: float | None = None
    u0: float = 1.0
    w0: float | None = None
    r_end: float = 1e4
    bisect: bool = False
    exact_start: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "ShootSpec":
        """The spec of the inputs d (_read_fields), an exact start's with the
        q, u0, w0 and r_end it integrates; ConfigError for an input its mode
        does not read or lacks."""
        spec = _read_fields(cls, d, "shoot spec", q=_number, u0=_number,
                            w0=_number, r_end=_number)
        if spec.exact_start:
            if spec.bisect or "u0" in d or "w0" in d or spec.q not in (None, 7.0):
                raise ConfigError("--exact-start fixes q = 7, u0 and w0: it takes "
                                  "no --bisect, --u0 or --w0, and --q only as 7")
            return replace(spec, q=7.0, u0=15.0 ** -0.25, w0=3.0 * 15.0 ** 0.25,
                           r_end=min(spec.r_end, 10.0))
        if spec.bisect and "w0" in d:
            raise ConfigError("--bisect searches for w0, so it takes no --w0")
        if spec.bisect and (spec.q is None or spec.q <= 1.0):  # NaN: shooting names it
            raise ConfigError("bisect mode needs q > 1")
        if not spec.bisect and (spec.q is None or spec.w0 is None):
            raise ConfigError("single-shot mode needs --q and --w0")
        return spec


def cmd_shoot(args) -> int:
    given = {k: v for k, v in vars(args).items() if k in ShootSpec.__dataclass_fields__}
    if args.preset:  # the preset fixes every input
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ConfigError(f"--preset {args.preset} takes no other shoot "
                              f"flags, got {flags}")
        spec = _read_input(load_preset(args.preset), "preset", "shoot")
    else:
        spec = ShootSpec.from_dict(given)
    q, u0, r_end = spec.q, spec.u0, spec.r_end
    summary = {"q": q, "u0": u0, "r_end": r_end}
    try:
        if spec.bisect:
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
            traj = shooting.integrate_radial(q, u0, spec.w0, r_end)
            summary.update({"w0": spec.w0, "outcome": traj.outcome})
            if spec.exact_start:
                exact = verify.exact_q7_value(traj.r)
                dev = np.max(np.abs(traj.u - exact) / exact)
                summary["max_rel_deviation_from_closed_form"] = float(dev)
            else:
                summary["r_stop"] = traj.r_stop
    except ValueError as exc:  # shooting's check of q, u0, w0, r_end
        raise ConfigError(str(exc)) from exc

    out = _out_dir(args)  # only once the shots ran: a refused input writes nothing
    with open(out / "trajectory.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["r", "u", "du", "w", "dw"])
        for row in zip(traj.r, traj.u, traj.du, traj.w, traj.dw):
            w.writerow([repr(float(x)) for x in row])
    report_json(summary, out / "summary.json")
    print(json.dumps(summary, default=str)[:400])
    return EXIT_OK


# -- sweep -------------------------------------------------------------------


def _axis_values(values) -> tuple:
    """The values of a sweep axis: a non-empty JSON list of numbers."""
    if not (isinstance(values, list) and values):
        raise ValueError(f"{values!r} is not a list of one or more numbers")
    return tuple(map(_number, values))


# the axes of a sweep grid, q, kappa1 = a1, kappa2 = a2 = a3 and
# eps = eps_quartic, each its values or None where the grid leaves it out
SWEEP_AXES = ("q", "kappa1", "kappa2", "eps")
SweepGrid = make_dataclass("SweepGrid", [(axis, "tuple | None", None)
                                         for axis in SWEEP_AXES], frozen=True)
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


@dataclass(frozen=True)
class SweepConfig:
    """The input of sweep: a base solve config and the axis values its
    points replace (SweepGrid)."""

    base: SolveConfig
    grid: SweepGrid

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        """The sweep config of a JSON object (_read_fields), its base read
        as a solve config (_read_input)."""
        return _read_fields(
            cls, d, "sweep config",
            base=lambda base: _read_input(base, "config", "sweep"),
            grid=lambda grid: _read_fields(SweepGrid, grid, "sweep grid", **dict.fromkeys(
                SWEEP_AXES, _axis_values)))

    def points(self) -> list:
        """(axis values, config) of each point, sorted: the base config with
        the point's q, a = (kappa1, kappa2, kappa2) and eps_quartic = eps.
        An axis the grid leaves out holds the base's value: its q, and the
        a1, a2 and eps_quartic of its limit polynomial.  ConfigError for a
        point whose config breaks a rule, or for a grid listing the axis the
        base's continuation sets, which every point would hold at 0."""
        cfg, lim, cont = self.base, self.base.limit_poly, self.base.continuation
        held = cont and {"axis1": "kappa1", "quartic": "eps"}[cont.eps_param]
        if held and getattr(self.grid, held) is not None:
            raise ConfigError(f"sweep grid lists {held!r}, which the base's "
                              f"{cont.eps_param!r} continuation sets at every stage")
        axes = [getattr(self.grid, axis) or (value,) for axis, value in
                zip(SWEEP_AXES, (cfg.q, lim.a[0], lim.a[1], lim.eps_quartic))]
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
    sweep = SweepConfig.from_dict(_read_json(args.config, "sweep config"))
    # every point's config is made, and so checked, before any point runs
    points = sweep.points()
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
