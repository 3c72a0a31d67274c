"""The benchmark's workloads, the inputs it generates for them, and the
checks of their outputs against the recorded references.

Every workload is a list of CLI calls (`biharm.cli.main(argv)`, run in
process).  The workload seed goes to `solve --seed` and `verify --seed`,
where it drives the scrambled Halton draw of `integral_residual`, and into
the sweep's generated base config; `shoot` takes no seed, so its inputs are
the same for every seed.

The q = 3 threshold bisection (`shoot --preset thmA-iv`) is part of the
solve-verify-shoot pass, not a workload of its own: it is bound by the
Python interpreter, whose speed on 2 vCPUs of a shared Xeon host drifted by
up to 2x over minutes, and ten 33-second runs of it alone spread by 25%
(interquartile range over median), past the largest bound a metric may have.  Its shots stay visible in the traced run
(shooting.*), and thm2-continuation still runs no shooting code.

An operation is one CLI call or one sweep point.  It fails on a nonzero
exit, a non-converged stage, a failed verification check, an output off its
reference, or a report.json / verification.json / summary.json that differs
byte for byte from the same file of the run's first pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# A fixed point is accepted when the damped step is below
# tol_fixed_point * (1 + |v|_X).  The slowest stage here contracts by about
# 0.9 per step, so an accepted iterate lies within ~10 tol of the fixed point,
# and alpha, u_origin and beta move by at most q (~10) times that.  Another
# valid iteration (damping 0.7, or tol 1e-12) moved them by up to 1.5e-9
# relative on thm2; a stage stopped at 1e-6 moves them by ~1e-5.
FIXED_POINT_SLACK = 1e3

# The bisection resolves w0 to float precision; changing the shots' rtol
# between 1e-10 and 3e-9 moved w0_critical by 3e-12 relative, while one
# bisection step short of the end moves it by 2^-53 w0 and an integrator off
# by its own tolerance by ~rtol.  The reference tolerance is the shots' rtol.
SHOOT_RTOL = 1e-9

# The radial round-trip config of the README's CLI demo, swept over q.
SWEEP_BASE = {
    "q": 5.0,
    "poly": {"a": [1.0, 1.0, 1.0], "b": [0.0, 0.0, 0.0], "c": 1.0,
             "eps_quartic": 0.0},
    "kernel_variant": "shifted",
    "grid": {"kind": "radial", "n_r": 400, "r_max": 40.0, "grading": 2.0},
    "damping": 1.0,
    "tol_fixed_point": 1e-10,
    "max_iters": 200,
}
SWEEP_Q = [4.0, 5.0, 6.0]


@dataclass
class Op:
    key: str    # output subdirectory and reference entry
    kind: str   # solve | verify | shoot | sweep
    argv: list


@dataclass
class Workload:
    name: str
    why: str
    solve_presets: tuple  # presets solved in a pass, in order
    round_trip: bool      # verify each solve, then exact-q7, sweep and shoot

    def ops(self, seed: int, work: Path) -> list:
        s = str(seed)
        ops = []
        for preset in self.solve_presets:
            ops.append(Op(f"solve-{preset}", "solve",
                          ["solve", "--preset", preset, "--seed", s]))
            if self.round_trip:
                ops.append(Op(f"verify-{preset}", "verify",
                              ["verify", "--preset", preset, "--profile",
                               str(work / f"solve-{preset}" / "profile.csv"),
                               "--seed", s]))
        if not self.round_trip:
            return ops
        sweep_cfg = work / "sweep.json"
        sweep_cfg.write_text(json.dumps(
            {"base": {**SWEEP_BASE, "seed": seed}, "grid": {"q": SWEEP_Q}}))
        ops.append(Op("verify-exact-q7", "verify",
                      ["verify", "--exact-q7", "--seed", s]))
        ops.append(Op("sweep", "sweep",
                      ["sweep", "--config", str(sweep_cfg), "--threads", "1"]))
        ops.append(Op("shoot-thmA-iv", "shoot", ["shoot", "--preset", "thmA-iv"]))
        return ops

    def context_configs(self, seed: int) -> list:
        """Config dicts of the OperatorContexts one pass builds from scratch.

        Continuation stages after the first share the first stage's tables,
        so only the first stage counts.
        """
        from biharm.cli import load_preset
        from biharm.model import SolveConfig

        out = []
        for preset in self.solve_presets:
            d = {k: v for k, v in load_preset(preset).items() if k != "command"}
            cfg = SolveConfig.from_dict({**d, "seed": seed})
            if cfg.continuation is not None:
                cont = cfg.continuation
                cfg = cfg.replace_poly(cfg.poly.with_eps(cont.eps_param,
                                                         cont.eps_sequence[0]))
            out.append(cfg.to_dict())
        if self.round_trip:
            out += [{**SWEEP_BASE, "seed": seed, "q": q} for q in SWEEP_Q]
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "thm2-continuation",
        "solve --preset thm2: six-stage continuation, 420 damped-Picard "
        "operator applications on 256x128 (64 modes); shows both the cost per "
        "iteration and the iteration count",
        ("thm2",), round_trip=False),
    Workload(
        "solve-verify-shoot",
        "solve+verify thm1, thmA-iii; verify --exact-q7; serial q-sweep; "
        "shoot thmA-iv (56 DOP853 shots): table builds, CSV I/O, analysis, "
        "verify oracles and shooting dominate",
        ("thm1", "thmA-iii"), round_trip=True),
)}


def _close(value, ref, rtol) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= rtol * abs(ref))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Checks each operation's outputs; remembers the first pass's bytes."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first = {}  # artifact path -> digest from the first pass
        self.failed_checks = 0  # verification checks with status "fail"

    def _same_bytes(self, path: Path):
        if not path.is_file():
            return f"{path.name} missing"
        digest = _digest(path)
        if self.first.setdefault(str(path), digest) != digest:
            return f"{path.parent.name}/{path.name} differs from the first pass"
        return None

    def check(self, op: Op, rc: int, out: Path, stages) -> list:
        """[(operation label, failure reason or None)] for one CLI call."""
        ref = self.reference[op.key]
        if op.kind == "sweep":
            return self._check_sweep(op, rc, out, ref)
        if rc != 0:
            return [(op.key, f"exit {rc}")]
        try:
            if op.kind == "solve":
                reason = self._check_solve(out, ref, stages)
            elif op.kind == "verify":
                reason = self._check_verify(out, ref)
            else:
                reason = self._check_shoot(out, ref)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            reason = f"unreadable output: {exc!r}"
        return [(op.key, reason)]

    def _check_solve(self, out, ref, stages):
        doc = json.loads((out / "report.json").read_text())
        res = doc["result"]
        rtol = FIXED_POINT_SLACK * ref["tol_fixed_point"]
        if not res["converged"]:
            return f"not converged: {res.get('diverged_reason')}"
        cont = doc.get("continuation")
        if "stages" in ref:
            if cont is None or not all(cont["converged"]):
                return "a continuation stage did not converge"
            if stages is None or len(stages) != len(ref["stages"]):
                return "wrong number of continuation stages"
            for k, (st, u0, alpha) in enumerate(zip(ref["stages"],
                                                    cont["u_origin"], stages)):
                if not _close(u0, st["u_origin"], rtol):
                    return f"stage {k} u_origin {u0!r} != {st['u_origin']!r}"
                if not _close(alpha, st["alpha"], rtol):
                    return f"stage {k} alpha {alpha!r} != {st['alpha']!r}"
        for key in ("alpha", "u_origin", "beta"):
            if not _close(res[key], ref[key], rtol):
                return f"{key} {res[key]!r} != reference {ref[key]!r}"
        return self._same_bytes(out / "report.json")

    def _check_verify(self, out, ref):
        doc = json.loads((out / "verification.json").read_text())
        statuses = {k: v["status"] for k, v in doc["checks"].items()}
        self.failed_checks += sum(s == "fail" for s in statuses.values())
        if statuses != ref["statuses"]:
            return f"check statuses {statuses} != reference {ref['statuses']}"
        return self._same_bytes(out / "verification.json")

    def _check_shoot(self, out, ref):
        doc = json.loads((out / "summary.json").read_text())
        if doc["outcome"] != ref["outcome"]:
            return f"outcome {doc['outcome']!r} != {ref['outcome']!r}"
        if not _close(doc["w0_critical"], ref["w0_critical"], SHOOT_RTOL):
            return (f"w0_critical {doc['w0_critical']!r} != reference "
                    f"{ref['w0_critical']!r}")
        return self._same_bytes(out / "summary.json")

    def _check_sweep(self, op, rc, out, ref):
        points = ref["points"]
        labels = [f"{op.key}-point{i}" for i in range(len(points))]
        if rc != 0:
            return [(op.key, f"exit {rc}")] + [(l, "sweep failed")
                                                    for l in labels]
        try:
            with open(out / "sweep.csv", newline="") as f:
                rows = list(csv.DictReader(f))
        except OSError as exc:
            return [(op.key, f"no sweep.csv: {exc!r}")] + [(l, "no sweep.csv")
                                                           for l in labels]
        result = [(op.key, None if len(rows) == len(points)
                   else f"{len(rows)} sweep rows, expected {len(points)}")]
        rtol = FIXED_POINT_SLACK * ref["tol_fixed_point"]
        for i, (label, pt) in enumerate(zip(labels, points)):
            try:
                reason = self._sweep_point(out, i, rows, pt, rtol)
            except (OSError, KeyError, ValueError) as exc:
                reason = f"unreadable output: {exc!r}"
            result.append((label, reason))
        return result

    def _sweep_point(self, out, i, rows, pt, rtol):
        if i >= len(rows):
            return "missing row"
        row = rows[i]
        if float(row["q"]) != pt["q"]:
            return f"row q {row['q']} != {pt['q']}"
        if (row["converged"] == "True") != pt["converged"] or \
                row["error"] != pt["error"]:
            return (f"converged/error ({row['converged']}, {row['error']!r}) "
                    f"!= reference ({pt['converged']}, {pt['error']!r})")
        if pt["converged"]:
            for key in ("alpha", "beta"):
                if not _close(float(row[key]), pt[key], rtol):
                    return f"{key} {row[key]} != reference {pt[key]!r}"
        return self._same_bytes(out / f"point_{i:04d}" / "report.json")
