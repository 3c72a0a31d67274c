"""Record reference.json (outputs the benchmark checks) and environment.json.

    python3 perfbench/record_reference.py

Runs one pass of every workload with seed 0 and stores, per operation: the
per-stage alpha and u_origin and the final alpha, u_origin and beta of each
solve, the check statuses of each verify, w0_critical of the bisection, and
the sweep's converged/error pattern with alpha and beta per point.  None of
these depends on the seed.  The references are recorded once, from the code
the benchmark was defined on; a change that alters them has changed results.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets OPENBLAS_NUM_THREADS before numpy is imported
from tracing import Patches
from workloads import SWEEP_BASE, WORKLOADS


def record(cli, workload, work: Path) -> dict:
    stages = {}
    orig = cli.continuation_eps_to_zero

    def capture(*args, **kwargs):
        result = orig(*args, **kwargs)
        stages["last"] = result
        return result

    ref = {}
    with Patches([(cli, "continuation_eps_to_zero", capture)]):
        for op in workload.ops(0, work):
            out = work / op.key
            stages.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(op.argv + ["--out", str(out)])
            if rc != 0:
                sys.exit(f"error: {op.key} exited with {rc}")
            if op.kind == "solve":
                doc = json.loads((out / "report.json").read_text())
                res = doc["result"]
                entry = {k: res[k] for k in ("alpha", "u_origin", "beta")}
                entry["tol_fixed_point"] = doc["config"]["tol_fixed_point"]
                if "last" in stages:
                    entry["stages"] = [
                        {"eps": eps, "alpha": r.alpha, "u_origin": u0}
                        for eps, r, u0 in zip(doc["continuation"]["eps_values"],
                                              stages["last"].reports,
                                              doc["continuation"]["u_origin"])]
            elif op.kind == "verify":
                doc = json.loads((out / "verification.json").read_text())
                entry = {"statuses": {k: v["status"]
                                      for k, v in doc["checks"].items()}}
            elif op.kind == "shoot":
                doc = json.loads((out / "summary.json").read_text())
                entry = {k: doc[k] for k in ("w0_critical", "outcome")}
            else:
                with open(out / "sweep.csv", newline="") as f:
                    rows = list(csv.DictReader(f))
                entry = {"tol_fixed_point": SWEEP_BASE["tol_fixed_point"],
                         "points": [
                             {"q": float(r["q"]),
                              "converged": r["converged"] == "True",
                              "error": r["error"],
                              "alpha": float(r["alpha"]) if r["alpha"] else None,
                              "beta": float(r["beta"]) if r["beta"] else None}
                             for r in rows]}
            ref[op.key] = entry
    return ref


def main() -> int:
    cli = run.import_package()
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=run.BENCH))
    try:
        reference = {}
        for name, w in WORKLOADS.items():
            (work / name).mkdir()
            reference[name] = record(cli, w, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    env = {**run.environment(),
           "limits": "2 vCPUs of a shared host whose speed drifts over "
                     "minutes; no hardware counters; no page-cache dropping; "
                     "wall times taken on a warm process after the import; "
                     "flop and byte counts computed from array sizes; no "
                     "bandwidth ratio, since every table fits in L3"}
    (run.BENCH / "environment.json").write_text(
        json.dumps(env, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
