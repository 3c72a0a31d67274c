"""biharm benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (see workloads.py): thm2-continuation, solve-verify-shoot.  Each
drives `biharm.cli.main(argv)` in this process on the package in ../src,
single-threaded (OPENBLAS_NUM_THREADS=1 is set before numpy is imported),
with outputs in a scratch directory under perfbench/ that is removed at exit.

A run does one warm-up pass, then whole passes while the next one still fits
in --seconds.  Every pass, warm-up included, is checked against
reference.json; the last stdout line is the JSON result.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one pass (warm process, after import)
  setup_s      median over fresh interpreters of a cold `import biharm.cli`
               plus OperatorContext(cfg) for each context a pass builds
  peak_rss_mb  peak resident memory of this process
  ok_frac      operations that passed / operations attempted (1 - fail_frac)
--trace 1 alternates untraced and traced passes and reports per-layer
counts and times of one pass (times are medians over the traced passes),
plus the tracing overhead; spans go to perfbench/out/.

Limits: no hardware counters and no page-cache dropping are used, and the
reference machine (2 vCPUs of a shared Xeon host) varies in speed over
minutes.  Flop and byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before anything imports numpy

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PASSES = 4
SETUP_REPEATS = 3

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, Checker  # noqa: E402
import tracing  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    def cache(index):
        p = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return p.read_text().strip() if p.is_file() else "unknown"

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "l2_per_core": cache(2), "l3": cache(3)}


def import_package():
    if not (SRC / "biharm" / "cli.py").is_file():
        sys.exit(f"error: no biharm package at {SRC}; run from a checkout "
                 f"of the repository")
    sys.path.insert(0, str(SRC))
    import biharm.cli
    if Path(biharm.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported biharm from {biharm.cli.__file__}, "
                 f"not from {SRC}")
    return biharm.cli


def measure_setup(workload, seed: int) -> float:
    """Median over fresh interpreters of import plus context set-up."""
    configs = json.dumps(workload.context_configs(seed))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    totals = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), configs],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append(probe["import_s"] + sum(probe["context_s"]))
    return statistics.median(totals)


class Runner:
    """Runs passes of one workload and keeps the operation tally."""

    def __init__(self, cli, workload, seed, work: Path, reference):
        self.cli = cli
        self.ops = workload.ops(seed, work)
        self.work = work
        self.checker = Checker(reference)
        self.attempted = 0
        self.failures = []  # (pass, operation, reason)
        self.passes = 0
        self._stages = None
        orig = cli.__dict__["continuation_eps_to_zero"]

        def capture(*args, **kwargs):
            # per-stage alpha is in no output file; keep the stage reports
            result = orig(*args, **kwargs)
            self._stages = [r.alpha for r in result.reports]
            return result

        # stays in place for the whole run: one extra call per solve
        self.capture = tracing.Patches([(cli, "continuation_eps_to_zero", capture)])

    def run_pass(self, tracer=None) -> float:
        """One pass; returns the summed wall time of its CLI calls."""
        elapsed = 0.0
        for i, op in enumerate(self.ops):
            out = self.work / op.key
            argv = op.argv + ["--out", str(out)]
            self._stages = None
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                if tracer is not None:
                    tracer.op = self.passes * len(self.ops) + i
                    tracer.begin("cli.main", {"argv": " ".join(argv[:3])})
                try:
                    rc = self.cli.main(argv)
                except Exception as exc:  # a crash fails the operation, not the run
                    rc = f"{type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.end()
                elapsed += time.perf_counter() - t0
            for label, reason in self.checker.check(op, rc, out, self._stages):
                self.attempted += 1
                if reason is not None:
                    self.failures.append((self.passes, label, reason))
        self.passes += 1
        return elapsed

    def solves_per_pass(self) -> int:
        n = 0
        for op in self.ops:
            if op.kind == "solve":
                n += 1
            elif op.kind == "sweep":
                n += len(self.checker.reference[op.key]["points"])
        return n


def timed_passes(runner, seconds, tracer_for_pass):
    """Whole passes while the next still fits in the budget (at least
    MIN_PASSES).  tracer_for_pass(k) gives the tracer of pass k or None."""
    samples = {True: [], False: []}
    spans = []
    start = time.perf_counter()
    est = None
    k = 0
    while True:
        used = time.perf_counter() - start
        if k >= MIN_PASSES and used + est > seconds:
            break
        tracer = tracer_for_pass(k)
        if tracer is None:
            t = runner.run_pass()
        else:
            with tracer.patches():
                t = runner.run_pass(tracer)
            spans.append(tracer.take())
        samples[tracer is not None].append(t)
        est = statistics.median(samples[True] + samples[False])
        k += 1
    return samples[False], samples[True], spans


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    cli = import_package()
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())
    print("env:", json.dumps(environment()))
    setup_s = None if args.trace else measure_setup(workload, args.seed)

    work = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH))
    try:
        runner = Runner(cli, workload, args.seed, work,
                        reference[workload.name])
        with runner.capture:
            warm = runner.run_pass()
            if args.trace:
                tracer = tracing.Tracer()
                plain, traced, spans = timed_passes(
                    runner, args.seconds,
                    lambda k: tracer if k % 2 else None)
            else:
                plain, traced, spans = timed_passes(
                    runner, args.seconds, lambda k: None)
        solves = runner.solves_per_pass()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    attempted = runner.attempted
    for p, label, reason in runner.failures[:20]:
        print(f"FAIL pass {p} {label}: {reason}")
    print(f"{workload.name} seed {args.seed}: warm-up {warm:.3f} s, "
          f"{len(plain)} untraced + {len(traced)} traced passes; "
          f"{attempted - failed}/{attempted} operations correct "
          f"(fail_frac {failed / attempted:.4g})")

    if args.trace:
        metrics = layer_metrics(spans, plain, traced, solves)
        metrics["verify.checks.failed"] = metric(
            runner.checker.failed_checks, "count")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "attrs"],
             "passes": spans}))
        print(f"spans of {len(spans)} traced passes in {path}")
    else:
        wall = statistics.median(plain)
        t = tail(plain)
        print(f"wall_s: median {wall:.4f} s of {len(plain)} passes "
              f"(min {min(plain):.4f}, max {max(plain):.4f}); " +
              (f"p{t[0]:.0f} {t[1]:.4f} s" if t else
               "too few passes for a percentile with ten samples beyond it"))
        print("wall_s samples:", " ".join(f"{x:.4f}" for x in plain))
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": metric((attempted - failed) / attempted, "frac"),
        }
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


UNITS = {"calls": "count", "bytes": "B", "s": "s", "s_per_call": "s",
         "self_s": "s", "per_apply": "ratio", "failed": "count",
         "shots": "count", "rhs_evals": "count", "dense_shots": "count",
         "frac": "ratio", "points": "count", "mflop": "MFLOP",
         "mbyte": "MB", "flop_per_byte": "flop/B"}


def layer_metrics(spans, plain, traced, solves) -> dict:
    """Per-layer metrics of one pass: counts from the first traced pass,
    times as medians over the traced passes."""
    per_pass = [tracing.summarize(s) for s in spans]
    first = per_pass[0]
    for extra in per_pass[1:]:
        for name, value in extra.items():
            if isinstance(value, int) and value != first[name]:
                print(f"note: count {name} varies between passes "
                      f"({first[name]} vs {value})")
    if first["operator.apply.calls"]:
        print(f"apply breakdown: operator.apply.s "
              f"{first['operator.apply.s']:.6f} = convolve self "
              f"{first['operator.convolve.self_s']:.6f} + " +
              " + ".join(f"{k} {v:.6f}"
                         for k, v in first["_apply_children"].items()) +
              f" (gap {first['_apply_gap']:.2e} s)")
    for grid, c in first["_per_apply"].items():
        print(f"one operator application, {grid}: {c['mflop']:.4g} MFLOP, "
              f"{c['mbyte']:.4g} MB, {c['flop_per_byte']:.3g} flop/B "
              f"(computed from array sizes)")
    out = {}
    for name, value in first.items():
        if name.startswith("_"):
            continue
        unit = UNITS[name.rsplit(".", 1)[1]]
        if isinstance(value, float) and unit == "s":
            value = statistics.median(p[name] for p in per_pass)
        out[name] = metric(value, unit)
    out["cli.solves"] = metric(solves, "count")
    out["kernels.table.per_solve"] = metric(
        first["kernels.table.calls"] / solves if solves else 0.0, "ratio")
    wall_plain, wall_traced = statistics.median(plain), statistics.median(traced)
    out["trace.wall_s"] = metric(wall_traced, "s")
    out["trace.overhead_s"] = metric(wall_traced - wall_plain, "s")
    out["trace.overhead_frac"] = metric(
        (wall_traced - wall_plain) / wall_plain, "ratio")
    # the difference of medians above carries the machine's drift; the span
    # count times the cost of one span is the steadier estimate
    n_spans = len(spans[0])
    out["trace.spans"] = metric(n_spans, "count")
    out["trace.overhead_est_s"] = metric(n_spans * tracing.span_cost(), "s")
    return out


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print()
    print(f"{'metric':32s} {'unit':7s}" + "".join(f" {w:>18s}" for w in rows))
    for n in names:
        unit = rows[next(iter(rows))]["metrics"][n]["unit"]
        print(f"{n:32s} {unit:7s}" + "".join(
            f" {r['metrics'][n]['value']:18.6g}" for r in rows.values()))
    print(f"{'fail_frac':32s} {'frac':7s}" + "".join(
        f" {r['failed'] / r['attempted']:18.6g}" for r in rows.values()))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
