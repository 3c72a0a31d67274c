"""Outside-in span tracing of the biharm layers.

The benchmark records spans without touching the package: it replaces each
traced function with a wrapper at the place where its caller looks it up
(a module global, a module attribute, or a class attribute for methods),
and puts the original back when the traced pass ends.  A span is
(name, start, end, parent, op id, attrs); spans stay in memory and are
written out when the run ends.

A layer's self time is the sum over its spans of duration minus the time
covered by direct child spans, so the self times of all layers add up to the
traced time of the CLI calls.

Which end-to-end metric each layer metric should move, and where
(sv = solve-verify-shoot):
  kernels.table.*            setup_s, peak_rss_mb, wall_s on sv (two builds
                             per solve); little on thm2-continuation
  kernels.kernel_row.calls   wall_s on sv (integral residual)
  operator.context.*         setup_s
  operator.apply.*, operator.convolve.self_s, operator.density.*
                             wall_s on thm2-continuation; convolve also on
                             the radial part of sv
  analysis.*                 wall_s and peak_rss_mb on sv
  verify.*                   wall_s and ok_frac on sv
  shooting.*                 wall_s on sv; thm2-continuation runs no shooting
                             code, so a change there should leave it unchanged
  model.profile_io.*         wall_s on sv
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

LAYERS = ("model", "kernels", "operator", "analysis", "verify", "shooting",
          "cli")


def _table_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _apply_counts(args, kwargs, result):
    # computed from array sizes for the dense mode-table contraction: one
    # multiply-add per table entry, and the tables plus the mode vectors in
    # and out streamed once; no dense tables means nothing to count
    tables = getattr(args[0], "tables", None)
    shape = getattr(tables, "shape", None)
    if shape is None or len(shape) != 3:
        return {"flop": 0, "bytes": 0, "grid": "no dense tables"}
    n_modes, n_r, _ = shape
    return {"flop": 2 * int(tables.size),
            "bytes": int(tables.nbytes) + 2 * n_r * n_modes * 8,
            "grid": f"{n_modes} modes x {n_r}^2"}


def _solve_failed(args, kwargs, result):
    return {"failed": int(not result[1].converged)}


def _solve_ivp_counts(args, kwargs, result):
    dense = bool(kwargs.get("dense_output")) and kwargs.get("t_eval") is not None
    return {"nfev": int(result.nfev), "dense": int(dense)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _sweep_point_failed(args, kwargs, result):
    return {"failed": int(not result["converged"] or bool(result["error"]))}


# (where the caller looks the name up, attribute, span name, attrs hook)
TARGETS = (
    ("biharm.operator", "mode_kernel_table", "kernels.table", _table_bytes),
    ("biharm.verify", "kernel_row", "kernels.kernel_row", None),
    ("biharm.operator.OperatorContext", "__init__", "operator.context", None),
    ("biharm.operator.OperatorContext", "apply", "operator.apply",
     _apply_counts),
    ("biharm.operator.OperatorContext", "density", "operator.density", None),
    ("biharm.operator.SphericalReduction", "analyze", "operator.analyze", None),
    ("biharm.operator.SphericalReduction", "synthesize", "operator.synthesize",
     None),
    ("biharm.operator", "solve_fixed_point", "operator.solve", _solve_failed),
    ("biharm.cli", "solve_fixed_point", "operator.solve", _solve_failed),
    ("biharm.cli", "continuation_eps_to_zero", "operator.continuation", None),
    ("biharm.analysis", "fit_growth", "analysis.fit_growth", None),
    ("biharm.analysis", "compute_beta", "analysis.compute_beta", None),
    ("biharm.analysis", "decompose", "analysis.decompose", None),
    ("biharm.verify", "pde_residual", "verify.pde_residual", None),
    ("biharm.verify", "integral_residual", "verify.integral_residual", None),
    ("biharm.verify", "pohozaev_residual", "verify.pohozaev_residual", None),
    ("biharm.shooting", "bisect_growth_threshold", "shooting.bisect", None),
    ("biharm.shooting", "integrate_radial", "shooting.shot", None),
    ("biharm.shooting", "solve_ivp", "shooting.solve_ivp", _solve_ivp_counts),
    ("biharm.cli", "save_profile_csv", "model.profile_io", _written_bytes),
    ("biharm.cli", "load_profile_csv", "model.profile_io", _read_bytes),
    ("biharm.cli", "report_json", "cli.report_json", None),
    ("biharm.cli", "_sweep_point", "cli.sweep_point", _sweep_point_failed),
)


def _resolve(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Patches:
    """Replace attributes for the duration of a with-block."""

    def __init__(self, replacements):
        self._replacements = list(replacements)  # (owner, attr, new)
        self._saved = []

    def __enter__(self):
        for owner, attr, new in self._replacements:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        return False


class Tracer:
    """Collects spans of one traced pass at a time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, attrs]
        self._stack = []
        self.op = -1

    def begin(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           attrs])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> list:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        return span

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result
        return traced

    def patches(self) -> Patches:
        wrapped = {}  # one wrapper per original, shared by all lookup sites
        repl = []
        for path, attr, name, hook in TARGETS:
            owner = _resolve(path)
            orig = owner.__dict__[attr]
            key = (id(orig), name)
            if key not in wrapped:
                wrapped[key] = self.wrap(name, orig, hook)
            repl.append((owner, attr, wrapped[key]))
        return Patches(repl)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def span_cost(n: int = 20000) -> float:
    """Seconds one traced call adds, from n wrapped no-op calls."""
    tracer = Tracer()
    traced = tracer.wrap("cli.probe", lambda: None, None)
    plain = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def self_times(spans) -> list:
    """Duration minus the time covered by direct children, per span."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(spans) -> dict:
    """Per-layer metrics of one traced pass (times in s, counts as counts)."""
    selfs = self_times(spans)
    calls, total = {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, st in zip(spans, selfs):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        layer_self[name.split(".", 1)[0]] += st

    def attr_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

    def durations(name):
        return [s[2] - s[1] for s in spans if s[0] == name]

    apply_idx = {i for i, s in enumerate(spans) if s[0] == "operator.apply"}
    in_apply = {}
    for s in spans:
        if s[3] in apply_idx:
            in_apply[s[0]] = in_apply.get(s[0], 0.0) + (s[2] - s[1])
    convolve_self = sum(selfs[i] for i in apply_idx)

    n_apply = calls.get("operator.apply", 0)
    n_shots = calls.get("shooting.solve_ivp", 0)
    n_dense = attr_sum("shooting.solve_ivp", "dense")
    flop = attr_sum("operator.apply", "flop")
    nbytes = attr_sum("operator.apply", "bytes")
    apply_s = durations("operator.apply")
    shot_s = durations("shooting.shot")
    m = {
        "kernels.table.calls": calls.get("kernels.table", 0),
        "kernels.table.s": total.get("kernels.table", 0.0),
        "kernels.table.bytes": attr_sum("kernels.table", "bytes"),
        "kernels.kernel_row.calls": calls.get("kernels.kernel_row", 0),
        "operator.context.calls": calls.get("operator.context", 0),
        "operator.context.s": total.get("operator.context", 0.0),
        "operator.apply.calls": n_apply,
        "operator.apply.s": total.get("operator.apply", 0.0),
        "operator.apply.s_per_call": statistics.median(apply_s) if apply_s else 0.0,
        "operator.convolve.self_s": convolve_self,
        "operator.convolve.mflop": flop / 1e6,
        "operator.convolve.mbyte": nbytes / 1e6,
        "operator.convolve.flop_per_byte": flop / nbytes if nbytes else 0.0,
        "operator.density.calls": calls.get("operator.density", 0),
        "operator.density.s": total.get("operator.density", 0.0),
        "operator.density.per_apply": (calls.get("operator.density", 0) / n_apply
                                       if n_apply else 0.0),
        "operator.analyze.s": total.get("operator.analyze", 0.0),
        "operator.synthesize.s": total.get("operator.synthesize", 0.0),
        "operator.solve.calls": calls.get("operator.solve", 0),
        "operator.solve.failed": attr_sum("operator.solve", "failed"),
        "analysis.fit_growth.s": total.get("analysis.fit_growth", 0.0),
        "analysis.compute_beta.s": total.get("analysis.compute_beta", 0.0),
        "analysis.decompose.s": total.get("analysis.decompose", 0.0),
        "verify.pde_residual.s": total.get("verify.pde_residual", 0.0),
        "verify.integral_residual.s": total.get("verify.integral_residual", 0.0),
        "verify.pohozaev_residual.s": total.get("verify.pohozaev_residual", 0.0),
        "shooting.shots": n_shots,
        "shooting.shot.s": statistics.median(shot_s) if shot_s else 0.0,
        "shooting.rhs_evals": attr_sum("shooting.solve_ivp", "nfev"),
        "shooting.dense_shots": n_dense,
        "shooting.dense_shots.frac": n_dense / n_shots if n_shots else 0.0,
        "model.profile_io.s": total.get("model.profile_io", 0.0),
        "model.profile_io.bytes": attr_sum("model.profile_io", "bytes"),
        "cli.report_json.s": total.get("cli.report_json", 0.0),
        "cli.sweep.points": calls.get("cli.sweep_point", 0),
        "cli.sweep.failed": attr_sum("cli.sweep_point", "failed"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    # closure of the apply breakdown: convolve self time plus the child spans
    # inside apply must give the apply total
    m["_apply_children"] = in_apply
    m["_apply_gap"] = m["operator.apply.s"] - convolve_self - sum(in_apply.values())
    grids = {}
    for s in spans:
        if s[0] == "operator.apply" and s[5]:
            grids[s[5]["grid"]] = s[5]
    m["_per_apply"] = {
        g: {"mflop": a["flop"] / 1e6, "mbyte": a["bytes"] / 1e6,
            "flop_per_byte": a["flop"] / a["bytes"] if a["bytes"] else 0.0}
        for g, a in sorted(grids.items())}
    return m
