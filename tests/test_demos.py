"""Smoke test of the demos and of the public names they and the README use.

Three demos run to completion as subprocesses in a scratch directory (a few
seconds together); threshold_shooting bisects three thresholds and takes
about ten, so it is only imported.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biharm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["anisotropic_growth", "degenerate_direction",
                                  "exact_solution_battery"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


def test_threshold_demo_imports():
    spec = importlib.util.spec_from_file_location(
        "threshold_shooting", DEMOS / "threshold_shooting.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _names_imported_from_biharm(source: str) -> set:
    return {alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "biharm"
            for alias in node.names}


def test_demo_and_readme_imports_are_exported():
    sources = [p.read_text() for p in sorted(DEMOS.glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    used = set().union(*map(_names_imported_from_biharm, sources))
    assert "solve_fixed_point" in used  # the README quick start was parsed
    missing = sorted(used - set(biharm.__all__))
    assert not missing, f"not in biharm.__all__: {missing}"
