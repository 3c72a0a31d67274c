"""Smoke test of the demos and of the public names they and the README use.

The four demos run to completion as subprocesses in a scratch directory (a
few seconds together; threshold_shooting's three threshold searches take
under a second).  The README's command-line round trip (cli_workflow.sh,
about 15 s) runs against a `biharm` command on PATH that starts this
checkout's CLI.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biharm
from biharm import cli
from biharm.model import SolveConfig

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("name", ["anisotropic_growth", "degenerate_direction",
                                  "exact_solution_battery",
                                  "threshold_shooting"])
def test_demo_runs(name, tmp_path):
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          cwd=tmp_path, env=_env_with_src(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


def test_cli_workflow_round_trip(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "biharm"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m biharm.cli "$@"\n')
    shim.chmod(0o755)
    env = _env_with_src()
    env["PATH"] = os.pathsep.join((str(bin_dir), env.get("PATH", "")))
    proc = subprocess.run(["bash", str(DEMOS / "cli_workflow.sh")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes = re.findall(r"^exit (\d+)", proc.stdout, re.M)
    # solve, verify, verify of the corrupted profile, exact-q7, shoot, and
    # verify of a sweep point's own config and profile
    assert codes == ["0", "0", "3", "0", "0", "0"], proc.stdout[-2000:]
    assert "3 points, 3 converged" in proc.stdout


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


def _written_solve_configs() -> dict:
    """The solve configs the demos and the README write out, by file."""
    found = {}
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "CONFIG" for t in node.targets):
                found[path.name] = ast.literal_eval(node.value)
    script = (DEMOS / "cli_workflow.sh").read_text()
    found["cli_workflow.sh"] = json.loads(re.search(
        r"config\.json\" <<'EOF'\n(.*?)\nEOF", script, re.S).group(1))
    readme = (ROOT / "README.md").read_text()
    found["README.md"] = ast.literal_eval(re.search(
        r"SolveConfig\.from_dict\((\{.*?\})\)", readme, re.S).group(1))
    return found


def test_every_preset_and_demo_config_loads():
    # the readers refuse a key that names no field, so each config shipped
    # to a user names only fields
    configs = _written_solve_configs()
    assert set(configs) == {"anisotropic_growth.py", "degenerate_direction.py",
                            "cli_workflow.sh", "README.md"}
    for name, d in configs.items():
        assert "b" not in d["poly"], name
        SolveConfig.from_dict(d)
    for name in cli.PRESETS:  # each by the reader of the subcommand it drives
        d = cli.load_preset(name)
        assert "b" not in d.get("poly", {}), name
        cli._read_input(d, "preset", d["command"])
