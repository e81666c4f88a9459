"""The demos run, and the README names only what the package exports and declares."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mapreplay

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _root_imports(path: Path) -> list[str]:
    """Names a script imports with `from mapreplay import ...`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mapreplay" and node.level == 0
        for alias in node.names
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_root_imports_resolve(demo):
    names = _root_imports(demo)
    assert names, f"{demo.name} imports nothing from the package root"
    missing = [name for name in names if not hasattr(mapreplay, name)]
    assert missing == []


def test_readme_package_names_resolve():
    dotted = set(re.findall(r"\bmapreplay((?:\.[A-Za-z_]\w*)+)", (ROOT / "README.md").read_text()))
    assert dotted
    for path in sorted(dotted):
        obj = mapreplay
        for part in path.lstrip(".").split("."):
            assert hasattr(obj, part), f"mapreplay{path} does not resolve"
            obj = getattr(obj, part)


def test_record_replay_demo_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "02_trace_record_replay.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "digests identical across replays: True" in out.stdout


def test_readme_lists_every_workload_param_and_default():
    from mapreplay.workloads import WORKLOADS

    rows = re.findall(r"^\| `([\w-]+)` +\| (.*?) +\|$", (ROOT / "README.md").read_text(), re.M)
    listed = {
        name: dict(re.findall(r"`(\w+)=(\d+)`", params)) for name, params in rows
    }
    declared = {
        name: {k: str(v) for k, v in (fn.__kwdefaults__ or {}).items()}
        for name, fn in WORKLOADS.items()
    }
    assert listed == declared
