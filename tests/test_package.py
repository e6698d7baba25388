import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hatepool

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


class TestExports:
    def test_all_names_resolve(self):
        missing = [name for name in hatepool.__all__ if not hasattr(hatepool, name)]
        assert missing == []

    def test_all_has_no_duplicates(self):
        assert len(hatepool.__all__) == len(set(hatepool.__all__))


@pytest.mark.parametrize("script", BENCH, ids=[b.name for b in BENCH])
def test_bench_imports_resolve(script):
    """Every ``hatepool`` name the benchmark harness imports still exists."""
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hatepool":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hatepool":
                    importlib.import_module(alias.name)
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
