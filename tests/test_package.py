import ast
import importlib
import inspect
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


def hatepool_calls(script):
    """(line, callee source, callee, call node) for each call ``script`` makes to a ``hatepool`` name.

    A name counts when the script imports it from ``hatepool`` (anywhere in the
    file), and so does an attribute of one, such as ``WebRecord.from_dict``.
    Calls that pass ``*args`` or ``**kwargs`` are left out: their shape is not
    in the source.
    """
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hatepool":
            module = importlib.import_module(node.module)
            imported.update({a.asname or a.name: getattr(module, a.name) for a in node.names})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hatepool":
                    module = importlib.import_module(alias.name)
                    imported[alias.asname or "hatepool"] = module if alias.asname else hatepool

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return imported.get(expr.id)
        if isinstance(expr, ast.Attribute) and (base := resolve(expr.value)) is not None:
            return getattr(base, expr.attr)
        return None

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or (callee := resolve(node.func)) is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        calls.append((node.lineno, ast.unparse(node.func), callee, node))
    return calls


def test_bench_calls_bind_to_hatepool_signatures():
    """Every call the benchmark harness makes to ``hatepool`` fits the callee's signature."""
    unbound, checked = [], 0
    for script in BENCH:
        for line, name, callee, call in hatepool_calls(script):
            checked += 1
            try:
                inspect.signature(callee).bind(*call.args, **{k.arg: k.value for k in call.keywords})
            except TypeError as exc:
                unbound.append(f"{script.name}:{line}: {name}: {exc}")
    assert checked > 0
    assert unbound == []


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
