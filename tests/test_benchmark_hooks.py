"""Every name the benchmark's tracer wraps must exist on the package.

The tracer replaces these attributes at run time; a renamed or deleted one
makes `benchmark/run.py --trace 1` fail.  The tracer's tables are read from
its source without importing it.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTERS")
    }


HOOKS = [hook for table in _tables().values() for hook in table]


def test_tracer_tables_found():
    assert set(_tables()) == {"SPANS", "COUNTERS"}
    assert HOOKS


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hook_resolves(module_name, attr):
    owner = importlib.import_module(f"quantbess.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
