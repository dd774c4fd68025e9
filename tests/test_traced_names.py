"""The benchmark in ``perfbench/`` traces package functions by name.

A rename would silently drop its per-layer metrics, because the tracer
skips names that do not resolve.  These tests read the benchmark's name
lists (without importing or changing it) and require every name to exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

from cycmax.verify import SUITES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literal(filename: str, name: str):
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} defines no {name}")


@pytest.mark.parametrize("name", _literal("spans.py", "TARGETS"))
def test_traced_function_exists(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"cycmax.{layer}")
    assert callable(getattr(module, attr, None)), f"cycmax.{name} is gone"


def test_traced_verify_suites_exist():
    assert set(_literal("workloads.py", "VERIFY_SUITES")) <= set(SUITES)
