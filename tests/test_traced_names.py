"""The benchmark in ``perfbench/`` traces package functions by name.

A rename would silently drop its per-layer metrics, because the tracer
skips names that do not resolve.  These tests read the benchmark's name
lists (without importing or changing it) and require every name to exist.
So do the solve benchmark ``scripts/bench_solve.py`` and the output
identity check ``scripts/identity.py``, which, with their child
processes, patch and call solver internals by name.
"""

import ast
import importlib
from pathlib import Path

import pytest

from cycmax import reduction
from cycmax.verify import SUITES

ROOT = Path(__file__).resolve().parents[1]


def _literal(path: str, name: str):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no {name}")


@pytest.mark.parametrize("name", _literal("perfbench/spans.py", "TARGETS"))
def test_traced_function_exists(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"cycmax.{layer}")
    assert callable(getattr(module, attr, None)), f"cycmax.{name} is gone"


def test_traced_verify_suites_exist():
    assert set(_literal("perfbench/workloads.py", "VERIFY_SUITES")) <= set(SUITES)


def _reduction_names(script: str) -> set:
    """Every ``reduction.<name>`` that ``script`` or its child program reads."""
    trees = [ast.parse((ROOT / script).read_text(encoding="utf-8")), ast.parse(_literal(script, "CHILD"))]
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "reduction"
    }


def test_solve_benchmark_names_exist():
    names = _reduction_names("scripts/bench_solve.py")
    assert {"_forward", "_peaks", "_minimize_many"} <= names
    for name in sorted(names):
        assert callable(getattr(reduction, name, None)), f"cycmax.reduction.{name} is gone"


def test_identity_check_names_exist():
    names = _reduction_names("scripts/identity.py")
    assert {"_records", "_minimize_many"} <= names
    for name in sorted(names):
        assert callable(getattr(reduction, name, None)), f"cycmax.reduction.{name} is gone"
