"""The benchmark in ``perfbench/`` traces package functions by name.

A rename would silently drop its per-layer metrics, because the tracer
skips names that do not resolve.  These tests read the benchmark's name
lists (without importing or changing it) and require every name to exist.
So does the solve benchmark ``scripts/bench_solve.py``, whose child
process patches and calls solver internals by name.
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


def test_solve_benchmark_names_exist():
    # every ``reduction.<name>`` that the child program of the solve benchmark reads
    names = {
        node.attr
        for node in ast.walk(ast.parse(_literal("scripts/bench_solve.py", "CHILD")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "reduction"
    }
    assert {"_forward", "_peaks", "_minimize_many"} <= names
    for name in sorted(names):
        assert callable(getattr(reduction, name, None)), f"cycmax.reduction.{name} is gone"
