"""Bad input raises the package's own error type, and only the CLI reports it."""

import ast
from pathlib import Path

import cycmax
from cycmax import CycmaxError

SRC = Path(cycmax.__file__).resolve().parent


def exception_names(node) -> set[str]:
    """The bare names of the exceptions a raise or an except clause mentions."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*(exception_names(e) for e in node.elts))
    return {node.id} if isinstance(node, ast.Name) else set()


def test_the_package_error_is_a_value_error():
    assert issubclass(CycmaxError, ValueError)


def test_no_module_raises_a_bare_value_or_type_error():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and exception_names(node.exc) & {"ValueError", "TypeError"}
    ]
    assert found == []


def test_the_cli_catches_no_value_error():
    # a ValueError there would report a bug in the program as bad input
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and "ValueError" in exception_names(node.type)
    ]
    assert found == []


def test_no_module_subclasses_the_package_error():
    # one error type: a caller catches CycmaxError and the CLI reports it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).rsplit(".", 1)[-1] == "CycmaxError" for base in node.bases)
    ]
    assert found == []


def test_no_module_asserts():
    # ``python -O`` strips assert statements, and with them any check made by one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
