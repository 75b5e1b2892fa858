"""Source-level checks on the library itself."""

import ast
from pathlib import Path

import redux


def _is_assertion_error(exc) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _imports(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_only_render_imports_json():
    """``redux.render`` alone decides what the output looks like."""
    found = [
        path.name
        for path in sorted(Path(redux.__file__).parent.glob("*.py"))
        if "json" in _imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["render.py"]


def test_no_assert_in_library():
    """Every check must also run under ``python -O``, which strips ``assert``
    statements; raising AssertionError by hand would pass for one."""
    found = []
    for path in sorted(Path(redux.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _is_assertion_error(node.exc)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
