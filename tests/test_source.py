"""Source-level checks on the library itself."""

import ast
import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import redux
import redux.redwords


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


def test_imports_are_at_module_level():
    """No function imports on each call; every module states its imports
    at the top."""
    found = []
    for path in sorted(Path(redux.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def _perfbench_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_bindings_exist():
    """Every name the benchmark's tracer wraps must exist, or ``--trace 1``
    breaks; the benchmark's own tests are outside this suite."""
    spans = _perfbench_spans()
    for _, module, attr, _ in spans.FUNCTION_SPANS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    for _, module, cls, attr, _ in spans.PROPERTY_SPANS:
        owner = getattr(importlib.import_module(module), cls)
        assert isinstance(owner.__dict__.get(attr), cached_property), (cls, attr)
    for _, module, cls, attr in spans.COUNTED_METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert attr in owner.__dict__, (cls, attr)
    assert callable(redux.redwords.count_R.cache_info)
