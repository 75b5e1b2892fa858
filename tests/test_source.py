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


# (importing module, source module, private name) for every private name
# that one module of src/redux imports from another.
PRIVATE_IMPORTS = {
    ("tilings", "patterns", "_pattern_at"),
    ("vexalg", "patterns", "_pattern_at"),
}


def test_private_imports_are_pinned():
    """A private name stays inside its module unless it is listed in
    ``PRIVATE_IMPORTS``; a new import of one across modules fails here."""
    found = set()
    for path in sorted(Path(redux.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    assert found == PRIVATE_IMPORTS


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


# ---------------------------------------------------------------------------
# Reachability: src/redux holds only what the CLI, the sweeps and the
# benchmark run.


class _Uses(ast.NodeVisitor):
    """The names a piece of code loads and the attributes it reads,
    skipping annotations: under ``from __future__ import annotations`` they
    are strings that run nothing."""

    def __init__(self, nodes):
        self.names: set = set()
        self.attrs: set = set()
        for node in nodes:
            self.visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        self.visit(node.value)

    def visit_arg(self, node):
        pass

    def _function(self, node):
        for child in (*node.decorator_list, *node.args.defaults, *node.args.kw_defaults):
            if child is not None:
                self.visit(child)
        for stmt in node.body:
            self.visit(stmt)

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _is_main_guard(stmt) -> bool:
    test = stmt.test if isinstance(stmt, ast.If) else None
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
    )


class _Source:
    """Every definition of src/redux and what its code uses.

    A definition is (module, qualified name), such as ("tilings",
    "Tiling.leq"): a function, a class, a method or a module-level
    assignment.  A name resolves in its module, to a definition there or to
    what ``from .m import x`` brought in.  An attribute ``.x`` reaches every
    method named x, since the scan cannot tell the owner's type.  A reached
    class reaches its dunder methods, which Python calls itself.
    """

    def __init__(self, root: Path):
        self.uses: dict = {}  # definition -> _Uses of its code
        self.scope: dict = {}  # module -> {name: definition}
        self.methods: dict = {}  # method name -> its definitions
        self.dunders: dict = {}  # class -> its dunder methods
        self.checked: set = set()  # the functions, classes and methods
        self.main_guards: list = []  # (module, _Uses) of each __main__ block
        for path in sorted(root.glob("*.py")):
            self._read(path.stem, ast.parse(path.read_text(), str(path)))

    def _read(self, module: str, tree) -> None:
        scope = self.scope.setdefault(module, {})
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    scope[alias.asname or alias.name] = (stmt.module, alias.name)
            elif isinstance(stmt, ast.FunctionDef):
                scope[stmt.name] = (module, stmt.name)
                self.checked.add((module, stmt.name))
                self.uses[module, stmt.name] = _Uses([stmt])
            elif isinstance(stmt, ast.ClassDef):
                scope[stmt.name] = (module, stmt.name)
                self.checked.add((module, stmt.name))
                self._class(module, stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        scope[target.id] = (module, target.id)
                        self.uses[module, target.id] = _Uses([stmt])
            elif _is_main_guard(stmt):
                self.main_guards.append((module, _Uses(stmt.body)))

    def _class(self, module: str, node) -> None:
        key, body = (module, node.name), []
        self.dunders[key] = []
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                method = (module, f"{node.name}.{stmt.name}")
                self.checked.add(method)
                self.uses[method] = _Uses([stmt])
                if stmt.name.startswith("__") and stmt.name.endswith("__"):
                    self.dunders[key].append(method)
                else:
                    self.methods.setdefault(stmt.name, []).append(method)
            else:
                body.append(stmt)
        self.uses[key] = _Uses([*node.decorator_list, *node.bases, *body])

    def resolve(self, module: str, uses: _Uses) -> list:
        """The definitions that the names and attributes in ``uses`` reach."""
        scope = self.scope[module]
        found = [scope[name] for name in uses.names if name in scope]
        return found + [m for attr in uses.attrs for m in self.methods.get(attr, ())]

    def reach(self, roots) -> set:
        seen: set = set()
        stack = list(roots)
        while stack:
            key = stack.pop()
            if key not in seen and key in self.uses:
                seen.add(key)
                stack += self.resolve(key[0], self.uses[key])
                stack += self.dunders.get(key, ())
        return seen


def _roots(source: _Source) -> list:
    """``redux.cli.main`` and the ``__main__`` blocks (``python -m redux``
    and ``python -m redux.cli``), the ``THEOREMS`` table (every sweep) and
    every name perfbench binds."""
    spans = _perfbench_spans()
    roots = [("cli", "main"), ("verify", "THEOREMS")]
    for module, uses in source.main_guards:
        roots += source.resolve(module, uses)
    roots += [(m.removeprefix("redux."), attr) for _, m, attr, _ in spans.FUNCTION_SPANS]
    roots += [
        (m.removeprefix("redux."), f"{cls}.{attr}")
        for _, m, cls, attr, *_ in spans.PROPERTY_SPANS + spans.COUNTED_METHODS
    ]
    return roots


# Paper results that stay in src/ to become sweeps (ROADMAP item 4), each
# with the statement it checks; their helpers are reached through them.
UNSWEPT_RESULTS = {
    ("tilings", "mono"): "the lift of a pattern tiling is injective (monotonicity)",
}


def test_every_definition_is_reached():
    """Every function, class and method of src/redux is reached from the
    CLI, a sweep or a perfbench binding; only the paper results listed in
    ``UNSWEPT_RESULTS`` stand on their own.  Code that only tests call
    belongs in the tests (``tests/oracles.py`` for reference versions)."""
    source = _Source(Path(redux.__file__).parent)
    reached = source.reach(_roots(source))
    listed_but_reached = sorted(set(UNSWEPT_RESULTS) - (source.checked - reached))
    assert listed_but_reached == [], "a listed result is reached or gone"
    reached |= source.reach(UNSWEPT_RESULTS)
    assert sorted(source.checked - reached) == [], "reached only by the tests"
