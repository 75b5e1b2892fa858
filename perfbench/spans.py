"""Spans around redux's public functions, recorded from outside the library.

A span is (name, start, end, parent).  Spans are kept in memory while a pass
runs and summarised once it ends.  A span's self time is its duration minus
the durations of its direct children; one thread runs everything, so the
children of a span never overlap each other.

redux modules copy names with ``from .x import y``, so wrapping a function
means rebinding it in every ``redux`` module that holds it.  ``install``
returns the list of rebindings and ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, defining module, attribute, size of a result or None)
FUNCTION_SPANS = [
    ("verify.run", "redux.verify", "run", lambda r: r.checked),
    ("redwords.enumerate_R", "redux.redwords", "enumerate_R", len),
    ("commutation.classes", "redux.commutation", "classes", len),
    ("commutation.graph", "redux.commutation", "graph", lambda g: len(g.edges)),
    ("commutation.graphs_isomorphic", "redux.commutation", "graphs_isomorphic", None),
    ("tilings.enumerate_zonotopal", "redux.tilings", "enumerate_zonotopal", len),
    ("tilings.enumerate_rhombic", "redux.tilings", "enumerate_rhombic", len),
    (
        "tilings.flip_graph_from_tilings",
        "redux.tilings",
        "flip_graph_from_tilings",
        lambda g: len(g.edges),
    ),
    ("tilings.peel_word", "redux.tilings", "peel_word", None),
    ("tilings.poset", "redux.tilings", "poset", lambda p: len(p.elements)),
    ("patterns.occurrences", "redux.patterns", "occurrences", len),
    ("vexalg.embed_reduced_word", "redux.vexalg", "embed_reduced_word", None),
    ("vexalg.nonvex_witness", "redux.vexalg", "nonvex_witness", None),
    ("cli.main", "redux.cli", "main", None),
]

# (span name, class module, class, cached property, size of a result or None)
PROPERTY_SPANS = [
    ("tilings.poset.leq", "redux.tilings", "TilingPoset", "leq", None),
    ("tilings.poset.hasse", "redux.tilings", "TilingPoset", "hasse", len),
]

SPAN_NAMES = frozenset(row[0] for row in FUNCTION_SPANS + PROPERTY_SPANS)

# (counter name, class module, class, method): counts calls, records no span.
COUNTED_METHODS = [
    ("tilings.Tiling.validations", "redux.tilings", "Tiling", "__post_init__"),
]


class Tracer:
    """Records spans and counters for one pass; not thread-safe (one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self.errors: list[bool] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.sizes.append(0)
        self.errors.append(False)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int, size: int = 0, error: bool = False) -> None:
        self.ends[index] = perf_counter()
        self.sizes[index] = size
        self.errors[index] = error
        self._stack.pop()

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def rows(self) -> list[tuple]:
        """Every span as (name, start, end, parent index or -1)."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, total_s, size (summed) and errors."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            row = out.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0, "errors": 0}
            )
            row["calls"] += 1
            row["self_s"] += duration - child_time[i]
            row["total_s"] += duration
            row["size"] += self.sizes[i]
            row["errors"] += self.errors[i]
        return out


def _spanned(tracer: Tracer, name: str, fn, size):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, error=True)
            raise
        tracer.close(index, size(result) if size else 0)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _redux_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "redux" or name.startswith("redux."))
    ]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every spanned function in every redux module that binds it.

    Returns the patches as (owner, attribute, original) for ``restore``.
    """
    patches: list[tuple] = []
    modules = _redux_modules()
    for name, module_name, attr, size in FUNCTION_SPANS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _spanned(tracer, name, original, size)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
    for name, module_name, class_name, attr, size in PROPERTY_SPANS:
        cls = getattr(sys.modules[module_name], class_name)
        original = cls.__dict__[attr]
        replacement = functools.cached_property(_spanned(tracer, name, original.func, size))
        replacement.__set_name__(cls, attr)
        patches.append((cls, attr, original))
        setattr(cls, attr, replacement)
    for name, module_name, class_name, attr in COUNTED_METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, _counted(tracer, name, original))
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)

