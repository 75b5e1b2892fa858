"""Run every module's doctests under pytest: each module of the ``redux``
package, found by ``pkgutil`` so none can be left out, and the test oracles."""

import doctest
import importlib
import pkgutil

import pytest

import redux

import oracles

MODULES = [
    importlib.import_module(f"redux.{info.name}")
    for info in pkgutil.iter_modules(redux.__path__)
] + [oracles]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
