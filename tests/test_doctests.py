"""Run every module's doctests under pytest."""

import doctest

import pytest

import redux.commutation
import redux.patterns
import redux.permcore
import redux.redwords
import redux.tilings
import redux.vexalg
import redux.verify

import oracles

MODULES = [
    redux.permcore,
    redux.patterns,
    redux.redwords,
    redux.commutation,
    redux.vexalg,
    redux.tilings,
    redux.verify,
    oracles,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
