"""The memoised recursions free their memos when they return.

A memo held in a cycle (a nested recursive function refers to itself through
its closure) lives on until the cyclic garbage collector runs, so peak
memory would follow the collector's schedule.
"""

import gc

import pytest

from redux.commutation import (
    class_count,
    class_sizes,
    classes,
    graph,
    graphs_isomorphic,
    simple_cycles_of_length,
)
from redux.redwords import enumerate_R
from redux.tilings import (
    _tile_label_sets,
    enumerate_rhombic,
    enumerate_zonotopal,
    flip_graph_from_tilings,
    poset,
    uniform_2k_tiling_exists,
)
from redux.verify import _best_long_moves, run
from redux.vexalg import embed_reduced_word, lex_least_reduced_word

W = (5, 6, 4, 2, 3, 1)

CALLS = {
    "enumerate_R": lambda: enumerate_R(W),
    "enumerate_rhombic": lambda: enumerate_rhombic(W),
    "enumerate_zonotopal": lambda: enumerate_zonotopal(W),
    "poset.hasse": lambda: poset(W).hasse,
    "uniform_2k_tiling_exists": lambda: uniform_2k_tiling_exists(6, 3),
    "classes": lambda: classes(W),
    "class_sizes": lambda: class_sizes(W),
    "class_count": lambda: class_count(W, {}),
    "simple_cycles_of_length": lambda: simple_cycles_of_length(
        flip_graph_from_tilings(W), 4
    ),
    "_best_long_moves": lambda: _best_long_moves(W, 0, 0, {}),
    "1lbm": lambda: run("1lbm", 5),
    "maxelt": lambda: run("maxelt", 4),
    "_tile_label_sets": lambda: _tile_label_sets(W, {}),
    "embed_reduced_word": lambda: embed_reduced_word(
        (1, 3, 4, 5, 2), (2, 4, 5), lex_least_reduced_word((2, 3, 1))
    ),
    "graphs_isomorphic": lambda: graphs_isomorphic(
        flip_graph_from_tilings((4, 6, 5, 2, 3, 1)), graph((4, 6, 5, 2, 3, 1))
    ),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=list(CALLS))
def test_leaves_no_cyclic_garbage(call):
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
