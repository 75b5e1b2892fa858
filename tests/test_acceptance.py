"""The acceptance gate: ten criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion lines.
Criterion 5 sweeps all of S6 (about 2 seconds).
"""

from itertools import permutations

from redux.commutation import class_count, classes, graph
from redux.patterns import occurrences
from redux.permcore import longest_element, syt_count
from redux.redwords import budget, enumerate_R, format_word
from redux.render import graph_dot, polygon_svg, tiling_svg
from redux.tilings import (
    enumerate_rhombic,
    enumerate_zonotopal,
    flip_graph_from_tilings,
    freely_braided_structure,
    rank_counts,
)
from redux.vexalg import embed_reduced_word, nonvex_witness
from redux.verify import run

from oracles import class_words, tiling_from_word

W9 = (2, 4, 3, 1, 9, 6, 5, 8, 7)


def _report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_golden_examples():
    ok = {format_word(j) for j in enumerate_R((3, 2, 1))} == {"121", "212"}
    ok = ok and {format_word(j) for j in enumerate_R((2, 1, 3, 5, 4))} == {"14", "41"}
    by_rep = {
        format_word(rep): {format_word(j) for j in class_words(rep)}
        for rep in classes((4, 2, 3, 1))
    }
    ok = ok and by_rep == {
        "12321": {"12321"},
        "32123": {"32123"},
        "13213": {"13231", "31231", "13213", "31213"},
    }
    w = (3, 1, 4, 6, 5, 2)
    ok = ok and (1, 4, 6) in occurrences(w, (2, 3, 1))
    ok = ok and embed_reduced_word(w, (1, 4, 6), (1, 2)) == (5, 2, 3, 4, 5, 1)
    ok = ok and nonvex_witness((2, 1, 4, 3)) == (2, 1, 3, 5, 4)
    _report(1, ok)


def test_criterion_02_vexillary_characterization():
    result = run("vexthm", 6)
    _report(2, result.ok and result.checked > 0)


def test_criterion_03_tilings_match_classes():
    result = run("elthm", 5)
    _report(3, result.ok)


def test_criterion_04_single_long_move_class():
    result = run("1lbm", 5)
    _report(4, result.ok)


def test_criterion_05_class_count_monotonicity():
    result = run("monotone", 6)
    _report(5, result.ok)


def test_criterion_06_zonotopal_suite():
    results = [run(thm, 5) for thm in ("2kgon", "2ktiles", "maxelt", "chainthm", "ssv")]
    _report(6, all(r.ok for r in results))


def test_criterion_07_freely_braided():
    ok = run("fb", 5).ok
    report = freely_braided_structure(W9)
    ok = ok and report.k == 3 and report.all_ok()
    _report(7, ok)


def test_criterion_08_pinned_counts():
    """Each count of commutation classes of w0 is pinned twice: once on the
    words route and once as r0 of the rank counts of Elnitsky's tilings."""
    ok = len(classes(longest_element(4))) == 8 == rank_counts(longest_element(4), {})[0]
    ok = ok and len(classes(longest_element(5))) == 62 == rank_counts(longest_element(5), {})[0]
    ok = ok and len(classes(longest_element(6))) == 908 == rank_counts(longest_element(6), {})[0]
    ok = ok and len(enumerate_R(longest_element(4))) == 16 == syt_count((3, 2, 1))
    ok = ok and len(enumerate_zonotopal((3, 2, 1))) == 3
    ok = ok and len(enumerate_zonotopal(W9)) == 27
    with budget(max_length=28):
        for n, count in ((7, 24698), (8, 1232944)):
            w0 = longest_element(n)
            ok = ok and class_count(w0, {}) == count == rank_counts(w0, {})[0]
    _report(8, ok)


def test_criterion_09_syt_identity():
    result = run("syt", 5)
    _report(9, result.ok)


def test_criterion_10_renderer_determinism():
    ok = polygon_svg((4, 1, 3, 2)) == polygon_svg((4, 1, 3, 2))
    figure = (1, 2, 3, 4, 3, 2, 1, 2)
    first = tiling_svg(tiling_from_word(figure, 5))
    second = tiling_svg(tiling_from_word(figure, 5))
    ok = ok and first == second and first.startswith("<svg")
    dot1 = graph_dot(graph(W9))
    dot2 = graph_dot(graph(W9))
    ok = ok and dot1 == dot2 and dot1.startswith("graph G {")
    _report(10, ok)
