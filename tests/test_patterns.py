"""Pattern containment, vexillarity, obstructions, 321 analysis."""

from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redux.patterns import (
    ObstructionReport,
    analyze_321,
    avoids,
    contains,
    first_occurrences,
    is_freely_braided,
    is_freely_braided_by_intersections,
    is_vexillary,
    is_vexillary_by_rows,
    _obstruction,
    occurrences,
)
from redux.permcore import inverse

from oracles import first_occurrence, obstruction

perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
).map(tuple)
small_patterns = st.sampled_from(
    [tuple(p) for k in (2, 3) for p in permutations(range(1, k + 1))]
)


def all_perms(n):
    return (tuple(p) for p in permutations(range(1, n + 1)))


def test_occurrences_golden():
    w = (3, 1, 4, 6, 5, 2)
    occs = occurrences(w, (2, 3, 1))
    assert occs == [(1, 3, 6), (1, 4, 6), (1, 5, 6), (3, 4, 6), (3, 5, 6)]
    assert [w[i - 1] for i in occs[1]] == [3, 6, 2]


def _occurrences_by_subsets(w, p):
    """The positions of every occurrence of p in w: the reference scan over
    all k-subsets of positions, each tested pair by pair."""
    out = []
    for pos in combinations(range(1, len(w) + 1), len(p)):
        values = tuple(w[i - 1] for i in pos)
        if all(
            (values[h] < values[j]) == (p[h] < p[j])
            for h, j in combinations(range(len(p)), 2)
        ):
            out.append(pos)
    return out


def test_search_matches_subset_scan_S6_S4():
    patterns = [p for k in range(1, 5) for p in all_perms(k)]
    for n in range(1, 7):
        for w in all_perms(n):
            for p in patterns:
                expected = _occurrences_by_subsets(w, p)
                assert occurrences(w, p) == expected, (w, p)
                assert contains(w, p) == bool(expected), (w, p)


def test_first_occurrences_match_contains_and_first_occurrence():
    for k in (3, 4):
        patterns = list(all_perms(k))
        for n in range(1, 8):
            for w in all_perms(n):
                found = first_occurrences(w, k)
                assert set(found) == {p for p in patterns if contains(w, p)}, (w, k)
                for p, positions in found.items():
                    assert positions == first_occurrence(w, p), (w, p)


@given(perms, small_patterns)
def test_contains_matches_occurrences(w, p):
    assert contains(w, p) == bool(occurrences(w, p))
    assert avoids(w, p) != contains(w, p)


def test_vexillary_cross_check():
    for n in (4, 5, 6):
        for w in all_perms(n):
            assert is_vexillary(w) == is_vexillary_by_rows(w), w


def test_freely_braided_cross_check():
    for w in (w for n in range(1, 7) for w in all_perms(n)):
        assert is_freely_braided(w) == is_freely_braided_by_intersections(w), w
    assert is_freely_braided((5, 2, 1, 4, 3))
    assert not is_freely_braided((3, 5, 2, 1, 4))


def test_obstruction_one_side():
    # x = 4 inside the occurrence with values (3, 2, 5, 1): blocked left only
    w = (3, 2, 4, 5, 1)
    report = obstruction(w, (1, 2, 4, 5), 4)
    assert (report.m, report.a, report.b) == (3, 0, 0)
    assert report.obstructed_left and not report.obstructed_right


def test_obstruction_both_sides():
    # x = 3 inside the occurrence with values (2, 1, 5, 4): blocked both ways
    w = (2, 1, 3, 5, 4)
    report = obstruction(w, (1, 2, 4, 5), 3)
    assert report.m == 2
    assert report.obstructed_left and report.obstructed_right


def position(w, value):
    """1-based position of ``value`` in ``w``, by a scan."""
    return w.index(value) + 1


def _obstruction_by_scans(w, occ, x):
    """The definition of :func:`obstruction` read literally, each position
    found by a scan of w; the oracle for the position-array version."""
    roles = sorted(w[i - 1] for i in occ)
    k = len(roles)
    if x in roles:
        raise ValueError(f"{x} is a pattern entry, not inside the pattern")
    lo, hi = occ[0], occ[-1]
    px = position(w, x)
    if not lo < px < hi:
        raise ValueError(f"{x} is not inside the pattern")
    m = next((m for m in range(1, k) if roles[m - 1] < x < roles[m]), None)
    if m is None:
        raise ValueError(f"no role m with <m> < {x} < <m+1>")
    if not position(w, roles[m - 1]) < px < position(w, roles[m]):
        raise ValueError("values <m>, x, <m+1> do not appear in increasing order")
    a = 0
    while m - 1 - (a + 1) >= 0 and position(w, roles[m - 1 - (a + 1)]) < position(
        w, roles[m - 1 - a]
    ):
        a += 1
    b = 0
    while m + (b + 1) <= k - 1 and position(w, roles[m + b]) < position(
        w, roles[m + (b + 1)]
    ):
        b += 1
    left_end, right_end = roles[m - 1 - a], roles[m + b]
    obstructed_left = any(
        roles[j] < left_end and position(w, left_end) < position(w, roles[j]) < px
        for j in range(k)
    )
    obstructed_right = any(
        roles[j] > right_end and px < position(w, roles[j]) < position(w, right_end)
        for j in range(k)
    )
    return ObstructionReport(x, m, a, b, obstructed_left, obstructed_right)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


def test_obstruction_matches_the_position_scans_S5():
    """Every x of every occurrence of a vexillary pattern of size 3 or 4 in
    S5: the same report where the preconditions hold, the same ValueError
    message where they fail, and each of the four messages is met.  The
    core ``_obstruction`` gives the same outcome on the list-shaped
    position array and roles that ``vexalg`` Step 5 passes it."""
    messages = [
        "{} is a pattern entry, not inside the pattern",
        "{} is not inside the pattern",
        "no role m with <m> < {} < <m+1>",
        "values <m>, x, <m+1> do not appear in increasing order",
    ]
    reports, met = 0, set()
    for k in (3, 4):
        for p in filter(is_vexillary, all_perms(k)):
            for w in all_perms(5):
                at = [0, *inverse(w)]
                for occ in occurrences(w, p):
                    roles = sorted(w[i - 1] for i in occ)
                    for x in range(1, 6):
                        expected = _outcome(_obstruction_by_scans, w, occ, x)
                        assert _outcome(obstruction, w, occ, x) == expected, (w, occ, x)
                        core = _outcome(_obstruction, at, roles, x)
                        assert core == expected, (w, occ, x)
                        if isinstance(expected, str):
                            met.add([m.format(x) for m in messages].index(expected))
                        else:
                            reports += 1
    assert reports == 257
    assert met == {0, 1, 2, 3}


def test_obstruction_rejects_bad_input():
    w = (3, 2, 4, 5, 1)
    occ = (1, 2, 4, 5)  # the values 3, 2, 5, 1 of a 3241
    with pytest.raises(ValueError):
        obstruction(w, occ, 5)  # a pattern entry, not inside
    for x in (0, 6):  # not a value of w
        with pytest.raises(ValueError, match=f"^{x} is not inside the pattern$"):
            obstruction(w, occ, x)


def test_analyze_321():
    assert analyze_321((5, 2, 3, 4, 1)) == (3, True)
    assert analyze_321((1, 2, 3)) == (0, True)
    assert analyze_321((4, 3, 2, 1)) == (4, False)
    assert analyze_321((3, 2, 1)) == (1, True)
    assert analyze_321((1, 4, 3, 2)) == (1, True)


def test_in_U_n():
    """U_n membership, every 321-pattern sharing its maximal and minimal
    value, is the second field of ``analyze_321``.  The two 321-patterns of
    4312 share their max but not their min, and those of 3421 their min but
    not their max."""
    assert analyze_321((5, 2, 3, 4, 1))[1]
    assert not analyze_321((4, 3, 2, 1))[1]
    assert analyze_321((4, 3, 1, 2)) == (2, False)
    assert analyze_321((3, 4, 2, 1)) == (2, False)


@given(perms)
def test_U_n_contains_all_321_avoiders(w):
    if avoids(w, (3, 2, 1)):
        assert analyze_321(w)[1]
