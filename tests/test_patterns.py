"""Pattern containment, vexillarity, 321 analysis."""

from itertools import combinations, permutations

from hypothesis import given
from hypothesis import strategies as st

from redux.patterns import (
    analyze_321,
    avoids,
    contains,
    first_occurrences,
    is_freely_braided,
    is_freely_braided_by_intersections,
    is_vexillary,
    is_vexillary_by_rows,
    occurrences,
)

from oracles import first_occurrence

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
