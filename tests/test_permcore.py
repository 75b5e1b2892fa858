"""Core permutation machinery: parsing, inversions, code/shape, tableaux."""

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redux.permcore import (
    check_partition,
    check_perm,
    code_and_shape,
    conjugate_partition,
    diagram,
    format_perm,
    identity,
    inverse,
    inversions,
    length,
    longest_element,
    parse_perm,
    right_mult_adjacent,
    syt_count,
)

from oracles import left_mult_adjacent

perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
).map(tuple)


def test_parse_and_format():
    assert parse_perm("4231") == (4, 2, 3, 1)
    assert parse_perm("4,2,3,1") == (4, 2, 3, 1)
    assert parse_perm("10 2 3 4 5 6 7 8 9 1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    with pytest.raises(ValueError):
        parse_perm("4221")
    with pytest.raises(ValueError):
        check_perm((1, 3))


@given(perms)
def test_format_roundtrip(w):
    assert parse_perm(format_perm(w)) == w


@given(perms)
def test_inverse_and_identity(w):
    n = len(w)
    assert inverse(inverse(w)) == w
    assert tuple(w[inverse(w)[i - 1] - 1] for i in range(1, n + 1)) == identity(n)


def test_longest_element():
    assert longest_element(4) == (4, 3, 2, 1)
    assert length(longest_element(5)) == 10


@given(perms)
def test_length_is_inversion_count(w):
    inv = inversions(w)
    assert length(w) == len(inv)
    # independent oracle for the inversion set (position pairs)
    expected = {
        (i + 1, j + 1)
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    }
    assert set(inv) == expected


def test_length_is_inversion_count_S1_to_S7():
    """All 5,913 permutations of S1 .. S7, against the inversion set."""
    checked = 0
    for n in range(1, 8):
        for w in permutations(range(1, n + 1)):
            assert length(w) == len(inversions(w)), w
            checked += 1
    assert checked == 5913


@given(perms)
def test_adjacent_multiplication(w):
    n = len(w)
    for i in range(1, n):
        swapped = right_mult_adjacent(w, i)
        assert swapped == w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
        assert abs(length(swapped) - length(w)) == 1
        lw = left_mult_adjacent(w, i)
        assert sorted((w.index(i), w.index(i + 1))) == sorted(
            (lw.index(i + 1), lw.index(i))
        )


@given(perms)
def test_code_oracle(w):
    code, shape = code_and_shape(w)
    n = len(w)
    assert code == tuple(
        sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)
    )
    assert shape == tuple(sorted((c for c in code if c), reverse=True))
    assert sum(code) == length(w)


@given(perms)
def test_diagram_size(w):
    assert len(diagram(w)) == length(w)


def test_diagram_golden():
    # cells (i, j) with w(i) > j and w^{-1}(j) > i
    assert diagram((3, 1, 2)) == frozenset({(1, 1), (1, 2)})
    assert diagram((2, 1, 4, 3)) == frozenset({(1, 1), (3, 3)})


def _count_syt_brute(shape):
    """Linear extensions of the Young-diagram poset, by direct backtracking."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    total = len(cells)
    filling = {}

    def rec(k):
        if k > total:
            return 1
        count = 0
        for r, c in cells:
            if (r, c) in filling:
                continue
            if (r and (r - 1, c) not in filling) or (c and (r, c - 1) not in filling):
                continue
            filling[(r, c)] = k
            count += rec(k + 1)
            del filling[(r, c)]
        return count

    return rec(1)


def test_syt_count_golden():
    assert syt_count(()) == 1
    assert syt_count((1,)) == 1
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 2, 1)) == 16


def test_syt_count_against_brute_force():
    shapes = [
        shape
        for total in range(7)
        for shape in _partitions_of(total)
    ]
    for shape in shapes:
        assert syt_count(shape) == _count_syt_brute(shape), shape


def _partitions_of(total, largest=None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, largest), 0, -1):
        for rest in _partitions_of(total - head, head):
            yield (head,) + rest


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    for shape in _partitions_of(6):
        assert conjugate_partition(conjugate_partition(shape)) == shape
        assert syt_count(conjugate_partition(shape)) == syt_count(shape)
    with pytest.raises(ValueError):
        check_partition((1, 2))
