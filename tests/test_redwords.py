"""Reduced words: evaluation, enumeration, shifts, braid moves, budgets.

The braid moves are the reference versions in ``oracles``."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redux.permcore import length, longest_element
from redux.redwords import (
    BudgetError,
    budget,
    count_R,
    enumerate_R,
    evaluate,
    find_shift_factor,
    format_word,
    shift,
)

from oracles import apply_long_move, apply_short_move, braid_moves, shift_factor

perms = st.integers(1, 5).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
).map(tuple)


def test_format_word():
    assert format_word(()) == "e"
    assert format_word((1, 2, 1)) == "121"
    assert format_word((10, 11)) == "10,11"


def test_evaluate():
    assert evaluate((1, 2, 1), 3) == ((3, 2, 1), True)
    assert evaluate((2, 1, 2), 3) == ((3, 2, 1), True)
    assert evaluate((1, 1), 3) == ((1, 2, 3), False)
    assert evaluate((), 3) == ((1, 2, 3), True)
    with pytest.raises(ValueError):
        evaluate((3,), 3)
    with pytest.raises(ValueError):
        evaluate((1, 0), 3)


def test_enumerate_R_golden():
    assert {format_word(j) for j in enumerate_R((3, 2, 1))} == {"121", "212"}
    assert enumerate_R((2, 1, 3, 5, 4)) == ((1, 4), (4, 1))
    assert len(enumerate_R(longest_element(4))) == 16


def test_count_matches_enumeration():
    for w in (tuple(p) for p in permutations((1, 2, 3, 4, 5))):
        assert count_R(w) == len(enumerate_R(w))


@given(perms)
def test_every_enumerated_word_is_reduced(w):
    words = enumerate_R(w)
    assert len(set(words)) == len(words)
    assert list(words) == sorted(words)
    for word in words:
        assert evaluate(word, len(w)) == (w, True)
        assert len(word) == length(w)


def test_shift():
    assert shift((1, 2), 1, 4) == (2, 3)
    assert shift((), 3, 4) == ()
    with pytest.raises(ValueError):
        shift((1, 2), 2, 4)
    with pytest.raises(ValueError):
        shift((1,), -1, 4)


def test_find_shift_factor():
    assert find_shift_factor((5, 2, 3, 1), [(1, 2)]) == (2, 1, (1, 2))
    assert find_shift_factor((1, 2), [(1, 2)]) == (1, 0, (1, 2))
    assert find_shift_factor((2, 1), [(1, 2)]) is None
    assert find_shift_factor((3, 1), [()]) == (1, 0, ())
    # earliest start wins over a later, lower shift
    assert find_shift_factor((3, 4, 1, 2), [(1, 2)]) == (1, 2, (1, 2))
    # at one start, the pattern words are tried in the order given
    assert find_shift_factor((1, 2), [(2,), ()]) == (1, 0, ())
    assert find_shift_factor((), [(1,)]) is None
    assert find_shift_factor([2, 3], [(1, 2)]) == (1, 1, (1, 2))


# The reduced words of every pattern in S3 and S4, the empty word alone, and
# lists in which two pattern words can match at one start.
PATTERN_WORD_LISTS = [
    enumerate_R(p) for k in (3, 4) for p in permutations(range(1, k + 1))
] + [[()], [(), (1,)], [(1,), (1, 2)], [(1, 2), (1, 2, 3)], [(1, 2, 1), (1, 2, 1, 3)]]


@st.composite
def words_and_pattern_word_lists(draw):
    """A word of letters 1..6, at most 12 long, and a list of pattern words;
    half the time the word has one of them, shifted, planted in it."""
    pattern_words = draw(st.sampled_from(PATTERN_WORD_LISTS))
    planted: list = []
    if draw(st.booleans()):
        pat = draw(st.sampled_from(pattern_words))
        M = draw(st.integers(0, 6 - max(pat, default=0)))
        planted = [a + M for a in pat]
    word = draw(st.lists(st.integers(1, 6), max_size=12 - len(planted)))
    at = draw(st.integers(0, len(word)))
    return word[:at] + planted + word[at:], pattern_words


@settings(max_examples=300)
@given(words_and_pattern_word_lists())
def test_find_shift_factor_matches_the_brute_force(case):
    word, pattern_words = case
    assert find_shift_factor(word, pattern_words) == shift_factor(word, pattern_words)


def test_braid_moves():
    assert braid_moves((1, 2, 3, 2, 1, 2)) == ([], [2, 4])
    assert braid_moves((1, 3)) == ([1], [])
    assert braid_moves((2, 1, 2)) == ([], [1])


@given(perms, st.randoms(use_true_random=False))
def test_braid_moves_preserve_the_word(w, rnd):
    words = enumerate_R(w)
    word = rnd.choice(words)
    short, long = braid_moves(word)
    for pos in short:
        other = apply_short_move(word, pos)
        assert evaluate(other, len(w)) == (w, True)
        assert apply_short_move(other, pos) == word
    for pos in long:
        other = apply_long_move(word, pos)
        assert evaluate(other, len(w)) == (w, True)
        assert apply_long_move(other, pos) == word


def test_braid_moves_reject_other_positions():
    with pytest.raises(ValueError, match="no short braid move at position 1"):
        apply_short_move((1, 2), 1)
    with pytest.raises(ValueError, match="no long braid move at position 1"):
        apply_long_move((1, 2, 3), 1)
    with pytest.raises(ValueError, match="no long braid move at position 2"):
        apply_long_move((1, 2, 1), 2)


def test_budget_errors():
    with pytest.raises(BudgetError, match=r"length\(w\) = 21 exceeds the limit 16"):
        enumerate_R(longest_element(7))
    with budget(max_words=10), pytest.raises(BudgetError, match=r"\|R\(w\)\| = 768"):
        enumerate_R(longest_element(5))
    with budget(max_words=768):
        assert len(enumerate_R(longest_element(5))) == 768
    with budget(max_length=1), pytest.raises(BudgetError):
        enumerate_R((3, 2, 1))
    with budget(max_length=3):
        assert enumerate_R((3, 2, 1))


def test_budget_restores_previous_limits():
    with budget(max_length=3):
        with pytest.raises(BudgetError), budget(max_words=1):
            enumerate_R((3, 2, 1))
        assert len(enumerate_R((3, 2, 1))) == 2  # max_words is back to its default
        with pytest.raises(BudgetError):
            enumerate_R((4, 3, 2, 1))  # max_length is still 3
    assert len(enumerate_R((4, 3, 2, 1))) == 16
