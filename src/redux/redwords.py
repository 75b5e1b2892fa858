"""Reduced decompositions: evaluation, enumeration, shifts, shifted factors.

A reduced word is a tuple of letters in ``1..n-1``; the word ``(i_1, ..., i_l)``
stands for the product ``s_{i_1} ... s_{i_l}``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import lru_cache

from .permcore import Perm, check_perm, descents, length, right_mult_adjacent

Word = tuple[int, ...]


class BudgetError(RuntimeError):
    """Raised when an enumeration exceeds its configured budget."""


@dataclass(frozen=True)
class Budget:
    """Limits on the four enumerators ``enumerate_R``, ``classes``,
    ``enumerate_rhombic`` and ``enumerate_zonotopal``: ``max_length`` bounds
    length(w) in all four, ``max_words`` bounds |R(w)| in ``enumerate_R``
    alone.  The one in force is set with :func:`budget`."""

    max_length: int = 16
    max_words: int = 5_000_000


_BUDGET: ContextVar[Budget] = ContextVar("redux_budget", default=Budget())


@contextmanager
def budget(**limits):
    """Run the block under the current budget with ``limits`` replaced; the
    previous budget is back in force when the block exits.

    >>> with budget(max_length=2):
    ...     enumerate_R((3, 2, 1))
    Traceback (most recent call last):
    redux.redwords.BudgetError: length(w) = 3 exceeds the limit 2; raise --max-length to override
    >>> enumerate_R((3, 2, 1))
    ((1, 2, 1), (2, 1, 2))
    """
    token = _BUDGET.set(replace(_BUDGET.get(), **limits))
    try:
        yield
    finally:
        _BUDGET.reset(token)


def format_word(word: Word) -> str:
    """Concatenated digits when every letter is < 10, comma-separated otherwise."""
    if not word:
        return "e"
    if max(word) <= 9:
        return "".join(map(str, word))
    return ",".join(map(str, word))


def evaluate(letters, n: int) -> tuple[Perm, bool]:
    """Evaluate the word as a product of adjacent transpositions in S_n.

    Returns the product and whether the word is reduced (every letter
    lengthens the product).

    >>> evaluate((1, 2, 1), 3)
    ((3, 2, 1), True)
    >>> evaluate((1, 1), 3)
    ((1, 2, 3), False)
    """
    word = tuple(letters)
    if word and (min(word) < 1 or max(word) > n - 1):
        raise ValueError(f"letters must lie in 1..{n - 1}: {word!r}")
    u = list(range(1, n + 1))
    reduced = True
    for a in word:
        left, right = u[a - 1], u[a]
        if left > right:
            reduced = False
        u[a - 1], u[a] = right, left
    return tuple(u), reduced


@lru_cache(maxsize=None)
def count_R(w: Perm) -> int:
    """|R(w)| by descent recursion (cheap; used for budget checks)."""
    if not descents(w):
        return 1
    return sum(count_R(right_mult_adjacent(w, i)) for i in descents(w))


def check_budget(w: Perm, words: bool = False) -> Perm:
    """Validate ``w`` and refuse it when length(w), or with ``words`` also
    |R(w)|, is over the current budget."""
    w = check_perm(w)
    limits = _BUDGET.get()
    if length(w) > limits.max_length:
        raise BudgetError(
            f"length(w) = {length(w)} exceeds the limit {limits.max_length}; "
            "raise --max-length to override"
        )
    if words and count_R(w) > limits.max_words:
        raise BudgetError(
            f"|R(w)| = {count_R(w)} exceeds the limit {limits.max_words}; "
            "raise --max-words to override"
        )
    return w


def enumerate_R(w: Perm) -> tuple[Word, ...]:
    """All reduced decompositions of ``w``, sorted lexicographically.

    >>> [format_word(j) for j in enumerate_R((3, 2, 1))]
    ['121', '212']
    """
    w = check_budget(w, words=True)
    return tuple(sorted(_words(w, {})))


def _words(u: Perm, memo: dict) -> tuple[Word, ...]:
    """R(u), unsorted; ``memo`` maps each permutation done so far to its words."""
    ds = descents(u)
    if not ds:
        return ((),)
    cached = memo.get(u)
    if cached is None:
        cached = tuple(
            prefix + (i,) for i in ds for prefix in _words(right_mult_adjacent(u, i), memo)
        )
        memo[u] = cached
    return cached


def shift(word: Word, M: int, new_n: int) -> Word:
    """Add M to every letter; the result must fit in S_{new_n}.

    >>> shift((1, 2), 1, 4)
    (2, 3)
    """
    if M < 0:
        raise ValueError("shift must be nonnegative")
    if word and max(word) + M > new_n - 1:
        raise ValueError(f"shift by {M} leaves letters outside 1..{new_n - 1}")
    return tuple([a + M for a in word])


def find_shift_factor(
    word: Word, pattern_words
) -> tuple[int, int, Word] | None:
    """First (start, M, pattern_word) with word[start : start+len] a shift.

    ``pattern_words`` must be sorted and free of duplicates, as
    :func:`enumerate_R` returns them.  Positions are 1-based; scanning is by
    start position, then by pattern word in the order given.  Returns None
    if no shifted factor occurs.
    """
    word = tuple(word)
    n = len(word)
    for start in range(n + 1):  # 0-based here
        for pat in pattern_words:
            size = len(pat)
            if not size:
                return start + 1, 0, pat
            if start + size > n:
                continue
            M = word[start] - pat[0]
            if M < 0 or (size > 1 and word[start + 1] - pat[1] != M):
                continue  # rejected on its first two letters
            for j in range(2, size):
                if word[start + j] - pat[j] != M:
                    break
            else:
                return start + 1, M, pat
    return None
