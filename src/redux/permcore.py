"""Permutations in one-line notation, with their basic combinatorial statistics.

Permutations are plain tuples of the values ``1..n``, so ``(4, 2, 1, 3)`` is
the permutation usually written ``4213``.  All functions are pure and return
new tuples; nothing here mutates its arguments.
"""

from __future__ import annotations

import math

Perm = tuple[int, ...]
CellSet = frozenset[tuple[int, int]]
Partition = tuple[int, ...]


def check_perm(entries) -> Perm:
    """Validate and normalize ``entries`` as a permutation of ``1..n``.

    >>> check_perm([4, 2, 1, 3])
    (4, 2, 1, 3)
    """
    w = tuple(entries)
    n = len(w)
    if n < 1 or sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {entries!r}")
    return w


def parse_perm(text: str) -> Perm:
    """Parse one-line notation: concatenated digits, or separated entries.

    >>> parse_perm("4213")
    (4, 2, 1, 3)
    >>> parse_perm("10 2 3 4 5 6 7 8 9 1")[0]
    10
    """
    text = text.strip()
    if any(sep in text for sep in (" ", ",")):
        parts = text.replace(",", " ").split()
    else:
        parts = list(text)
    try:
        entries = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse permutation: {text!r}") from None
    return check_perm(entries)


def format_perm(w: Perm) -> str:
    """One-line notation: digits concatenated for n <= 9, else space-separated."""
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return " ".join(str(v) for v in w)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The reversing permutation ``n...21``, of maximal length n(n-1)/2.

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(range(n, 0, -1))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def right_mult_adjacent(w: Perm, i: int) -> Perm:
    """w * s_i: swap the entries in positions i and i+1.

    >>> right_mult_adjacent((4, 2, 1, 3), 1)
    (2, 4, 1, 3)
    """
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"index {i} out of range for n={len(w)}")
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def inversions(w: Perm) -> CellSet:
    """All pairs (i, j) with i < j and w(i) > w(j).

    >>> sorted(inversions((4, 2, 1, 3)))
    [(1, 2), (1, 3), (1, 4), (2, 3)]
    """
    n = len(w)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if w[i - 1] > w[j - 1]
    )


def length(w: Perm) -> int:
    """The Coxeter length, equal to the number of inversions, in O(n): each
    entry counts the larger entries already seen, read off a bitset of the
    values to its left.

    >>> length((4, 2, 1, 3))
    4
    """
    count = seen = 0
    for a in w:
        count += (seen >> a).bit_count()
        seen |= 1 << a
    return count


def descents(w: Perm) -> list[int]:
    """Positions i with w(i) > w(i+1)."""
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def code_and_shape(w: Perm) -> tuple[tuple[int, ...], Partition]:
    """The code c(w) (inversions per row) and shape: the code sorted decreasingly.

    >>> code_and_shape((4, 2, 1, 3))
    ((3, 1, 0, 0), (3, 1))
    """
    n = len(w)
    code = tuple(
        sum(1 for j in range(i + 1, n + 1) if w[i - 1] > w[j - 1]) for i in range(1, n + 1)
    )
    shape = tuple(sorted((c for c in code if c > 0), reverse=True))
    return code, shape


def diagram(w: Perm) -> CellSet:
    """Cells (i, j) with i < w^{-1}(j) and j < w(i); has length(w) cells.

    >>> sorted(diagram((4, 2, 1, 3)))
    [(1, 1), (1, 2), (1, 3), (2, 1)]
    """
    n = len(w)
    inv = inverse(w)
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i < inv[j - 1] and j < w[i - 1]
    )


def check_partition(parts) -> Partition:
    shape = tuple(parts)
    if any(a < 0 for a in shape) or any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError(f"not a partition: {parts!r}")
    while shape and shape[-1] == 0:
        shape = shape[:-1]
    return shape


def conjugate_partition(shape: Partition) -> Partition:
    shape = check_partition(shape)
    if not shape:
        return ()
    return tuple(sum(1 for part in shape if part > c) for c in range(shape[0]))


def syt_count(shape) -> int:
    """Number of standard Young tableaux of the given shape, by hook lengths.

    >>> syt_count((3, 2, 1))
    16
    >>> syt_count(())
    1
    """
    shape = check_partition(shape)
    n = sum(shape)
    conj = conjugate_partition(shape)
    hooks = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            hooks *= (row_len - c) + (conj[c] - r) - 1
    count, rem = divmod(math.factorial(n), hooks)
    if rem:
        raise RuntimeError(f"the hook product {hooks} does not divide {n}!")
    return count
