"""Pattern containment, vexillarity, obstructions, and 321-pattern analysis."""

from __future__ import annotations

from bisect import bisect
from functools import cache
from itertools import combinations
from typing import NamedTuple

from .permcore import Perm, check_perm, inversions


@cache
def _bounds(p: Perm) -> tuple:
    """bounds[d]: the nearest values below and above p[d] among p[:d], 0 and
    len(p) + 1 when there is none."""
    return tuple(
        (
            max((v for v in p[:d] if v < p[d]), default=0),
            min((v for v in p[:d] if v > p[d]), default=len(p) + 1),
        )
        for d in range(len(p))
    )


def _search(w: Perm, p: Perm):
    """Every occurrence of p in w as its 1-based position tuple, in
    lexicographic order, by backtracking over positions.

    The entry of w chosen for p[d] must lie strictly between the entries
    chosen for the nearest values below and above p[d] among p[:d]
    (:func:`_bounds`).  A prefix that fails this orders its entries unlike p
    already, so it is dropped with every extension.
    """
    n, k = len(w), len(p)
    bounds = _bounds(p)
    entry = [0] * (k + 1) + [n + 1]  # entry[v]: the entry playing value v
    positions: list[int] = []
    i = 1  # the next candidate position for p[len(positions)]
    while True:
        d = len(positions)
        if d == k:
            yield tuple(positions)
        else:
            lo, hi = bounds[d]
            last = n - k + d + 1  # leaves room for the rest of p
            while i <= last and not entry[lo] < w[i - 1] < entry[hi]:
                i += 1
            if i <= last:
                entry[p[d]] = w[i - 1]
                positions.append(i)
                i += 1
                continue
        if not positions:
            return
        i = positions.pop() + 1


def occurrences(w: Perm, p: Perm) -> list[tuple[int, ...]]:
    """All occurrences of the pattern ``p`` in ``w``, each as its 1-based
    increasing position tuple, in lexicographic order.

    >>> occurrences((3, 1, 4, 2), (2, 1))
    [(1, 2), (1, 4), (3, 4)]
    """
    w, p = check_perm(w), check_perm(p)
    return list(_search(w, p))


def contains(w: Perm, p: Perm) -> bool:
    """Does ``w`` have an occurrence of ``p``?  Stops at the first one."""
    w, p = check_perm(w), check_perm(p)
    return next(_search(w, p), None) is not None


def first_occurrences(w: Perm, k: int) -> dict[Perm, tuple[int, ...]]:
    """Every pattern of size k that ``w`` contains, mapped to the 1-based
    positions of its lexicographically first occurrence, from one pass over
    the position tuples of length k in lexicographic order.

    >>> first_occurrences((1, 3, 2), 2)
    {(1, 2): (1, 2), (2, 1): (2, 3)}
    """
    w = check_perm(w)
    found: dict = {}
    patterns = map(_standardize, combinations(w, k))
    for pos, pattern in zip(combinations(range(1, len(w) + 1), k), patterns):
        found.setdefault(pattern, pos)
    return found


def _pattern_at(w: Perm, at) -> Perm:
    """The pattern of the entries of ``w`` at the 1-based positions ``at``,
    which must be nonempty, strictly increasing and within w."""
    last, n = 0, len(w)
    for i in at:
        if not last < i <= n:
            raise ValueError("occurrence positions must be increasing positions of w")
        last = i
    if not last:
        raise ValueError("occurrence positions must be increasing positions of w")
    return _standardize(tuple([w[i - 1] for i in at]))


@cache
def _standardize(values: tuple[int, ...]) -> Perm:
    """The pattern of the distinct ``values``: each replaced by its rank.

    Memoised on the value tuple alone.  The k-tuples of distinct values in
    1..n number n!/(n-k)!, so calls on permutations of size up to n keep at
    most that many entries per k: 360 for k = 4 at n = 6, 3,024 at n = 9.
    """
    ranked = sorted(values)
    return tuple(ranked.index(v) + 1 for v in values)


def avoids(w: Perm, p: Perm) -> bool:
    return not contains(w, p)


def is_vexillary(w: Perm) -> bool:
    """2143-avoidance.

    >>> is_vexillary((3, 6, 4, 1, 5, 7, 2))
    True
    >>> is_vexillary((2, 1, 4, 3))
    False
    """
    return avoids(w, (2, 1, 4, 3))


def is_vexillary_by_rows(w: Perm) -> bool:
    """Vexillarity via total ordering of the rows of the inversion set.

    Independent cross-check for :func:`is_vexillary`.
    """
    n = len(w)
    rows = [frozenset(j for (i, j) in inversions(w) if i == r) for r in range(1, n + 1)]
    rows = [r for r in rows if r]
    return all(a <= b or b <= a for a, b in combinations(rows, 2))


FREELY_BRAIDED_FORBIDDEN = ((4, 3, 2, 1), (4, 2, 3, 1), (4, 3, 1, 2), (3, 4, 2, 1))


def is_freely_braided(w: Perm) -> bool:
    """True iff w avoids 4321, 4231, 4312, and 3421.

    >>> is_freely_braided((3, 5, 2, 1, 4))
    False
    >>> is_freely_braided((5, 2, 1, 4, 3))
    True
    """
    found = first_occurrences(w, 4)
    return not any(p in found for p in FREELY_BRAIDED_FORBIDDEN)


def is_freely_braided_by_intersections(w: Perm) -> bool:
    """Defining condition: distinct 321-patterns meet in at most one position."""
    occs = occurrences(w, (3, 2, 1))
    return all(len(set(a) & set(b)) <= 1 for a, b in combinations(occs, 2))


class ObstructionReport(NamedTuple):
    """What ``_obstruction`` reports; a named tuple, so that ``vexalg``'s
    Step 5 builds it cheaply and unpacks it."""

    x: int
    m: int
    a: int
    b: int
    obstructed_left: bool
    obstructed_right: bool


def _obstruction(at, roles, x: int) -> ObstructionReport:
    """Obstruction data for the inside entry ``x`` of a pattern occurrence,
    read off ``at[v]``, the 1-based position of each value v (index 0
    unused), and ``roles``, the occurrence's values in increasing order.
    Step 5 of ``vexalg._vex`` passes its working state as it is.

    Requires role m with <m> < x < <m+1> to exist and the values
    {<m>, x, <m+1>} to appear in increasing order; obstruction is undefined
    otherwise and a ValueError is raised.
    """
    k = len(roles)
    if x in roles:
        raise ValueError(f"{x} is a pattern entry, not inside the pattern")
    px = at[x] if 0 < x < len(at) else 0  # 0: x is not a value of w
    role_at = [at[v] for v in roles]  # role_at[j]: the position of role j + 1
    if not min(role_at) < px < max(role_at):
        raise ValueError(f"{x} is not inside the pattern")
    m = bisect(roles, x)  # the roles increase, so <m> < x < <m+1> if any m fits
    if not 0 < m < k:
        raise ValueError(f"no role m with <m> < {x} < <m+1>")
    if not role_at[m - 1] < px < role_at[m]:
        raise ValueError("values <m>, x, <m+1> do not appear in increasing order")
    # Maximal a, b with <m-a>, ..., <m>, x, <m+1>, ..., <m+1+b> increasing in w.
    a = 0
    while m - 2 - a >= 0 and role_at[m - 2 - a] < role_at[m - 1 - a]:
        a += 1
    b = 0
    while m + b + 1 < k and role_at[m + b] < role_at[m + b + 1]:
        b += 1
    # The roles below <m-a> are the first m-1-a, those above <m+1+b> the
    # last k-m-b-1.
    left_at, right_at = role_at[m - 1 - a], role_at[m + b]
    obstructed_left = any(left_at < q < px for q in role_at[: m - 1 - a])
    obstructed_right = any(px < q < right_at for q in role_at[m + b + 1 :])
    return ObstructionReport(x, m, a, b, obstructed_left, obstructed_right)


def analyze_321(w: Perm) -> tuple[int, bool]:
    """(count of 321-occurrences, whether all share their max and min value).

    An occurrence's max sits at its first position and its min at its last,
    so sharing a value is sharing that position.

    >>> analyze_321((5, 2, 3, 4, 1))
    (3, True)
    """
    occs = occurrences(w, (3, 2, 1))
    shared = len({o[0] for o in occs}) <= 1 and len({o[-1] for o in occs}) <= 1
    return len(occs), shared
