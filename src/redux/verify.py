"""Brute-force theorem sweeps over all of S_n.

Each theorem is a stream of cases and a predicate that must hold on each one,
e.g. every freely braided w in S_n and ``freely_braided_structure(w).all_ok()``.
:func:`_sweep` is the one loop that walks such a stream: it counts the cases,
stops at the first one the predicate rejects and formats it as the
counterexample.  ``monotone`` sweeps the (w, p) pairs with w containing p;
``vexthm`` sweeps two streams in turn, the embeddings of vexillary patterns
and then the witnesses of non-vexillary ones.  :func:`run` turns a sweep's
(checked, counterexample) into a :class:`VerifyResult`; ``ok`` is False only
with a concrete counterexample attached, so a failure is always reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations

from .commutation import (
    class_count,
    classes,
    cycle_space_generated_by_4_8_cycles,
    graph,
    graphs_isomorphic,
    is_path,
    rotate_prefix,
    rotate_suffix,
)
from .patterns import (
    analyze_321,
    first_occurrences,
    is_freely_braided,
    is_freely_braided_by_intersections,
    is_vexillary,
    is_vexillary_by_rows,
)
from .permcore import (
    Perm,
    code_and_shape,
    descents,
    format_perm,
    right_mult_adjacent,
    syt_count,
)
from .redwords import count_R, enumerate_R, find_shift_factor
from .tilings import (
    chain_equivalences,
    decreasing_tile_check,
    flip_graph_from_tilings,
    freely_braided_structure,
    level2_cycle_correspondence,
    poset,
    has_unique_max,
    rank_counts,
    shared_chains,
    uniform_2k_tiling_exists,
)
from .vexalg import VexError, embed_reduced_word, lex_least_reduced_word, nonvex_witness


@dataclass(frozen=True)
class VerifyResult:
    theorem: str
    ok: bool
    checked: int
    counterexample: str | None = None

    def summary(self) -> str:
        if self.ok:
            return f"{self.theorem}: PASS ({self.checked} checked)"
        return f"{self.theorem}: FAIL at {self.counterexample}"


def all_perms(n: int):
    return (tuple(p) for p in permutations(range(1, n + 1)))


def _sweep(cases, holds, show=format_perm) -> tuple[int, str | None]:
    """(cases checked, ``show`` of the first case failing ``holds`` or None)."""
    checked = 0
    for case in cases:
        checked += 1
        if not holds(case):
            return checked, show(case)
    return checked, None


def _show_pair(case) -> str:
    """``w=<w> p=<p>`` for a case (w, ..., p) of monotone or vexthm."""
    return f"w={format_perm(case[0])} p={format_perm(case[-1])}"


def _embeds(case) -> bool:
    """``embed_reduced_word`` builds its word with all its checks passing."""
    w, at, pattern_word, _ = case
    try:
        embed_reduced_word(w, at, pattern_word)
    except VexError:
        return False
    return True


def _witness_has_no_factor(p: Perm) -> bool:
    """No reduced word of ``nonvex_witness(p)`` has a shifted word of p as a factor."""
    witness = nonvex_witness(p)
    pattern_words = enumerate_R(p)
    return all(
        find_shift_factor(word, pattern_words) is None for word in enumerate_R(witness)
    )


def _vexthm(n: int) -> tuple[int, str | None]:
    """Vexillary patterns always embed a shifted reduced word; the witness of
    a non-vexillary pattern never does."""
    vexillary = {
        k: {p: lex_least_reduced_word(p) for p in filter(is_vexillary, all_perms(k))}
        for k in (3, 4)
    }
    embeddings = (
        (w, pos, pattern_word, p)
        for k, patterns in vexillary.items()
        for m in range(k, n + 1)
        for w in all_perms(m)
        for first in [first_occurrences(w, k)]
        for p, pattern_word in patterns.items()
        if (pos := first.get(p))
    )
    checked, failure = _sweep(embeddings, _embeds, show=_show_pair)
    if checked == 0:
        raise EmptySweepError(f"vexthm checks no embedding at n={n}")
    if failure is not None:
        return checked, failure
    nonvexillary = (p for k in (4, 5) for p in all_perms(k) if not is_vexillary(p))
    more, failure = _sweep(
        nonvexillary, _witness_has_no_factor, show=lambda p: f"p={format_perm(p)}"
    )
    return checked + more, failure


def _best_long_moves(u: Perm, y: int, z: int, memo: dict) -> int:
    """The most long braid moves open to words of u placed before the
    letters y z; with y = z = 0, to one reduced word of u.

    Words are built right to left from the right descents of what remains;
    placing x before y z opens a long move when x == z (in a reduced word y
    is then x +- 1).  ``memo`` maps each state (u, y, z) done so far to its
    answer; the states do not depend on u, so one memo serves a whole sweep.
    """
    if (u, y, z) not in memo:
        memo[u, y, z] = max(
            (
                (x == z) + _best_long_moves(right_mult_adjacent(u, x), x, y, memo)
                for x in descents(u)
            ),
            default=0,
        )
    return memo[u, y, z]


def _one_long_move(w: Perm, memo: dict) -> bool:
    """U_n membership = no word with two long braid moves; path graph
    corollary.  ``memo`` is passed on to :func:`_best_long_moves`."""
    k, shares = analyze_321(w)
    if shares != (_best_long_moves(w, 0, 0, memo) <= 1):
        return False
    if not shares:
        return True
    g = graph(w)
    return g.vertex_count == k + 1 and is_path(g)


def _monotone(n: int) -> tuple[int, str | None]:
    """|C(w)| >= |C(p)| whenever w contains p, for all p in S4."""
    counts = {p: len(classes(p)) for p in all_perms(4)}
    memo: dict = {}  # class_count's states, shared by every w of S_n
    pairs = (
        (w, cw, p)
        for w in all_perms(n)
        for cw in [class_count(w, memo)]
        for found in [first_occurrences(w, 4)]
        for p in counts
        if p in found
    )
    return _sweep(pairs, lambda case: case[1] >= counts[case[2]], show=_show_pair)


def _tilings_match_classes(w: Perm) -> bool:
    """|T(w)| = |C(w)| and the flip graph is isomorphic to the class graph;
    T(w) and C(w) are each enumerated once, as the vertices of one graph."""
    flips, g = flip_graph_from_tilings(w), graph(w)
    return flips.vertex_count == g.vertex_count and graphs_isomorphic(flips, g)


def _tilings_count_classes(w: Perm, tiling_memo: dict, class_memo: dict) -> bool:
    """|T(w)| = |C(w)|, by two DPs that share no code: r0 of the rank counts
    of Z(w) over the peels of Elnitsky's polygon, and the count of normal
    forms of the commutation classes, each with its own memo."""
    return rank_counts(w, tiling_memo)[0] == class_count(w, class_memo)


def _rotations(n: int):
    """Every (w, rotate, i), w in S_n, with ``rotate`` a rotation of the polygon
    accepting w at i: w starts n, n-1, ..., n+1-i, or ends i, ..., 2, 1."""
    for w in all_perms(n):
        for i in range(1, n + 1):
            if w[:i] == tuple(range(n, n - i, -1)):
                yield w, rotate_prefix, i
            if w[n - i :] == tuple(range(i, 0, -1)):
                yield w, rotate_suffix, i


def _rotation_keeps_class_count(case, memo: dict) -> bool:
    """|C(w)| = |C(rotate(w, i))|, by :func:`class_count` on one S_n's memo."""
    w, rotate, i = case
    return class_count(w, memo) == class_count(rotate(w, i), memo)


def _uniform_2k_tiling_iff(nk: tuple[int, int]) -> bool:
    """Uniform 2k-gon tilings of X(w0) exist exactly for k=2 and k=n."""
    n, k = nk
    return uniform_2k_tiling_exists(n, k) == (k == 2 or k == n)


def _chain_conditions_agree(w: Perm, memo: dict) -> bool:
    """The four conditions of :func:`chain_equivalences` hold together or
    not at all; ``memo`` is its rank counts', shared by the sweep."""
    return len(set(chain_equivalences(w, memo))) == 1


def _unique_max_iff_avoids(w: Perm) -> bool:
    """P(w) has a unique maximum exactly when w avoids 4231, 4312 and 3421."""
    found = first_occurrences(w, 4)
    predicted = not any(p in found for p in ((4, 2, 3, 1), (4, 3, 1, 2), (3, 4, 2, 1)))
    return has_unique_max(poset(w)) == predicted


def _words_count_tableaux(w: Perm) -> bool:
    """|R(w)| equals the number of standard Young tableaux of shape lambda(w)
    (swept over vexillary w)."""
    _, shape = code_and_shape(w)
    return count_R(w) == syt_count(shape)


# theorem id -> its sweep: n -> (cases checked, counterexample or None); a
# memo bound by ``partial`` inside a sweep's lambda serves that one sweep
THEOREMS = {
    "vexthm": _vexthm,
    "1lbm": lambda n: _sweep(all_perms(n), partial(_one_long_move, memo={})),
    "monotone": _monotone,
    "elthm": lambda n: _sweep(all_perms(n), _tilings_match_classes),
    "elcount": lambda n: _sweep(
        all_perms(n), partial(_tilings_count_classes, tiling_memo={}, class_memo={})
    ),
    "cyc48": lambda n: _sweep(
        all_perms(n), lambda w: cycle_space_generated_by_4_8_cycles(graph(w))
    ),
    "rotcount": lambda n: _sweep(
        _rotations(n),
        partial(_rotation_keeps_class_count, memo={}),
        show=lambda case: f"{case[1].__name__}({format_perm(case[0])}, {case[2]})",
    ),
    "2kgon": lambda n: _sweep(all_perms(n), partial(decreasing_tile_check, memo={})),
    "2ktiles": lambda n: _sweep(
        ((m, k) for m in range(3, n + 1) for k in range(2, m + 1)),
        _uniform_2k_tiling_iff,
        show=lambda nk: "n={} k={}".format(*nk),
    ),
    "chainthm": lambda n: _sweep(all_perms(n), partial(_chain_conditions_agree, memo={})),
    "maxelt": lambda n: _sweep(all_perms(n), _unique_max_iff_avoids),
    "ssv": lambda n: _sweep(all_perms(n), level2_cycle_correspondence),
    "fb": lambda n: _sweep(
        filter(is_freely_braided, all_perms(n)),
        lambda w: freely_braided_structure(w).all_ok(),
    ),
    "syt": lambda n: _sweep(filter(is_vexillary, all_perms(n)), _words_count_tableaux),
    "vexrows": lambda n: _sweep(
        all_perms(n), lambda w: is_vexillary_by_rows(w) == is_vexillary(w)
    ),
    "fbdef": lambda n: _sweep(
        all_perms(n),
        lambda w: is_freely_braided_by_intersections(w) == is_freely_braided(w),
    ),
}


class EmptySweepError(ValueError):
    """A sweep met no case, so it has nothing to report as PASS."""


def run(theorem: str, n: int) -> VerifyResult:
    """Sweep ``theorem`` over S_n inside one :func:`shared_chains` scope, so
    its tilings enumerations share their chains and none outlives it."""
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}; known: {sorted(THEOREMS)}")
    with shared_chains():
        checked, counterexample = THEOREMS[theorem](n)
    if checked == 0:
        raise EmptySweepError(f"{theorem} checks no case at n={n}")
    return VerifyResult(theorem, counterexample is None, checked, counterexample)
