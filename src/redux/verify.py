"""Brute-force theorem sweeps over all of S_n, one function per statement.

Each sweep returns a :class:`VerifyResult`; ``ok`` is False only with a
concrete counterexample attached, so a failure is always reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .commutation import classes, graph, graphs_isomorphic, is_path
from .patterns import (
    avoids,
    in_U_n,
    is_freely_braided,
    is_vexillary,
    occurrences,
)
from .permcore import (
    Perm,
    code_and_shape,
    descents,
    format_perm,
    right_mult_adjacent,
    syt_count,
)
from .redwords import enumerate_R, find_shift_factor
from .tilings import (
    chain_equivalences,
    decreasing_tile_check,
    enumerate_rhombic,
    flip_graph_from_tilings,
    freely_braided_structure,
    level2_cycle_correspondence,
    poset,
    has_unique_max,
    uniform_2k_tiling_exists,
)
from .vexalg import embed_reduced_word, nonvex_witness


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


def _result(theorem: str, checked: int, counterexample=None) -> VerifyResult:
    return VerifyResult(theorem, counterexample is None, checked, counterexample)


def verify_vexthm(n: int) -> VerifyResult:
    """Vexillary patterns always embed a shifted reduced word; the witness of
    a non-vexillary pattern never does."""
    checked = 0
    for k in (3, 4):
        for p in all_perms(k):
            if not is_vexillary(p):
                continue
            pattern_word = min(enumerate_R(p))
            for m in range(k, n + 1):
                for w in all_perms(m):
                    occs = occurrences(w, p)
                    if not occs:
                        continue
                    checked += 1
                    try:
                        embed_reduced_word(w, occs[0], pattern_word)
                    except AssertionError:
                        return _result(
                            "vexthm", checked, f"w={format_perm(w)} p={format_perm(p)}"
                        )
    for k in (4, 5):
        for p in all_perms(k):
            if is_vexillary(p):
                continue
            checked += 1
            witness = nonvex_witness(p)
            pattern_words = enumerate_R(p)
            if any(
                find_shift_factor(word, pattern_words) is not None
                for word in enumerate_R(witness)
            ):
                return _result("vexthm", checked, f"p={format_perm(p)}")
    return _result("vexthm", checked)


def _max_long_moves(w: Perm) -> int:
    """The most long braid moves open to one reduced word of ``w``.

    Words are built right to left from the right descents of what remains;
    placing x before y z opens a long move when x == z (in a reduced word y
    is then x +- 1).
    """

    @lru_cache(maxsize=None)
    def best(u: Perm, y: int, z: int) -> int:
        gains = [(x == z) + best(right_mult_adjacent(u, x), x, y) for x in descents(u)]
        return max(gains, default=0)

    return best(w, 0, 0)


def verify_1lbm(n: int) -> VerifyResult:
    """U_n membership = no word with two long braid moves; path graph corollary."""
    checked = 0
    for w in all_perms(n):
        checked += 1
        shares = in_U_n(w)
        at_most_one = _max_long_moves(w) <= 1
        if shares != at_most_one:
            return _result("1lbm", checked, format_perm(w))
        if shares:
            k = len(occurrences(w, (3, 2, 1)))
            g = graph(w)
            if g.vertex_count != k + 1 or not is_path(g):
                return _result("1lbm", checked, format_perm(w))
    return _result("1lbm", checked)


def verify_monotone(n: int) -> VerifyResult:
    """|C(w)| >= |C(p)| whenever w contains p, for all p in S4."""
    counts = {p: len(classes(p)) for p in all_perms(4)}
    checked = 0
    for w in all_perms(n):
        cw = len(classes(w))
        for p, cp in counts.items():
            if occurrences(w, p):
                checked += 1
                if cw < cp:
                    return _result(
                        "monotone", checked, f"w={format_perm(w)} p={format_perm(p)}"
                    )
    return _result("monotone", checked)


def verify_elthm(n: int) -> VerifyResult:
    """|T(w)| = |C(w)| and the flip graph is isomorphic to the class graph."""
    checked = 0
    for w in all_perms(n):
        checked += 1
        tilings = enumerate_rhombic(w)
        cls = classes(w)
        if len(tilings) != len(cls):
            return _result("elthm", checked, format_perm(w))
        if not graphs_isomorphic(flip_graph_from_tilings(w), graph(w)):
            return _result("elthm", checked, format_perm(w))
    return _result("elthm", checked)


def verify_2kgon(n: int) -> VerifyResult:
    checked = 0
    for w in all_perms(n):
        checked += 1
        if not decreasing_tile_check(w):
            return _result("2kgon", checked, format_perm(w))
    return _result("2kgon", checked)


def verify_2ktiles(n: int) -> VerifyResult:
    """Uniform 2k-gon tilings of X(w0) exist exactly for k=2 and k=n."""
    checked = 0
    for m in range(3, n + 1):
        for k in range(2, m + 1):
            checked += 1
            if uniform_2k_tiling_exists(m, k) != (k == 2 or k == m):
                return _result("2ktiles", checked, f"n={m} k={k}")
    return _result("2ktiles", checked)


def verify_chainthm(n: int) -> VerifyResult:
    checked = 0
    for w in all_perms(n):
        checked += 1
        a, b, c, d = chain_equivalences(w)
        if not a == b == c == d:
            return _result("chainthm", checked, format_perm(w))
    return _result("chainthm", checked)


def verify_maxelt(n: int) -> VerifyResult:
    checked = 0
    for w in all_perms(n):
        checked += 1
        predicted = (
            avoids(w, (4, 2, 3, 1))
            and avoids(w, (4, 3, 1, 2))
            and avoids(w, (3, 4, 2, 1))
        )
        if has_unique_max(poset(w)) != predicted:
            return _result("maxelt", checked, format_perm(w))
    return _result("maxelt", checked)


def verify_ssv(n: int) -> VerifyResult:
    checked = 0
    for w in all_perms(n):
        checked += 1
        if not level2_cycle_correspondence(w):
            return _result("ssv", checked, format_perm(w))
    return _result("ssv", checked)


def verify_fb(n: int) -> VerifyResult:
    checked = 0
    for w in all_perms(n):
        if not is_freely_braided(w):
            continue
        checked += 1
        if not freely_braided_structure(w).all_ok():
            return _result("fb", checked, format_perm(w))
    return _result("fb", checked)


def verify_syt(n: int) -> VerifyResult:
    """For vexillary w, |R(w)| equals the number of standard Young tableaux
    of shape lambda(w)."""
    checked = 0
    for w in all_perms(n):
        if not is_vexillary(w):
            continue
        checked += 1
        _, shape = code_and_shape(w)
        if len(enumerate_R(w)) != syt_count(shape):
            return _result("syt", checked, format_perm(w))
    return _result("syt", checked)


THEOREMS = {
    "vexthm": verify_vexthm,
    "1lbm": verify_1lbm,
    "monotone": verify_monotone,
    "elthm": verify_elthm,
    "2kgon": verify_2kgon,
    "2ktiles": verify_2ktiles,
    "chainthm": verify_chainthm,
    "maxelt": verify_maxelt,
    "ssv": verify_ssv,
    "fb": verify_fb,
    "syt": verify_syt,
}


def run(theorem: str, n: int) -> VerifyResult:
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}; known: {sorted(THEOREMS)}")
    return THEOREMS[theorem](n)
