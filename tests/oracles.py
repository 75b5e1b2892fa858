"""Reference versions of what redux computes, for the tests to compare with.

The CLI, the sweeps and the benchmark reach none of this code, so it lives
with the tests (``test_source.py`` keeps src/redux free of such code).  Each
function is the direct form of something the library does another way: the
braid-move closure of a class, the boundary rescan that peels a tiling, the
public wrappers over ``vex`` and Step 5's obstruction, the shifted-factor
search by brute force, Elnitsky's map from a rhombic tiling to its class,
a class's size counted on its own heap, and chainthm's four conditions read
off the whole poset P(w).
"""

from bisect import bisect
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from redux.commutation import CommutationClass, classes, is_path, is_tree, trace_key
from redux.patterns import _search, avoids, occurrences
from redux.permcore import Perm, check_perm, format_perm, inverse
from redux.redwords import Word, evaluate, format_word
from redux.tilings import (
    Tiling,
    TilingPoset,
    _hexagons,
    _outline_edges,
    _peels,
    decode,
    peel_word,
    polygon_outline,
    poset,
)
from redux.vexalg import _obstruction, _vex


def left_mult_adjacent(w: Perm, i: int) -> Perm:
    """s_i * w: swap the positions of the values i and i+1.

    >>> left_mult_adjacent((4, 2, 1, 3), 1)
    (4, 1, 2, 3)
    """
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"index {i} out of range for n={len(w)}")
    lst = list(w)
    a, b = lst.index(i), lst.index(i + 1)
    lst[a], lst[b] = lst[b], lst[a]
    return tuple(lst)


def first_occurrence(w: Perm, p: Perm) -> tuple[int, ...] | None:
    """The 1-based positions of the lexicographically first occurrence of
    ``p`` in ``w``, or None; the search stops there.

    >>> first_occurrence((3, 1, 2), (2, 1))
    (1, 2)
    """
    w, p = check_perm(w), check_perm(p)
    return next(_search(w, p), None)


def obstruction(w: Perm, at: tuple[int, ...], x: int) -> tuple[int, int, int, bool, bool]:
    """(m, a, b, obstructed left, obstructed right) for the inside entry
    ``x`` of the occurrence at the 1-based positions ``at``, where role m
    has <m> < x < <m+1> in increasing order: m by ``bisect`` of the roles,
    the rest from Step 5's ``_obstruction`` on w's position array."""
    inv, roles = [0, *inverse(w)], sorted(w[i - 1] for i in at)
    m = bisect(roles, x)
    return (m, *_obstruction(inv, roles, m, inv[x]))


def shift_factor(word: Word, pattern_words) -> tuple[int, int, Word] | None:
    """First (start, M, pattern_word), start 1-based, with ``pattern_word``
    shifted by M equal to the factor of ``word`` at start: every start in
    turn, every pattern word in the order given, and every shift M from 0
    to the largest letter of word, each shifted tuple built and compared.

    >>> shift_factor((5, 2, 3, 1), [(1, 2)])
    (2, 1, (1, 2))
    """
    word = tuple(word)
    for start in range(len(word) + 1):
        for pat in pattern_words:
            for M in range(max(word, default=0) + 1):
                if word[start : start + len(pat)] == tuple(a + M for a in pat):
                    return start + 1, M, pat
    return None


# ---------------------------------------------------------------------------
# Braid moves and the words of a class


def braid_moves(word: Word) -> tuple[list[int], list[int]]:
    """(short, long) braid move positions, 1-based.

    Short: positions a with |word[a] - word[a+1]| > 1.  Long: positions a
    where word[a .. a+2] has the form j (j+-1) j.

    >>> braid_moves((1, 2, 3, 2, 1, 2))
    ([], [2, 4])
    """
    short = [a for a in range(1, len(word)) if abs(word[a - 1] - word[a]) > 1]
    long = [
        a
        for a in range(1, len(word) - 1)
        if word[a - 1] == word[a + 1] and abs(word[a - 1] - word[a]) == 1
    ]
    return short, long


def apply_short_move(word: Word, pos: int) -> Word:
    a, b = word[pos - 1], word[pos]
    if abs(a - b) <= 1:
        raise ValueError(f"no short braid move at position {pos} of {word}")
    return word[: pos - 1] + (b, a) + word[pos + 1 :]


def apply_long_move(word: Word, pos: int) -> Word:
    a, b = word[pos - 1], word[pos]
    if word[pos + 1 : pos + 2] != (a,) or abs(a - b) != 1:
        raise ValueError(f"no long braid move at position {pos} of {word}")
    return word[: pos - 1] + (b, a, b) + word[pos + 2 :]


@cache
def class_words(c: CommutationClass) -> frozenset[Word]:
    """Every word of the class: the closure of the representative under
    short braid moves."""
    seen = {c.representative}
    stack = [c.representative]
    while stack:
        word = stack.pop()
        for pos in braid_moves(word)[0]:
            nbr = apply_short_move(word, pos)
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return frozenset(seen)


def heap(word: Word) -> list[int]:
    """below[p]: bitmask of the positions that precede p in every word of
    the class, i.e. the strict down-set of p in the heap of ``word``."""
    below: list[int] = []
    last: dict[int, int] = {}
    for p, a in enumerate(word):
        mask = 0
        for b in (a - 1, a, a + 1):
            q = last.get(b)
            if q is not None:
                mask |= below[q] | 1 << q
        below.append(mask)
        last[a] = p
    return below


def class_size(word: Word) -> int:
    """The number of words in the class of ``word`` (linear extensions of
    its heap), by a DP over order ideals as bitmasks.  A letter's positions
    form a chain, so an ideal grows only by its frontier, each letter's next
    position.

    >>> class_size((1, 3, 2, 1, 3))
    4
    """
    below = heap(word)
    first: dict[int, int] = {}  # each letter's first position, as a bit
    after = [0] * len(word)  # after[p]: word[p]'s next position, as a bit
    for p in reversed(range(len(word))):
        after[p], first[word[p]] = first.get(word[p], 0), 1 << p
    ideals = {0: [1, sum(first.values())]}
    for _ in below:
        grown: dict[int, list[int]] = {}
        for ideal, (count, frontier) in ideals.items():
            rest = frontier
            while rest:
                bit = rest & -rest
                rest ^= bit
                p = bit.bit_length() - 1
                if not below[p] & ~ideal:
                    grown.setdefault(ideal | bit, [0, frontier ^ bit | after[p]])[0] += count
        ideals = grown
    return sum(count for count, _ in ideals.values())


# ---------------------------------------------------------------------------
# Tilings built from their tiles, and Elnitsky's map


def boundary_edges(w: Perm) -> frozenset:
    """The edges of the boundary of X(w), as ``Tiling.edge_set`` holds them."""
    return frozenset(_outline_edges(polygon_outline(w)))


def peel_order(w: Perm, tiles) -> list[int]:
    """The tiles of a tiling of X(w) in canonical peel order, found by
    rescanning the boundary: each step peels the topmost tile on it."""
    u, order = w, []
    while len(order) < len(tiles):  # a peeled tile's run stays sorted
        for _, tile, rest in _peels(u, 2, len(u)):
            if tile in tiles:
                break
        else:
            raise ValueError("no tile on the right boundary; not a tiling")
        order.append(tile)
        u = rest
    return order


def tiling_from_word(word: Word, n: int) -> Tiling:
    """The rhombic tiling whose peel sequence reads ``word`` right-to-left,
    holding the chain of its canonical peel as enumeration builds it.

    >>> tiling_from_word((), 3).tiles
    frozenset()
    """
    word = tuple(word)
    w, reduced = evaluate(word, n)
    if not reduced:
        raise ValueError(f"word {format_word(word)} is not reduced")
    u = w
    tiles = set()
    for letter in reversed(word):
        _, tile, u = next(p for p in _peels(u, 2, 2) if p[0] == letter)
        tiles.add(tile)
    chain = None
    for tile in reversed(peel_order(w, tiles)):
        chain = (tile, chain)
    return Tiling(w, frozenset(tiles), chain)


def eln(t: Tiling) -> CommutationClass:
    """The commutation class corresponding to a rhombic tiling."""
    if not t.is_rhombic():
        raise ValueError("eln requires a rhombic tiling")
    key = trace_key(peel_word(t))
    for c in classes(t.w):
        if trace_key(c.representative) == key:
            return c
    raise RuntimeError(f"C({format_perm(t.w)}) lacks the class of a tiling")


def sub_hexagons(t: Tiling) -> list:
    """All flippable sub-hexagons, as (labels (a, b, c), anchor, the three
    rhombi inside t), every tile decoded and the rhombi sorted."""
    n = len(t.w)
    return [
        (*decode(code, n), tuple(sorted(decode(c, n) for c in inside)))
        for code, inside, _ in _hexagons(t)
    ]


def flip_neighbors(t: Tiling) -> list:
    """The tilings one hexagon flip away from t."""
    return [
        Tiling(t.w, (t.tiles - inside) | other) for _, inside, other in _hexagons(t)
    ]


# ---------------------------------------------------------------------------
# chainthm on the poset P(w)


def maximal_cover_minimal(p: TilingPoset) -> bool:
    """Every element strictly below a maximal element is minimal (height <= 1)."""
    minimal = set(p.minimal_indices())
    return all(set(p.down_set(i)) <= minimal for i in p.maximal_indices())


def chain_equivalences(w: Perm) -> tuple[bool, bool, bool, bool]:
    """(flip graph is a tree, is a path, maximal covers minimal in P(w),
    w avoids 4321 and all 321-patterns pairwise intersect at least twice),
    the first three read off all of P(w) and its flip graph on T(w)."""
    p = poset(w)
    g = p.flip_graph
    occs = occurrences(w, (3, 2, 1))
    pattern_cond = avoids(w, (4, 3, 2, 1)) and all(
        len(set(a) & set(b)) >= 2 for a, b in combinations(occs, 2)
    )
    return (is_tree(g), is_path(g), maximal_cover_minimal(p), pattern_cond)


# ---------------------------------------------------------------------------
# vex as a result record


@dataclass(frozen=True)
class VexResult:
    """Output of ``vex``: w_tilde = (s_{I_1}..s_{I_q}) w (s_{J_1}..s_{J_r})."""

    prefix_letters: Word  # I_1 .. I_q
    w_tilde: Perm
    suffix_letters: Word  # J_1 .. J_r
    M: int
    pattern_positions: tuple[int, ...]


def vex(w: Perm, at: tuple[int, ...]) -> VexResult:
    """Shorten ``w`` until the pattern occurrence at the 1-based positions
    ``at`` is consecutive, read off the final state of ``vexalg._vex``."""
    st, M = _vex(w, at)
    return VexResult(
        prefix_letters=tuple(reversed(st.left)),
        w_tilde=tuple(st.w),
        suffix_letters=tuple(st.right),
        M=M,
        pattern_positions=tuple(range(M + 1, M + len(st.p) + 1)),
    )
