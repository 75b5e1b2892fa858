"""Elnitsky's polygon, its rhombic and zonotopal tilings, and the tiling poset.

Coordinates are combinatorial: a grid point is the set of edge labels crossed
on the way down from the top vertex, so point and edge identity are exact set
comparisons and tilings deduplicate without any geometry.  Planar coordinates
enter only in :mod:`redux.render`, the one module that draws or serialises.

A tile of X(w), w in S_n, is one int, its code: ``labels | anchor << n``,
where bit i - 1 of each n-bit mask stands for label i.  A tiling is a
frozenset of codes, and every split, flip, cover and peel is a mask
operation.  :func:`decode` is the one decoder: it checks a code and gives
the tile as ascending (labels, anchor) tuples, which :mod:`redux.render` and
the tests read, and its result is the one order of tiles.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import combinations, product

from .commutation import FlipGraph, classes, index_moves, is_path, is_tree, spans_cycle_space
from .patterns import _pattern_at, avoids, is_freely_braided, occurrences
from .permcore import (
    Perm,
    check_perm,
    format_perm,
    identity,
    longest_element,
)
from .redwords import Word, check_budget

Point = frozenset  # of labels in 1..n


def _labels(mask: int) -> list[int]:
    """The labels of a mask, ascending: bit i - 1 stands for label i."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def decode(code: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tile with this code, a centrally symmetric 2k-gon of X(w) with w
    in S_n, as (labels, anchor), both ascending; raises ValueError unless
    the code is a tile.  Sorting codes by it is the one order of tiles.

    ``anchor`` is the top vertex; going down the right side the labels are
    added in decreasing order, down the left side in increasing order.

    >>> decode(0b001_110, 3)
    ((2, 3), (1,))
    """
    _tile_pairs(code, n)
    return tuple(_labels(code & ((1 << n) - 1))), tuple(_labels(code >> n))


def _pair_bit(a: int, b: int) -> int:
    """The bit of the unit cell of labels a < b."""
    return 1 << ((b - 1) * (b - 2) // 2 + a - 1)


# {n: {tile code: value}}, one dict per n for each value derived from a tile
# of X(w), w in S_n: the unit cells it covers and what its peel adds to a
# peel word (:func:`_tile_part`).  A code enters on first sight, once
# _tile_pairs has accepted it, so only tiles do, and fewer than 3^n codes
# per n are tiles.
_PAIRS: dict[int, dict[int, int]] = {}
_PARTS: dict[int, dict[int, tuple[tuple[int, ...], int, str, str]]] = {}


def _tile_pairs(code: int, n: int) -> int:
    """The unit cells the tile with this code covers, all its label pairs;
    raises ValueError when the code is no tile of X(w), w in S_n."""
    known = _PAIRS.get(n) or _PAIRS.setdefault(n, {})
    if code in known:
        return known[code]
    labels = code & ((1 << n) - 1)
    if code >> 2 * n:
        raise ValueError("a tile code has bits beyond 2n")
    if not labels & (labels - 1):
        raise ValueError("a tile needs at least two labels")
    if labels & code >> n:
        raise ValueError("a tile's labels must not meet its anchor")
    pairs = known[code] = sum(_pair_bit(a, b) for a, b in combinations(_labels(labels), 2))
    return pairs


@lru_cache(maxsize=1)
def _inversion_mask(w: Perm) -> int:
    """The unit cells of X(w): the pairs of values that w inverts; raises
    ValueError unless w is a permutation.  Tilings are built one w at a
    time, so one entry serves a whole enumeration."""
    n = len(check_perm(w))
    return sum(
        _pair_bit(w[j], w[i])
        for i in range(n)
        for j in range(i + 1, n)
        if w[i] > w[j]
    )


def polygon_outline(w: Perm) -> list[Point]:
    """The grid points around X(w): down its left side from the top vertex,
    then up its right side."""
    n = len(w)
    left = [frozenset(range(1, j + 1)) for j in range(n + 1)]
    return left + [frozenset(w[:j]) for j in range(n - 1, 0, -1)]


def tile_outline(labels: tuple, anchor: tuple) -> list[Point]:
    """The grid points around a decoded tile: down its right side from the
    anchor, adding the labels in decreasing order, then up its left side."""
    at, k = frozenset(anchor), len(labels)
    down = [at.union(labels[i:]) for i in range(k, -1, -1)]
    return down + [at.union(labels[:i]) for i in range(k - 1, 0, -1)]


def _outline_edges(outline: list) -> set:
    """The edges between consecutive points of a closed outline, each as
    (the point above it, its label)."""
    return {(a & b, *(a ^ b)) for a, b in zip(outline, outline[1:] + outline[:1])}


@dataclass(frozen=True)
class Tiling:
    """A zonotopal tiling of X(w); rhombic when every tile has order 2.

    ``tiles`` is a frozenset of tile codes.  ``chain`` is the chain of the
    tiling's canonical peel when enumeration built it (see
    :func:`_canonical_peels`), else None; :func:`_peel_chain` reads it, so
    only a tiling that holds its chain has a peel word.  A w given as a
    list or another sequence is checked and stored as a tuple.
    """

    w: Perm
    tiles: frozenset
    chain: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if type(self.w) is not tuple:
            object.__setattr__(self, "w", check_perm(self.w))
        n = len(self.w)
        known = _PAIRS.get(n) or _PAIRS.setdefault(n, {})
        covered = 0
        for code in self.tiles:
            pairs = known.get(code) or _tile_pairs(code, n)
            if covered & pairs:
                for code in self.tiles:
                    _tile_pairs(code, n)  # a non-tile code is reported first
                raise ValueError("tiles overlap")
            covered |= pairs
        if covered != _inversion_mask(self.w):
            raise ValueError("tiles must cover X(w) exactly")

    @cached_property
    def edge_set(self) -> frozenset:
        n = len(self.w)
        out = _outline_edges(polygon_outline(self.w))
        for code in self.tiles:
            out |= _outline_edges(tile_outline(*decode(code, n)))
        return frozenset(out)

    def is_rhombic(self) -> bool:
        return max(self.shape_profile(), default=2) == 2

    def shape_profile(self) -> tuple[int, ...]:
        """Sorted tile orders, e.g. (2, 2, 3) = two rhombi and a hexagon."""
        full = (1 << len(self.w)) - 1
        return tuple(sorted((code & full).bit_count() for code in self.tiles))

    def key(self):
        """Deterministic sort key (tilings of the same w only)."""
        return tuple(sorted(decode(code, len(self.w)) for code in self.tiles))

    def leq(self, other: "Tiling") -> bool:
        """Reverse edge inclusion: finer tilings are smaller."""
        if self.w != other.w:
            raise ValueError("only tilings of the same w are comparable")
        return self.edge_set >= other.edge_set


# ---------------------------------------------------------------------------
# Enumeration by right-boundary peeling


def _peels(u: Perm, lo: int, hi: int):
    """Every 2m-gon tile, lo <= m <= hi, that can be peeled off boundary u.

    A tile sits on the right boundary exactly where u has a descending run
    u(j) > ... > u(j+m-1); its labels are the run and its anchor is
    {u(1), ..., u(j-1)}.  Yields (j, tile code, rest), topmost first: by j,
    then by m; rest is the boundary the peel leaves, u with the run sorted
    ascending.  The code has j + m - 1 bits set, so it carries m.
    """
    n = len(u)
    anchor = 0
    for j in range(1, n):
        run = 1 << (u[j - 1] - 1)
        m = 2
        while m <= hi and j + m - 1 <= n and u[j + m - 3] > u[j + m - 2]:
            run |= 1 << (u[j + m - 2] - 1)
            if m >= lo:
                rest = u[: j - 1] + u[j - 1 : j - 1 + m][::-1] + u[j - 1 + m :]
                yield j, run | anchor << n, rest
            m += 1
        anchor |= 1 << (u[j - 1] - 1)


# {max_order: ({boundary: chains}, {n: tile bits})} of the open scope, or None
_CHAINS: ContextVar[dict | None] = ContextVar("redux_chains", default=None)


@contextmanager
def shared_chains():
    """Run the block with one chain memo and tile table per max_order, shared
    by every enumeration in it; no scope is open once the block exits.

    The chains of X(u) depend only on the boundary u, not on the w that the
    enumeration started from, so a sweep peels each boundary once.  Outside
    any scope each enumeration starts a fresh memo.
    """
    token = _CHAINS.set({})
    try:
        yield
    finally:
        _CHAINS.reset(token)


def _scope(max_order: int) -> tuple[dict, dict] | None:
    """The open scope's (chain memo, tile tables) at this max_order, or None
    outside any :func:`shared_chains` scope."""
    scope = _CHAINS.get()
    return None if scope is None else scope.setdefault(max_order, ({}, {}))


def _tile_bits(n: int, tiles=None) -> dict[int, int]:
    """Tile codes of S_n, these or else all, mapped in decode order to bits N..1."""
    full, masks = (1 << n) - 1, range(1 << n)
    if tiles is None:
        tiles = (a | b << n for a in masks if a & (a - 1) for b in masks if not a & b)
    order = sorted(tiles, key=lambda code: (_labels(code & full), _labels(code >> n)))
    return {code: 1 << (len(order) - i) for i, code in enumerate(order)}


def _enumerate(w: Perm, max_order: int) -> tuple[Tiling, ...]:
    """All tilings of X(w) by 2m-gons with m <= max_order, sorted by key,
    each holding its chain.

    Chains are sorted, before any tile set is built, descending on the sum
    of their tiles' bits (:func:`_tile_bits`).  This is ``Tiling.key``'s
    order: each tiling covers X(w) exactly, so no two have nested tile
    sets, and the first tile in decode order that only one holds puts that
    one first both ways.  Outside a :func:`shared_chains` scope the memo is
    fresh and its first tiles are X(w)'s; a sweep's scope shares its memo
    and one table of every code of S_n.
    """
    scope, n = _scope(max_order), len(w)
    memo, tables = scope or ({}, {})
    chains = _canonical_peels(w, max_order, memo)
    if scope is None:
        bits = _tile_bits(n, {chain[0] for cs in memo.values() for chain in cs if chain})
    else:
        bits = tables.get(n) or tables.setdefault(n, _tile_bits(n))

    def key(chain) -> int:
        total = 0
        while chain is not None:
            tile, chain = chain
            total |= bits[tile]
        return total

    chains = sorted(chains, key=key, reverse=True)
    return tuple(Tiling(w, frozenset(_chain_tiles(chain)), chain) for chain in chains)


def _canonical_peels(u: Perm, max_order: int, memo: dict) -> tuple:
    """The tilings of X(u) by 2m-gons with m <= max_order, each once, as the
    chain of its canonical peel: the topmost tile on the boundary first.

    A chain is None, the empty tiling of the identity (the one boundary with
    no peel), or (tile, tail): the tile peels off positions j..end of u and
    tail is the chain of the tiling left on the new boundary.  The anchor
    holds j - 1 labels, so the code has ``end`` bits set.  The peel at j is
    canonical exactly when tail's first tile ends at j or below:
    - a tile on the new boundary ending above j sat on u's boundary too,
      above the tile at j, so that peel was not the topmost;
    - if tail has such a tile, its first tile, the topmost one, ends above j
      as well, since two tiles of a tiling on one boundary share no position;
    - no other tile on u's boundary lies above the tile at j: it would share
      a position with it.
    Every tiling is found once, and no tile set is built below the top.
    ``memo`` maps each boundary done so far, at this max_order, to its
    chains; chains share their tails.
    """
    if u not in memo:
        out = [
            (tile, tail)
            for j, tile, rest in _peels(u, 2, max_order)
            for tail in _canonical_peels(rest, max_order, memo)
            if tail is None or tail[0].bit_count() >= j
        ]
        memo[u] = tuple(out) or (None,)
    return memo[u]


def _rank_counts(u: Perm, memo: dict) -> dict[int, tuple[int, int, int]]:
    """The tilings of Z(u) counted without building one: a map {end of the
    canonical first tile: (r0, r1, r2)}, where r_k counts those tilings
    whose tiles have Σ(order - 2) = k, the last entry taking every sum
    >= 2.  The end is the tile's bit count (:func:`_canonical_peels`), 0
    for the empty tiling of the identity.

    A peel at j with a tile of order m adds m - 2 to the sum of every tiling
    of the boundary it leaves that it can start canonically: those whose
    first tile ends at j or below, as :func:`_canonical_peels` tests.
    ``memo`` maps each boundary done so far to its map, which does not
    depend on where the walk started.
    """
    counts = memo.get(u)
    if counts is None:
        counts = {}
        for j, tile, rest in _peels(u, 2, len(u)):
            r0 = r1 = r2 = 0
            for end, (a, b, c) in _rank_counts(rest, memo).items():
                if end == 0 or end >= j:
                    r0, r1, r2 = r0 + a, r1 + b, r2 + c
            if not r0 | r1 | r2:
                continue
            end = tile.bit_count()
            rank = end - j - 1  # m - 2: the anchor holds j - 1 labels
            if rank == 1:
                r0, r1, r2 = 0, r0, r1 + r2
            elif rank:
                r0, r1, r2 = 0, 0, r0 + r1 + r2
            if end in counts:
                a, b, c = counts[end]
                r0, r1, r2 = r0 + a, r1 + b, r2 + c
            counts[end] = r0, r1, r2
        memo[u] = counts = counts or {0: (1, 0, 0)}
    return counts


def rank_counts(w: Perm, memo: dict) -> tuple[int, int, int]:
    """(r0, r1, r2): the tilings of Z(w) whose tiles have Σ(order - 2) = 0,
    = 1 and >= 2, counted by :func:`_rank_counts` without building one.

    r0 = |T(w)|, and r1 counts the tilings with one hexagon and rhombi
    elsewhere, one per flip of T(w).  The sum is not the rank of P(w): the
    coatoms of the 12-gon have sums 3 and 4.  ``memo`` serves every w of
    one S_n; the budget applies as in :func:`enumerate_zonotopal`.

    >>> rank_counts((3, 2, 1), {}), rank_counts((4, 3, 2, 1), {})
    ((2, 1, 0), (8, 8, 1))
    """
    w = check_budget(w)
    r0 = r1 = r2 = 0
    for a, b, c in _rank_counts(w, memo).values():
        r0, r1, r2 = r0 + a, r1 + b, r2 + c
    return r0, r1, r2


def _chain_tiles(chain) -> list[int]:
    """The tiles of a chain, in peel order."""
    tiles = []
    while chain is not None:
        tile, chain = chain
        tiles.append(tile)
    return tiles


def _rhombic_tile_sets(w: Perm) -> set[frozenset]:
    """The tile sets of T(w), read off its chains at max_order 2, in the
    open scope's memo as :func:`_enumerate` would, without building or
    sorting tilings."""
    memo, _ = _scope(2) or ({}, {})
    return {frozenset(_chain_tiles(chain)) for chain in _canonical_peels(w, 2, memo)}


def enumerate_rhombic(w: Perm) -> tuple[Tiling, ...]:
    """All rhombic tilings T(w), sorted deterministically."""
    w = check_budget(w)
    return _enumerate(w, 2)


def enumerate_zonotopal(w: Perm) -> tuple[Tiling, ...]:
    """All zonotopal tilings Z(w): tiles are 2m-gons of any order m >= 2."""
    w = check_budget(w)
    return _enumerate(w, len(w))


# ---------------------------------------------------------------------------
# Peel words


def _peel_chain(t: Tiling):
    """The chain enumeration stored in t: its tiles in canonical peel order,
    topmost tile on the boundary first.  Raises ValueError for a tiling with
    tiles but no chain: only enumeration records the order."""
    if t.chain is None and t.tiles:
        raise ValueError("a tiling built without its chain holds no peel order")
    return t.chain


@cache
def _peel_letters(j: int, m: int) -> tuple[int, ...]:
    """The letters that peeling the 2m-gon on positions j..j+m-1 adds to
    the peel sequence, in order: j - 1 + a for a = r..1, for r = 1..m-1, a
    reduced word reversing the descending run there.  Checked once per
    (j, m): each letter removes an inversion of the run."""
    letters = tuple(j - 1 + a for r in range(1, m) for a in range(r, 0, -1))
    run = list(range(m, 0, -1))
    for i in (pos - j for pos in letters):
        if run[i] < run[i + 1]:
            raise RuntimeError(f"peel letter {i + j} adds an inversion")
        run[i], run[i + 1] = run[i + 1], run[i]
    return letters


def _tile_part(code: int, n: int) -> tuple[tuple[int, ...], int, str, str]:
    """What peeling the tile with this code, of X(w) with w in S_n, adds to
    a peel word: (its letters, its order m, those letters last first as
    :func:`format_word` writes them without commas and with commas).  It
    peels at j = |anchor| + 1 and has order m = |labels|.  Raises
    ValueError unless the code is a tile."""
    _tile_pairs(code, n)
    above = (code >> n).bit_count()
    m = code.bit_count() - above
    letters = _peel_letters(above + 1, m)
    text = [str(letter) for letter in reversed(letters)]
    part = _PARTS.setdefault(n, {})[code] = (letters, m, "".join(text), ",".join(text))
    return part


def _peel_parts(t: Tiling) -> list[tuple[tuple[int, ...], int, str, str]]:
    """The part (:func:`_tile_part`) of each tile of t, in the canonical
    peel order of its chain, walked once.  Raises ValueError for a tiling
    without its chain, and RuntimeError unless the letters number l(w):
    each removes an inversion, so exactly then does the word reach the
    identity."""
    chain, n = _peel_chain(t), len(t.w)
    known = _PARTS.get(n) or _PARTS.setdefault(n, {})
    parts, count = [], 0
    while chain is not None:
        tile, chain = chain
        part = known.get(tile) or _tile_part(tile, n)
        parts.append(part)
        count += len(part[0])
    if count != _inversion_mask(t.w).bit_count():
        raise RuntimeError("the peeled word does not reach the identity")
    return parts


def peel_word(t: Tiling) -> Word:
    """The reduced word produced by the deterministic peel (topmost eligible
    tile first); reading the peel sequence right-to-left gives the word.

    It joins the letters of :func:`_peel_parts`, which
    :func:`peel_lines` reads as text.

    >>> peel_word(enumerate_zonotopal((3, 2, 1))[-1])
    (1, 2, 1)
    """
    letters: list[int] = []
    for part in _peel_parts(t):
        letters += part[0]
    return tuple(reversed(letters))


def peel_lines(tilings: Sequence[Tiling], profiles: bool) -> Iterator[str]:
    """The line ``redux enum tilings|zonotopal`` lists for each tiling of one
    w: ``format_word(peel_word(t))`` and, when ``profiles``, a space and
    ``list(t.shape_profile())``, built in one walk of t's chain.

    The word's text joins each tile's text, last tile first, and the
    profile sorts the tiles' orders; each profile is formatted once per
    call.  Every reduced word of w has the same letters, so whether commas
    separate them (a letter above 9) is settled once, by w: letter i is in
    the word exactly when w(1..i) is not 1..i.

    >>> list(peel_lines(enumerate_zonotopal((3, 2, 1)), True))
    ['121 [2, 2, 2]', '212 [2, 2, 2]', '121 [3]']
    >>> list(peel_lines(enumerate_rhombic((1, 2, 3)), False))
    ['e']
    """
    if not tilings:
        return
    w = tilings[0].w
    wide = any(max(w[:i]) > i for i in range(10, len(w)))
    field, sep = (3, ",") if wide else (2, "")
    texts: dict[tuple[int, ...], str] = {}
    for t in tilings:
        parts = _peel_parts(t)
        line = sep.join([part[field] for part in reversed(parts)]) or "e"
        if profiles:
            orders = tuple(sorted([part[1] for part in parts]))
            line += texts.get(orders) or texts.setdefault(orders, f" {list(orders)}")
        yield line


# ---------------------------------------------------------------------------
# Flips and the flip graph


def _hexagons(t: Tiling):
    """Every flippable hexagon of t: (the hexagon tile, its refinement inside
    t, its other refinement).

    When t holds a refinement of the hexagon {a < b < c} on anchor S, exactly
    one of its rhombi lies on S with smallest label a (labels {a, b} or
    {a, c}), so each hexagon is found once, from that rhombus: the
    candidates for c are the labels above a outside the rhombus and S.
    """
    n = len(t.w)
    full = (1 << n) - 1
    for r in t.tiles:
        labels = r & full
        if labels.bit_count() != 2:
            continue
        low = labels & -labels
        free = full & ~(labels | r >> n | (low << 1) - 1)
        while free:
            c = free & -free
            free ^= c
            first, second = _refinements(r | c, n)
            if first <= t.tiles:
                yield r | c, first, second
            elif second <= t.tiles:
                yield r | c, second, first


def flip_graph_from_tilings(w: Perm) -> FlipGraph:
    """The flip graph on T(w); vertices in deterministic order."""
    return _flip_graph(enumerate_rhombic(w))


def _flip_graph(tilings) -> FlipGraph:
    """The flip graph on all the rhombic tilings of one w, in the given order."""
    tilings = tuple(tilings)
    flips = (
        ((t.tiles - inside) | other for _, inside, other in _hexagons(t)) for t in tilings
    )
    pairs = index_moves("T", tilings[0].w, (t.tiles for t in tilings), flips)
    edges = frozenset((min(i, j), max(i, j)) for i, j in pairs)
    return FlipGraph(vertices=tilings, edges=edges)


# ---------------------------------------------------------------------------
# MONO: lifting a tiling of the pattern polygon


def _sort_window(u: Perm, r: int, s: int, tiles: list) -> Perm:
    """Sort positions r..s ascending by peeling rhombi (topmost descent first)."""
    while peel := next((p for p in _peels(u, 2, 2) if r <= p[0] < s), None):
        _, tile, u = peel
        tiles.append(tile)
    return u


def mono(w: Perm, at: tuple[int, ...], t: Tiling) -> Tiling:
    """Replay a rhombic tiling of X(p) through the occurrence of p at the
    1-based positions ``at`` of w.

    Each pattern tile, taken in peel order, sorts the corresponding window of
    w (the two pattern entries and everything between them); the window
    differences and the final leftover region are tiled by rhombi
    deterministically.
    """
    w = check_perm(w)
    p = _pattern_at(w, at)
    if t.w != p or not t.is_rhombic():
        raise ValueError("t must be a rhombic tiling of the pattern's polygon")
    amb = sorted(w[i - 1] for i in at)  # amb[v - 1] plays the pattern value v
    u = w
    tiles: list = []
    for tile in _chain_tiles(_peel_chain(t)):
        labels = tile & ((1 << len(p)) - 1)
        r = u.index(amb[labels.bit_length() - 1]) + 1
        s = u.index(amb[(labels & -labels).bit_length() - 1]) + 1
        if r >= s:
            raise RuntimeError("a pattern tile's entries are out of order in w")
        u = _sort_window(u, r, s, tiles)
    u = _sort_window(u, 1, len(u), tiles)
    if u != identity(len(w)):
        raise RuntimeError("the lifted tiles do not sort w")
    return Tiling(w, frozenset(tiles))


# ---------------------------------------------------------------------------
# Decreasing patterns and uniform tilings


def _decreasing_subsequence_sets(w: Perm) -> int:
    """The label masks of the decreasing subsequences of w of length >= 2,
    as an int with bit ``mask`` set for each one.

    ending[i] holds, the same way, the masks of those ending at position i,
    of any length.  Each mask in ending[j] with w[j] > w[i] has only labels
    above w[i], so adding w[i] adds its bit, and ending[j] shifted left by
    that bit holds the extended masks; those are the masks of length >= 2.
    """
    ending: list[int] = []
    found = 0
    for i, value in enumerate(w):
        bit = 1 << (value - 1)
        longer = 0
        for j in range(i):
            if w[j] > value:
                longer |= ending[j] << bit
        ending.append(longer | 1 << bit)
        found |= longer
    return found


def _tile_label_sets(u: Perm, memo: dict) -> int:
    """The label masks of the tiles across Z(u), as an int with bit ``mask``
    set for each one, found without building Z(u).

    Every boundary that peels reach can be peeled on down to the identity,
    so the tiles across Z(u) are the tiles peelable off u together with
    those across Z(rest) for each peel.  ``memo`` maps each boundary done so
    far to its answer, which does not depend on where the walk started.
    """
    if u not in memo:
        full = (1 << len(u)) - 1
        labels = 0
        for _, tile, rest in _peels(u, 2, len(u)):
            labels |= 1 << (tile & full) | _tile_label_sets(rest, memo)
        memo[u] = labels
    return memo[u]


def decreasing_tile_check(w: Perm, memo: dict) -> bool:
    """Tiles appearing across Z(w) are exactly the decreasing subsequences.

    Both directions: every tile's label set {i_1 < ... < i_k} occurs as the
    decreasing subsequence i_k ... i_1 in w, and every decreasing subsequence
    of length >= 2 is the label set of a tile in some zonotopal tiling.
    ``memo`` is :func:`_tile_label_sets`'s; one memo serves a whole sweep.
    """
    w = check_perm(w)
    return _tile_label_sets(w, memo) == _decreasing_subsequence_sets(w)


def uniform_2k_tiling_exists(n: int, k: int) -> bool:
    """Is there a tiling of X(n n-1 ... 1) consisting entirely of 2k-gons?

    >>> [uniform_2k_tiling_exists(4, k) for k in (2, 3, 4)]
    [True, False, True]
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    return _uniform_2k_tiling_of(longest_element(n), k, {})


def _uniform_2k_tiling_of(u: Perm, k: int, memo: dict) -> bool:
    """Is there a tiling of X(u) by 2k-gons alone?  ``memo`` maps each
    boundary done so far to its answer."""
    if u not in memo:
        memo[u] = u == identity(len(u)) or any(
            _uniform_2k_tiling_of(rest, k, memo) for _, _, rest in _peels(u, k, k)
        )
    return memo[u]


# ---------------------------------------------------------------------------
# The poset P(w)


@cache
def _coatoms(k: int) -> tuple[frozenset, ...]:
    """Tile sets of the coatoms of P(w0_k), k >= 3: the tilings of the
    2k-gon X(w0_k) covered by the 2k-gon itself.

    They are the tilings other than the 2k-gon that are covered by no other
    such tiling; covers below them use only coatoms of smaller k.  There are
    2, 8, 40 and 324 of them for k = 3, 4, 5, 6.  A tile of order k needs
    length(w) >= k(k-1)/2, so enumerating Z(w0_k) here stays within the
    budget of the w that asked for it.
    """
    below_top = [
        z.tiles for z in _enumerate(longest_element(k), k) if len(z.tiles) > 1
    ]
    lower = {tiles for z in below_top for tiles in _down_covers(z, k)}
    return tuple(z for z in below_top if z not in lower)


@cache
def _refinements(tile: int, n: int) -> tuple[frozenset, ...]:
    """The tile sets that split a tile of order k >= 3 of X(w), w in S_n,
    one step finer: the coatoms of P(w0_k) relabelled onto it.  Inner label
    i becomes the i-th smallest label of the tile and inner anchors are
    added to its anchor.  For a hexagon these are its two rhombic tilings.
    """
    bits = [1 << (label - 1) for label in _labels(tile & ((1 << n) - 1))]
    k = len(bits)

    def spread(inner: int) -> int:
        return sum(bit for i, bit in enumerate(bits) if inner >> i & 1)

    anchor = tile >> n
    inner_full = (1 << k) - 1
    return tuple(
        frozenset(
            spread(c & inner_full) | (anchor | spread(c >> k)) << n for c in coatom
        )
        for coatom in _coatoms(k)
    )


def _down_covers(tiles: frozenset, n: int):
    """Tile sets of the tilings covered by the tiling with these tiles, of
    X(w) with w in S_n: each replaces one tile of order k >= 3 by one of its
    refinements."""
    for tile in tiles:
        if (tile & (1 << n) - 1).bit_count() >= 3:
            rest = tiles - {tile}
            for inner in _refinements(tile, n):
                yield rest | inner


@dataclass(frozen=True)
class TilingPoset:
    """Z(w) ordered by reverse edge inclusion (rhombic tilings are minimal).

    The cover relation is generated locally from each element's tiles
    (``hasse``); minimal and maximal elements and down-sets are read off the
    covers.  The dense comparison matrix ``leq`` is the tests' reference
    order; no sweep builds it.
    """

    w: Perm
    elements: tuple

    @cached_property
    def leq(self) -> tuple:
        n = len(self.elements)
        return tuple(
            tuple(self.elements[i].leq(self.elements[j]) for j in range(n))
            for i in range(n)
        )

    @cached_property
    def hasse(self) -> frozenset:
        """Cover pairs (i, j) with element i covered by element j.

        The elements covered by z are z with one tile of order k >= 3
        replaced by a coatom of P(w0_k) relabelled onto that tile; each is
        looked up among the elements by its tiles.  Raises RuntimeError when
        one is missing, because Z(w) is then incomplete.
        """
        n = len(self.w)
        keys = (z.tiles for z in self.elements)
        lower = (_down_covers(z.tiles, n) for z in self.elements)
        return frozenset((i, j) for j, i in index_moves("Z", self.w, keys, lower))

    @cached_property
    def _lower_covers(self) -> tuple:
        """_lower_covers[j]: the sorted indices of the elements j covers;
        :meth:`down_set` walks them."""
        below: list = [[] for _ in self.elements]
        for i, j in sorted(self.hasse):
            below[j].append(i)
        return tuple(map(tuple, below))

    def minimal_indices(self) -> list[int]:
        """The elements that cover nothing, in index order: no cover
        starts from them going down."""
        covering = {j for _, j in self.hasse}
        return [j for j in range(len(self.elements)) if j not in covering]

    @cached_property
    def flip_graph(self) -> FlipGraph:
        """The flip graph on the minimal elements, T(w): vertex v is element
        ``minimal_indices()[v]``."""
        return _flip_graph(self.elements[j] for j in self.minimal_indices())

    def maximal_indices(self) -> list[int]:
        covered = {i for i, _ in self.hasse}
        return [i for i in range(len(self.elements)) if i not in covered]

    def down_set(self, j: int) -> list[int]:
        """The elements strictly below j, in index order."""
        seen: set = set()
        stack = list(self._lower_covers[j])
        while stack:
            i = stack.pop()
            if i not in seen:
                seen.add(i)
                stack.extend(self._lower_covers[i])
        return sorted(seen)


def poset(w: Perm) -> TilingPoset:
    """P(w) on Z(w).  Raises RuntimeError unless its minimal elements, each
    a validated tiling, are exactly the tile sets of T(w)'s chains."""
    elements = enumerate_zonotopal(w)
    p = TilingPoset(check_perm(w), elements)
    minimal = {elements[i].tiles for i in p.minimal_indices()}
    rhombic = _rhombic_tile_sets(w)
    if minimal != rhombic:
        raise RuntimeError(
            f"the {len(minimal)} minimal elements of P({format_perm(p.w)}) "
            f"are not its {len(rhombic)} rhombic tilings"
        )
    return p


def has_unique_max(p: TilingPoset) -> bool:
    return len(p.maximal_indices()) == 1


def level2_cycle_correspondence(w: Perm) -> bool:
    """Level-2 poset elements are rhombi+2 hexagons or rhombi+1 octagon, and
    their induced cycles span the GF(2) cycle space of the flip graph."""
    p = poset(w)
    # the minimal elements are T(w): element index -> flip graph vertex
    minimal = {j: v for v, j in enumerate(p.minimal_indices())}
    adj = p.flip_graph.adjacency

    edge_level = set()
    for i, j in p.hasse:
        if i in minimal:
            edge_level.add(j)
    for j in edge_level:
        profile = p.elements[j].shape_profile()
        if [o for o in profile if o > 2] != [3]:
            return False
    level2 = {j for i, j in p.hasse if i in edge_level}

    cycles = []
    for j in level2:
        profile = [o for o in p.elements[j].shape_profile() if o > 2]
        if profile not in ([3, 3], [4]):
            return False
        below = [minimal[i] for i in p.down_set(j) if i in minimal]
        expected = 4 if profile == [3, 3] else 8
        if len(below) != expected:
            return False
        cycle = {(min(a, b), max(a, b)) for a in below for b in adj[a] if b in below}
        if len(cycle) != expected or any(
            sum(1 for b in adj[a] if b in below) != 2 for a in below
        ):
            return False
        cycles.append(cycle)
    return spans_cycle_space(p.flip_graph, cycles)


def chain_equivalences(w: Perm, memo: dict) -> tuple[bool, bool, bool, bool]:
    """(flip graph is a tree, is a path, maximal covers minimal in P(w),
    w avoids 4321 and all 321-patterns pairwise intersect at least twice),
    the first three read off :func:`rank_counts` with ``memo``.

    Maximal covers minimal exactly when no tiling of Z(w) has Σ(order - 2)
    >= 2: one with two hexagons or a tile of order >= 4 lies above a tiling
    that is not minimal.  T(w) has r0 vertices and r1 edges, so it is no
    tree unless r1 = r0 - 1; only then is its flip graph built, and
    RuntimeError is raised unless it has those counts.
    """
    r0, r1, r2 = rank_counts(w, memo)
    tree = path = False
    if r1 == r0 - 1:
        g = flip_graph_from_tilings(w)
        if (g.vertex_count, len(g.edges)) != (r0, r1):
            raise RuntimeError(
                f"T({format_perm(w)}) has {g.vertex_count} tilings and {len(g.edges)} "
                f"flips where its rank counts give {r0} and {r1}"
            )
        tree, path = is_tree(g), is_path(g)
    # The 321-occurrences are listed only for w avoiding 4321.
    pattern_cond = avoids(w, (4, 3, 2, 1)) and all(
        len(set(a) & set(b)) >= 2 for a, b in combinations(occurrences(w, (3, 2, 1)), 2)
    )
    return tree, path, r2 == 0, pattern_cond


# ---------------------------------------------------------------------------
# Freely braided permutations


@dataclass(frozen=True)
class FreelyBraidedReport:
    k: int
    class_count_ok: bool
    graph_is_kcube: bool
    poset_size: int
    poset_is_cube_face_lattice_minus_bottom: bool
    hexagons_ok: bool

    def all_ok(self) -> bool:
        return (
            self.class_count_ok
            and self.graph_is_kcube
            and self.poset_size == 3**self.k
            and self.poset_is_cube_face_lattice_minus_bottom
            and self.hexagons_ok
        )


def _cube_coordinate(z: Tiling, hexagons: list) -> tuple:
    """z's coordinate in {0, 1, 2}^k: per hexagon tile, the index of its
    refinement found inside z, 2 for the hexagon tile itself, None if the
    hexagon is tiled none of these ways."""
    n = len(z.w)
    return tuple(
        next(
            (i for i, part in enumerate((*_refinements(h, n), {h})) if part <= z.tiles),
            None,
        )
        for h in hexagons
    )


def _onto(coords: list, digits: tuple, k: int) -> bool:
    """Are the coordinates a bijection onto digits^k?"""
    return len(coords) == len(digits) ** k and set(coords) == set(
        product(digits, repeat=k)
    )


def _face_covers(w: Perm, coords: list) -> frozenset:
    """The covers (i, j) of the cube's face lattice on the coordinates of
    Z(w), onto {0, 1, 2}^k: j is i with one 0 or 1 coordinate turned into 2."""
    raised = (
        (c[:m] + (2,) + c[m + 1 :] for m, digit in enumerate(c) if digit != 2)
        for c in coords
    )
    return frozenset(index_moves("Z", w, coords, raised))


def freely_braided_structure(w: Perm) -> FreelyBraidedReport:
    """Structure report for a freely braided permutation with k 321-patterns.

    Every rhombic tiling must have exactly k pairwise disjoint sub-hexagons,
    and |C(w)| = 2^k.  Each element of P(w) gets an explicit cube coordinate
    in {0, 1, 2}^k: at each hexagon, the index of its refinement inside the
    element, or 2 for the hexagon tile.  The flip graph is the k-cube when the
    coordinates map T(w) onto {0, 1}^k and its edges are exactly the pairs
    differing in one coordinate.  P(w) is the face lattice of the k-cube
    minus its bottom when the coordinates map it onto {0, 1, 2}^k and its
    covers are exactly those of the face lattice.
    """
    w = check_perm(w)
    if not is_freely_braided(w):
        raise ValueError("w is not freely braided")
    k = len(occurrences(w, (3, 2, 1)))
    cls = classes(w)
    p = poset(w)
    minimal = p.minimal_indices()
    graph = p.flip_graph
    hexagons_ok = True
    for t in graph.vertices:
        inner = [inside for _, inside, _ in _hexagons(t)]
        if len(inner) != k or any(a & b for a, b in combinations(inner, 2)):
            hexagons_ok = False
    hexagons = [h for h, _, _ in _hexagons(graph.vertices[0])]

    coords = [_cube_coordinate(z, hexagons) for z in p.elements]
    vertex_coords = [coords[j] for j in minimal]
    single_moves = {
        (i, j)
        for (i, ci), (j, cj) in combinations(enumerate(vertex_coords), 2)
        if sum(a != b for a, b in zip(ci, cj)) == 1
    }
    return FreelyBraidedReport(
        k=k,
        class_count_ok=len(cls) == 2**k,
        graph_is_kcube=_onto(vertex_coords, (0, 1), k)
        and graph.edges == single_moves,
        poset_size=len(p.elements),
        poset_is_cube_face_lattice_minus_bottom=_onto(coords, (0, 1, 2), k)
        and p.hasse == _face_covers(w, coords),
        hexagons_ok=hexagons_ok,
    )
