"""Rhombic and zonotopal tilings of the polygon X(w), flips, MONO, the poset."""

import hashlib
import json
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redux.commutation
import redux.tilings
import redux.verify
from redux.commutation import FlipGraph, classes, graph, graphs_isomorphic
from redux.patterns import avoids, occurrences
from redux.permcore import identity, longest_element
from redux.redwords import evaluate, format_word
from redux.render import (
    polygon_svg,
    poset_dot,
    poset_payload,
    tiling_payload,
    tiling_svg,
    to_json,
)
from redux.tilings import (
    Tiling,
    TilingPoset,
    chain_equivalences,
    decode,
    decreasing_tile_check,
    enumerate_rhombic,
    enumerate_zonotopal,
    flip_graph_from_tilings,
    freely_braided_structure,
    has_unique_max,
    level2_cycle_correspondence,
    mono,
    peel_lines,
    peel_word,
    poset,
    rank_counts,
    shared_chains,
    uniform_2k_tiling_exists,
)

import oracles
from oracles import (
    boundary_edges,
    class_words,
    eln,
    flip_neighbors,
    peel_order,
    sub_hexagons,
    tiling_from_word,
)

perms4 = [tuple(p) for p in permutations((1, 2, 3, 4))]
perms5_all = [tuple(p) for p in permutations((1, 2, 3, 4, 5))]
perms5 = st.permutations((1, 2, 3, 4, 5)).map(tuple)

FIGURE_WORD = (1, 2, 3, 4, 3, 2, 1, 2)  # a tiling of X(53241)


def _code(labels, anchor, n):
    """The code of the tile with these labels and anchor: ``labels | anchor
    << n``, bit i - 1 of each n-bit mask standing for label i."""
    return sum(1 << (v - 1) for v in labels) | sum(1 << (v - 1) for v in anchor) << n


def test_tile_validation():
    w = (1, 3, 2)
    Tiling(w, frozenset({_code({2, 3}, {1}, 3)}))
    with pytest.raises(ValueError, match="must not meet its anchor"):
        Tiling(w, frozenset({_code({2, 3}, {2}, 3)}))
    with pytest.raises(ValueError, match="at least two labels"):
        Tiling(w, frozenset({_code({2}, (), 3)}))
    with pytest.raises(ValueError, match="bits beyond 2n"):
        Tiling(w, frozenset({_code({2, 3}, {1}, 3) | 1 << 6}))
    assert decode(_code({2, 3}, {1}, 3), 3) == ((2, 3), (1,))
    with pytest.raises(ValueError, match="bits beyond 2n"):
        decode(-1, 3)
    with pytest.raises(ValueError, match="at least two labels"):
        decode(_code({2}, {1}, 3), 3)
    with pytest.raises(ValueError, match="must not meet its anchor"):
        decode(_code({2, 3}, {2}, 3), 3)


def test_tiling_area_check():
    w = (3, 2, 1)
    good = enumerate_rhombic(w)[0]
    with pytest.raises(ValueError, match="cover X"):
        Tiling(w, frozenset(list(good.tiles)[:1]))  # pairs not fully covered
    with pytest.raises(ValueError, match="cover X"):
        Tiling(w, frozenset())
    hexagon = _code({1, 2, 3}, (), 3)
    with pytest.raises(ValueError, match="overlap"):
        Tiling(w, frozenset({hexagon, _code({1, 2}, (), 3)}))
    for not_a_perm in ((1, 1), (0,)):
        with pytest.raises(ValueError, match="not a permutation"):
            Tiling(not_a_perm, frozenset())


def test_a_tiling_accepts_w_as_a_list():
    """A list w is normalised to the tuple: the tiling equals the one built
    from the tuple and peels to the same word."""
    tiles = frozenset({_code({1, 2, 3}, (), 3)})
    assert Tiling([3, 2, 1], tiles) == Tiling((3, 2, 1), tiles)
    for t in enumerate_zonotopal((2, 4, 3, 1, 5)):
        listed = Tiling(list(t.w), t.tiles, t.chain)
        assert listed == t and type(listed.w) is tuple
        assert peel_word(listed) == peel_word(t)
    with pytest.raises(ValueError, match="not a permutation"):
        Tiling([1, 1], frozenset())


def _cell_pairs(cells, n):
    """The label pairs a <= b of the unit cells in this mask, cell i being
    the i-th pair in the order (1, 2), (1, 3), (2, 3), (1, 4), ..."""
    pairs = [(a, b) for b in range(2, n + 1) for a in range(1, b)]
    assert cells >> len(pairs) == 0
    return {pair for i, pair in enumerate(pairs) if cells >> i & 1}


def _all_tile_codes(n):
    """Every tile code of S_n: two or more labels, an anchor apart from them."""
    masks = range(1 << n)
    return [a | b << n for a in masks if a & (a - 1) for b in masks if not a & b]


def _fill_tile_tables(n):
    """Enumerate and peel Z(w) for every w of S_n, as a query does."""
    for w in permutations(range(1, n + 1)):
        for t in enumerate_zonotopal(w):
            peel_word(t)


HEXAGON, RHOMBUS_12 = _code({1, 2, 3}, (), 3), _code({1, 2}, (), 3)
MEETS_ITS_ANCHOR = _code({2, 3}, {2}, 3)
OVERLAP_THEN_NON_TILE = frozenset({RHOMBUS_12, _code({1, 2}, {3}, 3), MEETS_ITS_ANCHOR})
REJECTED_TILINGS = [
    ((3, 2, 1), {HEXAGON, RHOMBUS_12}, "tiles overlap"),
    ((3, 2, 1), {RHOMBUS_12, _code({1, 3}, {2}, 3)}, r"tiles must cover X\(w\) exactly"),
    ((2, 1, 3), {RHOMBUS_12, _code({2, 3}, {1}, 3)}, r"tiles must cover X\(w\) exactly"),
    ((3, 2, 1), {HEXAGON | 1 << 6}, "a tile code has bits beyond 2n"),
    ((3, 2, 1), {_code({2}, {1}, 3)}, "a tile needs at least two labels"),
    ((3, 2, 1), {MEETS_ITS_ANCHOR}, "a tile's labels must not meet its anchor"),
    ((3, 2, 1), OVERLAP_THEN_NON_TILE, "a tile's labels must not meet its anchor"),
    ((3, 2, 1), {_code({2}, (), 3), HEXAGON, RHOMBUS_12}, "a tile needs at least two labels"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("w, tiles, message", REJECTED_TILINGS)
def test_rejected_tilings_name_their_fault(monkeypatch, warm, w, tiles, message):
    """Each fault has its message, whether or not the per-n tile tables
    already hold the tiles, a non-tile code is reported before an overlap,
    and no rejected code enters a table."""
    monkeypatch.setattr(redux.tilings, "_PAIRS", {})
    monkeypatch.setattr(redux.tilings, "_PARTS", {})
    if warm:
        _fill_tile_tables(len(w))
        assert len(redux.tilings._PAIRS[3]) == len(_all_tile_codes(3)) == 7
    tiles = frozenset(tiles)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Tiling(w, tiles)
    rejected = set(tiles) - set(_all_tile_codes(3))
    for code in rejected:
        with pytest.raises(ValueError, match=f"^{message}$"):
            decode(code, 3)
        chained = Tiling((1, 2, 3), frozenset(), (code, None))
        with pytest.raises(ValueError, match=f"^{message}$"):
            peel_word(chained)
        with pytest.raises(ValueError, match=f"^{message}$"):
            list(peel_lines([chained], True))
    for table in (redux.tilings._PAIRS, redux.tilings._PARTS):
        assert not rejected & set(table.get(3, ())), table


def test_the_overlap_is_met_before_the_non_tile_code():
    """Validation meets the two rhombi on the cell {1, 2} before the code
    whose anchor meets its labels, yet reports that code."""
    assert list(OVERLAP_THEN_NON_TILE)[-1] == MEETS_ITS_ANCHOR


def test_tile_tables_hold_their_definitions(monkeypatch):
    """For every tile of S_n, n <= 6, the stored unit cells are its label
    pairs and the stored part holds the letters of a peel at j = |anchor| +
    1, the tile's order and those letters last first as text, without and
    with commas; one int read as a code of S5 and of S6 gets each n's own
    entry."""
    monkeypatch.setattr(redux.tilings, "_PAIRS", {})
    monkeypatch.setattr(redux.tilings, "_PARTS", {})
    for n in range(2, 7):
        codes = _all_tile_codes(n)
        for code in codes:
            labels, anchor = decode(code, n)
            redux.tilings._tile_part(code, n)
            cells = redux.tilings._PAIRS[n][code]
            assert _cell_pairs(cells, n) == set(combinations(labels, 2)), (n, code)
            letters = redux.tilings._peel_letters(len(anchor) + 1, len(labels))
            text = [str(letter) for letter in reversed(letters)]
            assert redux.tilings._PARTS[n][code] == (
                letters, len(labels), "".join(text), ",".join(text)
            ), (n, code)
        assert set(redux.tilings._PAIRS[n]) == set(redux.tilings._PARTS[n]) == set(codes)
    assert len(redux.tilings._PAIRS[6]) == 473
    code = _code({2, 3}, {1}, 5)
    assert code == _code({2, 3, 6}, (), 6)
    assert _cell_pairs(redux.tilings._PAIRS[5][code], 5) == {(2, 3)}
    assert _cell_pairs(redux.tilings._PAIRS[6][code], 6) == {(2, 3), (2, 6), (3, 6)}
    assert redux.tilings._PARTS[5][code] == ((2,), 2, "2", "2")
    assert redux.tilings._PARTS[6][code] == ((1, 2, 1), 3, "121", "1,2,1")
    assert peel_word(Tiling((1, 3, 2, 4, 5), frozenset({code}), (code, None))) == (2,)


def test_tile_codec_round_trip_S5():
    """Decoding gives ascending labels and anchor, re-encoding them gives
    every code back, and ``Tiling.key`` orders the tilings as listed."""
    for w in perms5_all:
        zonotopal = enumerate_zonotopal(w)
        codes = {code for z in zonotopal for code in z.tiles}
        for code in codes:
            labels, anchor = decode(code, 5)
            assert list(labels) == sorted(labels) and list(anchor) == sorted(anchor)
            assert _code(labels, anchor, 5) == code, (w, code)
        keys = [z.key() for z in zonotopal]
        assert keys == sorted(keys), w


def test_leq_compares_tilings_of_one_w():
    t, u = enumerate_rhombic((3, 2, 1))[0], enumerate_rhombic((2, 3, 1))[0]
    with pytest.raises(ValueError, match="same w"):
        t.leq(u)


def test_enumerate_rhombic_counts():
    assert len(enumerate_rhombic((3, 2, 1))) == 2
    assert len(enumerate_rhombic((4, 2, 3, 1))) == 3
    assert len(enumerate_rhombic(identity(3))) == 1
    assert enumerate_rhombic(identity(3))[0].tiles == frozenset()


def test_enumerate_zonotopal_counts():
    assert len(enumerate_zonotopal((3, 2, 1))) == 3
    zon = enumerate_zonotopal((3, 2, 1))
    assert sorted(z.shape_profile() for z in zon) == [(2, 2, 2), (2, 2, 2), (3,)]


def test_tiling_count_matches_class_count_S4():
    for w in perms4:
        assert len(enumerate_rhombic(w)) == len(classes(w)), w


def test_peel_word_roundtrip_S4():
    for w in perms4:
        for t in enumerate_rhombic(w):
            word = peel_word(t)
            assert tiling_from_word(word, len(w)).key() == t.key()


def test_peel_word_of_zonotopal_tilings_S5():
    for w in perms5_all:
        for t in enumerate_zonotopal(w):
            assert evaluate(peel_word(t), 5) == (w, True), t.key()


@pytest.mark.parametrize(
    "ws", [perms5_all, [(2, 4, 3, 1, 9, 6, 5, 8, 7)]], ids=["S5", "W9"]
)
def test_chain_words_match_the_rescan(ws):
    """An enumerated tiling's word is read off its chain; rescanning the
    boundary of the same tiles for the topmost tile on it, step by step,
    finds the chain's order."""
    for w in ws:
        for t in enumerate_rhombic(w) + enumerate_zonotopal(w):
            assert (t.chain is None) == (not t.tiles)  # only e has no peel
            assert redux.tilings._chain_tiles(t.chain) == peel_order(w, t.tiles), t.key()
            assert evaluate(peel_word(t), len(w)) == (w, True), t.key()


def test_a_tiling_without_its_chain_has_no_peel_order():
    """Only enumeration records a tiling's peel order: a tiling built from
    its tiles alone is refused, by peel_word and by mono, which lifts its
    tiles in that order."""
    p = (3, 2, 1)
    t = enumerate_rhombic(p)[0]
    bare = Tiling(p, t.tiles)
    message = "^a tiling built without its chain holds no peel order$"
    with pytest.raises(ValueError, match=message):
        peel_word(bare)
    w = (4, 3, 2, 1)
    with pytest.raises(ValueError, match=message):
        mono(w, occurrences(w, p)[0], bare)
    assert peel_word(Tiling((1, 2, 3), frozenset())) == ()


@pytest.mark.parametrize(
    "ws, enumerators",
    [
        (perms5_all, (enumerate_rhombic, enumerate_zonotopal)),
        ([tuple(p) for p in permutations(range(1, 7))], (enumerate_rhombic,)),
    ],
    ids=["S5", "S6-rhombic"],
)
def test_shared_chains_match_fresh_memos(ws, enumerators):
    """A boundary's chains do not depend on the w the walk started from, so
    under one scope, as a sweep opens it, every enumeration gives a fresh
    memo's tilings in the same order, with the same peel words."""

    def tilings_and_words(enumerate_, w):
        return [(t, peel_word(t)) for t in enumerate_(w)]

    fresh = {(f, w): tilings_and_words(f, w) for f in enumerators for w in ws}
    with shared_chains():
        for f in enumerators:
            for w in ws:
                assert tilings_and_words(f, w) == fresh[f, w], (f.__name__, w)
        orders = {2 if f is enumerate_rhombic else len(ws[0]) for f in enumerators}
        assert set(redux.tilings._CHAINS.get()) == orders
    assert redux.tilings._CHAINS.get() is None


def test_peel_word_rejects_a_chain_lacking_a_tile():
    t = enumerate_zonotopal((2, 4, 3, 1, 9, 6, 5, 8, 7))[-1]
    with pytest.raises(RuntimeError, match="does not reach the identity"):
        peel_word(Tiling(t.w, t.tiles, t.chain[1]))


LISTINGS = ((enumerate_rhombic, False), (enumerate_zonotopal, True))


def _listed(tilings, profiles):
    """The listing line of each tiling as peel_word and shape_profile give it."""
    return [
        format_word(peel_word(t)) + (f" {list(t.shape_profile())}" if profiles else "")
        for t in tilings
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_peel_lines_match_peel_words(n):
    """Each listed line is the tiling's formatted peel word, then for Z(w)
    its shape profile, for every tiling of T(w) and Z(w), w in S_n."""
    for w in permutations(range(1, n + 1)):
        for enumerate_tilings, profiles in LISTINGS:
            tilings = enumerate_tilings(w)
            assert list(peel_lines(tilings, profiles)) == _listed(tilings, profiles), w


def test_peel_lines_of_the_identity():
    for n in (1, 3):
        assert list(peel_lines(enumerate_rhombic(identity(n)), False)) == ["e"]
        assert list(peel_lines(enumerate_zonotopal(identity(n)), True)) == ["e []"]
    assert list(peel_lines((), True)) == []


@pytest.mark.parametrize(
    "w, last, sep",
    [
        ((1, 2, 3, 4, 5, 6, 7, 8, 11, 10, 9, 12), "9,10,9 [3]", ","),
        ((1, 2, 3, 4, 5, 6, 7, 10, 9, 8, 11), "898 [3]", ""),
    ],
    ids=["comma-form", "S11-digit-form"],
)
def test_peel_lines_choose_commas_by_w(w, last, sep):
    """Commas separate the letters exactly when one is above 9, also for
    w in S_n with n >= 11 whose letters stay at 9 or below."""
    for enumerate_tilings, profiles in LISTINGS:
        tilings = enumerate_tilings(w)
        lines = list(peel_lines(tilings, profiles))
        assert lines == _listed(tilings, profiles), w
        assert all(("," in line.split()[0]) == (sep == ",") for line in lines)
    assert lines[-1] == last


def test_peel_lines_check_each_walk(monkeypatch):
    """A tile's letters cut short leave the word short of the identity, and
    a tiling without its chain has no line."""
    t = enumerate_zonotopal((3, 2, 1))[-1]
    (hexagon,) = t.tiles
    monkeypatch.setattr(redux.tilings, "_PARTS", {3: {hexagon: ((1, 2), 3, "21", "2,1")}})
    short = "^the peeled word does not reach the identity$"
    chainless = "^a tiling built without its chain holds no peel order$"
    for read in (peel_word, lambda t: list(peel_lines([t], True))):
        with pytest.raises(RuntimeError, match=short):
            read(t)
        with pytest.raises(ValueError, match=chainless):
            read(Tiling(t.w, t.tiles))


def test_eln_is_a_bijection_S4():
    for w in perms4:
        tilings = enumerate_rhombic(w)
        reps = {eln(t).representative for t in tilings}
        assert len(reps) == len(tilings) == len(classes(w))


def test_eln_rejects_a_tiling_of_no_class(monkeypatch):
    t = enumerate_rhombic((3, 2, 1))[0]
    home = eln(t)
    monkeypatch.setattr(oracles, "classes", lambda w: [c for c in classes(w) if c != home])
    with pytest.raises(RuntimeError, match=r"C\(321\) lacks the class of a tiling"):
        eln(t)


def test_figure_tiling():
    t = tiling_from_word(FIGURE_WORD, 5)
    assert t.w == (5, 3, 2, 4, 1)
    assert len(t.tiles) == 8 and t.is_rhombic()
    assert FIGURE_WORD in class_words(eln(t))


def test_figure_tiling_has_coarsenings():
    t = tiling_from_word(FIGURE_WORD, 5)
    p = poset(t.w)
    idx = next(i for i, e in enumerate(p.elements) if e.key() == t.key())
    strictly_above = [j for j in range(len(p.elements)) if j != idx and p.leq[idx][j]]
    assert strictly_above  # some zonotopal coarsening sits above it


def test_flip_graph_matches_class_graph():
    for w in (longest_element(4), (4, 2, 3, 1), (5, 2, 3, 4, 1)):
        assert graphs_isomorphic(flip_graph_from_tilings(w), graph(w))


def _shape(g):
    """Vertex count, edge count and sorted degree sequence of a graph."""
    return g.vertex_count, len(g.edges), sorted(map(len, g.adjacency))


def test_flip_graph_shape_matches_class_graph_S6():
    """The two routes to G(w) agree in shape on all of S6, where 26 w have
    more than the 64 classes the isomorphism search accepts."""
    past_cap = 0
    for w in permutations(range(1, 7)):
        g = graph(w)
        assert _shape(flip_graph_from_tilings(w)) == _shape(g), w
        past_cap += g.vertex_count > 64
    assert past_cap == 26


def test_hexagon_refinements_are_its_two_rhombic_tilings():
    n = 6
    for (a, b, c), S in [((1, 2, 3), ()), ((2, 4, 6), (1, 5)), ((1, 3, 5), (4,))]:
        S = frozenset(S)
        variant_a = {
            _code({b, c}, S, n),
            _code({a, c}, S | {b}, n),
            _code({a, b}, S, n),
        }
        variant_b = {
            _code({a, b}, S | {c}, n),
            _code({a, c}, S, n),
            _code({b, c}, S | {a}, n),
        }
        hexagon = _code({a, b, c}, S, n)
        assert redux.tilings._refinements(hexagon, n) == (variant_a, variant_b)


def test_flips_are_symmetric():
    for t in enumerate_rhombic(longest_element(4)):
        for nbr in flip_neighbors(t):
            assert t.key() in {back.key() for back in flip_neighbors(nbr)}


def test_sub_hexagons():
    w = (3, 2, 1)
    with_hex = [t for t in enumerate_rhombic(w) if sub_hexagons(t)]
    assert len(with_hex) == 2  # both tilings of a hexagon are flippable
    assert all(len(sub_hexagons(t)) == 1 for t in with_hex)


# sha256 over the sorted flip-graph edges and the sorted covers of P(w) for
# every w of S_5.  Any change to a single flip or cover fails here; to
# re-record after an intended change, print ``h.hexdigest()``.
FLIPS_AND_COVERS_S5_DIGEST = (
    "7deb501bc8c071e89a82cf05847c511aaf7faa0519d28598716983b260957b32"
)


def test_flips_and_covers_pinned_S5():
    h = hashlib.sha256()
    for w in perms5_all:
        edges = sorted(flip_graph_from_tilings(w).edges)
        h.update(repr((w, edges, sorted(poset(w).hasse))).encode())
    assert h.hexdigest() == FLIPS_AND_COVERS_S5_DIGEST


# sha256 over the decoded (labels, anchor) of every tile of every tiling in
# enumerate_rhombic(w) and enumerate_zonotopal(w), tilings in list order and
# each tiling's tiles sorted, for every w of S_5 and for W9.  The list order
# sets the tiling indices of every output, so it must never move.
TILING_ORDER_DIGEST = (
    "0939940ef2c6aa6e8d8da314e902f2d6cbea1d1a2efe62943c11a1492c1fd75f"
)


def test_tiling_order_pinned_S5():
    h = hashlib.sha256()
    for w in perms5_all + [(2, 4, 3, 1, 9, 6, 5, 8, 7)]:
        for enumerate_tilings in (enumerate_rhombic, enumerate_zonotopal):
            for t in enumerate_tilings(w):
                keys = sorted(decode(c, len(w)) for c in t.tiles)
                h.update(repr((w, keys)).encode())
    assert h.hexdigest() == TILING_ORDER_DIGEST


def test_enumeration_is_sorted_by_key_S6():
    """_enumerate sorts on one int per chain, which orders the tilings of
    one w as Tiling.key does only because no two have nested tile sets."""
    counts = [0, 0]
    for w in permutations(range(1, 7)):
        for i, enumerate_tilings in enumerate((enumerate_zonotopal, enumerate_rhombic)):
            tilings = enumerate_tilings(w)
            assert list(tilings) == sorted(tilings, key=Tiling.key), w
            counts[i] += len(tilings)
    assert counts == [34992, 9661]


@pytest.mark.parametrize("w", [
    (2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    (1, 2, 3, 4, 5, 6, 7, 8, 12, 11, 10, 9),
    (2, 4, 1, 3, 6, 5, 8, 7, 12, 9, 11, 10),
])
def test_enumeration_of_short_w_in_S12(w, monkeypatch):
    """Outside a sweep the sort's bit table holds only the tiles of X(w),
    not every tile code of S_12, so a short w in a large S_n enumerates at
    once, and in Tiling.key order."""
    tables = []
    real = redux.tilings._tile_bits

    def recorded(n, tiles=None):
        tables.append(real(n, tiles))
        return tables[-1]

    monkeypatch.setattr(redux.tilings, "_tile_bits", recorded)
    for enumerate_tilings in (enumerate_zonotopal, enumerate_rhombic):
        tilings = enumerate_tilings(w)
        assert list(tilings) == sorted(tilings, key=Tiling.key)
        assert set(tables.pop()) == set().union(*(t.tiles for t in tilings))
    assert not tables


# sha256 over boundary_edges(w) and the edge_set of every tiling in
# enumerate_zonotopal(w), each edge as (sorted point, label) and each set
# sorted, for every w of S_5 and for W9.  edge_set is the reference order of
# P(w) (TilingPoset.leq), so rewriting it must not move a single edge.
EDGE_SETS_DIGEST = (
    "db9a566ceafa19245e4e7d185431e0308503850a0a15dcbce368ad6ffb09f3a6"
)


def test_edge_sets_pinned_S5():
    def edges(edge_set):
        return sorted((tuple(sorted(point)), label) for point, label in edge_set)

    h = hashlib.sha256()
    for w in perms5_all + [(2, 4, 3, 1, 9, 6, 5, 8, 7)]:
        h.update(repr((w, edges(boundary_edges(w)))).encode())
        for t in enumerate_zonotopal(w):
            h.update(repr(edges(t.edge_set)).encode())
    assert h.hexdigest() == EDGE_SETS_DIGEST


def test_mono_is_injective_on_the_worked_example():
    w = (4, 6, 1, 7, 3, 5, 2)
    p = (3, 1, 5, 4, 2)
    occ = (1, 3, 4, 6, 7)  # the values 4, 1, 7, 5, 2
    images = set()
    for t in enumerate_rhombic(p):
        lifted = mono(w, occ, t)
        assert lifted.w == w and lifted.is_rhombic()
        images.add(lifted.key())
    assert len(images) == len(enumerate_rhombic(p))


def test_mono_rejects_a_tiling_of_another_pattern():
    """The positions name the pattern; a tiling of any other pattern, or
    positions that name none, are refused."""
    w = (3, 1, 4, 6, 5, 2)
    at = (1, 4, 6)  # the values 3, 6, 2 of a 231
    assert mono(w, at, enumerate_rhombic((2, 3, 1))[0]).w == w
    for p in ((3, 1, 2), (3, 2, 1), (2, 1)):
        with pytest.raises(ValueError, match="^t must be a rhombic tiling of the"):
            mono(w, at, enumerate_rhombic(p)[0])
    with pytest.raises(ValueError, match="^occurrence positions must be increasing"):
        mono(w, (1, 6, 4), enumerate_rhombic((2, 3, 1))[0])


@settings(max_examples=25, deadline=None)
@given(perms5, st.integers(0, 10**6))
def test_mono_lifts_any_S3_pattern(w, pick):
    p = (3, 2, 1)
    occs = occurrences(w, p)
    if not occs:
        return
    occ = occs[pick % len(occs)]
    tilings = enumerate_rhombic(p)
    lifted = {mono(w, occ, t).key() for t in tilings}
    assert len(lifted) == len(tilings)


def _decreasing_subsequences_by_subsets(w):
    """Label masks of the position sets of size >= 2 whose values decrease."""
    return {
        sum(1 << (w[i] - 1) for i in pos)
        for size in range(2, len(w) + 1)
        for pos in combinations(range(len(w)), size)
        if all(w[a] > w[b] for a, b in zip(pos, pos[1:]))
    }


def test_decreasing_subsequence_sets_match_subset_search_S6():
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            expected = sum(1 << mask for mask in _decreasing_subsequences_by_subsets(w))
            assert redux.tilings._decreasing_subsequence_sets(w) == expected, w


def test_decreasing_tile_check_S4():
    memo: dict = {}
    for w in perms4:
        assert decreasing_tile_check(w, memo), w


@pytest.mark.parametrize(
    "ws", [perms5_all, [(2, 4, 3, 1, 9, 6, 5, 8, 7)]], ids=["S5", "W9"]
)
def test_tile_label_sets_are_the_tiles_across_Z(ws):
    for w in ws:
        n = len(w)
        across_Z = {
            decode(c, n)[0] for z in enumerate_zonotopal(w) for c in z.tiles
        }
        bits = redux.tilings._tile_label_sets(w, {})
        label_sets = [m for m in range(bits.bit_length()) if bits >> m & 1]
        assert {decode(m, n)[0] for m in label_sets} == across_Z, w


def test_tile_label_sets_share_one_memo_across_S6():
    """A boundary's label masks do not depend on where the walk started, so
    one memo, as the 2kgon sweep shares it, gives every w a fresh memo's
    answer."""
    shared: dict = {}
    for w in permutations(range(1, 7)):
        labels = redux.tilings._tile_label_sets(w, shared)
        assert labels == redux.tilings._tile_label_sets(w, {}), w


def test_uniform_2k_table():
    table = {
        (n, k): uniform_2k_tiling_exists(n, k)
        for n in (3, 4, 5)
        for k in range(2, n + 1)
    }
    assert all(value == (k == 2 or k == n) for (n, k), value in table.items())
    with pytest.raises(ValueError):
        uniform_2k_tiling_exists(4, 5)


def test_poset_structure():
    p = poset((3, 2, 1))
    assert len(p.elements) == 3
    assert len(p.minimal_indices()) == 2
    assert has_unique_max(p)
    assert oracles.maximal_cover_minimal(p)
    assert p.hasse == frozenset(
        {(i, j) for i in p.minimal_indices() for j in p.maximal_indices()}
    )
    assert "leq" not in vars(p)  # the covers never build the dense order


def _dense_hasse(p):
    """Transitive reduction of the full edge-inclusion order ``p.leq``."""
    n = len(p.elements)
    above = [{j for j in range(n) if j != i and p.leq[i][j]} for i in range(n)]
    return frozenset(
        (i, j)
        for i in range(n)
        for j in above[i] - set().union(*(above[k] for k in above[i]))
    )


@pytest.mark.parametrize(
    "ws",
    [perms5_all, [(4, 6, 5, 2, 3, 1), (2, 4, 3, 1, 9, 6, 5, 8, 7)]],
    ids=["S5", "465231-W9"],
)
def test_local_covers_match_dense_order(ws):
    for w in ws:
        p = poset(w)
        assert p.hasse == _dense_hasse(p), w


def test_poset_queries_match_dense_order_S5():
    for w in perms5_all:
        p = poset(w)
        n = range(len(p.elements))
        assert p.minimal_indices() == [
            j for j in n if not any(i != j and p.leq[i][j] for i in n)
        ], w
        assert p.maximal_indices() == [
            i for i in n if not any(j != i and p.leq[i][j] for j in n)
        ], w
        for j in n:
            assert p.down_set(j) == [i for i in n if i != j and p.leq[i][j]], w


def test_hasse_rejects_incomplete_elements():
    w = (3, 2, 1)
    hexagon_only = tuple(z for z in enumerate_zonotopal(w) if not z.is_rhombic())
    with pytest.raises(RuntimeError, match=r"Z\(321\) lacks a move target of element 0"):
        TilingPoset(w, hexagon_only).hasse


def test_flip_graph_rejects_a_missing_tiling(monkeypatch):
    real = redux.tilings.enumerate_rhombic
    monkeypatch.setattr(redux.tilings, "enumerate_rhombic", lambda w: real(w)[1:])
    with pytest.raises(RuntimeError, match=r"T\(321\) lacks a move target of element 0"):
        flip_graph_from_tilings((3, 2, 1))


def test_coatom_counts():
    assert [len(redux.tilings._coatoms(k)) for k in (3, 4, 5)] == [2, 8, 40]


def test_poset_rejects_missing_rhombic_tiling(monkeypatch):
    real = redux.tilings._rhombic_tile_sets
    monkeypatch.setattr(
        redux.tilings, "_rhombic_tile_sets", lambda w: set(sorted(real(w), key=sorted)[1:])
    )
    with pytest.raises(RuntimeError, match=r"the 3 minimal elements of P\(4231\) "
                       r"are not its 2 rhombic tilings"):
        poset((4, 2, 3, 1))


def test_unique_max_pattern_characterization_S4():
    for w in perms4:
        predicted = (
            avoids(w, (4, 2, 3, 1))
            and avoids(w, (4, 3, 1, 2))
            and avoids(w, (3, 4, 2, 1))
        )
        assert has_unique_max(poset(w)) == predicted, w


def test_level2_cycles_S4():
    for w in perms4:
        assert level2_cycle_correspondence(w), w


def test_chain_equivalences_agree_S4():
    for w in perms4:
        flags = oracles.chain_equivalences(w)
        assert len(set(flags)) == 1, w


def _perms_1_to_6():
    return (tuple(w) for n in range(1, 7) for w in permutations(range(1, n + 1)))


def test_rank_counts_match_shape_profiles_S1_to_S6():
    """r_k counts the tilings of Z(w) whose shape profile has Σ(order - 2) =
    k, the last count taking every sum >= 2; one memo serves each S_n."""
    memos: dict = {}
    with shared_chains():
        for w in _perms_1_to_6():
            profiles = [z.shape_profile() for z in enumerate_zonotopal(w)]
            sums = [min(sum(p) - 2 * len(p), 2) for p in profiles]
            expected = tuple(sums.count(k) for k in range(3))
            assert rank_counts(w, memos.setdefault(len(w), {})) == expected, w


def test_chain_equivalences_match_the_poset_route_S1_to_S6():
    """The flags read off the rank counts equal the flags read off P(w)."""
    memos: dict = {}
    with shared_chains():
        for w in _perms_1_to_6():
            flags = chain_equivalences(w, memos.setdefault(len(w), {}))
            assert flags == oracles.chain_equivalences(w), w


def test_chain_equivalences_reject_a_flip_graph_off_the_counts(monkeypatch):
    """T(321) has 2 tilings and 1 flip; a flip graph with 3 and 2 is refused,
    both sides named."""
    real = redux.tilings.flip_graph_from_tilings
    monkeypatch.setattr(
        redux.tilings, "flip_graph_from_tilings", lambda w: real((4, 2, 3, 1))
    )
    with pytest.raises(RuntimeError, match=r"T\(321\) has 3 tilings and 2 flips "
                       r"where its rank counts give 2 and 1"):
        chain_equivalences((3, 2, 1), {})


@pytest.mark.parametrize(
    "check, w, verdict, reader",
    [
        (level2_cycle_correspondence, (4, 6, 5, 2, 3, 1), True, "_rhombic_tile_sets"),
        (lambda w: chain_equivalences(w, {}), (4, 6, 5, 2, 3, 1), (False,) * 4, None),
        (lambda w: chain_equivalences(w, {}), (5, 2, 3, 4, 1), (True,) * 4, "enumerate_rhombic"),
        (
            lambda w: freely_braided_structure(w).all_ok(),
            (5, 2, 1, 4, 3),
            True,
            "_rhombic_tile_sets",
        ),
        (redux.verify._tilings_match_classes, (4, 6, 5, 2, 3, 1), True, "enumerate_rhombic"),
    ],
    ids=["ssv", "chainthm", "chainthm-tree", "fb", "elthm"],
)
def test_one_rhombic_enumeration_per_call(monkeypatch, check, w, verdict, reader):
    """T(w) is enumerated at most once, by one of its two readers: ssv and
    fb build the flip graph on the minimal elements of P(w), so poset's
    check of those elements reads T(w)'s tile sets off its chains; elthm
    counts T(w) as the vertices of its flip graph, and chainthm builds that
    graph only when the rank counts of Z(w) allow a tree."""
    calls = []
    for name in ("enumerate_rhombic", "_rhombic_tile_sets"):
        real = getattr(redux.tilings, name)
        monkeypatch.setattr(
            redux.tilings,
            name,
            lambda w, real=real, name=name: calls.append((name, w)) or real(w),
        )
    assert check(w) == verdict
    assert calls == ([(reader, w)] if reader else [])


def test_one_class_enumeration_for_elthm(monkeypatch):
    """elthm reads C(w) off the vertices of the class graph it builds; both
    names a caller could reach ``classes`` through are counted."""
    w = (4, 6, 5, 2, 3, 1)
    calls = []
    real = redux.commutation.classes
    for module in (redux.commutation, redux.verify):
        monkeypatch.setattr(module, "classes", lambda w: calls.append(w) or real(w))
    assert redux.verify._tilings_match_classes(w)
    assert calls == [w]


def test_freely_braided_report():
    report = freely_braided_structure((5, 2, 1, 4, 3))
    assert report.k == 2
    assert report.all_ok()
    with pytest.raises(ValueError):
        freely_braided_structure((4, 3, 2, 1))


def _drop_one_edge(real):
    def broken(tilings):
        g = real(tilings)
        return FlipGraph(g.vertices, g.edges - {min(g.edges)})

    return broken


def _drop_one_cover(real):
    # every element above the minimal ones keeps a lower cover, so poset's
    # check of the minimal elements still passes
    return property(lambda p: real.func(p) - {min(real.func(p))})


@pytest.mark.parametrize(
    "owner, name, breaker, flag",
    [
        (redux.tilings, "_flip_graph", _drop_one_edge, "graph_is_kcube"),
        (
            TilingPoset,
            "hasse",
            _drop_one_cover,
            "poset_is_cube_face_lattice_minus_bottom",
        ),
    ],
    ids=["flip_graph_edge", "hasse_cover"],
)
def test_freely_braided_report_detects_broken_structure(
    monkeypatch, owner, name, breaker, flag
):
    w = (5, 2, 1, 4, 3)
    assert freely_braided_structure(w).all_ok()
    monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
    report = freely_braided_structure(w)
    assert report.k == 2
    assert not getattr(report, flag) and not report.all_ok()


def test_polygon_geometry():
    svg = polygon_svg((4, 1, 3, 2))
    assert svg.count("<text") == 8 == len(boundary_edges((4, 1, 3, 2)))
    assert "degenerate" not in svg
    assert "degenerate polygon" in polygon_svg(identity(4))


def test_svg_output():
    svg = polygon_svg((4, 1, 3, 2))
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert "-0.0000" not in svg
    t = tiling_from_word(FIGURE_WORD, 5)
    out = tiling_svg(t)
    assert out.count("<polygon") >= len(t.tiles)
    assert tiling_svg(t) == out  # deterministic


def test_json_exports():
    t = tiling_from_word(FIGURE_WORD, 5)
    payload = json.loads(to_json(tiling_payload(t)))
    assert payload["schema"] == 1
    assert len(payload["tiles"]) == 8

    p = poset((3, 2, 1))
    payload = json.loads(to_json(poset_payload(p)))
    assert payload["schema"] == 1
    assert len(payload["elements"]) == 3

    dot = poset_dot(p)
    assert dot.startswith("digraph") or dot.startswith("graph")
