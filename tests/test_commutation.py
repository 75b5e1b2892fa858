"""Commutation classes, the flip graph on them, and small-graph utilities."""

import json
import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import redux.commutation
import redux.tilings
from redux.commutation import (
    FlipGraph,
    class_count,
    class_sizes,
    classes,
    cycle_space_generated_by_4_8_cycles,
    gf2_rank,
    graph,
    graphs_isomorphic,
    is_bipartite,
    is_connected,
    is_path,
    is_tree,
    rotate_prefix,
    rotate_suffix,
    simple_cycles_of_length,
    trace_key,
)
from redux.permcore import longest_element
from redux.redwords import BudgetError, budget, count_R, enumerate_R, evaluate, format_word
from redux.render import graph_dot, graph_payload, to_json

from oracles import apply_long_move, braid_moves, class_size, class_words, heap

perms5 = st.permutations((1, 2, 3, 4, 5)).map(tuple)
words5 = perms5.flatmap(lambda w: st.sampled_from(enumerate_R(w)))


def test_classes_golden_4231():
    w = (4, 2, 3, 1)
    by_rep = {format_word(rep): {format_word(j) for j in class_words(rep)} for rep in classes(w)}
    assert by_rep == {
        "12321": {"12321"},
        "13213": {"13231", "31231", "13213", "31213"},
        "32123": {"32123"},
    }
    assert list(class_sizes(w).values()) == [1, 4, 1]


def _home(w):
    """Each word of R(w) -> the representative of its class, read off the
    braid-move closures ``class_words``."""
    return {word: rep for rep in classes(w) for word in class_words(rep)}


def test_classes_partition_R():
    for w in permutations(range(1, 6)):
        reps = classes(w)
        words = enumerate_R(w)
        assert sorted(j for rep in reps for j in class_words(rep)) == list(words), w
        by_key = {trace_key(rep): rep for rep in reps}
        for word in words:
            assert word in class_words(by_key[trace_key(word)])
        for rep, size in class_sizes(w).items():
            assert rep == min(class_words(rep))
            assert size == len(class_words(rep))


def _size_by_all_positions(rep):
    """Reference class size: the linear extensions of the heap, counted by
    a DP over order ideals that tries every position at every step."""
    below = heap(rep)
    ideals = {0: 1}
    for _ in below:
        grown = {}
        for ideal, count in ideals.items():
            for p, mask in enumerate(below):
                if not ideal >> p & 1 and not mask & ~ideal:
                    key = ideal | 1 << p
                    grown[key] = grown.get(key, 0) + count
        ideals = grown
    return sum(ideals.values())


def test_class_size_matches_reference_S6():
    """The shared DP's sizes agree with each class's own heap, counted by
    its frontier and by every position."""
    total = 0
    for w in permutations(range(1, 7)):
        for rep, size in class_sizes(w).items():
            assert size == class_size(rep) == _size_by_all_positions(rep), rep
            total += 1
    assert total == 9661


def test_class_sizes_key_every_class_S6():
    """The DP over prefix traces sizes every class that the normal forms
    list, in their order, and the sizes add up to |R(w)| (so the DP has no
    class more), for every w of S1-S6."""
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            sizes = class_sizes(w)
            assert list(sizes) == classes(w), w
            assert sum(sizes.values()) == count_R(w), w


def test_class_sizes_longest_element_S7():
    """One class per rhombic tiling of X(w0), and |R(w0)| words in all."""
    w0 = longest_element(7)
    sizes = redux.commutation._class_sizes(w0)
    assert len(sizes) == 24698
    assert sum(sizes.values()) == count_R(w0) == 1_100_742_656


@pytest.mark.parametrize("w", [(1, 1), (2, 1, 2, 1), (1, 2, 1, 2, 1)])
def test_class_sizes_rejects_a_w_that_is_not_a_permutation(w):
    with pytest.raises(ValueError, match=rf"not a permutation of 1\.\.{len(w)}"):
        class_sizes(w)


def test_class_sizes_of_the_shortest_words():
    """The identity has one class, of the empty word; a simple
    transposition s_i has one, of the word i."""
    assert class_sizes((1,)) == class_sizes((1, 2, 3)) == {(): 1}
    assert class_sizes((1, 2, 4, 3)) == {(3,): 1}


def test_trace_key_rejects_a_letter_below_1():
    """Negative indexing would alias (3, 1, -2) to (3, 1, 2)."""
    for word in [(3, 1, -2), (-1,), (0,), (1, 0)]:
        with pytest.raises(ValueError, match="letters must be at least 1"):
            trace_key(word)


def test_size_raises_when_the_dp_lacks_the_class(monkeypatch):
    monkeypatch.setattr(redux.commutation, "_class_sizes", lambda w: {})
    with pytest.raises(RuntimeError, match=r"C\(321\) lacks the class of 121"):
        class_sizes((3, 2, 1))


def test_graph_edges_match_long_moves_on_R():
    for w in permutations(range(1, 6)):
        index = {word: i for i, rep in enumerate(classes(w)) for word in class_words(rep)}
        edges = set()
        for word in enumerate_R(w):
            i = index[word]
            for pos in braid_moves(word)[1]:
                j = index[apply_long_move(word, pos)]
                edges.add((min(i, j), max(i, j)))
        assert graph(w).edges == edges, w


def test_trace_key_matches_normal_form_on_R():
    """Over R(w), equal trace keys and equal normal forms (class
    representatives) split the words into the same classes."""
    for w in permutations(range(1, 6)):
        pairs = {(trace_key(word), form) for word, form in _home(w).items()}
        assert len({key for key, _ in pairs}) == len(pairs), w
        assert len({form for _, form in pairs}) == len(pairs), w


@given(words5, st.data())
def test_trace_key_matches_normal_form(word, data):
    w = evaluate(word, 5)[0]
    other = data.draw(st.sampled_from(enumerate_R(w)))
    home = _home(w)
    assert (trace_key(word) == trace_key(other)) == (home[word] == home[other])


def _long_moves(rep):
    """Reference moves: for each long braid move open to some word of rep's
    class, a word of the class that the move leads to.

    Such moves are the convex chains a < b < c of the heap labelled j, j+-1,
    j.  Listing the rest of the down-set of c, then a b c, then everything
    else, gives a word of the class with the chain consecutive; the move
    turns j k j there into k j k.
    """
    below = heap(rep)
    last = {}
    out = []
    for c, j in enumerate(rep):
        a = last.get(j)
        last[j] = c
        if a is None:
            continue
        between = [b for b in range(a + 1, c) if below[b] >> a & 1 and below[c] >> b & 1]
        if len(between) != 1:
            continue
        k = rep[between[0]]
        head = [rep[p] for p in range(c) if below[c] >> p & 1 and p not in (a, between[0])]
        tail = [rep[p] for p in range(len(rep)) if p != c and not below[c] >> p & 1]
        out.append(tuple(head + [k, j, k] + tail))
    return out


def test_move_keys_match_long_moves_S6():
    """Editing rep's trace key gives, as a multiset, the keys of the words
    the heap's long moves lead to, on every class of S1-S6."""
    total = 0
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            for rep in classes(w):
                got = sorted(redux.commutation._move_keys(rep, trace_key(rep)))
                assert got == sorted(map(trace_key, _long_moves(rep))), rep
                total += 1
    assert total == 10190  # 9661 of them in S6


def test_graph_rejects_a_move_into_no_class(monkeypatch):
    monkeypatch.setattr(redux.commutation, "_move_keys", lambda rep, key: [(1, 2)])
    with pytest.raises(RuntimeError, match=r"G\(321\) lacks a move target of element 0"):
        graph((3, 2, 1))


def test_representatives_are_normal_forms():
    """No representative of a class over S5 has a factor b.u.a with a < b,
    where a commutes with b and with every letter of u."""
    for w in permutations(range(1, 6)):
        for form in classes(w):
            for p, b in enumerate(form):
                for q in range(p + 1, len(form)):
                    a = form[q]
                    commutes = all(abs(a - x) >= 2 for x in form[p:q])
                    assert not (a < b and commutes), (form, p, q)


def test_class_counts_longest_elements():
    # |C(w0)| is OEIS A006245; the acceptance gate pins it for S5 and S6.
    assert len(classes(longest_element(4))) == 8
    assert len(enumerate_R(longest_element(4))) == 16
    with budget(max_length=21):
        assert len(classes(longest_element(7))) == 24698


def test_graph_longest_element_S7():
    """G(w0) of S7 has as many vertices and edges as its flip graph on
    rhombic tilings."""
    with budget(max_length=21):
        g = graph(longest_element(7))
    assert (g.vertex_count, len(g.edges)) == (24698, 80360)


def test_class_count_matches_classes():
    """The DP counts what the enumeration lists, with a fresh memo for each w
    and with one memo shared by all of S_n, as the monotone sweep uses it."""
    for n in range(1, 7):
        shared: dict = {}
        for w in permutations(range(1, n + 1)):
            expected = len(classes(w))
            assert class_count(w, {}) == expected == class_count(w, shared), w


def test_class_count_applies_the_budget():
    with budget(max_length=5):
        with pytest.raises(BudgetError, match="length\\(w\\) = 6 exceeds the limit 5"):
            class_count(longest_element(4), {})


def test_graph_structure():
    g = graph(longest_element(4))
    assert g.vertex_count == 8
    assert is_connected(g) and is_bipartite(g)
    assert cycle_space_generated_by_4_8_cycles(g)
    two_components = FlipGraph(vertices=(0, 1, 2, 3), edges=frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError, match="must be connected"):
        cycle_space_generated_by_4_8_cycles(two_components)


def test_graph_path_for_shared_321s():
    g = graph((5, 2, 3, 4, 1))  # three 321-occurrences, all sharing 5 and 1
    assert g.vertex_count == 4
    assert is_path(g)


@pytest.mark.parametrize("check", ["is_connected", "is_bipartite"])
def test_graph_raises_when_a_guaranteed_property_fails(monkeypatch, check):
    monkeypatch.setattr(f"redux.commutation.{check}", lambda g: False)
    with pytest.raises(RuntimeError, match=check.removeprefix("is_")):
        graph((4, 2, 3, 1))


def _reverse_complement(w):
    n = len(w)
    return tuple(n + 1 - v for v in reversed(w))


@given(perms5)
def test_polygon_reflection_preserves_class_count(w):
    # reflecting the polygon = reverse-complement; plain reversal does not
    # even preserve length
    assert len(classes(w)) == len(classes(_reverse_complement(w)))
    assert graphs_isomorphic(graph(w), graph(_reverse_complement(w)))


def test_rotations():
    w = (5, 4, 1, 3, 2)
    rotated = rotate_prefix(w, 2)
    assert rotated[-2:] == (2, 1)
    assert len(classes(w)) == len(classes(rotated))
    assert graphs_isomorphic(graph(w), graph(rotated))

    u = (3, 5, 4, 2, 1)
    rotated = rotate_suffix(u, 2)
    assert rotated[:2] == (5, 4)
    assert len(classes(u)) == len(classes(rotated))
    assert graphs_isomorphic(graph(u), graph(rotated))

    with pytest.raises(ValueError):
        rotate_prefix((1, 2, 3), 1)
    with pytest.raises(ValueError):
        rotate_suffix((1, 2, 3), 1)


def _path_graph(n):
    return FlipGraph(
        vertices=tuple(range(n)),
        edges=frozenset((i, i + 1) for i in range(n - 1)),
    )


def test_graph_utilities():
    path = _path_graph(4)
    assert is_tree(path) and is_path(path)
    star = FlipGraph(vertices=(0, 1, 2, 3), edges=frozenset({(0, 1), (0, 2), (0, 3)}))
    assert is_tree(star) and not is_path(star)
    square = FlipGraph(vertices=(0, 1, 2, 3), edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    assert not is_tree(square)
    assert len(simple_cycles_of_length(square, 4)) == 1
    assert simple_cycles_of_length(square, 3) == []
    assert square.adjacency is square.adjacency
    # (vertex count, edges, connected, bipartite); one walk answers both
    for count, edges, connected, bipartite in [
        (3, {(0, 1), (1, 2), (0, 2)}, True, False),
        (5, {(0, 1), (2, 3), (3, 4), (2, 4)}, False, False),
        (0, set(), True, True),
        (3, {(0, 1)}, False, True),
    ]:
        g = FlipGraph(vertices=tuple(range(count)), edges=frozenset(edges))
        assert (is_connected(g), is_bipartite(g)) == (connected, bipartite), edges


def test_graphs_isomorphic():
    relabeled = FlipGraph(
        vertices=(0, 1, 2, 3), edges=frozenset({(0, 2), (2, 3), (1, 3)})
    )
    assert graphs_isomorphic(_path_graph(4), relabeled)
    star = FlipGraph(vertices=(0, 1, 2, 3), edges=frozenset({(0, 1), (0, 2), (0, 3)}))
    assert not graphs_isomorphic(_path_graph(4), star)
    big = FlipGraph(vertices=tuple(range(65)), edges=frozenset())
    with pytest.raises(BudgetError):
        graphs_isomorphic(big, big)


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b101, 0b011, 0b110]) == 2
    assert gf2_rank([0b101, 0b011, 0b100]) == 3


def _gf2_rank_by_sorted_basis(vectors):
    """Reference rank: reduce each vector against the whole basis, kept
    sorted in decreasing order."""
    basis = []
    for vec in vectors:
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)
    return len(basis)


def test_gf2_rank_matches_reference_on_random_vectors():
    rng = random.Random(12)
    for _ in range(300):
        width = rng.randrange(1, 40)
        vectors = [rng.getrandbits(width) for _ in range(rng.randrange(0, 30))]
        # XORs of earlier vectors make the rank fall short of the count
        for _ in range(rng.randrange(0, 10)):
            vectors.append(rng.choice(vectors or [0]) ^ rng.choice(vectors or [0]))
        rng.shuffle(vectors)
        assert gf2_rank(vectors) == _gf2_rank_by_sorted_basis(vectors), vectors


def test_gf2_rank_matches_reference_on_level2_cycles_S5(monkeypatch):
    """The vectors ssv ranks: the level-2 cycles of every w in S_5."""
    seen = []

    def recording_rank(vectors):
        seen.append(list(vectors))
        return gf2_rank(vectors)

    monkeypatch.setattr(redux.commutation, "gf2_rank", recording_rank)
    for w in permutations(range(1, 6)):
        assert redux.tilings.level2_cycle_correspondence(w), w
    assert any(seen)
    for vectors in seen:
        assert gf2_rank(vectors) == _gf2_rank_by_sorted_basis(vectors)


def test_graph_exports():
    g = graph((3, 2, 1))
    dot = graph_dot(g)
    assert dot.startswith("graph G {")
    assert 'v0 [label="121"]' in dot
    assert "v0 -- v1;" in dot
    payload = json.loads(to_json(graph_payload(g)))
    assert payload["schema"] == 1
    assert payload["vertices"] == ["121", "212"]
    assert payload["edges"] == [[0, 1]]
