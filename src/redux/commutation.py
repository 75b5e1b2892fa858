"""Commutation classes C(w), the flip graph G(w), and small-graph utilities.

A commutation class is a trace: its words are the linear extensions of one
heap, the poset on letter positions generated by "p before q when p < q and
|word[p] - word[q]| <= 1".  The classes are enumerated as their
lexicographically least words, their normal forms, directly, without
building R(w) (Cartier-Foata; Anisimov-Knuth).  A word finds its class by
its :func:`trace_key`, and :func:`class_sizes` reads every class size of
w off one DP over the traces of the prefixes of w's reduced words.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .permcore import Perm, check_perm, format_perm, inverse, length
from .redwords import BudgetError, Word, check_budget, format_word

GRAPH_ISO_VERTEX_CAP = 64


@dataclass(frozen=True)
class FlipGraph:
    """A graph on an ordered vertex list; edges are index pairs (a < b)."""

    vertices: tuple
    edges: frozenset[tuple[int, int]]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @cached_property
    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.vertices]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    @cached_property
    def _walk(self) -> tuple[int, bool]:
        """(number of components, are they all 2-colourable), from one walk."""
        color: dict[int, int] = {}
        components, bipartite = 0, True
        for start in range(self.vertex_count):
            if start in color:
                continue
            components += 1
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for nbr in self.adjacency[v]:
                    if nbr not in color:
                        color[nbr] = 1 - color[v]
                        stack.append(nbr)
                    elif color[nbr] == color[v]:
                        bipartite = False
        return components, bipartite


def index_moves(name: str, w: Perm, keys: Iterable, moves: Iterable) -> list:
    """The index pairs (i, j), one per move of element i, where element j's
    key is the key the move leads to.  ``keys`` gives each element's key
    and ``moves``, in the same order, the keys each element's moves lead to.

    Raises RuntimeError naming the structure, ``name`` applied to w (such
    as "G(321)"), when a move leads to no element: the elements are then
    incomplete.
    """
    index = {key: i for i, key in enumerate(keys)}
    pairs = []
    for i, targets in enumerate(moves):
        for key in targets:
            j = index.get(key)
            if j is None:
                where = f"{name}({format_perm(w)})"
                raise RuntimeError(f"{where} lacks a move target of element {i}")
            pairs.append((i, j))
    return pairs


def _letter_masks(n: int) -> list[tuple[int, int, int]]:
    """The normal-form rule for the letters x of S_n, as (x, keep, add).

    A word is in normal form iff it has no factor b.u.a with a < b and a
    commuting with b and with every letter of u.  So appending x forbids
    next every a that commutes with x and was forbidden already or is < x:
    the letters forbidden after x are ``forbidden & keep | add``.
    """
    all_letters = (1 << n) - 2
    masks = []
    for x in range(1, n):
        commuting = all_letters & ~(0b111 << (x - 1))
        masks.append((x, commuting, commuting & (1 << x) - 2))
    return masks


def classes(w: Perm) -> list[Word]:
    """The commutation classes of R(w), each as its lexicographically least
    word, its normal form, sorted.

    Only the length limit of the current budget applies: R(w) is never
    built.  Words are built left to right over the left descents of what
    remains of w, so the state is (what remains, bitmask of the letters
    forbidden next; :func:`_letter_masks`).
    """
    w = check_budget(w)
    total = length(w)
    masks = _letter_masks(len(w))
    forms: list[Word] = []
    prefix: list[int] = []
    dead: set[tuple[Perm, int]] = set()

    # v is the inverse of what remains, so its descents are the left descents.
    def extend(v: Perm, forbidden: int) -> bool:
        if len(prefix) == total:
            forms.append(tuple(prefix))
            return True
        if (v, forbidden) in dead:
            return False
        found = False
        for x, keep, add in masks:
            if v[x - 1] > v[x] and not forbidden >> x & 1:
                prefix.append(x)
                u = v[: x - 1] + (v[x], v[x - 1]) + v[x + 1 :]
                found |= extend(u, forbidden & keep | add)
                prefix.pop()
        if not found:
            dead.add((v, forbidden))
        return found

    extend(inverse(w), 0)
    del extend  # extend refers to itself; unbinding it frees ``dead`` at once
    return forms


def class_count(w: Perm, memo: dict) -> int:
    """|C(w)|, the number of normal forms :func:`classes` lists,
    counted by a DP over its state (the inverse of what remains, the
    forbidden mask) without building a word.

    ``memo`` maps each state done so far to its count of completions.  A
    state does not depend on w, so one memo serves every w of one S_n.  The
    budget applies as in :func:`classes`.

    >>> memo = {}
    >>> class_count((4, 3, 2, 1), memo), class_count((4, 2, 3, 1), memo)
    (8, 3)
    """
    w = check_budget(w)
    return _count_forms(inverse(w), 0, _letter_masks(len(w)), memo)


def _count_forms(v: Perm, forbidden: int, masks: list, memo: dict) -> int:
    """The number of normal forms that complete the state (v, forbidden)."""
    state = (v, forbidden)
    count = memo.get(state)
    if count is None:
        count, done = 0, True  # done: no descent is left, the form is complete
        for x, keep, add in masks:
            if v[x - 1] > v[x]:
                done = False
                if not forbidden >> x & 1:
                    u = v[: x - 1] + (v[x], v[x - 1]) + v[x + 1 :]
                    count += _count_forms(u, forbidden & keep | add, masks, memo)
        memo[state] = count = 1 if done else count
    return count


def _move_keys(rep: Word, key: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The :func:`trace_key` of the class each long braid move open to some
    word of rep's class leads to, given rep's own ``key``.

    Such moves are the convex chains a < b < c of the heap labelled j, k, j
    with k = j+-1: two consecutive occurrences of j with exactly one letter
    j+-1 between them.  (A step up the heap from a, or into c, passes
    through a letter j+-1, so nothing else lies between them.)  The move
    turns j k j into k j k, which edits three projections of the key: in
    {j, k}, j k j becomes k j k; in j's other pair the two adjacent j's
    become one; in k's other pair b's k becomes k k.

    One pass from the right counts the symbols each projection has after
    each position, which are the bit offsets of that position's symbols in
    the key: (in pair x-1, in pair x) for a letter x.
    """
    after = [0] * len(key)  # symbols of each projection met so far
    nearest: list = [None] * (len(key) + 1)  # offsets of each letter's last occurrence met
    count = [0] * (len(key) + 1)  # for each letter j, the letters j+-1 met since then
    latest: list = [None] * (len(key) + 1)  # and the last of them, with its offsets
    out = []
    for x in reversed(rep):
        here = (after[x - 1], after[x])
        after[x - 1] += 1
        after[x] += 1
        c = nearest[x]  # x is j at a; c holds the offsets of its next occurrence
        if c is not None and count[x] == 1:
            k, b = latest[x]
            up = k > x  # k = j+1: {j, k} is key[j], where j is the 0, read at c[1]
            edited = list(key)
            edited[x - 1 + up] ^= 0b111 << c[up]  # j k j -> k j k
            bits, s = edited[x - up], c[not up]  # j j -> j
            edited[x - up] = bits >> s + 1 << s | bits & (1 << s) - 1
            bits, s = edited[k - 1 + up], b[up]  # k -> k k
            edited[k - 1 + up] = bits >> s << s + 1 | bits & (2 << s) - 1
            out.append(tuple(edited))
        nearest[x] = here
        count[x] = 0
        count[x - 1] += 1
        count[x + 1] += 1
        latest[x - 1] = latest[x + 1] = (x, here)
    return out


def trace_key(word: Word) -> tuple[int, ...]:
    """A key equal for two words exactly when they are in one commutation
    class: the projections of the word onto each dependent pair {i, i+1},
    i = 0..max letter, each read as bits (1 for i+1) after a leading 1.

    Letters commute exactly when they are not adjacent, so two words are
    in one class iff all these projections agree (the projection lemma for
    traces; Cori-Perrin 1985).  O(l), against O(l^2) for a normal form.

    >>> trace_key((1, 3, 2)) == trace_key((3, 1, 2)) != trace_key((1, 2, 3))
    True
    """
    if min(word, default=1) < 1:  # key[a - 1] would then alias another pair
        raise ValueError(f"letters must be at least 1: {word!r}")
    key = [1] * (max(word, default=0) + 1)
    for a in word:
        key[a - 1] = key[a - 1] << 1 | 1
        key[a] <<= 1
    return tuple(key)


def _class_sizes(w: Perm) -> dict[tuple[int, ...], int]:
    """{trace key: size} for every commutation class of w, by one forward DP
    over the traces of the prefixes of w's reduced words, each keyed by its
    :func:`trace_key` and counting its words.  Appending x edits only the
    projections {x-1, x} and {x, x+1}.  A layer's traces are grouped by v,
    the inverse of what remains (as in :func:`classes`), so v's descents
    are found once for all of them; two layers are alive at a time.
    """
    n = width = len(w)
    while width > 1 and w[width - 1] == width:  # letters width.. never occur
        width -= 1
    layer = {inverse(w): {(1,) * width: 1}}
    for _ in range(length(w)):
        grown: dict[Perm, dict[tuple[int, ...], int]] = {}
        for v, traces in layer.items():
            for x in range(1, n):
                if v[x - 1] > v[x]:
                    into = grown.setdefault(v[: x - 1] + (v[x], v[x - 1]) + v[x + 1 :], {})
                    for key, count in traces.items():
                        key = key[: x - 1] + (key[x - 1] << 1 | 1, key[x] << 1) + key[x + 1 :]
                        into[key] = into.get(key, 0) + count
        layer = grown
    (sizes,) = layer.values()
    return sizes


def class_sizes(w: Perm) -> dict[Word, int]:
    """{representative: number of words} for every class of w, in the
    order of :func:`classes`, each size read off :func:`_class_sizes` by
    the representative's :func:`trace_key`.

    >>> class_sizes((4, 2, 3, 1))
    {(1, 2, 3, 2, 1): 1, (1, 3, 2, 1, 3): 4, (3, 2, 1, 2, 3): 1}
    """
    forms, sizes = classes(w), _class_sizes(w)
    found = {}
    for form in forms:
        key = trace_key(form)
        if key not in sizes:  # the DP and the normal forms disagree on C(w)
            raise RuntimeError(f"C({format_perm(w)}) lacks the class of {format_word(form)}")
        found[form] = sizes[key]
    return found


def graph(w: Perm) -> FlipGraph:
    """The graph G(w): vertices C(w), edges between classes one long braid
    move apart.  Each representative's :func:`trace_key` is computed once;
    it indexes the class, and :func:`_move_keys` edits it into the key of
    each class a long move leads to, so no target word is built.

    Raises RuntimeError if G(w) is not connected or not bipartite; the paper
    guarantees both, so a violation means the construction is broken.
    """
    forms = classes(w)
    keys = [trace_key(form) for form in forms]
    moves = map(_move_keys, forms, keys)
    edges = frozenset((min(i, j), max(i, j)) for i, j in index_moves("G", w, keys, moves))
    g = FlipGraph(vertices=tuple(forms), edges=edges)
    if not is_connected(g):
        raise RuntimeError(f"G({format_perm(w)}) is not connected")
    if not is_bipartite(g):
        raise RuntimeError(f"G({format_perm(w)}) is not bipartite")
    return g


def is_connected(g: FlipGraph) -> bool:
    return g._walk[0] <= 1


def is_bipartite(g: FlipGraph) -> bool:
    return g._walk[1]


def is_tree(g: FlipGraph) -> bool:
    return is_connected(g) and len(g.edges) == g.vertex_count - 1


def is_path(g: FlipGraph) -> bool:
    return is_tree(g) and all(len(nbrs) <= 2 for nbrs in g.adjacency)


def simple_cycles_of_length(g: FlipGraph, target: int) -> list[frozenset[tuple[int, int]]]:
    """All simple cycles with exactly ``target`` edges, as canonical edge sets."""
    adj = g.adjacency
    found: set[frozenset[tuple[int, int]]] = set()
    for start in range(g.vertex_count):
        _extend_cycles([start], adj, target, found)
    return sorted(found, key=sorted)


def _extend_cycles(path: list[int], adj: list, target: int, found: set) -> None:
    """Add to ``found`` every simple cycle of ``target`` edges that starts
    with ``path`` and whose other vertices all exceed path[0]."""
    for nbr in adj[path[-1]]:
        if nbr == path[0] and len(path) == target:
            if path[1] < path[-1]:  # each cycle once, not once per direction
                found.add(
                    frozenset(
                        (min(a, b), max(a, b))
                        for a, b in zip(path, path[1:] + path[:1])
                    )
                )
        elif nbr > path[0] and nbr not in path and len(path) < target:
            _extend_cycles(path + [nbr], adj, target, found)


def gf2_rank(vectors: list[int]) -> int:
    """Rank over GF(2) of int-encoded bit vectors.  The basis is keyed by
    leading bit, so each step of a reduction clears the vector's leading
    bit and visits a pivot at most once."""
    basis: dict[int, int] = {}
    for vec in vectors:
        while vec and (lead := vec.bit_length()) in basis:
            vec ^= basis[lead]
        if vec:
            basis[lead] = vec
    return len(basis)


def spans_cycle_space(g: FlipGraph, cycles) -> bool:
    """Do these cycles, each a set of edges, span the GF(2) cycle space of
    the connected graph ``g``?"""
    edge_index = {e: i for i, e in enumerate(sorted(g.edges))}
    vectors = [sum(1 << edge_index[e] for e in cycle) for cycle in cycles]
    return gf2_rank(vectors) == len(g.edges) - g.vertex_count + 1


def cycle_space_generated_by_4_8_cycles(g: FlipGraph) -> bool:
    """Do the 4- and 8-cycles span the full GF(2) cycle space of ``g``?"""
    if not is_connected(g):
        raise ValueError("the graph must be connected")
    cycles = simple_cycles_of_length(g, 4) + simple_cycles_of_length(g, 8)
    return spans_cycle_space(g, cycles)


def _iso_backtrack(adj1: list[set[int]], adj2: list[set[int]]) -> bool:
    n = len(adj1)
    deg1 = [len(a) for a in adj1]
    deg2 = [len(a) for a in adj2]
    if sorted(deg1) != sorted(deg2):
        return False
    order = sorted(range(n), key=lambda v: -deg1[v])
    return _place(adj1, adj2, order, {}, set())


def _place(adj1, adj2, order: list, mapping: dict, used: set) -> bool:
    """Extend ``mapping`` (vertex of adj1 -> unused vertex of adj2) to the
    rest of ``order``, keeping adjacency and degrees; backtracks on failure."""
    idx = len(mapping)
    if idx == len(order):
        return True
    v = order[idx]
    for cand in range(len(adj2)):
        if cand in used or len(adj2[cand]) != len(adj1[v]):
            continue
        if all((u2 in adj2[cand]) == (u1 in adj1[v]) for u1, u2 in mapping.items()):
            mapping[v] = cand
            used.add(cand)
            if _place(adj1, adj2, order, mapping, used):
                return True
            del mapping[v]
            used.remove(cand)
    return False


def graphs_isomorphic(g1: FlipGraph, g2: FlipGraph) -> bool:
    """Exact isomorphism test by backtracking; capped at 64 vertices."""
    if max(g1.vertex_count, g2.vertex_count) > GRAPH_ISO_VERTEX_CAP:
        raise BudgetError(
            f"graph isomorphism is capped at {GRAPH_ISO_VERTEX_CAP} vertices"
        )
    if g1.vertex_count != g2.vertex_count or len(g1.edges) != len(g2.edges):
        return False
    return _iso_backtrack(g1.adjacency, g2.adjacency)


def _mod_n(value: int, n: int) -> int:
    r = value % n
    return r if r != 0 else n


def rotate_prefix(w: Perm, i: int) -> Perm:
    """w^{(i)} for w starting n, n-1, ..., n+1-i; preserves |C| and G."""
    w = check_perm(w)
    n = len(w)
    if not 1 <= i <= n or any(w[t] != n - t for t in range(i)):
        raise ValueError(f"w must start with n, n-1, ..., n+1-{i}")
    head = [_mod_n(w[t] + i, n) for t in range(i, n)]
    return tuple(head + list(range(i, 0, -1)))


def rotate_suffix(w: Perm, j: int) -> Perm:
    """w_{(j)} for w ending j, j-1, ..., 1; preserves |C| and G."""
    w = check_perm(w)
    n = len(w)
    if not 1 <= j <= n or any(w[n - 1 - t] != t + 1 for t in range(j)):
        raise ValueError(f"w must end with {j}, ..., 2, 1")
    tail = [_mod_n(w[t] - j, n) for t in range(n - j)]
    return tuple(list(range(n, n - j, -1)) + tail)
