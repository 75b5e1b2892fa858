"""The constructive embedding machine and the non-vexillary witness."""

import ast
import hashlib
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redux.patterns import is_vexillary, occurrences
from redux.permcore import length, right_mult_adjacent
from redux.redwords import enumerate_R, evaluate, find_shift_factor, shift
from redux import verify, vexalg
from redux.vexalg import VexError, embed_reduced_word, lex_least_reduced_word, nonvex_witness

from oracles import first_occurrence, left_mult_adjacent, obstruction, vex

perms5 = st.permutations((1, 2, 3, 4, 5)).map(tuple)
vex_patterns3 = st.sampled_from(
    [p for p in map(tuple, permutations((1, 2, 3))) if len(p) == 3]
)


def test_vex_golden_trace():
    w = (3, 1, 4, 6, 5, 2)
    res = vex(w, (1, 4, 6))  # the values 3, 6, 2 of a 231
    assert res.prefix_letters == (5,)
    assert res.suffix_letters == (1, 5, 4)
    assert res.M == 1
    assert res.pattern_positions == (2, 3, 4)
    # w_tilde = s5 w s1 s5 s4, applied in recorded order
    u = left_mult_adjacent(w, 5)
    for i in (1, 5, 4):
        u = right_mult_adjacent(u, i)
    assert res.w_tilde == u
    assert length(res.w_tilde) == length(w) - 4


def test_embed_golden():
    w = (3, 1, 4, 6, 5, 2)
    word = embed_reduced_word(w, (1, 4, 6), (1, 2))
    assert word == (5, 2, 3, 4, 5, 1)


def test_vex_rejects_bad_input():
    with pytest.raises(ValueError, match="^vex requires a vexillary pattern$"):
        vex((2, 1, 4, 3), (1, 2, 3, 4))
    message = "^occurrence positions must be increasing positions of w$"
    for at in (
        (),  # no position
        (2, 1),  # decreasing positions
        (1, 1),  # a repeated position
        (0, 1),  # a position outside w
        (3, 4),  # a position outside w
    ):
        with pytest.raises(ValueError, match=message):
            vex((1, 2, 3), at)
        with pytest.raises(ValueError, match=message):
            embed_reduced_word((1, 2, 3), at, ())
    # a reduced word of another pattern (of 231 for a 21, of 312 for a 231),
    # and letters outside 1..k-1 (0 and 2 for a 21)
    message = "^pattern_word is not a reduced word of the pattern$"
    for w, at, pattern_word in (
        ((3, 2, 1), (1, 2), (1, 2)),
        ((3, 1, 4, 6, 5, 2), (1, 4, 6), (2, 1)),
        ((3, 2, 1), (1, 2), (0,)),
        ((3, 2, 1), (1, 2), (2,)),
    ):
        vex(w, at)
        with pytest.raises(ValueError, match=message):
            embed_reduced_word(w, at, pattern_word)


def test_vex_step_cap_names_its_limit(monkeypatch):
    w = (3, 1, 4, 6, 5, 2)
    monkeypatch.setattr(vexalg, "_STEP_CAP", 1)
    with pytest.raises(VexError, match="vex did not terminate within 1 steps"):
        vex(w, (1, 4, 6))


def test_check_occurrence_rejects_a_broken_state():
    """Each of vex's two occurrence checks fires, with its own message, on a
    state broken by hand."""
    w, p, values = (3, 1, 4, 6, 5, 2), (2, 3, 1), (3, 6, 2)
    vexalg._VexState(w, p, values).check_occurrence()

    lost = vexalg._VexState(w, p, values)
    a, b = lost.inv[3], lost.inv[6]  # two pattern entries trade places
    lost.w[a - 1], lost.w[b - 1] = 6, 3
    lost.inv[3], lost.inv[6] = b, a
    with pytest.raises(VexError, match="^pattern occurrence lost during vex$"):
        lost.check_occurrence()

    unsorted = vexalg._VexState(w, p, values)
    unsorted.pat[0], unsorted.pat[1] = unsorted.pat[1], unsorted.pat[0]
    with pytest.raises(VexError, match="^pattern roles must stay increasing$"):
        unsorted.check_occurrence()


def test_nonvex_witness_golden():
    assert nonvex_witness((2, 1, 4, 3)) == (2, 1, 3, 5, 4)
    with pytest.raises(ValueError):
        nonvex_witness((3, 2, 1))  # vexillary


def test_witness_has_no_shifted_factor_S4():
    for p in map(tuple, permutations((1, 2, 3, 4))):
        if is_vexillary(p):
            continue
        witness = nonvex_witness(p)
        assert occurrences(witness, p)
        pattern_words = enumerate_R(p)
        assert all(
            find_shift_factor(word, pattern_words) is None
            for word in enumerate_R(witness)
        ), p


def test_lex_least_reduced_word():
    for n in range(1, 6):
        for w in map(tuple, permutations(range(1, n + 1))):
            assert lex_least_reduced_word(w) == min(enumerate_R(w)), w


def test_embedding_is_assembled_from_the_vex_result():
    """``embed_reduced_word`` reads vex's working state directly; its word is
    the one assembled from the public ``vex`` result, also when w is a
    list."""
    n = 5
    for k in (3, 4):
        for p in filter(is_vexillary, permutations(range(1, k + 1))):
            pattern_word = lex_least_reduced_word(p)
            for w in permutations(range(1, n + 1)):
                for occ in occurrences(w, p):
                    res = vex(w, occ)
                    u = list(res.w_tilde)
                    u[res.M : res.M + k] = sorted(u[res.M : res.M + k])
                    expected = (
                        res.prefix_letters[::-1]
                        + lex_least_reduced_word(tuple(u))
                        + shift(pattern_word, res.M, n)
                        + res.suffix_letters[::-1]
                    )
                    assert embed_reduced_word(w, occ, pattern_word) == expected
                    assert embed_reduced_word(list(w), occ, pattern_word) == expected
                    assert vex(list(w), occ) == res


def test_vexthm_validates_each_w_once(monkeypatch):
    """The vexthm sweep embeds every pattern it finds in w in a row; w is
    checked and its length taken once per such visit, not once per
    embedding.  A call is counted when its argument is the swept w object
    itself: the permutations vex builds on the way are new objects."""
    visits: dict = {}
    current = {}

    def embed(w, occ, pattern_word):
        current["w"], current["visit"] = w, (len(occ), w)
        visits.setdefault(current["visit"], {"check_perm": 0, "length": 0})
        return embed_reduced_word(w, occ, pattern_word)

    def counting(name):
        real = getattr(vexalg, name)

        def call(arg):
            if arg is current.get("w"):
                visits[current["visit"]][name] += 1
            return real(arg)

        return call

    monkeypatch.setattr(verify, "embed_reduced_word", embed)
    for name in ("check_perm", "length"):
        monkeypatch.setattr(vexalg, name, counting(name))
    assert verify.run("vexthm", 5).ok
    # k = 3: all 150 w of S3..S5; k = 4: the 143 w of S4, S5 but 2143
    assert len(visits) == 293
    first, *rest = visits.values()  # the first w may still be cached from before
    assert max(first.values()) <= 1
    assert all(c == {"check_perm": 1, "length": 1} for c in rest)


def test_vex_step_5_count(monkeypatch):
    """Step 5 reads the obstruction off vex's own state: the vexthm sweep
    at n = 5 runs it 141 times."""
    steps = []

    def counting_obstruction(inv, pat, m, px):
        steps.append(px)
        return real(inv, pat, m, px)

    real = vexalg._obstruction
    monkeypatch.setattr(vexalg, "_obstruction", counting_obstruction)
    assert verify.run("vexthm", 5).ok
    assert len(steps) == 141


def test_obstruction_one_side():
    # x = 4 inside the occurrence with values (3, 2, 5, 1): blocked left only
    m, a, b, left, right = obstruction((3, 2, 4, 5, 1), (1, 2, 4, 5), 4)
    assert (m, a, b) == (3, 0, 0)
    assert left and not right


def test_obstruction_both_sides():
    # x = 3 inside the occurrence with values (2, 1, 5, 4): blocked both ways
    m, _, _, left, right = obstruction((2, 1, 3, 5, 4), (1, 2, 4, 5), 3)
    assert m == 2
    assert left and right


def position(w, value):
    """1-based position of ``value`` in ``w``, by a scan."""
    return w.index(value) + 1


def _obstruction_by_scans(w, occ, x):
    """The definition of the obstruction read literally, each position found
    by a scan of w: (m, a, b, obstructed left, obstructed right), or None
    where it is undefined (x is a role or not inside the occurrence, or no
    role m has <m> < x < <m+1> in increasing order)."""
    roles = sorted(w[i - 1] for i in occ)
    k = len(roles)
    px = position(w, x)
    m = next((m for m in range(1, k) if roles[m - 1] < x < roles[m]), None)
    if x in roles or not occ[0] < px < occ[-1] or m is None:
        return None
    if not position(w, roles[m - 1]) < px < position(w, roles[m]):
        return None
    a = 0
    while m - 1 - (a + 1) >= 0 and position(w, roles[m - 1 - (a + 1)]) < position(
        w, roles[m - 1 - a]
    ):
        a += 1
    b = 0
    while m + (b + 1) <= k - 1 and position(w, roles[m + b]) < position(
        w, roles[m + (b + 1)]
    ):
        b += 1
    left_end, right_end = roles[m - 1 - a], roles[m + b]
    obstructed_left = any(
        roles[j] < left_end and position(w, left_end) < position(w, roles[j]) < px
        for j in range(k)
    )
    obstructed_right = any(
        roles[j] > right_end and px < position(w, roles[j]) < position(w, right_end)
        for j in range(k)
    )
    return m, a, b, obstructed_left, obstructed_right


def test_obstruction_matches_the_position_scans_S5():
    """Every x of every occurrence of a vexillary pattern of size 3 or 4 in
    S5 where the obstruction is defined: Step 5's ``_obstruction``, given m
    by ``bisect`` and the list-shaped state that ``_vex`` keeps, gives the
    report of the scans."""
    reports = 0
    for k in (3, 4):
        for p in filter(is_vexillary, verify.all_perms(k)):
            for w in verify.all_perms(5):
                for occ in occurrences(w, p):
                    for x in range(1, 6):
                        expected = _obstruction_by_scans(w, occ, x)
                        if expected is not None:
                            assert obstruction(w, occ, x) == expected, (w, occ, x)
                            reports += 1
    assert reports == 257


@settings(max_examples=60)
@given(perms5, vex_patterns3, st.integers(0, 10**6))
def test_vex_invariants(w, p, pick):
    occs = occurrences(w, p)
    if not occs or not is_vexillary(p):
        return
    occ = occs[pick % len(occs)]
    res = vex(w, occ)
    k = len(p)
    # the occurrence sits in consecutive positions M+1 .. M+k of w_tilde
    window = res.w_tilde[res.M : res.M + k]
    ranks = tuple(sorted(window).index(v) + 1 for v in window)
    assert ranks == p
    # each multiplier removes an inversion
    moves = len(res.prefix_letters) + len(res.suffix_letters)
    assert length(res.w_tilde) == length(w) - moves
    # reconstruct w_tilde from the recorded multipliers
    u = w
    for v in reversed(res.prefix_letters):
        u = left_mult_adjacent(u, v)
    for i in res.suffix_letters:
        u = right_mult_adjacent(u, i)
    assert u == res.w_tilde


@settings(max_examples=40, deadline=None)
@given(perms5, vex_patterns3, st.integers(0, 10**6))
def test_embed_output_is_verified(w, p, pick):
    occs = occurrences(w, p)
    if not occs:
        return
    occ = occs[pick % len(occs)]
    words = enumerate_R(p)
    word = words[pick % len(words)]
    out = embed_reduced_word(w, occ, word)
    assert evaluate(out, len(w)) == (w, True)
    assert find_shift_factor(out, [word]) is not None


# sha256 over the vex result and the embedded word for every occurrence of
# every vexillary pattern of size 3 or 4 in every w of S_3 .. S_5.  Any change
# to a single output of vex fails here; to re-record after an intended change,
# print ``_vex_outputs_digest(3, 5)``.
VEX_CASES = 1900
VEX_DIGEST = "6254920a3738a65c9d8b7239cd2c5c8f3230a23a95abed0a20f1baf2af5fabc2"


def _vex_outputs_digest(n_min, n_max):
    """(cases, sha256) over the vex result and the embedded word for every
    occurrence of every vexillary pattern p of size 3 or 4 in every w of
    S_n, max(len(p), n_min) <= n <= n_max."""
    h = hashlib.sha256()
    cases = 0
    for k in (3, 4):
        for p in map(tuple, permutations(range(1, k + 1))):
            if not is_vexillary(p):
                continue
            pattern_word = lex_least_reduced_word(p)
            for n in range(max(k, n_min), n_max + 1):
                for w in map(tuple, permutations(range(1, n + 1))):
                    for occ in occurrences(w, p):
                        res = vex(w, occ)
                        fields = (
                            res.prefix_letters,
                            res.w_tilde,
                            res.suffix_letters,
                            res.M,
                            res.pattern_positions,
                        )
                        word = embed_reduced_word(w, occ, pattern_word)
                        values = tuple(w[i - 1] for i in occ)
                        h.update(repr((w, values, fields, word)).encode())
                        cases += 1
    return cases, h.hexdigest()


def test_vex_outputs_pinned():
    assert _vex_outputs_digest(3, 5) == (VEX_CASES, VEX_DIGEST)


# The same sha256 over every w of S_6 alone: stepping cases are much more
# common there than in S_3 .. S_5.
VEX_S6_CASES = 24750
VEX_S6_DIGEST = "2dc89b809a7bcc92543fd202b82fc1416bc67ea29dbe188aa8ef0c5fc1f14d17"


def test_vex_outputs_pinned_S6():
    assert _vex_outputs_digest(6, 6) == (VEX_S6_CASES, VEX_S6_DIGEST)


# sha256 over (w, p, word) for every embedding the vexthm sweep checks at
# n=6: the first occurrence of each vexillary pattern p of size 3 or 4 in
# every w of S_k .. S_6, embedded with the lexicographically least reduced
# word of p.
EMBED_CASES = 9247
EMBED_DIGEST = "e98668d79cf9ee92c6e369a9e1a3865bec742b98e0b2d0f600e29aeff9535ed2"


def test_vexthm_embeddings_pinned():
    h = hashlib.sha256()
    cases = 0
    for k in (3, 4):
        for p in map(tuple, permutations(range(1, k + 1))):
            if not is_vexillary(p):
                continue
            pattern_word = lex_least_reduced_word(p)
            for n in range(k, 7):
                for w in map(tuple, permutations(range(1, n + 1))):
                    occ = first_occurrence(w, p)
                    if occ is None:
                        continue
                    word = embed_reduced_word(w, occ, pattern_word)
                    h.update(repr((w, p, word)).encode())
                    cases += 1
    assert (cases, h.hexdigest()) == (EMBED_CASES, EMBED_DIGEST)


# Every message ``vexalg`` raises a VexError with; an f-string is pinned as
# its source.  A rewrite of the construction keeps every check it had.
VEX_ERROR_MESSAGES = {
    "right multiplier adds an inversion",
    "left multiplier adds an inversion",
    "pattern roles must stay increasing",
    "pattern occurrence lost during vex",
    "blocking entry must be a chain bound",
    "interchange unsorts bounds",
    "x and its bound must form an inversion",
    "bound not moved",
    "x not moved toward its bound",
    "f'vex did not terminate within {_STEP_CAP} steps'",
    "inside entry obstructed on both sides",
    "occurrence not consecutive",
    "a multiplication did not shorten w",
    "assembled word must be a reduced word of w",
    "assembled word must contain the shifted pattern word",
    "witness must contain the pattern",
}


def test_vex_error_messages_pinned():
    tree = ast.parse(Path(vexalg.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "VexError"
        ):
            (message,) = node.exc.args
            if isinstance(message, ast.Constant):
                found.add(message.value)
            else:
                found.add(ast.unparse(message))
    assert len(VEX_ERROR_MESSAGES) == 16
    assert found == VEX_ERROR_MESSAGES
