"""The constructive side of the vexillary characterization.

``vex`` shortens a permutation (multiplying by adjacent transpositions, each
removing one inversion) until the chosen pattern occurrence sits in
consecutive positions.  ``embed_reduced_word`` assembles from that a reduced
word of the original permutation containing a shifted reduced word of the
pattern as a factor.  ``nonvex_witness`` builds, for a non-vexillary pattern,
a containing permutation for which no such reduced word exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .patterns import Occurrence, is_vexillary, obstruction, occurrences
from .permcore import (
    Perm,
    check_perm,
    format_perm,
    identity,
    left_mult_adjacent,
    length,
    position,
    right_mult_adjacent,
)
from .redwords import Word, evaluate, find_shift_factor, shift

_STEP_CAP = 100_000


@dataclass(frozen=True)
class VexResult:
    """Output of ``vex``: w_tilde = (s_{I_1}..s_{I_q}) w (s_{J_1}..s_{J_r})."""

    prefix_letters: Word  # I_1 .. I_q
    w_tilde: Perm
    suffix_letters: Word  # J_1 .. J_r
    M: int
    pattern_positions: tuple[int, ...]


class _VexState:
    """Mutable working state; every multiplication must remove an inversion."""

    def __init__(self, w: Perm, pattern: Perm, values, trace=None):
        self.w = w
        self.p = pattern
        self.pat = sorted(values)  # pat[m-1] is the value in role m
        self.left: list[int] = []  # left multipliers, in order of application
        self.right: list[int] = []  # right multipliers, in order of application
        self.trace = trace

    def log(self, step: str, x=None) -> None:
        if self.trace is not None:
            extra = f", x := {x}" if x is not None else ""
            self.trace.append(f"Step {step}: w = {format_perm(self.w)}{extra}")

    def pos(self, value: int) -> int:
        return position(self.w, value)

    def pattern_positions(self) -> list[int]:
        return sorted(self.pos(v) for v in self.pat)

    def inside(self) -> list[int]:
        """Non-pattern values strictly between the pattern's extreme positions,
        ordered by position."""
        positions = self.pattern_positions()
        return [
            v
            for t in range(positions[0] + 1, positions[-1])
            if (v := self.w[t - 1]) not in self.pat
        ]

    def rmult(self, i: int) -> None:
        assert self.w[i - 1] > self.w[i], "right multiplication must remove an inversion"
        self.w = right_mult_adjacent(self.w, i)
        self.right.append(i)

    def lmult(self, v: int) -> None:
        assert self.pos(v + 1) < self.pos(v), "left multiplication must remove an inversion"
        self.w = left_mult_adjacent(self.w, v)
        self.left.append(v)

    def assert_occurrence(self) -> None:
        assert self.pat == sorted(self.pat)
        by_position = sorted(self.pat, key=self.pos)
        ranks = tuple(self.pat.index(v) + 1 for v in by_position)
        assert ranks == self.p, "pattern occurrence lost during vex"

    def move_right_of_pattern(self, y: int) -> None:
        while self.pos(y) < self.pattern_positions()[-1]:
            self.rmult(self.pos(y))

    def move_left_of_pattern(self, y: int) -> None:
        while self.pos(y) > self.pattern_positions()[0]:
            self.rmult(self.pos(y) - 1)

    def sort_values_left(self, lo: int, hi: int) -> None:
        """Left-multiply until the values lo..hi appear in increasing order."""
        changed = True
        while changed:
            changed = False
            for v in range(lo, hi):
                if self.pos(v + 1) < self.pos(v):
                    self.lmult(v)
                    changed = True

    def current_occurrence(self) -> Occurrence:
        by_position = sorted(self.pat, key=self.pos)
        return Occurrence(
            pattern=self.p,
            positions=tuple(self.pos(v) for v in by_position),
            values=tuple(by_position),
        )


def _slide_right(st: _VexState, x: int, m: int, b: int) -> int:
    """Step 5a: push x rightward past the chain end <m+1+b>, trading roles
    with the chain bounds met en route.  A larger non-pattern entry blocking
    the way is cleared first, recursively.  Returns the value x turns into.

    Every mover exceeds the chain element immediately to its left, so each
    role interchange keeps the bounds increasing.
    """
    end = m + b  # 0-based index of <m+1+b> in st.pat

    def push(y: int) -> int:
        while st.pos(y) < st.pos(st.pat[end]):
            z = st.w[st.pos(y)]  # right neighbor
            if z < y:
                st.rmult(st.pos(y))
            elif z in st.pat:
                idx = st.pat.index(z)
                assert m <= idx <= end, "blocking entry must be a chain bound"
                assert st.pat[idx - 1] < y, "interchange must keep bounds sorted"
                st.pat[idx] = y
                st.assert_occurrence()
                y = z
            else:
                push(z)
        return y

    return push(x)


def _slide_left(st: _VexState, x: int, m: int, a: int) -> int:
    """Step 5b: mirror of Step 5a, pushing left past the chain end <m-a>."""
    end = m - 1 - a  # 0-based index of <m-a> in st.pat

    def push(y: int) -> int:
        while st.pos(y) > st.pos(st.pat[end]):
            z = st.w[st.pos(y) - 2]  # left neighbor
            if z > y:
                st.rmult(st.pos(y) - 1)
            elif z in st.pat:
                idx = st.pat.index(z)
                assert end <= idx <= m - 1, "blocking entry must be a chain bound"
                assert st.pat[idx + 1] > y, "interchange must keep bounds sorted"
                st.pat[idx] = y
                st.assert_occurrence()
                y = z
            else:
                push(z)
        return y

    return push(x)


def vex(w: Perm, occ: Occurrence, trace=None) -> VexResult:
    """Shorten ``w`` until the occurrence of ``occ.pattern`` is consecutive.

    The pattern must be vexillary.  The default tie-breaks (below-range inside
    entries first, then above-range, then the largest interior one; the
    unobstructed-right branch preferred) make the output deterministic, but
    any output satisfying the two defining invariants is a correct answer.
    """
    w = check_perm(w)
    p = occ.pattern
    if not is_vexillary(p):
        raise ValueError("vex requires a vexillary pattern")
    if tuple(w[i - 1] for i in occ.positions) != occ.values:
        raise ValueError("occurrence does not match the permutation")
    st = _VexState(w, p, occ.values, trace=trace)
    st.assert_occurrence()
    k = len(p)

    pc = 1
    x = m = 0
    for _ in range(_STEP_CAP):
        if pc == 1:
            inside = st.inside()
            if not inside:
                break
            # Tie-break: clear the entries below the pattern's value range
            # first, then those above it, then the largest interior entry.
            below = [v for v in inside if v < st.pat[0]]
            above = [v for v in inside if v > st.pat[-1]]
            if below:
                x = max(below)
            elif above:
                x = min(above)
            else:
                x = max(inside)
            st.log("1", x)
            pc = 2
        elif pc == 2:
            if x > st.pat[-1]:
                for y in sorted((y for y in st.inside() if y >= x), reverse=True):
                    st.move_right_of_pattern(y)
                st.log("2")
                pc = 1
            else:
                pc = 3
        elif pc == 3:
            if x < st.pat[0]:
                for y in sorted(y for y in st.inside() if y <= x):
                    st.move_left_of_pattern(y)
                st.log("3")
                pc = 1
            else:
                pc = 4
        elif pc == 4:
            m = next(m for m in range(1, k) if st.pat[m - 1] < x < st.pat[m])
            pc = 5
        elif pc == 5:
            if st.pos(st.pat[m - 1]) < st.pos(x) < st.pos(st.pat[m]):
                report = obstruction(st.w, st.current_occurrence(), x)
                assert report.m == m
                if not report.obstructed_right:
                    x = _slide_right(st, x, m, report.b)
                    st.log("5a", x)
                    pc = 2 if x in st.inside() else 1
                elif not report.obstructed_left:
                    x = _slide_left(st, x, m, report.a)
                    st.log("5b", x)
                    pc = 3 if x in st.inside() else 1
                else:
                    raise AssertionError(
                        "inside entry obstructed on both sides of a vexillary pattern"
                    )
            else:
                pc = 6
        elif pc == 6:
            if st.pos(st.pat[m]) < st.pos(x):
                s, t = st.pos(st.pat[m]), st.pos(x)
                old_bound = st.pat[m]
                st.sort_values_left(x, old_bound)
                st.pat[m] = st.w[s - 1]
                new_x = st.w[t - 1]
                assert x <= st.pat[m] < old_bound and x < new_x <= old_bound
                x = new_x
                st.assert_occurrence()
                st.log("6", x)
                pc = 2
            else:
                pc = 7
        else:  # pc == 7
            assert st.pos(st.pat[m - 1]) > st.pos(x)
            s, t = st.pos(st.pat[m - 1]), st.pos(x)
            old_bound = st.pat[m - 1]
            st.sort_values_left(old_bound, x)
            st.pat[m - 1] = st.w[s - 1]
            new_x = st.w[t - 1]
            assert old_bound < st.pat[m - 1] <= x and old_bound <= new_x < x
            x = new_x
            st.assert_occurrence()
            st.log("7", x)
            pc = 3
    else:
        raise RuntimeError("vex did not terminate")

    st.assert_occurrence()
    positions = st.pattern_positions()
    M = positions[0] - 1
    assert positions == list(range(1 + M, k + M + 1)), "occurrence must be consecutive"
    moves = len(st.left) + len(st.right)
    assert length(st.w) == length(w) - moves, "each multiplication must shorten w"
    st.log("output")
    return VexResult(
        prefix_letters=tuple(reversed(st.left)),
        w_tilde=st.w,
        suffix_letters=tuple(st.right),
        M=M,
        pattern_positions=tuple(positions),
    )


def lex_least_reduced_word(w: Perm) -> Word:
    """The lexicographically least reduced word of ``w`` (greedy smallest
    left descent)."""
    w = check_perm(w)
    letters = []
    while w != identity(len(w)):
        i = next(
            i for i in range(1, len(w)) if position(w, i + 1) < position(w, i)
        )
        letters.append(i)
        w = left_mult_adjacent(w, i)
    return tuple(letters)


def embed_reduced_word(w: Perm, occ: Occurrence, pattern_word: Word) -> Word:
    """A reduced word of ``w`` containing ``pattern_word`` (a reduced word of
    the occurrence's pattern) shifted, as a factor.

    >>> from .patterns import occurrences
    >>> w = (3, 1, 4, 6, 5, 2)
    >>> occ = [o for o in occurrences(w, (2, 3, 1)) if o.values == (3, 6, 2)][0]
    >>> embed_reduced_word(w, occ, (1, 2))
    (5, 2, 3, 4, 5, 1)
    """
    n = len(w)
    k = len(occ.pattern)
    check, reduced = evaluate(pattern_word, k)
    if check != occ.pattern or not reduced:
        raise ValueError("pattern_word is not a reduced word of the pattern")
    res = vex(w, occ)
    window = sorted(res.w_tilde[res.M : res.M + k])
    w_prime = (
        res.w_tilde[: res.M] + tuple(window) + res.w_tilde[res.M + k :]
    )
    h = lex_least_reduced_word(w_prime)
    word = (
        res.prefix_letters[::-1]
        + h
        + shift(pattern_word, res.M, n)
        + res.suffix_letters[::-1]
    )
    value, reduced = evaluate(word, n)
    if value != w or not reduced:
        raise AssertionError("assembled word must be a reduced word of w")
    if find_shift_factor(word, [pattern_word]) is None:
        raise AssertionError("assembled word must contain the shifted pattern word")
    return word


def _normal_form_2143(p: Perm, occ: Occurrence) -> bool:
    """Whether the 2143-occurrence sits in the witness construction's shape:
    directly after role 1 come the values between roles 2 and 3, ascending,
    then role 4."""
    r = occ.roles()  # values of roles 1..4
    z = occ.positions[1]  # position of role 1
    run = list(range(r[1] + 1, r[2]))
    tail = p[z : z + len(run) + 1]
    return tail == tuple(run) + (r[3],)


def nonvex_witness(p: Perm) -> Perm:
    """A permutation in S_{k+1} containing ``p`` none of whose reduced words
    contain a shifted reduced word of ``p`` as a factor.

    >>> nonvex_witness((2, 1, 4, 3))
    (2, 1, 3, 5, 4)
    """
    p = check_perm(p)
    if is_vexillary(p):
        raise ValueError("witness construction requires a non-vexillary pattern")
    occ = next(
        (o for o in occurrences(p, (2, 1, 4, 3)) if _normal_form_2143(p, o)), None
    )
    if occ is None:
        raise RuntimeError("no 2143-occurrence in witness normal form")
    r2 = occ.roles()[1]
    z = occ.positions[1]
    k = len(p)
    w = []
    for pos in range(1, k + 2):
        if pos == z + 1:
            w.append(r2 + 1)
            continue
        val = p[pos - 1] if pos <= z else p[pos - 2]
        w.append(val if val <= r2 else val + 1)
    result = check_perm(w)
    assert occurrences(result, p), "witness must contain the pattern"
    return result
