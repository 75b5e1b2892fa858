"""The constructive side of the vexillary characterization.

``_vex`` shortens a permutation (multiplying by adjacent transpositions, each
removing one inversion) until the chosen pattern occurrence sits in
consecutive positions.  ``embed_reduced_word`` assembles from that a reduced
word of the original permutation containing a shifted reduced word of the
pattern as a factor.  ``nonvex_witness`` builds, for a non-vexillary pattern,
a containing permutation for which no such reduced word exists.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache

from .patterns import _pattern_at, contains, is_vexillary, occurrences
from .permcore import Perm, check_perm, inverse, length
from .redwords import Word, evaluate, find_shift_factor, shift

_STEP_CAP = 100_000


class VexError(RuntimeError):
    """An invariant of ``vex`` or of the embedding built from it failed.

    This is a fault in the construction, never bad input (that raises
    ``ValueError``), and it is raised under ``python -O`` too.
    """


@lru_cache(maxsize=1)
def _checked(w: Perm) -> tuple[int, tuple[int, ...]]:
    """``length(w)`` and the position of each value in ``w`` (index 0
    unused), once ``check_perm`` accepts ``w``.  Memoised for the last w
    only: a sweep embeds every pattern it finds in one w before moving on,
    so each w is validated once, not once per embedding."""
    w = check_perm(w)
    return length(w), (0, *inverse(w))


@lru_cache(maxsize=64)
def _order(p: Perm) -> tuple[int, ...]:
    """The index in ``pat`` (the roles in increasing order) of the role at
    each position of ``p``; ValueError unless p is vexillary.  Memoised: a
    sweep passes the same few patterns to ``_vex`` again and again."""
    if not is_vexillary(p):
        raise ValueError("vex requires a vexillary pattern")
    return tuple(r - 1 for r in p)


class _VexState:
    """Mutable working state; every multiplication must remove an inversion.

    ``w`` is the current permutation as a list and ``inv[v]`` the 1-based
    position of the value v in it, copied at the start from
    :func:`_checked`; every multiplication updates both.
    ``pat`` and ``inv`` change in place only, so a caller may hold them in
    locals.
    """

    __slots__ = ("w", "inv", "p", "order", "pat", "left", "right")

    def __init__(self, w: Perm, pattern: Perm, values):
        self.w = list(w)
        self.inv = list(_checked(w)[1])
        self.p = pattern
        self.order = _order(pattern)  # pat index of the role at each position
        self.pat = sorted(values)  # pat[m-1] is the value in role m
        self.left: list[int] = []  # left multipliers, in order of application
        self.right: list[int] = []  # right multipliers, in order of application

    def inside(self) -> list[int]:
        """Non-pattern values strictly between the pattern's extreme positions,
        ordered by position.  The occurrence holds whenever this is asked, so
        those are the positions of the first and the last role in p."""
        pat, inv, order = self.pat, self.inv, self.order
        first, last = inv[pat[order[0]]], inv[pat[order[-1]]]
        return [v for v in self.w[first : last - 1] if v not in pat]

    def rmult(self, i: int) -> None:
        w = self.w
        a, b = w[i - 1], w[i]
        if a < b:
            raise VexError("right multiplier adds an inversion")
        w[i - 1], w[i] = b, a
        self.inv[a], self.inv[b] = i + 1, i
        self.right.append(i)

    def lmult(self, v: int) -> None:
        inv = self.inv
        s, t = inv[v], inv[v + 1]
        if t > s:
            raise VexError("left multiplier adds an inversion")
        self.w[s - 1], self.w[t - 1] = v + 1, v
        inv[v], inv[v + 1] = t, s
        self.left.append(v)

    def check_occurrence(self) -> None:
        """The roles are non-decreasing, and the positions of the roles taken
        in the order of p strictly increase.  Positions are distinct, so a
        repeated role fails the strict test."""
        pat, inv = self.pat, self.inv
        if pat != sorted(pat):
            raise VexError("pattern roles must stay increasing")
        last = 0
        for r in self.order:
            at = inv[pat[r]]
            if at <= last:
                raise VexError("pattern occurrence lost during vex")
            last = at

    def sort_values_left(self, lo: int, hi: int) -> None:
        """Left-multiply until the values lo..hi appear in increasing order."""
        inv = self.inv
        changed = True
        while changed:
            changed = False
            for v in range(lo, hi):
                if inv[v + 1] < inv[v]:
                    self.lmult(v)
                    changed = True


def _obstruction(inv, pat, m: int, px: int) -> tuple[int, int, bool, bool]:
    """Step 5's obstruction of the inside entry x at the 1-based position
    ``px``, where <m> < x < <m+1> appear in increasing order: the maximal a,
    b with <m-a>, ..., <m>, x, <m+1>, ..., <m+1+b> increasing, and whether a
    role below <m-a> lies between <m-a> and x (the left side is obstructed)
    or a role above <m+1+b> lies between x and <m+1+b> (the right side is).
    ``inv`` and ``pat`` are the working state's positions and roles.

    >>> w = (3, 2, 4, 5, 1)  # x = 4 inside the occurrence 3, 2, 5, 1 of 3241
    >>> _obstruction((0, *inverse(w)), [1, 2, 3, 5], 3, 3)
    (0, 0, True, False)
    """
    a = b = 0
    while a < m - 1 and inv[pat[m - 2 - a]] < inv[pat[m - 1 - a]]:
        a += 1
    while m + b + 1 < len(pat) and inv[pat[m + b]] < inv[pat[m + b + 1]]:
        b += 1
    # The roles below <m-a> are the first m-1-a, those above <m+1+b> the rest.
    left_at, right_at = inv[pat[m - 1 - a]], inv[pat[m + b]]
    obstructed_left = any(left_at < inv[v] < px for v in pat[: m - 1 - a])
    obstructed_right = any(px < inv[v] < right_at for v in pat[m + b + 1 :])
    return a, b, obstructed_left, obstructed_right


def _slide(st: _VexState, x: int, m: int, reach: int, d: int) -> int:
    """Step 5a (d = 1) or its mirror 5b (d = -1): push x rightward past the
    chain end <m+1+b> (reach = b), or leftward past <m-a> (reach = a),
    trading roles with the chain bounds met en route.  A non-pattern
    neighbour that x cannot pass without adding an inversion is pushed
    first, recursively.  Returns the value x turns into.

    Every mover lies beyond the chain element behind it (above it when moving
    right, below it when moving left), so each role interchange keeps the
    bounds increasing.
    """
    near = m if d == 1 else m - 1  # 0-based index in st.pat of the bound x faces
    end = near + d * reach
    lo, hi = sorted((near, end))
    inv, pat = st.inv, st.pat
    while d * (inv[pat[end]] - inv[x]) > 0:
        px = inv[x]
        z = st.w[px + d - 1]  # neighbour on the side of travel
        if d * (x - z) > 0:
            st.rmult(min(px, px + d))
        elif z in pat:
            idx = pat.index(z)
            if not lo <= idx <= hi:
                raise VexError("blocking entry must be a chain bound")
            if d * (x - pat[idx - d]) <= 0:
                raise VexError("interchange unsorts bounds")
            pat[idx] = x
            st.check_occurrence()
            x = z
        else:
            _slide(st, z, m, reach, d)
    return x


def _trade(st: _VexState, x: int, idx: int) -> int:
    """Steps 6 (idx = m, x right of <m+1>) and 7 (idx = m - 1, x left of <m>):
    left-multiply until the values between x and the bound st.pat[idx] are
    increasing; the values then at the bound's and at x's positions become
    the new bound and the new x.  Returns the new x."""
    old_bound = st.pat[idx]
    s, t = st.inv[old_bound], st.inv[x]
    if (t - s) * (x - old_bound) >= 0:
        raise VexError("x and its bound must form an inversion")
    lo, hi = sorted((x, old_bound))
    st.sort_values_left(lo, hi)
    st.pat[idx], new_x = st.w[s - 1], st.w[t - 1]
    if not lo <= st.pat[idx] <= hi or st.pat[idx] == old_bound:
        raise VexError("bound not moved")
    if not lo <= new_x <= hi or new_x == x:
        raise VexError("x not moved toward its bound")
    st.check_occurrence()
    return new_x


def _vex(w: Perm, at: tuple[int, ...]) -> tuple[_VexState, int]:
    """Shorten ``w`` until the pattern occurrence at the 1-based positions
    ``at`` is consecutive; return the final state, its pattern entries in
    positions M+1 .. M+k, and M, once every check has passed.

    The pattern must be vexillary.  Step 1 picks an inside entry x, and Steps
    2-7 act on x until it is no longer inside; vex stops when nothing is
    inside.  The tie-breaks (below-range inside entries first, then
    above-range, then the largest interior one; 5a before 5b) make the output
    deterministic, but any output satisfying the two defining invariants is a
    correct answer.
    """
    w = tuple(w)
    length_w = _checked(w)[0]
    p = _pattern_at(w, at)
    st = _VexState(w, p, [w[i - 1] for i in at])
    k, inv, pat, order = len(p), st.inv, st.pat, st.order

    steps = 0
    inside = st.inside()
    while inside:
        # Step 1.  Tie-break: clear the entries below the pattern's value
        # range first, the largest of them; then those above it, the
        # smallest; then the largest interior entry.
        ranked = sorted(inside)
        below = bisect(ranked, pat[0])  # ranked[:below] lie below the range
        above = bisect(ranked, pat[-1])  # ranked[above:] lie above it
        if below:
            x = ranked[below - 1]
        elif above < len(ranked):
            x = ranked[above]
        else:
            x = ranked[-1]
        while x in inside:
            steps += 1
            if steps > _STEP_CAP:
                raise VexError(f"vex did not terminate within {_STEP_CAP} steps")
            # Steps 2 and 3 move only non-pattern entries, so the pattern
            # entries keep their order and the same one stays at either end.
            if x > pat[-1]:  # Step 2
                end = pat[order[-1]]
                for y in sorted([y for y in inside if y >= x], reverse=True):
                    while inv[y] < inv[end]:
                        st.rmult(inv[y])
            elif x < pat[0]:  # Step 3
                end = pat[order[0]]
                for y in sorted([y for y in inside if y <= x]):
                    while inv[y] > inv[end]:
                        st.rmult(inv[y] - 1)
            else:
                # Step 4: <m> < x < <m+1>; the roles are increasing
                m = bisect(pat, x)
                if inv[pat[m - 1]] < inv[x] < inv[pat[m]]:  # Step 5
                    a, b, blocked_left, blocked_right = _obstruction(inv, pat, m, inv[x])
                    if not blocked_right:
                        x = _slide(st, x, m, b, 1)
                    elif not blocked_left:
                        x = _slide(st, x, m, a, -1)
                    else:
                        raise VexError("inside entry obstructed on both sides")
                elif inv[pat[m]] < inv[x]:  # Step 6
                    x = _trade(st, x, m)
                else:  # Step 7
                    x = _trade(st, x, m - 1)
            inside = st.inside()

    # Once the positions along p strictly increase, they are M+1 .. M+k
    # exactly when they span k.
    st.check_occurrence()
    M = inv[pat[order[0]]] - 1
    if inv[pat[order[-1]]] - M != k:
        raise VexError("occurrence not consecutive")
    if length(st.w) != length_w - len(st.left) - len(st.right):
        raise VexError("a multiplication did not shorten w")
    return st, M


@lru_cache(maxsize=64)
def _is_reduced_word_of(word: Word, p: Perm) -> bool:
    """Whether ``word`` is a reduced word of ``p``, memoised on (word, p)
    for at most 64 pairs: a sweep embeds the same few pattern words again
    and again.  A letter outside 1..k-1 makes it no word of p at all."""
    if not all(0 < a < len(p) for a in word):
        return False
    value, reduced = evaluate(word, len(p))
    return value == p and reduced


def _lex_least(inv) -> Word:
    """The lexicographically least reduced word of the permutation whose
    value v sits at the 1-based position ``inv[v]`` (index 0 unused): for
    j = 1 .. n-1 in turn, the run j, j-1, .., j-c+1, where c counts the
    values below j + 1 that lie right of it, read off a bitset of their
    positions.

    Read as right multiplications from the identity, run j carries j + 1
    leftward past c smaller values, so the word is reduced and evaluates to
    the permutation.  Its first letter is the smallest left descent (the
    values up to it are in increasing order), and dropping that letter
    leaves the same construction for s_j times the permutation, so the word
    is the one the greedy smallest left descent builds, which is the
    lexicographically least.

    >>> _lex_least([0, 4, 3, 2, 1])  # the inverse of 4321
    (1, 2, 1, 3, 2, 1)
    """
    letters: list[int] = []
    below = 0  # bitset of the positions of the values below j + 1
    for j, at in enumerate(inv[1:]):
        if c := (below >> at).bit_count():
            letters += range(j, j - c, -1)
        below |= 1 << at
    return tuple(letters)


def lex_least_reduced_word(w: Perm) -> Word:
    """The lexicographically least reduced word of ``w``, once ``check_perm``
    accepts it: :func:`_lex_least` on the inverse of w.
    ``embed_reduced_word`` reads its h the same way, off the inverse that
    ``_vex`` keeps, without this validation.

    >>> lex_least_reduced_word((4, 3, 2, 1))
    (1, 2, 1, 3, 2, 1)
    """
    return _lex_least((0, *inverse(check_perm(w))))


def _prime_word(st: _VexState, M: int) -> Word:
    """h, the lexicographically least reduced word of w', read off the final
    state of ``_vex``.  w' is w_tilde with its window M+1 .. M+k sorted.  The
    window holds the roles and ``st.pat`` lists them in increasing order, so
    sorting it moves role j to position M + j: k entries of ``st.inv``
    change, and ``st`` then holds w'."""
    inv = st.inv
    for i, v in enumerate(st.pat, M + 1):
        inv[v] = i
    st.w[M : M + len(st.pat)] = st.pat
    return _lex_least(inv)


def embed_reduced_word(w: Perm, at: tuple[int, ...], pattern_word: Word) -> Word:
    """A reduced word of ``w`` containing ``pattern_word`` shifted, as a
    factor; ``pattern_word`` must be a reduced word of the pattern that the
    entries of w at the 1-based positions ``at`` form.

    The word is the left multipliers of ``_vex`` in order of application,
    then h, then ``pattern_word`` shifted by M, then the right multipliers
    in reverse.  h, the lexicographically least reduced word of w', is read
    off the inverse that ``_vex`` keeps (:func:`_prime_word`); no
    permutation is rebuilt or validated again.  The word is checked to be a
    reduced word of w that contains the shifted pattern word.

    >>> embed_reduced_word((3, 1, 4, 6, 5, 2), (1, 4, 6), (1, 2))
    (5, 2, 3, 4, 5, 1)
    """
    w = tuple(w)
    st, M = _vex(w, at)
    pattern_word = tuple(pattern_word)
    if not _is_reduced_word_of(pattern_word, st.p):
        raise ValueError("pattern_word is not a reduced word of the pattern")
    n = len(w)
    h = _prime_word(st, M)
    word = (*st.left, *h, *shift(pattern_word, M, n), *reversed(st.right))
    if evaluate(word, n) != (w, True):
        raise VexError("assembled word must be a reduced word of w")
    # The shifted pattern word was placed right after h; a factor of this
    # suffix is a factor of the word.
    if find_shift_factor(word[len(st.left) + len(h) :], [pattern_word]) is None:
        raise VexError("assembled word must contain the shifted pattern word")
    return word


def _normal_form_2143(p: Perm, at: tuple[int, ...]) -> bool:
    """Whether the 2143-occurrence at the positions ``at`` of p sits in the
    witness construction's shape: directly after role 1 come the values
    between roles 2 and 3, ascending, then role 4."""
    two, _, four, three = [p[i - 1] for i in at]  # the values of the roles
    z = at[1]  # position of role 1
    run = tuple(range(two + 1, three))
    return p[z : z + len(run) + 1] == run + (four,)


def nonvex_witness(p: Perm) -> Perm:
    """A permutation in S_{k+1} containing ``p`` none of whose reduced words
    contain a shifted reduced word of ``p`` as a factor.

    >>> nonvex_witness((2, 1, 4, 3))
    (2, 1, 3, 5, 4)
    """
    p = check_perm(p)
    if is_vexillary(p):
        raise ValueError("witness construction requires a non-vexillary pattern")
    at = next(
        (o for o in occurrences(p, (2, 1, 4, 3)) if _normal_form_2143(p, o)), None
    )
    if at is None:
        raise RuntimeError("no 2143-occurrence in witness normal form")
    r2, z = p[at[0] - 1], at[1]  # the value of role 2 and the position of role 1
    k = len(p)
    w = []
    for pos in range(1, k + 2):
        if pos == z + 1:
            w.append(r2 + 1)
            continue
        val = p[pos - 1] if pos <= z else p[pos - 2]
        w.append(val if val <= r2 else val + 1)
    result = check_perm(w)
    if not contains(result, p):
        raise VexError("witness must contain the pattern")
    return result
