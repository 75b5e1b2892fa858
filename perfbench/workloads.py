"""The benchmark's workloads: which operations run, and what each must return.

An op is a tuple.  ``("verify", theorem, n)`` calls ``redux.verify.run``;
``("cli", argv)`` calls ``redux.cli.main(argv)`` in process with its output
captured.  The sweeps have no random input; the seed only chooses the
query-top6 sample.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations

# (theorem, n, checked count of a PASS).  elthm at n=6 is kept although it
# stops at the isomorphism cap today: it is a failed op until it passes.
SWEEPS = {
    "sweep-words": [("monotone", 6, 4978), ("vexthm", 6, 9265)],
    "sweep-tilings": [
        ("2kgon", 6, 720),
        ("fb", 6, 260),
        ("maxelt", 5, 120),
        ("chainthm", 5, 120),
        ("ssv", 5, 120),
        ("elthm", 6, 720),
    ],
}

WORKLOADS = ("sweep-words", "sweep-tilings", "query-top6")

QUERY_N = 6
# length of w -> number of permutations sampled; w0 (length 15) is left out.
QUERY_STRATA = {12: 4, 13: 4, 14: 2}
QUERY_COMMANDS = (
    ("enum", "classes"),
    ("enum", "tilings"),
    ("enum", "zonotopal"),
    ("enum", "poset"),
    ("render", "graph"),
)

# What each query command reports for a sampled orbit, keyed by the orbit's
# first member, in QUERY_COMMANDS order: commutation classes, rhombic
# tilings, zonotopal tilings, P(w) as (elements, covers) and the
# commutation graph as (vertices, edges).  Every member of an orbit reports
# the same values; they were recorded for every member.
QUERY_PINS = {
    "456321": (40, 40, 133, (133, 260), (40, 64)),
    "465231": (35, 35, 123, (123, 258), (35, 58)),
    "365421": (82, 82, 313, (313, 738), (82, 147)),
    "635241": (56, 56, 221, (221, 516), (56, 102)),
    "564231": (76, 76, 321, (321, 776), (76, 144)),
    "563421": (75, 75, 305, (305, 712), (75, 140)),
    "465321": (132, 132, 573, (573, 1446), (132, 260)),
    "635421": (132, 132, 573, (573, 1446), (132, 260)),
    "564321": (268, 268, 1309, (1309, 3528), (268, 572)),
    "645321": (268, 268, 1309, (1309, 3528), (268, 572)),
}

def _inverse(w: tuple) -> tuple:
    out = [0] * len(w)
    for i, value in enumerate(w):
        out[value - 1] = i + 1
    return tuple(out)


def _conjugate_by_w0(w: tuple) -> tuple:
    n = len(w)
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def symmetry_orbit(w: tuple) -> tuple:
    """w, its inverse and their conjugates by w0, sorted.

    Inversion reverses reduced words and conjugation by w0 maps letter i to
    n - i, so every member has the same number of reduced words, classes and
    tilings, and an isomorphic P(w).
    """
    c = _conjugate_by_w0(w)
    return tuple(sorted({w, _inverse(w), c, _inverse(c)}))


@lru_cache(maxsize=None)
def reduced_word_count(w: tuple) -> int:
    """|R(w)| by recursion over right descents (independent of redux)."""
    total = 0
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            total += reduced_word_count(w[:i] + (w[i + 1], w[i]) + w[i + 2 :])
    return total or 1


def _length(w: tuple) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def query_strata() -> dict[int, list[tuple]]:
    """For each sampled length, the orbits the sample draws one member from.

    The orbits with two or more members (so the seed changes the input) are
    sorted by |R(w)| and k of them are taken at evenly spaced ranks.  Which
    orbits are used does not depend on the seed, so neither does the work.
    """
    by_length: dict[int, set] = {length: set() for length in QUERY_STRATA}
    for w in permutations(range(1, QUERY_N + 1)):
        if _length(w) in by_length:
            by_length[_length(w)].add(symmetry_orbit(w))
    strata = {}
    for length, k in QUERY_STRATA.items():
        orbits = sorted(
            (o for o in by_length[length] if len(o) >= 2),
            key=lambda o: (reduced_word_count(o[0]), o),
        )
        picks = [round(i * (len(orbits) - 1) / max(k - 1, 1)) for i in range(k)]
        strata[length] = [orbits[i] for i in picks]
    return strata


def query_sample(seed: int) -> list[str]:
    """The query-top6 permutations for ``seed``, in one-line notation."""
    rng = random.Random(seed)
    return [
        "".join(map(str, rng.choice(orbit)))
        for orbits in query_strata().values()
        for orbit in orbits
    ]



def query_pin(command: tuple, w: str):
    """The pinned value of ``command`` on ``w``, a member of a sampled orbit."""
    orbit = symmetry_orbit(tuple(map(int, w)))
    return QUERY_PINS["".join(map(str, orbit[0]))][QUERY_COMMANDS.index(command)]

def ops_for(workload: str, seed: int) -> list[tuple]:
    if workload in SWEEPS:
        return [("verify", theorem, n) for theorem, n, _ in SWEEPS[workload]]
    if workload == "query-top6":
        # Five rounds; each runs every permutation once, each time with
        # another command.  Every kind of op is then spread over the whole
        # pass, so the latency percentiles see the host's speed over the same
        # stretch as wall_s does, and the ops run in the same shape for every
        # seed, so the peak RSS does not depend on it.
        sample = query_sample(seed)
        k = len(QUERY_COMMANDS)
        return [
            ("cli", (*QUERY_COMMANDS[(round_ + j) % k], w))
            for round_ in range(k)
            for j, w in enumerate(sample)
        ]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def op_label(op: tuple) -> str:
    if op[0] == "verify":
        return f"verify {op[1]} --n {op[2]}"
    return " ".join(op[1])
