"""The theorem sweep harness (small sizes; the full gate runs in
test_acceptance)."""

from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

import redux.tilings
from redux import verify
from redux.commutation import graph, rotate_prefix
from redux.redwords import BudgetError, budget, enumerate_R
from redux.verify import THEOREMS, VerifyResult, _best_long_moves, run

from oracles import braid_moves


def test_known_theorems():
    assert set(THEOREMS) == {
        "vexthm",
        "1lbm",
        "monotone",
        "elthm",
        "elcount",
        "cyc48",
        "rotcount",
        "2kgon",
        "2ktiles",
        "chainthm",
        "maxelt",
        "ssv",
        "fb",
        "syt",
        "vexrows",
        "fbdef",
    }


def test_unknown_theorem():
    with pytest.raises(KeyError):
        run("nope", 4)


def test_empty_sweep_is_not_a_pass():
    """No w in S3 contains a pattern of S4, so monotone has nothing to check;
    no w in S2 contains a pattern of S3, so vexthm embeds nothing, although
    its non-vexillary witnesses do not depend on n."""
    with pytest.raises(ValueError, match="monotone checks no case at n=3"):
        run("monotone", 3)
    with pytest.raises(ValueError, match="vexthm checks no embedding at n=2"):
        run("vexthm", 2)


def test_summary_formatting():
    ok = VerifyResult("elthm", True, 24)
    assert ok.summary() == "elthm: PASS (24 checked)"
    bad = VerifyResult("elthm", False, 3, "321")
    assert bad.summary() == "elthm: FAIL at 321"


CHECKED_AT_5 = {
    "1lbm": 120,
    "2kgon": 120,
    "2ktiles": 9,
    "chainthm": 120,
    "cyc48": 120,
    "elcount": 120,
    "elthm": 120,
    "fb": 71,
    "fbdef": 120,
    "maxelt": 120,
    "monotone": 408,
    "rotcount": 68,
    "ssv": 120,
    "syt": 103,
    "vexrows": 120,
    "vexthm": 966,
}


@pytest.mark.parametrize("theorem, checked", CHECKED_AT_5.items(), ids=list(CHECKED_AT_5))
def test_small_sweeps_pass(theorem, checked):
    result = run(theorem, 5)
    assert result == VerifyResult(theorem, True, checked), result.summary()


@pytest.mark.parametrize(
    "theorem, n, predicate, bad, checked, summary",
    [
        ("2kgon", 3, "decreasing_tile_check", (2, 3, 1), 4, "2kgon: FAIL at 231"),
        # 2143 is not vexillary, so 2314 is the 8th case of S4, not the 9th
        ("syt", 4, "_words_count_tableaux", (2, 3, 1, 4), 8, "syt: FAIL at 2314"),
        ("2ktiles", 5, "_uniform_2k_tiling_iff", (4, 3), 4, "2ktiles: FAIL at n=4 k=3"),
        # 2143 is rejected by both criteria, so they agree there
        ("vexrows", 4, "is_vexillary_by_rows", (2, 3, 1, 4), 9, "vexrows: FAIL at 2314"),
        ("fbdef", 4, "is_freely_braided_by_intersections", (3, 2, 1, 4), 15, "fbdef: FAIL at 3214"),
        # the predicate is handed G(w), not w; G(4321) is the last graph of S4
        (
            "cyc48",
            4,
            "cycle_space_generated_by_4_8_cycles",
            graph((4, 3, 2, 1)),
            24,
            "cyc48: FAIL at 4321",
        ),
        (
            "rotcount",
            4,
            "_rotation_keeps_class_count",
            ((4, 3, 1, 2), rotate_prefix, 2),
            12,
            "rotcount: FAIL at rotate_prefix(4312, 2)",
        ),
    ],
    ids=[
        "all-of-Sn",
        "filtered",
        "n-k-pairs",
        "vexillary-criteria",
        "freely-braided-criteria",
        "cycle-space-of-G",
        "rotations",
    ],
)
def test_sweep_stops_at_first_failure(
    monkeypatch, theorem, n, predicate, bad, checked, summary
):
    real = getattr(verify, predicate)
    monkeypatch.setattr(
        verify, predicate, lambda case, **kwargs: case != bad and real(case, **kwargs)
    )
    result = run(theorem, n)
    assert result.summary() == summary
    assert (result.ok, result.checked) == (False, checked)


def test_no_chain_scope_outlives_a_sweep():
    """``run`` closes the sweep's chain scope whether the sweep passes or
    raises; elthm at n=6 stops at the isomorphism cap."""
    assert run("maxelt", 5).ok
    assert redux.tilings._CHAINS.get() is None
    with pytest.raises(BudgetError):
        run("elthm", 6)
    assert redux.tilings._CHAINS.get() is None


def test_a_sweep_peels_each_boundary_once(monkeypatch):
    """One chain memo per max_order serves the whole sweep, so no boundary
    is peeled twice for the same max_order."""
    calls = Counter()
    real = redux.tilings._peels

    def counted(u, lo, hi):
        calls[u, lo, hi] += 1
        return real(u, lo, hi)

    monkeypatch.setattr(redux.tilings, "_peels", counted)
    assert run("maxelt", 5).ok
    assert calls and max(calls.values()) == 1, calls.most_common(3)


def test_max_long_moves_matches_brute_force():
    """One memo serves every w, as in the 1lbm sweep."""
    memo: dict = {}
    for w in permutations(range(1, 6)):
        expected = max(len(braid_moves(word)[1]) for word in enumerate_R(w))
        assert _best_long_moves(w, 0, 0, memo) == expected, w


def test_monotone_n7():
    with budget(max_length=21):
        result = run("monotone", 7)
    assert result == VerifyResult("monotone", True, 54904), result.summary()


def test_2kgon_n7():
    result = run("2kgon", 7)
    assert result == VerifyResult("2kgon", True, 5040), result.summary()


BROKEN_EMBEDDING = """
import sys
from redux import vexalg
from redux.verify import run

print(sys.flags.optimize)
{}
print(run("vexthm", 4).summary())
"""


@pytest.mark.parametrize(
    "breakage, verdict",
    [
        (
            "prime_word = vexalg._prime_word\n"
            "vexalg._prime_word = lambda st, M: prime_word(st, M)[::-1]",
            "vexthm: FAIL at w=1342 p=123",
        ),
        ("vexalg.find_shift_factor = lambda word, words: None", "vexthm: FAIL at w=123 p=123"),
        # h read off w_tilde's inverse, the window never sorted
        ("vexalg._prime_word = lambda st, M: vexalg._lex_least(st.inv)", "vexthm: FAIL at w=132 p=132"),
    ],
    ids=["not-a-word-of-w", "no-shifted-factor", "stale-window-inverse"],
)
def test_vexthm_fails_a_broken_embedding_under_optimize(python, breakage, verdict):
    proc = python("-O", "-c", BROKEN_EMBEDDING.format(breakage))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", verdict]


ALL_SWEEPS = """
import sys
from redux.verify import run

print(sys.flags.optimize)
for theorem in {!r}:
    print(run(theorem, 5).summary())
"""


def test_small_sweeps_pass_under_optimize(python):
    """``python -O`` strips ``assert``; every sweep must still check as many
    cases and pass."""
    expected = [f"{theorem}: PASS ({checked} checked)" for theorem, checked in CHECKED_AT_5.items()]
    proc = python("-O", "-c", ALL_SWEEPS.format(list(CHECKED_AT_5)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", *expected]


def test_acceptance_gate_passes_under_optimize(python):
    """The whole acceptance gate, run by pytest under ``python -O``."""
    gate = Path(__file__).with_name("test_acceptance.py")
    proc = python("-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", str(gate))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "10 passed" in proc.stdout.splitlines()[-1], proc.stdout
