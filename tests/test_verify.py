"""The theorem sweep harness (small sizes; the full gate runs in
test_acceptance)."""

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import redux
from redux.redwords import braid_moves, enumerate_R
from redux.verify import THEOREMS, VerifyResult, _max_long_moves, run


def test_known_theorems():
    assert set(THEOREMS) == {
        "vexthm",
        "1lbm",
        "monotone",
        "elthm",
        "2kgon",
        "2ktiles",
        "chainthm",
        "maxelt",
        "ssv",
        "fb",
        "syt",
    }


def test_unknown_theorem():
    with pytest.raises(KeyError):
        run("nope", 4)


def test_summary_formatting():
    ok = VerifyResult("elthm", True, 24)
    assert ok.summary() == "elthm: PASS (24 checked)"
    bad = VerifyResult("elthm", False, 3, "321")
    assert bad.summary() == "elthm: FAIL at 321"


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_small_sweeps_pass(theorem):
    result = run(theorem, 4)
    assert result.ok, result.summary()
    assert result.checked > 0
    assert result.counterexample is None


def test_max_long_moves_matches_brute_force():
    for w in permutations(range(1, 6)):
        expected = max(len(braid_moves(word)[1]) for word in enumerate_R(w))
        assert _max_long_moves(w) == expected, w


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
            "least = vexalg.lex_least_reduced_word\n"
            "vexalg.lex_least_reduced_word = lambda w: least(w)[::-1]",
            "vexthm: FAIL at w=1342 p=123",
        ),
        ("vexalg.find_shift_factor = lambda word, words: None", "vexthm: FAIL at w=123 p=123"),
    ],
    ids=["not-a-word-of-w", "no-shifted-factor"],
)
def test_vexthm_fails_a_broken_embedding_under_optimize(breakage, verdict):
    src = str(Path(redux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_EMBEDDING.format(breakage)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert proc.stdout.splitlines() == ["1", verdict]
