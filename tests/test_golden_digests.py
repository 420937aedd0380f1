"""Solver outputs against the golden digests in ``golden_digests.json``.

The digests were recorded before the stage body was unified; every case must
still reproduce them bit for bit, through the batched engine and (on the exact
tier) through the sequential engine.
"""

from __future__ import annotations

import pytest

from golden_digests import OTHER_CASES, SOLVE_CASES, comparable, load_golden

GOLDEN = load_golden()

pytestmark = pytest.mark.skipif(
    not comparable(GOLDEN),
    reason="this platform's sin/cos differ from the ones the digests were recorded with",
)

#: Exact-tier cases the sequential engine must reproduce (the dense-backend
#: case is batched-only, and 7x7 repeats 5x5 at 40 sequential runs' cost).
SEQUENTIAL_CASES = [
    name
    for name in SOLVE_CASES
    if (name.endswith("-exact") and name != "kings7-exact") or name == "kings5-detuned"
]


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_batched_engine_matches_golden(name):
    assert SOLVE_CASES[name]() == GOLDEN["digests"][name]


@pytest.mark.parametrize("name", sorted(SEQUENTIAL_CASES))
def test_sequential_engine_matches_golden(name):
    assert SOLVE_CASES[name](engine="sequential") == GOLDEN["digests"][name]


@pytest.mark.parametrize("name", sorted(OTHER_CASES))
def test_recorded_and_baseline_cases_match_golden(name):
    assert OTHER_CASES[name]() == GOLDEN["digests"][name]
