"""Experiment X8: exact minimal nonblocking m by model checking.

For the smallest networks the reachable-state space is fully decidable,
so we can measure how much slack the sufficient bounds carry and
separate three thresholds::

    m_rearrangeable <= m_strict(exact) <= m_sufficient(bound)

The paper only provides the right-hand member (necessity is cited to
[16] without construction); the model checker supplies the middle one
and the offline router the left one.
"""

from __future__ import annotations

from repro import api
from repro.core.models import MulticastModel
from repro.core.multistage import min_middle_switches_msw_dominant
from repro.multistage.exhaustive import is_blockable
from repro.multistage.offline import minimal_rearrangeable_m


def test_exact_thresholds_smallest_network(benchmark):
    """v(2, 2, m, 1), x = 1 -- the fully decided case."""

    def decide():
        strict = api.exact_m(2, 2, 1, x=1, m_max=6)
        rearrangeable, _ = minimal_rearrangeable_m(2, 2, 1, x=1, m_max=6)
        return strict, rearrangeable

    strict, rearrangeable = benchmark(decide)
    paper = min_middle_switches_msw_dominant(2, 2, 1, x=1)
    print()
    print("v(2,2,m,1), x=1 thresholds:")
    print(f"  rearrangeable (offline) : m = {rearrangeable}")
    print(f"  strict (model-checked)  : m = {strict.m_exact}")
    print(f"  Theorem 1 (sufficient)  : m = {paper}")
    assert rearrangeable <= strict.m_exact <= paper
    assert strict.m_exact == 3 and paper == 4


def test_blocking_witnesses_scale(benchmark):
    """State counts needed to find blocking witnesses below the bound."""

    def hunt():
        rows = []
        for m in (1, 2, 3):
            result = is_blockable(2, 3, m, 1, x=1, state_budget=200_000)
            rows.append((m, result.blockable, result.states_explored))
        return rows

    rows = benchmark(hunt)
    print()
    print("v(2,3,m,1), x=1 blockability (Theorem 1 minimum: m=5):")
    for m, blockable, states in rows:
        print(f"  m={m}: blockable={blockable} ({states} states)")
    assert all(blockable for _, blockable, _ in rows)


def test_maw_blocking_found_blind(benchmark):
    """Blind search finds MAW-model blocking states below the paper bound
    (the constructive gap demo covers the bound itself)."""

    def check():
        return is_blockable(
            2, 2, 2, 2,
            model=MulticastModel.MAW,
            x=1,
            state_budget=200_000,
        )

    result = benchmark(check)
    assert result.blockable is True
    result.replay()
    print()
    print(
        f"v(2,2,2,2) MAW model: blocking state found after "
        f"{result.states_explored} states "
        f"(blocked request: {result.witness_request})"
    )
