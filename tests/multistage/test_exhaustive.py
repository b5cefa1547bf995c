"""Tests for the exhaustive model checker (exact minimal nonblocking m)."""

from __future__ import annotations

import pytest

from repro import api
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import min_middle_switches_msw_dominant
from repro.multistage.exhaustive import is_blockable


class TestSmallestNetwork:
    """v(2, 2, m, 1), x = 1: fully decidable in well under a second."""

    def test_exact_threshold_is_three(self):
        result = api.exact_m(2, 2, 1, x=1, m_max=6)
        assert result.m_exact == 3

    def test_paper_bound_has_one_unit_of_slack(self):
        """Theorem 1 demands m >= 4 here; the true threshold is 3."""
        exact = api.exact_m(2, 2, 1, x=1, m_max=6).m_exact
        paper = min_middle_switches_msw_dominant(2, 2, 1, x=1)
        assert exact == paper - 1

    def test_blockable_below_threshold(self):
        for m in (1, 2):
            result = is_blockable(2, 2, m, 1, x=1)
            assert result.blockable is True
            assert result.witness_request is not None

    def test_not_blockable_at_threshold(self):
        result = is_blockable(2, 2, 3, 1, x=1)
        assert result.blockable is False
        assert result.states_explored > 100

    def test_witness_replays_to_a_block(self):
        """The returned witness (with its adversarial routes) must block."""
        result = is_blockable(2, 2, 2, 1, x=1)
        assert result.blockable
        net = result.replay()
        assert net.blocks == 1

    def test_replay_requires_a_witness(self):
        result = is_blockable(2, 2, 3, 1, x=1)
        assert result.blockable is False
        with pytest.raises(ValueError, match="witness"):
            result.replay()


class TestBudget:
    def test_budget_exhaustion_reports_unknown(self):
        result = is_blockable(2, 3, 4, 1, x=1, state_budget=50)
        assert result.blockable is None
        assert result.states_explored >= 50

    def test_scan_stops_on_unknown(self):
        result = api.exact_m(2, 3, 1, x=1, m_max=6, state_budget=50)
        assert result.m_exact is None


class TestLargerSlices:
    def test_blockable_found_quickly_below_bound(self):
        """Even where full decision is out of reach, blocking witnesses
        at small m are cheap to find."""
        result = is_blockable(2, 3, 2, 1, x=1, state_budget=5000)
        assert result.blockable is True

    def test_maw_model_blockable_below_paper_bound(self):
        """Under the MAW model blocking states exist at small m and the
        checker finds them blind.  (At the paper bound itself the gap is
        demonstrated constructively -- see test_theorem1_gap.py; the
        blind search's state space is out of reach there.)"""
        result = is_blockable(
            2, 2, 2, 2,
            model=MulticastModel.MAW,
            construction=Construction.MSW_DOMINANT,
            x=1,
            state_budget=200_000,
        )
        assert result.blockable is True
        result.replay()
