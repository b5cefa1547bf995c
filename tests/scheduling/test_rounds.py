"""Tests for electronic vs WDM round scheduling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.demands import Demand, random_demand_batch
from repro.scheduling.electronic import (
    conflict_graph,
    electronic_rounds,
    exact_chromatic_rounds,
)
from repro.scheduling.wdm import load_lower_bound, wdm_rounds


def schedule_is_valid_electronic(demands, schedule):
    for bucket in schedule:
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                if demands[bucket[i]].conflicts_with(demands[bucket[j]]):
                    return False
    scheduled = sorted(index for bucket in schedule for index in bucket)
    return scheduled == list(range(len(demands)))


def schedule_is_valid_wdm(demands, schedule, k):
    from collections import Counter

    for bucket in schedule:
        sources: Counter[int] = Counter()
        sinks: Counter[int] = Counter()
        for index in bucket:
            sources[demands[index].source] += 1
            for d in demands[index].destinations:
                sinks[d] += 1
        if sources and max(sources.values()) > k:
            return False
        if sinks and max(sinks.values()) > k:
            return False
    scheduled = sorted(index for bucket in schedule for index in bucket)
    return scheduled == list(range(len(demands)))


class TestElectronic:
    def test_empty_batch(self):
        assert electronic_rounds([]) == (0, [])

    def test_conflict_free_batch_one_round(self):
        demands = [Demand(0, [1]), Demand(2, [3]), Demand(4, [5])]
        rounds, schedule = electronic_rounds(demands)
        assert rounds == 1
        assert schedule_is_valid_electronic(demands, schedule)

    def test_overlapping_destinations_serialize(self):
        """Three channels with one common viewer: three rounds, k=1."""
        demands = [Demand(s, [9]) for s in range(3)]
        rounds, schedule = electronic_rounds(demands)
        assert rounds == 3
        assert schedule_is_valid_electronic(demands, schedule)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_greedy_schedules_are_valid(self, seed):
        demands = random_demand_batch(8, 12, seed=seed)
        rounds, schedule = electronic_rounds(demands)
        assert schedule_is_valid_electronic(demands, schedule)
        assert rounds <= len(demands)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_greedy_upper_bounds_exact(self, seed):
        demands = random_demand_batch(6, 9, seed=seed)
        greedy, _ = electronic_rounds(demands)
        exact = exact_chromatic_rounds(demands)
        assert exact is not None
        assert exact <= greedy

    def test_conflict_graph_shape(self):
        demands = [Demand(0, [1]), Demand(0, [2]), Demand(3, [4])]
        assert conflict_graph(demands) == {0: {1}, 1: {0}, 2: set()}


class TestWdm:
    def test_k1_matches_electronic_conflict_rule(self):
        """At k=1 the WDM packer faces the same per-node budgets."""
        demands = [Demand(s, [9]) for s in range(3)]
        rounds, schedule = wdm_rounds(demands, 1)
        assert rounds == 3
        assert schedule_is_valid_wdm(demands, schedule, 1)

    def test_k_equal_load_single_round(self):
        demands = [Demand(s, [9]) for s in range(3)]
        rounds, schedule = wdm_rounds(demands, 3)
        assert rounds == 1
        assert schedule_is_valid_wdm(demands, schedule, 3)

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=25)
    def test_schedules_valid_and_meet_load_bound(self, seed, k):
        demands = random_demand_batch(8, 14, seed=seed)
        rounds, schedule = wdm_rounds(demands, k)
        assert schedule_is_valid_wdm(demands, schedule, k)
        assert rounds >= load_lower_bound(demands, k)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_more_wavelengths_never_hurt(self, seed):
        demands = random_demand_batch(8, 14, seed=seed)
        rounds = [wdm_rounds(demands, k)[0] for k in (1, 2, 4, 8)]
        assert rounds == sorted(rounds, reverse=True)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_wdm_never_worse_than_electronic(self, seed):
        """The paper's Section 1 claim, as an inequality."""
        demands = random_demand_batch(8, 12, seed=seed)
        electronic, _ = electronic_rounds(demands)
        for k in (1, 2, 4):
            assert wdm_rounds(demands, k)[0] <= electronic

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            wdm_rounds([Demand(0, [1])], 0)
        with pytest.raises(ValueError):
            load_lower_bound([Demand(0, [1])], 0)

    def test_empty_batch(self):
        assert wdm_rounds([], 3) == (0, [])
        assert load_lower_bound([], 3) == 0
