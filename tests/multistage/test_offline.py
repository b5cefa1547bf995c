"""Tests for offline (batch) assignment routing."""

from __future__ import annotations

import pytest

from repro.core.corrected import min_middle_switches_corrected
from repro.core.models import Construction, MulticastModel
from repro.multistage.network import ThreeStageNetwork
from repro.multistage.offline import (
    minimal_rearrangeable_m,
    route_assignment,
)
from repro.switching.generators import AssignmentGenerator
from repro.switching.requests import (
    Endpoint,
    MulticastAssignment,
    MulticastConnection,
)


def conn(source, *destinations):
    return MulticastConnection(Endpoint(*source), [Endpoint(*d) for d in destinations])


class TestRouteAssignment:
    def test_empty_assignment(self):
        net = ThreeStageNetwork(2, 2, 3, 1, x=1)
        result = route_assignment(net, MulticastAssignment.empty())
        assert result.realizable is True
        assert result.routes == {}

    def test_simple_assignment(self):
        net = ThreeStageNetwork(2, 2, 3, 1, x=1)
        assignment = MulticastAssignment(
            [conn((0, 0), (0, 0), (2, 0)), conn((1, 0), (1, 0))]
        )
        result = route_assignment(net, assignment)
        assert result.realizable is True
        assert set(net.active_connections) == set(result.routes.values())

    def test_infeasible_assignment_detected(self):
        """m=1: two connections from the same input module cannot both
        cross the single middle on one wavelength."""
        net = ThreeStageNetwork(2, 2, 1, 1, x=1)
        assignment = MulticastAssignment(
            [conn((0, 0), (2, 0)), conn((1, 0), (3, 0))]
        )
        result = route_assignment(net, assignment)
        assert result.realizable is False
        assert net.active_connections == {}  # restored to idle

    def test_requires_idle_network(self):
        net = ThreeStageNetwork(2, 2, 3, 1, x=1)
        net.connect(conn((0, 0), (2, 0)))
        with pytest.raises(ValueError, match="idle"):
            route_assignment(net, MulticastAssignment.empty())

    def test_budget_exhaustion(self):
        net = ThreeStageNetwork(2, 3, 5, 2, model=MulticastModel.MAW, x=1)
        generator = AssignmentGenerator(MulticastModel.MAW, 6, 2, rng=0)
        assignment = generator.random_full_assignment()
        result = route_assignment(net, assignment, node_budget=1)
        assert result.realizable is None
        assert net.active_connections == {}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_assignments_realizable_at_corrected_bound(self, seed):
        """Offline realizability is implied by strict-sense nonblocking:
        at the corrected bound every assignment must route."""
        n, r, k = 2, 3, 2
        model = MulticastModel.MAW
        m = min_middle_switches_corrected(
            n, r, k, Construction.MSW_DOMINANT, model, x=1
        )
        generator = AssignmentGenerator(model, n * r, k, rng=seed)
        for _ in range(5):
            net = ThreeStageNetwork(n, r, m, k, model=model, x=1)
            assignment = generator.random_assignment(0.3)
            result = route_assignment(net, assignment)
            assert result.realizable is True

    def test_backtracking_beats_greedy_order(self):
        """An assignment the incremental router (in unlucky order) would
        fail is still realized offline thanks to backtracking."""
        # v(2,2,2,1): the exhaustive checker says m=2 is blockable online,
        # yet every *static* assignment may still fit -- backtracking gets
        # to re-choose routes.
        n, r, m, k = 2, 2, 2, 1
        net = ThreeStageNetwork(n, r, m, k, x=1)
        assignment = MulticastAssignment(
            [
                conn((0, 0), (0, 0), (2, 0)),
                conn((1, 0), (1, 0), (3, 0)),
            ]
        )
        result = route_assignment(net, assignment)
        assert result.realizable is True


class TestRearrangeableThreshold:
    def test_smallest_network(self):
        m_min, verdicts = minimal_rearrangeable_m(2, 2, 1, x=1, m_max=6)
        assert m_min == 3
        assert verdicts[2] is False

    def test_rearrangeable_never_exceeds_strict(self):
        """m_rearrangeable <= m_strict(exact) on the decided case."""
        from repro import api

        rearrangeable, _ = minimal_rearrangeable_m(2, 2, 1, x=1, m_max=6)
        strict = api.exact_m(2, 2, 1, x=1, m_max=6).m_exact
        assert rearrangeable <= strict
