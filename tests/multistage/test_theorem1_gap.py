"""Tests for the Theorem-1 gap demonstration (the reproduction's finding).

The paper's Theorem 1 reduces the MSW-dominant nonblocking analysis to
one wavelength.  For networks under the MSDW/MAW models with k > 1 that
reduction undercounts output-side interference; these tests pin the
executable counterexample and the corrected bound's sufficiency.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core.corrected import min_middle_switches_corrected
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import min_middle_switches
from repro.multistage.adversary import demonstrate_theorem1_gap
from repro.multistage.network import ThreeStageNetwork
from repro.switching.requests import Endpoint, MulticastConnection


CONFIGS = [(2, 3, 2), (2, 4, 2), (3, 4, 2), (2, 3, 3)]


class TestGapDemonstration:
    @pytest.mark.parametrize("n,r,k", CONFIGS)
    @pytest.mark.parametrize(
        "model",
        [MulticastModel.MSDW, MulticastModel.MAW],
        ids=lambda m: m.value,
    )
    def test_blocks_at_paper_bound_routes_at_corrected(self, n, r, k, model):
        result = demonstrate_theorem1_gap(n, r, k, model)
        assert result.blocked_at_paper_bound, (
            "the adversarial state must block at the paper's Theorem-1 m_min"
        )
        assert result.routed_at_corrected_bound, (
            "the corrected model-aware bound must route the same attack"
        )
        assert result.m_corrected > result.m_paper

    def test_msw_model_not_applicable(self):
        """For the MSW model the paper's theorem is correct; the gap
        demonstration refuses to run."""
        with pytest.raises(ValueError, match="MSDW/MAW"):
            demonstrate_theorem1_gap(2, 3, 2, MulticastModel.MSW)

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):
            demonstrate_theorem1_gap(2, 3, 1)  # k must be >= 2
        with pytest.raises(ValueError):
            demonstrate_theorem1_gap(3, 3, 2)  # needs r >= n + 1


class TestExactAtDegenerateShapes:
    """Exhaustive verdicts at k = 2 where n = 1 or r = 1 (x = 1).

    Both shapes settle at m_exact = 2 under MAW and MSDW.  At
    v(1,2,m,2) the paper's Theorem 1 gives 1, so there its bound is not
    enough; at v(2,1,m,2) it gives 3.  The state counts are left
    unpinned: symmetry folding may lower them without moving a verdict.
    """

    @pytest.mark.parametrize(
        "n,r,paper,corrected", [(1, 2, 1, 3), (2, 1, 3, 5)]
    )
    @pytest.mark.parametrize(
        "model",
        [MulticastModel.MSDW, MulticastModel.MAW],
        ids=lambda m: m.value,
    )
    def test_exact_threshold_against_both_bounds(
        self, n, r, paper, corrected, model
    ):
        construction = Construction.MSW_DOMINANT
        assert min_middle_switches(n, r, 2, construction, x=1) == paper
        assert min_middle_switches_corrected(
            n, r, 2, construction, model, x=1
        ) == corrected
        result = api.exact_m(n, r, 2, model=model, x=1)
        assert result.m_exact == 2
        assert [(p.m, p.blockable) for p in result.per_m] == [
            (1, True), (2, False)
        ]


class TestForcedRouting:
    """The force_middles hook the demonstration relies on."""

    def net(self):
        return ThreeStageNetwork(
            2, 3, 5, 2,
            construction=Construction.MSW_DOMINANT,
            model=MulticastModel.MAW,
            x=1,
        )

    def test_forced_route_honoured(self):
        net = self.net()
        cid = net.connect(
            MulticastConnection(Endpoint(0, 0), [Endpoint(2, 0)]),
            force_middles={3: [1]},
        )
        [branch] = net.active_connections[cid].branches
        assert branch.middle == 3

    def test_forced_route_must_cover_request(self):
        net = self.net()
        with pytest.raises(ValueError, match="covers"):
            net.connect(
                MulticastConnection(Endpoint(0, 0), [Endpoint(2, 0), Endpoint(4, 0)]),
                force_middles={3: [1]},  # module 2 missing
            )

    def test_forced_route_respects_x(self):
        net = self.net()
        with pytest.raises(ValueError, match="x="):
            net.connect(
                MulticastConnection(Endpoint(0, 0), [Endpoint(2, 0), Endpoint(4, 0)]),
                force_middles={3: [1], 4: [2]},  # x = 1
            )

    def test_forced_route_checks_availability(self):
        net = self.net()
        net.connect(
            MulticastConnection(Endpoint(1, 0), [Endpoint(2, 0)]),
            force_middles={0: [1]},
        )
        # Middle 0's fiber from module 0 is busy on wavelength 0 now.
        with pytest.raises(ValueError, match="not available"):
            net.connect(
                MulticastConnection(Endpoint(0, 0), [Endpoint(3, 0)]),
                force_middles={0: [1]},
            )

    def test_forced_route_checks_reachability(self):
        net = self.net()
        net.connect(
            MulticastConnection(Endpoint(2, 0), [Endpoint(0, 0)]),
            force_middles={1: [0]},
        )
        # Middle 1 -> module 0 is busy on wavelength 0; a wavelength-0
        # MSW-path request through middle 1 to module 0 cannot be forced.
        # (The middle drops out of the coverable set entirely, so it is
        # reported as unavailable for this request.)
        with pytest.raises(ValueError, match="not available|cannot reach"):
            net.connect(
                MulticastConnection(Endpoint(4, 0), [Endpoint(1, 0)]),
                force_middles={1: [0]},
            )

    def test_forced_states_are_legal(self):
        """After forced routing, the usual invariants must still hold."""
        net = self.net()
        net.connect(
            MulticastConnection(Endpoint(1, 0), [Endpoint(2, 1)]),
            force_middles={0: [1]},
        )
        net.connect(
            MulticastConnection(Endpoint(2, 0), [Endpoint(0, 0)]),
            force_middles={1: [0]},
        )
        net.check_invariants()
        net.disconnect_all()
        net.check_invariants()
