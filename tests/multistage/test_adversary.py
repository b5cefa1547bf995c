"""Tests for the adversarial blocking scenarios (incl. Fig. 10)."""

from __future__ import annotations

import hashlib
from itertools import product

import pytest

from repro.core.models import Construction, MulticastModel
from repro.core.multistage import min_middle_switches_msw_dominant
from repro.multistage.adversary import (
    fig10_scenario,
    minimal_blocking_scenario,
    scan_witnesses,
    search_blocking_state,
)
from repro.multistage.network import BlockedError
from repro.multistage.serialization import dumps


class TestFig10:
    def test_msw_dominant_blocks_maw_dominant_routes(self):
        """The paper's Fig. 10 claim, executed."""
        outcome = fig10_scenario()
        assert outcome.msw_dominant_blocked
        assert not outcome.maw_dominant_blocked

    def test_scenario_is_deterministic(self):
        assert fig10_scenario() == fig10_scenario()


class TestMinimalWitness:
    def test_witness_replays(self):
        witness = minimal_blocking_scenario()
        net = witness.replay()
        assert net.blocks >= 1
        # The network is far below Theorem 1's bound.
        bound = min_middle_switches_msw_dominant(witness.n, witness.r, witness.k)
        assert witness.m < bound

    def test_tampered_witness_detected(self):
        from dataclasses import replace

        witness = minimal_blocking_scenario()
        # With plenty of middles the 'blocked' request routes fine, so
        # replay must flag the stale witness.
        generous = replace(witness, m=8)
        with pytest.raises(AssertionError):
            generous.replay()


class TestAdversarySearch:
    def test_finds_blocking_well_below_bound(self):
        witness = None
        for seed in range(40):
            witness = search_blocking_state(
                3, 3, 3, 1, x=1, seed=seed, max_events=600
            )
            if witness:
                break
        assert witness is not None, "adversary should crack m=3 for n=r=3"
        net = witness.replay()
        assert net.blocks == 1

    def test_gives_up_at_the_bound(self):
        """At m >= Theorem 1's minimum the adversary must fail (quickly)."""
        m = min_middle_switches_msw_dominant(3, 3, 1, x=1)
        for seed in range(5):
            assert (
                search_blocking_state(3, 3, m, 1, x=1, seed=seed, max_events=400)
                is None
            )

    def test_deterministic_per_seed(self):
        a = search_blocking_state(3, 3, 3, 1, x=1, seed=1, max_events=400)
        b = search_blocking_state(3, 3, 3, 1, x=1, seed=1, max_events=400)
        assert a == b

    def test_witness_fields_consistent(self):
        witness = None
        for seed in range(40):
            witness = search_blocking_state(
                2, 2, 2, 2,
                model=MulticastModel.MAW,
                construction=Construction.MSW_DOMINANT,
                x=1,
                seed=seed,
                max_events=600,
            )
            if witness:
                break
        if witness is None:
            pytest.skip("no witness for this tiny MAW configuration")
        assert witness.model is MulticastModel.MAW
        assert witness.blocked_request not in witness.prior


class TestWitnessPins:
    #: sha256 over every search of the grid below (each witness as
    #: compact JSON, or "None"), computed before the search kept its
    #: free-endpoint lists incrementally: 108 searches, 33 witnesses
    DIGEST = "b0603b4d363ef9556d10717d8a89d7732fa30fa433fb0fe65617c95f7260b696"

    def test_witnesses_are_pinned(self):
        """Every draw of the search is pinned through its witnesses."""
        digest = hashlib.sha256()
        found = 0
        shapes = [(2, 2, 2), (3, 3, 1), (2, 3, 2)]
        for (n, r, k), model, construction, m, seed in product(
            shapes, MulticastModel, Construction, range(2, 5), range(2)
        ):
            witness = search_blocking_state(
                n, r, m, k, construction=construction, model=model, x=1,
                seed=seed, max_events=300,
            )
            found += witness is not None
            text = "None" if witness is None else dumps(witness, indent=None)
            digest.update(text.encode() + b"\n")
        assert found == 33
        assert digest.hexdigest() == self.DIGEST


class TestScanWitnesses:
    @pytest.mark.parametrize("model", list(MulticastModel))
    def test_every_witness_replays(self, model):
        witnesses = scan_witnesses(
            2, 3, 2, [1, 2, 3, 4], construction=Construction.MSW_DOMINANT,
            model=model, x=1, restarts=5,
        )
        assert list(witnesses) == [1, 2, 3, 4]
        found = {m: w for m, w in witnesses.items() if w is not None}
        assert 1 in found
        for m, witness in found.items():
            assert witness.m == m and witness.model is model
            assert witness.replay().blocks == 1

    def test_repeated_m_refused(self):
        with pytest.raises(ValueError, match="m_values repeats 2"):
            scan_witnesses(
                2, 2, 1, [2, 2], construction=Construction.MSW_DOMINANT,
                model=MulticastModel.MSW, x=1,
            )


class TestBlockedErrorPath:
    def test_blocked_error_message_mentions_cover(self):
        witness = minimal_blocking_scenario()
        net = witness.replay()
        net.disconnect_all()
        for request in witness.prior:
            net.connect(request)
        with pytest.raises(BlockedError, match="cover"):
            net.connect(witness.blocked_request)
