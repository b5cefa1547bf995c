"""Property tests for the symmetry-canonicalized exhaustive search.

The canonicalized search (transposition table keyed on
:meth:`ThreeStageNetwork.canonical_signature` plus the monotone victim
probe) must return verdicts identical to the uncanonicalized reference
search on every configuration -- it only collapses symmetric states, it
never changes what is reachable or blockable.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core.models import Construction, MulticastModel
from repro.multistage.exhaustive import is_blockable
from repro.multistage.network import ThreeStageNetwork
from repro.switching.requests import Endpoint, MulticastConnection


def _unicast(src_port, src_w, dst_port, dst_w):
    return MulticastConnection(
        Endpoint(src_port, src_w), (Endpoint(dst_port, dst_w),)
    )


class TestCanonicalSignature:
    def test_invariant_under_middle_permutation(self):
        """The same connection routed via different middles: same class."""
        request = _unicast(0, 0, 0, 0)
        signatures = set()
        raw = set()
        for middle in range(3):
            net = ThreeStageNetwork(2, 2, 3, 1, x=1)
            net.connect(request, force_middles={middle: [0]})
            signatures.add(net.canonical_signature())
            raw.add(net.state_signature())
        assert len(signatures) == 1
        assert len(raw) == 3  # the raw signatures do distinguish them

    def test_distinguishes_genuinely_different_states(self):
        idle = ThreeStageNetwork(2, 2, 3, 1, x=1)
        busy = ThreeStageNetwork(2, 2, 3, 1, x=1)
        busy.connect(_unicast(0, 0, 0, 0), force_middles={0: [0]})
        assert idle.canonical_signature() != busy.canonical_signature()

    def test_failed_middles_never_trade_places_with_live_ones(self):
        """A failed-but-idle middle is not interchangeable with a free one."""
        failed0 = ThreeStageNetwork(2, 2, 3, 1, x=1)
        failed0.fail_middle(0)
        failed0.connect(_unicast(0, 0, 0, 0), force_middles={1: [0]})
        # Same traffic, but the *occupied* middle is the failed one.
        net2 = ThreeStageNetwork(2, 2, 3, 1, x=1)
        net2.connect(_unicast(0, 0, 0, 0), force_middles={1: [0]})
        net2.fail_middle(1, drain=True)
        assert failed0.canonical_signature() != net2.canonical_signature()

    def test_wavelength_relabeling_msw(self):
        """MSW k=2: the same pattern on wavelength 0 vs 1 is one class."""
        on_w0 = ThreeStageNetwork(2, 2, 2, 2, x=1)
        on_w0.connect(_unicast(0, 0, 2, 0), force_middles={0: [1]})
        on_w1 = ThreeStageNetwork(2, 2, 2, 2, x=1)
        on_w1.connect(_unicast(0, 1, 2, 1), force_middles={0: [1]})
        assert on_w0.canonical_signature(
            wavelength_symmetry=True
        ) == on_w1.canonical_signature(wavelength_symmetry=True)
        # Without the flag they stay distinct (the raw channels differ).
        assert on_w0.canonical_signature() != on_w1.canonical_signature()


BLOCKABLE_CASES = [
    dict(n=2, r=2, m=1, k=1, x=1),
    dict(n=2, r=2, m=2, k=1, x=1),
    dict(n=2, r=2, m=3, k=1, x=1),
    dict(n=2, r=2, m=4, k=1, x=1),
    dict(n=2, r=2, m=1, k=2, x=1),
    dict(n=2, r=2, m=2, k=1, x=1, unicast_only=True),
    dict(n=2, r=2, m=3, k=1, x=1, unicast_only=True),
    dict(n=2, r=3, m=2, k=1, x=1, unicast_only=True),
    dict(n=2, r=3, m=3, k=1, x=1, unicast_only=True),
    dict(n=2, r=2, m=2, k=1, x=1, model=MulticastModel.MSDW),
    dict(n=3, r=2, m=2, k=1, x=2),
]


class TestVerdictEquivalence:
    @pytest.mark.parametrize("case", BLOCKABLE_CASES)
    def test_is_blockable_matches_reference(self, case):
        case = dict(case)
        n, r, m, k = case.pop("n"), case.pop("r"), case.pop("m"), case.pop("k")
        canonical = is_blockable(n, r, m, k, canonicalize=True, **case)
        reference = is_blockable(n, r, m, k, canonicalize=False, **case)
        assert canonical.blockable == reference.blockable
        # Canonicalization only merges states -- never visits more.
        assert canonical.states_explored <= reference.states_explored

    def test_canonical_witness_still_replays(self):
        result = is_blockable(2, 2, 2, 1, x=1, canonicalize=True)
        assert result.blockable is True
        net = result.replay()
        assert net.blocks == 1

    def test_exact_minimal_m_matches_reference(self):
        canonical = api.exact_m(
            2, 2, 1, x=1, m_max=6, search=api.SearchConfig(canonicalize=True)
        )
        reference = api.exact_m(
            2, 2, 1, x=1, m_max=6, search=api.SearchConfig(canonicalize=False)
        )
        assert canonical.m_exact == reference.m_exact == 3
        assert [p.blockable for p in canonical.per_m] == [
            p.blockable for p in reference.per_m
        ]

    def test_unicast_clos_threshold(self):
        """Canonicalized unicast search recovers the Clos 2n-1 threshold."""
        result = api.exact_m(
            2, 3, 1, x=1, m_max=5, unicast_only=True,
            search=api.SearchConfig(canonicalize=True),
        )
        assert result.m_exact == 3

    def test_maw_model_verdict_preserved(self):
        """Wavelength symmetry must stay off outside MSW: MAW verdicts agree."""
        canonical = is_blockable(
            2, 2, 2, 2,
            model=MulticastModel.MAW,
            construction=Construction.MSW_DOMINANT,
            x=1,
            state_budget=200_000,
            canonicalize=True,
        )
        assert canonical.blockable is True
        canonical.replay()


class TestParallelScan:
    def test_jobs_do_not_change_the_scan(self):
        serial = api.exact_m(
            2, 2, 1, x=1, m_max=6, execution=api.ExecConfig(jobs=1)
        )
        parallel = api.exact_m(
            2, 2, 1, x=1, m_max=6, execution=api.ExecConfig(jobs=2)
        )
        assert parallel.m_exact == serial.m_exact
        assert [p.m for p in parallel.per_m] == [p.m for p in serial.per_m]
        assert [p.blockable for p in parallel.per_m] == [
            p.blockable for p in serial.per_m
        ]
