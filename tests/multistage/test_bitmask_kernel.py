"""The bitmask routing kernel must match the frozenset oracle exactly.

Every test compares the runtime kernel with the test-only frozenset
oracle (:mod:`tests.multistage.cover_oracle`) on the same inputs: the
bitmask path is a performance optimisation, so any observable
difference -- cover composition, tie-breaking, blocking behaviour -- is
a bug.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.models import Construction, MulticastModel
from repro.multistage.network import ThreeStageNetwork
from repro.multistage.routing import (
    find_cover,
    find_cover_bits,
    iter_bits,
    mask_of,
)
from repro.switching.generators import dynamic_traffic
from tests.multistage.cover_oracle import find_cover_reference, reference_cover


class TestKernelSwitch:
    """The kernel is a :class:`repro.api.SearchConfig` field, checked
    when the config is built."""

    def test_default_is_bitmask(self):
        assert api.SearchConfig().kernel == "bitmask"

    def test_unknown_kernel_rejected(self):
        # The frozenset search is a test-only oracle, not a kernel.
        for name in ("simd", "reference", "bogus", None):
            with pytest.raises(ValueError, match=r"\('bitmask', 'batched'\)"):
                api.SearchConfig(kernel=name)


class TestMaskPrimitives:
    @given(st.sets(st.integers(min_value=0, max_value=200)))
    def test_mask_roundtrip(self, items):
        assert list(iter_bits(mask_of(items))) == sorted(items)

    def test_iter_bits_ascending(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


def _random_instance(rng: random.Random):
    labels = rng.randint(1, 12)
    destinations = frozenset(
        rng.sample(range(labels), rng.randint(1, labels))
    )
    coverable = {
        j: frozenset(p for p in range(labels) if rng.random() < 0.5)
        for j in range(rng.randint(0, 8))
    }
    max_switches = rng.randint(1, 4)
    return destinations, coverable, max_switches


class TestFindCoverEquivalence:
    def test_randomized_instances_match_reference(self):
        rng = random.Random(2024)
        for _ in range(300):
            destinations, coverable, max_switches = _random_instance(rng)
            expected = find_cover_reference(destinations, coverable, max_switches)
            got = find_cover(destinations, coverable, max_switches)
            assert got == expected, (destinations, coverable, max_switches)

    def test_native_bits_match_reference(self):
        rng = random.Random(99)
        for _ in range(300):
            destinations, coverable, max_switches = _random_instance(rng)
            expected = find_cover_reference(destinations, coverable, max_switches)
            got = find_cover_bits(
                mask_of(destinations),
                {j: mask_of(s) for j, s in coverable.items()},
                max_switches,
            )
            if expected is None:
                assert got is None
            else:
                assert {j: list(iter_bits(bits)) for j, bits in got.items()} == expected

    def test_string_labels_still_work(self):
        destinations = frozenset(["a", "b", "c"])
        coverable = {0: frozenset(["a", "b"]), 1: frozenset(["c"])}
        cover = find_cover(destinations, coverable, 2)
        assert cover == find_cover_reference(destinations, coverable, 2)


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    m=st.integers(min_value=2, max_value=6),
    model=st.sampled_from(list(MulticastModel)),
    construction=st.sampled_from(list(Construction)),
)
def test_network_traffic_identical_under_both_kernels(seed, m, model, construction):
    """Same traffic, both kernels: at every setup event the network's
    bitmask cover (``probe_cover``, served from its incremental caches)
    equals the frozenset oracle's cover, computed from a reach map read
    off the ground-truth fiber masks."""
    n, r, k, x = 3, 3, 2, 2
    net = ThreeStageNetwork(n, r, m, k, construction=construction, model=model, x=x)
    live = {}
    dropped = set()
    for event in dynamic_traffic(model, n * r, k, steps=120, seed=seed):
        if event.kind == "setup":
            request = event.connection
            assert net.probe_cover(request) == reference_cover(net, request)
            cid = net.try_connect(request)
            if cid is None:
                dropped.add(event.connection_id)
            else:
                live[event.connection_id] = cid
        elif event.connection_id in dropped:
            dropped.discard(event.connection_id)
        else:
            net.disconnect(live.pop(event.connection_id))
    net.check_invariants()
