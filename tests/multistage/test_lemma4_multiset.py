"""Lemma 4's multiset form, checked against live simulator state.

The paper generalizes Lemma 4 to the MAW-dominant construction: a
request with destination (module) set ``D`` can be realized through
middle switches ``j_1..j_x`` iff the intersection of their destination
multisets, restricted to ``D``, is *null* (eqs. (2)-(5)).  These tests
drive a MAW-dominant network into random states and verify, for random
middle subsets, that the multiset predicate agrees exactly with
link-level coverability -- i.e. that the eq. (3)-(5) semantics
implemented in :mod:`repro.combinatorics.multiset` are the ones the
routing physics obeys.
"""

from __future__ import annotations

import random

from repro.combinatorics.multiset import DestinationMultiset
from repro.core.models import Construction, MulticastModel
from repro.multistage.network import ThreeStageNetwork
from repro.switching.generators import dynamic_traffic


def loaded_network(seed: int) -> ThreeStageNetwork:
    net = ThreeStageNetwork(
        3, 3, 8, 2,
        construction=Construction.MAW_DOMINANT,
        model=MulticastModel.MAW,
        x=2,
    )
    live = {}
    for event in dynamic_traffic(MulticastModel.MAW, 9, 2, steps=100, seed=seed):
        if event.kind == "setup":
            live[event.connection_id] = net.connect(event.connection)
        else:
            net.disconnect(live.pop(event.connection_id))
    return net


def full_fibers(net: ThreeStageNetwork) -> list[list[bool]]:
    """``[j][p]``: every wavelength busy on the fiber middle j -> module p."""
    k_full = (1 << net.topology.k) - 1
    return [[mask == k_full for mask in row] for row in net.fiber_masks()[1]]


class TestMultisetMatchesLinkState:
    def test_multiplicities_equal_busy_wavelengths(self):
        net = loaded_network(seed=3)
        mid_out = net.fiber_masks()[1]
        for j in range(net.topology.m):
            multiset = net.destination_multiset(j)
            for p in range(net.topology.r):
                assert multiset.multiplicity(p) == mid_out[j][p].bit_count()

    def test_saturation_equals_full_link(self):
        net = loaded_network(seed=4)
        full = full_fibers(net)
        for j in range(net.topology.m):
            multiset = net.destination_multiset(j)
            for p in multiset.saturated_elements():
                assert full[j][p]
            for p in multiset.usable_elements():
                assert not full[j][p]


class TestLemma4Predicate:
    def test_null_intersection_iff_jointly_coverable(self):
        """Eq. (3)-(5): restricted intersection null  <=>  every module of
        D reachable through at least one of the chosen middles."""
        rng = random.Random(0)
        for seed in range(6):
            net = loaded_network(seed=seed)
            full = full_fibers(net)
            r, m = net.topology.r, net.topology.m
            for _ in range(40):
                x = rng.randint(1, 3)
                middles = rng.sample(range(m), x)
                d_size = rng.randint(1, r)
                destinations = rng.sample(range(r), d_size)

                multisets = [
                    net.destination_multiset(j).restrict(destinations)
                    for j in middles
                ]
                null = DestinationMultiset.intersect_all(multisets).is_null()

                coverable = all(
                    any(not full[j][p] for j in middles)
                    for p in destinations
                )
                assert null == coverable, (
                    f"Lemma 4 multiset predicate disagreed with link state "
                    f"(seed={seed}, middles={middles}, D={destinations})"
                )

    def test_pairwise_intersection_models_joint_reach(self):
        """The paper's reading of eq. (3): the maximal connection through
        two middles equals the one through a switch with the min-multiset."""
        net = loaded_network(seed=9)
        full = full_fibers(net)
        for j in range(net.topology.m - 1):
            a = net.destination_multiset(j)
            b = net.destination_multiset(j + 1)
            joint = a.intersect(b)
            for p in range(net.topology.r):
                via_either = not full[j][p] or not full[j + 1][p]
                assert (p in joint.usable_elements()) == via_either
