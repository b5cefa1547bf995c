"""The engine state must always equal the sum of the live connections.

``ThreeStageNetwork`` keeps its fiber occupancy in one B = 1 engine
``PythonState`` and its endpoint usage in two int masks, updated
incrementally so the routing hot path never rebuilds them per request.
``check_invariants`` rebuilds the fiber and endpoint masks from the
connection ledger and compares them, and every admission view, with the
live state.  These tests drive the state through every mutation path --
connect, disconnect, middle failure with drain, repair, disconnect_all
-- and cross-check after each step.
"""

from __future__ import annotations

import random

from repro.core.models import Construction, MulticastModel
from repro.multistage.network import ThreeStageNetwork
from repro.switching.generators import dynamic_traffic


def _fuzz_network(model, construction, seed, steps=150):
    n, r, m, k = 3, 3, 5, 2
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=2
    )
    live = {}
    dropped = set()
    for event in dynamic_traffic(model, n * r, k, steps=steps, seed=seed):
        if event.kind == "setup":
            cid = net.try_connect(event.connection)
            if cid is None:
                dropped.add(event.connection_id)
            else:
                live[event.connection_id] = cid
        else:
            if event.connection_id in dropped:
                dropped.discard(event.connection_id)
                continue
            net.disconnect(live.pop(event.connection_id))
        net.check_invariants()
    return net


class TestCacheThroughTraffic:
    def test_msw_dominant_roundtrip(self):
        net = _fuzz_network(
            MulticastModel.MSW, Construction.MSW_DOMINANT, seed=11
        )
        assert net.setups > 0 and net.teardowns > 0

    def test_maw_dominant_roundtrip(self):
        net = _fuzz_network(
            MulticastModel.MAW, Construction.MAW_DOMINANT, seed=12
        )
        assert net.setups > 0

    def test_disconnect_all_resets_cache(self):
        net = _fuzz_network(
            MulticastModel.MSW, Construction.MSW_DOMINANT, seed=13, steps=80
        )
        net.disconnect_all()
        net.check_invariants()
        assert net.active_connections == {}
        # Every middle is available again on every wavelength.
        for wavelength in range(net.topology.k):
            assert net.available_middles(_endpoint(0, wavelength)) == list(
                range(net.topology.m)
            )


def _endpoint(port, wavelength):
    from repro.switching.requests import Endpoint

    return Endpoint(port, wavelength)


class TestCacheThroughFailures:
    def test_fail_middle_with_drain_roundtrip(self):
        net = _fuzz_network(
            MulticastModel.MSW, Construction.MSW_DOMINANT, seed=14, steps=100
        )
        rng = random.Random(0)
        middle = rng.randrange(net.topology.m)
        drained = net.fail_middle(middle, drain=True)
        net.check_invariants()
        assert middle not in net.available_middles(_endpoint(0, 0))
        # Drained requests can be re-routed around the failure.
        for request in drained:
            net.connect(request)
            net.check_invariants()
        net.repair_middle(middle)
        net.check_invariants()
        assert middle in net.available_middles(_endpoint(0, 0))


class TestCacheServesReads:
    def test_destination_set_matches_mask(self):
        net = _fuzz_network(
            MulticastModel.MSW, Construction.MSW_DOMINANT, seed=15, steps=100
        )
        for middle in range(net.topology.m):
            for wavelength in range(net.topology.k):
                labels = net.destination_set(middle, wavelength)
                mask = net.destination_mask(middle, wavelength)
                assert sorted(labels) == [
                    p for p in range(net.topology.r) if mask >> p & 1
                ]

    def test_available_middles_excludes_busy_and_failed(self):
        net = ThreeStageNetwork(
            2, 2, 3, 1,
            construction=Construction.MSW_DOMINANT,
            model=MulticastModel.MSW,
            x=1,
        )
        source = _endpoint(0, 0)
        assert net.available_middles(source) == [0, 1, 2]
        net.fail_middle(1)
        assert net.available_middles(source) == [0, 2]
        from repro.switching.requests import MulticastConnection

        net.connect(MulticastConnection(source, [_endpoint(2, 0)]))
        net.check_invariants()
        # Middle 0 now carries wavelength 0 out of module 0: busy for a
        # same-wavelength source in that module.
        assert 0 not in net.available_middles(_endpoint(1, 0))
