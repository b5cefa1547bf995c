"""Tests for the three-stage network simulator."""

from __future__ import annotations

import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.combinatorics.multiset import DestinationMultiset
from repro.core.models import Construction, MulticastModel
from repro.engine.cover import CoverSearch, find_cover_bits, iter_bits, mask_of
from repro.engine.kernel import reach_map
from repro.multistage.network import BlockedError, ThreeStageNetwork
from repro.switching.generators import dynamic_traffic
from repro.switching.requests import Endpoint, MulticastConnection
from repro.switching.validity import ValidityError, is_valid_connection


def conn(source, *destinations):
    return MulticastConnection(Endpoint(*source), [Endpoint(*d) for d in destinations])


def network(**overrides):
    defaults = dict(
        n=2,
        r=3,
        m=6,
        k=2,
        construction=Construction.MSW_DOMINANT,
        model=MulticastModel.MSW,
        x=1,
    )
    defaults.update(overrides)
    return ThreeStageNetwork(**defaults)


class TestConstruction:
    def test_default_x_is_most_permissive(self):
        net = ThreeStageNetwork(4, 5, 10, 2)
        assert net.x == 3  # min(n-1, r) = 3

    def test_bad_x_rejected(self):
        with pytest.raises(ValueError, match="x="):
            ThreeStageNetwork(2, 3, 6, 1, x=2)  # min(n-1, r) = 1

    def test_provable_nonblocking_flag(self):
        assert network(m=7).is_provably_nonblocking()  # bound: (1)(1+3)=4 -> m>4
        assert not network(m=4).is_provably_nonblocking()


class TestAdmission:
    def test_model_rule_checked(self):
        net = network(model=MulticastModel.MSW)
        with pytest.raises(ValidityError):
            net.connect(conn((0, 0), (1, 1)))

    def test_busy_input_endpoint_rejected(self):
        net = network()
        net.connect(conn((0, 0), (1, 0)))
        with pytest.raises(ValidityError, match="input endpoint"):
            net.connect(conn((0, 0), (2, 0)))

    def test_busy_output_endpoint_rejected(self):
        net = network()
        net.connect(conn((0, 0), (1, 0)))
        with pytest.raises(ValidityError, match="output endpoint"):
            net.connect(conn((1, 0), (1, 0)))

    def test_out_of_range_endpoint_rejected(self):
        net = network()
        with pytest.raises(ValidityError):
            net.connect(conn((0, 0), (9, 0)))

    def test_blocked_message_survives_pickling(self):
        net = network(r=2, m=1, k=1)
        net.connect(conn((0, 0), (0, 0)))
        with pytest.raises(BlockedError) as blocked:
            net.connect(conn((1, 0), (2, 0), (3, 0)))
        message = (
            "request (port 1, lambda_0) -> {(port 2, lambda_0), "
            "(port 3, lambda_0)} blocked: no <= 1-middle cover among the "
            "available middles"
        )
        assert str(blocked.value) == message
        assert str(pickle.loads(pickle.dumps(blocked.value))) == message

    def test_blocked_try_connect_formats_no_message(self, monkeypatch):
        """``try_connect`` discards the error, so nothing formats it."""
        formatted = []
        monkeypatch.setattr(
            MulticastConnection, "__str__",
            lambda self: formatted.append(self) or "",
        )
        net = network(r=2, m=1, k=1)
        net.connect(conn((0, 0), (0, 0)))
        assert net.try_connect(conn((1, 0), (2, 0), (3, 0))) is None
        assert net.blocks == 1
        assert formatted == []


class TestLifecycle:
    def test_connect_disconnect_roundtrip(self):
        net = network()
        cid = net.connect(conn((0, 0), (2, 0), (4, 0)))
        assert cid in net.active_connections
        net.check_invariants()
        net.disconnect(cid)
        assert net.active_connections == {}
        net.check_invariants()
        assert net.setups == 1 and net.teardowns == 1

    def test_endpoint_reusable_after_teardown(self):
        net = network()
        cid = net.connect(conn((0, 0), (1, 0)))
        net.disconnect(cid)
        net.connect(conn((0, 0), (1, 0)))

    def test_unknown_disconnect_rejected(self):
        with pytest.raises(KeyError):
            network().disconnect(42)

    def test_disconnect_all(self):
        net = network()
        net.connect(conn((0, 0), (1, 0)))
        net.connect(conn((1, 0), (2, 0)))
        net.disconnect_all()
        assert net.active_connections == {}
        assert net.link_utilization() == {
            "input_to_middle": 0.0,
            "middle_to_output": 0.0,
        }

    def test_try_connect_returns_none_when_blocked(self):
        net = network(m=1)
        net.connect(conn((1, 0), (2, 0)))
        # Port 0 shares input module 0 with port 1; the single middle's
        # first-stage fiber wavelength 0 is taken.
        assert net.try_connect(conn((0, 0), (4, 0))) is None
        assert net.blocks == 1


class TestRoutingState:
    def test_branches_recorded(self):
        net = network(x=1)
        cid = net.connect(conn((0, 0), (1, 0), (3, 0)))
        routed = net.active_connections[cid]
        assert len(routed.branches) == 1  # x=1: single middle switch
        [branch] = routed.branches
        assert branch.in_wavelength == 0
        assert sorted(p for p, _ in branch.deliveries) == [0, 1]

    def test_multi_branch_when_x_allows(self):
        net = ThreeStageNetwork(3, 3, 9, 1, x=2)
        # Saturate middle 0's fiber to output module 2 so a fanout-3
        # request must split across two middles.
        cid0 = net.connect(conn((3, 0), (6, 0)))
        [branch] = net.active_connections[cid0].branches
        j = branch.middle
        request = conn((0, 0), (1, 0), (4, 0), (7, 0))
        cid = net.connect(request)
        routed = net.active_connections[cid]
        assert 1 <= len(routed.branches) <= 2

    def test_available_middles_shrink(self):
        net = network(x=1)
        source = Endpoint(0, 0)
        before = net.available_middles(source)
        net.connect(conn((1, 0), (2, 0)))  # same module, same wavelength
        after = net.available_middles(source)
        assert len(after) == len(before) - 1

    def test_destination_set_tracking(self):
        net = network(x=1)
        cid = net.connect(conn((0, 0), (2, 0)))  # output module 1
        [branch] = net.active_connections[cid].branches
        assert net.destination_set(branch.middle, 0) == {1}
        assert net.destination_set(branch.middle, 1) == frozenset()

    def test_same_port_two_wavelengths_is_invalid_connection(self):
        """Section 2.1: one connection may not use two wavelengths at a port."""
        with pytest.raises(ValueError):
            conn((0, 0), (2, 0), (2, 1))

    def test_multiset_multiplicity(self):
        net = ThreeStageNetwork(
            2,
            2,
            4,
            2,
            construction=Construction.MAW_DOMINANT,
            model=MulticastModel.MAW,
            x=1,
        )
        a = net.connect(conn((0, 0), (2, 0)))
        b = net.connect(conn((1, 0), (3, 0)))
        multisets = [net.destination_multiset(j) for j in range(4)]
        total = sum(ms.total() for ms in multisets)
        assert total == 2
        assert all(isinstance(ms, DestinationMultiset) for ms in multisets)
        net.disconnect(a)
        net.disconnect(b)
        assert all(net.destination_multiset(j).total() == 0 for j in range(4))


class TestWavelengthDiscipline:
    def test_msw_dominant_pins_source_wavelength(self):
        net = network(model=MulticastModel.MAW, x=1)
        cid = net.connect(conn((0, 1), (2, 0)))
        [branch] = net.active_connections[cid].branches
        assert branch.in_wavelength == 1
        assert branch.deliveries[0][1] == 1  # middle is MSW: no conversion

    def test_maw_dominant_frees_internal_wavelengths(self):
        net = ThreeStageNetwork(
            2,
            3,
            6,
            2,
            construction=Construction.MAW_DOMINANT,
            model=MulticastModel.MAW,
            x=1,
        )
        # Fill wavelength 0 on the g0->m0 fiber, then a second connection
        # from module 0 can still use middle 0 via wavelength 1.
        first = net.connect(conn((0, 0), (2, 0)))
        [branch] = net.active_connections[first].branches
        second = net.connect(conn((1, 0), (4, 0)))
        [branch2] = net.active_connections[second].branches
        if branch2.middle == branch.middle:
            assert branch2.in_wavelength != branch.in_wavelength

    def test_maw_dominant_msw_model_pins_output_link(self):
        """Network model MSW: the fiber into the output module must carry
        the destination wavelength even under MAW-dominant construction."""
        net = ThreeStageNetwork(
            2,
            2,
            4,
            2,
            construction=Construction.MAW_DOMINANT,
            model=MulticastModel.MSW,
            x=1,
        )
        cid = net.connect(conn((0, 1), (2, 1)))
        [branch] = net.active_connections[cid].branches
        assert branch.deliveries[0][1] == 1


class TestStats:
    def test_link_utilization_moves(self):
        net = network()
        assert net.link_utilization()["input_to_middle"] == 0.0
        net.connect(conn((0, 0), (2, 0)))
        assert net.link_utilization()["input_to_middle"] > 0.0
        assert net.link_utilization()["middle_to_output"] > 0.0

    def test_wavelength_usage_accounting(self):
        net = ThreeStageNetwork(
            2, 3, 6, 3,
            construction=Construction.MAW_DOMINANT,
            model=MulticastModel.MAW,
            x=1,
        )
        assert net.wavelength_usage() == [0, 0, 0]
        cid = net.connect(conn((0, 0), (2, 0)))
        # One in-fiber and one out-fiber channel, both first-fit.
        assert net.wavelength_usage() == [2, 0, 0]
        net.connect(conn((1, 0), (3, 0)))
        assert net.wavelength_usage() == [2, 2, 0]
        net.disconnect(cid)
        assert net.wavelength_usage() == [0, 2, 0]


#: (method, args, error) on a v(2, 2, 2, 3) network: every accessor
#: that takes a middle or a wavelength rejects an index outside its range
BAD_INDEX_CALLS = [
    ("repair_middle", (-1,), "middle -1 outside [0, 2)"),
    ("repair_middle", (7,), "middle 7 outside [0, 2)"),
    ("fail_middle", (2,), "middle 2 outside [0, 2)"),
    ("destination_multiset", (-1,), "middle -1 outside [0, 2)"),
    ("destination_multiset", (2,), "middle 2 outside [0, 2)"),
    ("destination_set", (-1, 0), "middle -1 outside [0, 2)"),
    ("destination_set", (0, 3), "wavelength 3 outside [0, 3)"),
    ("destination_mask", (2, 0), "middle 2 outside [0, 2)"),
    ("destination_mask", (0, -1), "wavelength -1 outside [0, 3)"),
]


class TestAccessorIndexChecks:
    @pytest.mark.parametrize(
        "method, args, message",
        BAD_INDEX_CALLS,
        ids=[f"{method}{args}" for method, args, _ in BAD_INDEX_CALLS],
    )
    def test_bad_index_rejected(self, method, args, message):
        net = ThreeStageNetwork(2, 2, 2, 3, x=1)
        net.connect(conn((0, 0), (2, 0)))
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(net, method)(*args)


class TestLiveRecords:
    """Each live connection is one record; its objects are built on read."""

    @pytest.mark.parametrize(
        "construction", [Construction.MSW_DOMINANT, Construction.MAW_DOMINANT]
    )
    def test_active_connections_equal_on_repeated_reads(self, construction):
        net = network(n=3, construction=construction, model=MulticastModel.MAW, x=2)
        net.connect(conn((0, 0), (0, 1), (3, 0)))
        net.connect(conn((1, 1), (4, 1), (6, 0)))
        gone = net.connect(conn((2, 0), (7, 0)))
        net.disconnect(gone)
        first = net.active_connections
        first.clear()  # a copy: the network keeps its connections
        first, second = net.active_connections, net.active_connections
        assert first == second and len(first) == 2 and gone not in first

    def test_drain_takes_exactly_the_connections_through_the_middle(self):
        """MAW-dominant undo branches are ``(middle, carrier, deliveries)``:
        only the middle decides, never a carrier index equal to it."""
        net = network(
            r=2, m=3, construction=Construction.MAW_DOMINANT, model=MulticastModel.MAW
        )
        first = conn((0, 0), (0, 0))
        second = conn((0, 1), (2, 1))  # carrier 1 on middle 0's fiber
        third = conn((2, 0), (3, 0))
        net.connect(first, force_middles={0: [0]})
        kept = net.connect(second, force_middles={0: [1]})
        net.connect(third, force_middles={1: [1]})
        [branch] = net.active_connections[kept].branches
        assert (branch.middle, branch.in_wavelength) == (0, 1)
        assert net.fail_middle(1, drain=True) == [third]
        live = net.active_connections.values()
        assert [routed.request for routed in live] == [first, second]
        net.check_invariants()
        assert net.fail_middle(0, drain=True) == [first, second]
        assert net.active_connections == {}
        net.check_invariants()

    @pytest.mark.parametrize("model", list(MulticastModel))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fast_validation_is_exact(self, model, data):
        """The mask check accepts exactly the legal additions, and returns
        their destination-endpoint bits and output-module mask."""
        net = network(model=model, m=6, k=2)
        net.connect(conn((0, 0), (1, 0), (3, 0)))
        net.connect(conn((4, 1), (0, 1)))
        endpoint = st.tuples(st.integers(0, 7), st.integers(0, 2))
        source = data.draw(endpoint, label="source")
        ports = data.draw(st.sets(st.integers(0, 7), min_size=1, max_size=3))
        waves = data.draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        request = conn(source, *zip(sorted(ports), waves))
        live = [routed.request for routed in net.active_connections.values()]
        legal = (
            is_valid_connection(request, model, 6, 2)
            and all(request.source != c.source for c in live)
            and all(not request.destinations & c.destinations for c in live)
        )
        got = net._fast_validate(request)
        assert (got is not None) == legal
        if legal:
            assert got == (
                mask_of(d.port * 2 + d.wavelength for d in request.destinations),
                mask_of(d.port // 2 for d in request.destinations),
            )
        else:
            with pytest.raises(ValidityError):
                net.connect(request)

    def test_connect_reports_the_cover_search(self):
        """``connect(stats=...)`` records what the reach map plus cover
        search would: greedy hit, the cover, and the exact-search nodes
        whenever some middle reaches a destination."""
        net = ThreeStageNetwork(3, 3, 3, 2, x=2)
        live, greedy, searched = {}, 0, 0
        for event in dynamic_traffic(MulticastModel.MSW, 9, 2, steps=400, seed=4):
            if event.kind != "setup":
                if event.connection_id in live:
                    net.disconnect(live.pop(event.connection_id))
                continue
            request = event.connection
            g = request.source.port // 3
            dest_mask = mask_of(d.port // 3 for d in request.destinations)
            available, _, blockers = net._available(g, request.source.wavelength)
            full = reach_map(available, dest_mask, blockers)
            composed, stats = CoverSearch(), CoverSearch()
            cover = find_cover_bits(dest_mask, full, net.x, stats=composed)
            try:
                live[event.connection_id] = net.connect(request, stats=stats)
            except BlockedError:
                assert cover is None
            expected = None if cover is None else {
                j: sorted(iter_bits(bits)) for j, bits in cover.items()
            }
            assert stats.cover == expected
            assert stats.greedy_hit == composed.greedy_hit
            if full:
                assert stats.exact_nodes == composed.exact_nodes
            greedy += stats.greedy_hit
            searched += stats.exact_nodes > 0
        assert greedy and searched  # both search phases ran
