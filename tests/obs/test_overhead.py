"""Zero-cost-when-off guards: no allocations, no work, no result drift."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro import api, obs
from repro.analysis.montecarlo import _traffic_cell
from repro.core.models import Construction, MulticastModel
from repro.multistage.network import BlockedError, ThreeStageNetwork
from repro.perf.batch import simulate_batch
from repro.switching.requests import Endpoint, MulticastConnection
from tests.curves import curve


def conn(source, *destinations):
    return MulticastConnection(Endpoint(*source), [Endpoint(*d) for d in destinations])


class TestDisabledHooksAllocateNothing:
    def test_hook_calls_do_zero_allocations(self):
        """The disabled admit/block/release hooks touch no heap memory."""
        assert not obs.enabled()
        net = object()  # the hooks must return before looking at it
        # Warm up: interned strings, bytecode caches, method wrappers.
        for _ in range(10):
            obs.on_admit(net, None)
            obs.on_release(net, 0)
            obs.inc("warm")
            obs.observe("warm", 0.0)
        # The loop machinery itself allocates (range iterator); charge
        # the hooks only for what an identical empty loop does not.
        before = sys.getallocatedblocks()
        for _ in range(1000):
            pass
        baseline = sys.getallocatedblocks() - before
        before = sys.getallocatedblocks()
        for _ in range(1000):
            obs.on_admit(net, None)
            obs.on_release(net, 0)
            obs.inc("x")
            obs.observe("x", 0.0)
        hooks = sys.getallocatedblocks() - before
        assert hooks <= baseline

    def test_enabled_reads_one_flag(self):
        assert obs.enabled() is False
        with obs.capture():
            assert obs.enabled() is True
        assert obs.enabled() is False


class TestDisabledPathDoesNoWork:
    def test_blocked_connect_skips_cause_reconstruction(self, monkeypatch):
        """With obs off, connect never pays for explain_block."""
        net = ThreeStageNetwork(2, 2, 1, 1,
                                construction=Construction.MSW_DOMINANT,
                                model=MulticastModel.MSW, x=1)
        monkeypatch.setattr(
            ThreeStageNetwork, "explain_block",
            lambda self, request: pytest.fail("explain_block ran while obs off"),
        )
        net.connect(conn((0, 0), (0, 0)))
        assert not obs.enabled()
        with pytest.raises(BlockedError):
            net.connect(conn((1, 0), (2, 0)))

    def test_disabled_run_records_nothing(self, monkeypatch):
        assert not obs.enabled()
        recorded = []
        for method in ("inc", "observe"):
            monkeypatch.setattr(
                obs.MetricsRegistry, method,
                lambda self, name, value=1: recorded.append(name),
            )
        estimate = api.blocking(2, 2, 2, 1, x=1,
                                traffic=api.UniformConfig(steps=50, seeds=(0,)))
        assert recorded == []
        assert estimate.meta.obs is None


class TestDisabledGuardReads:
    """With obs off, each hook site costs one ``enabled()`` read.

    Counted rather than timed: a read costs about 100 ns against about
    5 us per replayed event, too small a share to time reliably on a
    shared host.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counting(name, result=None):
            def hook(*args, **kwargs):
                calls[name] += 1
                return result
            return hook

        monkeypatch.setattr(obs, "enabled", counting("enabled", False))
        for name in ("inc", "observe", "on_admit", "on_block", "on_release"):
            monkeypatch.setattr(obs, name, counting(name))
        return calls

    def test_serial_cell_reads_one_guard_per_setup_and_admitted_teardown(
        self, calls
    ):
        # 1,000 events: 503 setups, 18 of them blocked, and 479
        # teardowns of admitted connections.
        assert _traffic_cell(curve(4, 4, 2, x=2, steps=1000), 4, 0) == (503, 18)
        assert calls == {"enabled": 503 + 479, "inc": 1}

    @pytest.mark.parametrize("steps", [200, 1000])
    def test_batch_unit_reads_two_guards_at_any_length(self, calls, steps):
        simulate_batch(curve(4, 4, 2, x=2, steps=steps), 0, (2, 4, 8))
        assert calls == {"enabled": 2}


class TestObsOnDoesNotChangeResults:
    def test_estimates_bit_identical_on_vs_off(self):
        traffic = api.UniformConfig(steps=150, seeds=(0, 1))
        off = api.blocking(3, 3, 2, 1, x=1, traffic=traffic)
        with obs.capture():
            on = api.blocking(3, 3, 2, 1, x=1, traffic=traffic)
        assert (off.attempts, off.blocked, off.probability) == (
            on.attempts, on.blocked, on.probability)
        assert off == on  # meta is excluded from equality by design
