"""Zero-cost-when-off guards: no allocations, no work, no result drift."""

from __future__ import annotations

import sys

import pytest

from repro import api, obs
from repro.core.models import Construction, MulticastModel
from repro.multistage.network import BlockedError, ThreeStageNetwork
from repro.switching.requests import Endpoint, MulticastConnection


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


class TestObsOnDoesNotChangeResults:
    def test_estimates_bit_identical_on_vs_off(self):
        traffic = api.UniformConfig(steps=150, seeds=(0, 1))
        off = api.blocking(3, 3, 2, 1, x=1, traffic=traffic)
        with obs.capture():
            on = api.blocking(3, 3, 2, 1, x=1, traffic=traffic)
        assert (off.attempts, off.blocked, off.probability) == (
            on.attempts, on.blocked, on.probability)
        assert off == on  # meta is excluded from equality by design
