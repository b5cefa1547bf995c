"""Tests for the opt-in per-event invariant checks (debug_checks)."""

from __future__ import annotations

import pytest

from repro.multistage.network import DEBUG_CHECKS_ENV, ThreeStageNetwork
from repro.switching.requests import Endpoint, MulticastConnection


REQUEST = MulticastConnection(Endpoint(0, 0), (Endpoint(0, 0),))


class TestFlagResolution:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(DEBUG_CHECKS_ENV, raising=False)
        assert ThreeStageNetwork(2, 2, 3, 1).debug_checks is False

    def test_kwarg_enables(self):
        assert ThreeStageNetwork(2, 2, 3, 1, debug_checks=True).debug_checks

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_env_var_enables(self, monkeypatch, value):
        monkeypatch.setenv(DEBUG_CHECKS_ENV, value)
        assert ThreeStageNetwork(2, 2, 3, 1).debug_checks is True

    @pytest.mark.parametrize("value", ["", "0", "false", "off"])
    def test_env_var_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(DEBUG_CHECKS_ENV, value)
        assert ThreeStageNetwork(2, 2, 3, 1).debug_checks is False

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv(DEBUG_CHECKS_ENV, "1")
        assert ThreeStageNetwork(2, 2, 3, 1, debug_checks=False).debug_checks is False


def leak_first_stage_channel(net: ThreeStageNetwork) -> None:
    """Mark wavelength 0 busy on the fiber from input module 1 to middle 2
    in the engine state, with no connection owning it."""
    net._state.allocate(0, 1, 0, {2: 0})


class TestCheckingBehaviour:
    def test_clean_traffic_passes_with_checks_on(self):
        net = ThreeStageNetwork(2, 2, 3, 1, debug_checks=True)
        cid = net.connect(REQUEST)
        net.disconnect(cid)
        assert net.setups == net.teardowns == 1

    def test_connect_catches_injected_corruption(self):
        net = ThreeStageNetwork(2, 2, 3, 1, debug_checks=True)
        leak_first_stage_channel(net)
        with pytest.raises(AssertionError, match="link state"):
            net.connect(REQUEST)

    def test_disconnect_catches_injected_corruption(self):
        net = ThreeStageNetwork(2, 2, 3, 1, debug_checks=True)
        cid = net.connect(REQUEST)
        net._output_used |= 1 << 3  # output endpoint (3, 0), k = 1
        with pytest.raises(AssertionError, match="output endpoint leak"):
            net.disconnect(cid)

    def test_corruption_ignored_with_checks_off(self):
        """The hot path must not pay for the scan -- no check, no raise."""
        net = ThreeStageNetwork(2, 2, 3, 1, debug_checks=False)
        leak_first_stage_channel(net)
        net.connect(REQUEST)  # does not raise
        with pytest.raises(AssertionError):
            net.check_invariants()  # explicit calls always run
