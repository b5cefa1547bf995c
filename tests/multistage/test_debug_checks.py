"""Tests for the opt-in per-event invariant checks (debug_checks)."""

from __future__ import annotations

import pytest

from repro import api
from repro.api import SearchConfig, UniformConfig
from repro.multistage import exhaustive
from repro.multistage.network import ThreeStageNetwork
from repro.switching.requests import Endpoint, MulticastConnection


REQUEST = MulticastConnection(Endpoint(0, 0), (Endpoint(0, 0),))


class TestFlagResolution:
    def test_off_by_default(self):
        assert ThreeStageNetwork(2, 2, 3, 1).debug_checks is False

    def test_kwarg_enables(self):
        assert ThreeStageNetwork(2, 2, 3, 1, debug_checks=True).debug_checks


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


class TestRefusals:
    """debug_checks runs only where the serial Clos network does."""

    TRAFFIC = UniformConfig(steps=50, seeds=(0,))

    def test_batched_kernel_refused_when_built(self):
        with pytest.raises(ValueError) as err:
            SearchConfig(kernel="batched", debug_checks=True)
        message = str(err.value)
        assert "bitmask kernel on the clos fabric" in message
        assert "\n" not in message

    def test_batched_kernel_without_checks_still_builds(self):
        assert SearchConfig(kernel="batched").debug_checks is False

    @pytest.mark.parametrize("fabric", ["crossbar"])
    @pytest.mark.parametrize("verb", ["blocking", "sweep"])
    def test_other_fabrics_refused_before_any_cell(
        self, monkeypatch, fabric, verb
    ):
        def no_cells(*args, **kwargs):
            pytest.fail("a cell ran before the refusal")

        monkeypatch.setattr(api, "_blocking_curve", no_cells)
        monkeypatch.setattr(api, "adaptive_sweep", no_cells)
        search = SearchConfig(debug_checks=True)
        with pytest.raises(ValueError, match="bitmask kernel on the clos fabric"):
            if verb == "blocking":
                api.blocking(2, 2, 2, 2, traffic=self.TRAFFIC, search=search,
                             fabric=fabric)
            else:
                api.sweep(2, 2, 2, [2], traffic=self.TRAFFIC, search=search,
                          fabric=fabric)

    def test_adaptive_run_on_another_fabric_refused(self, monkeypatch):
        monkeypatch.setattr(
            api, "adaptive_sweep",
            lambda *a, **k: pytest.fail("a cell ran before the refusal"),
        )
        with pytest.raises(ValueError, match="bitmask kernel on the clos fabric"):
            api.sweep(
                2, 2, 2, [2], traffic=self.TRAFFIC, fabric="crossbar",
                execution=api.ExecConfig(precision=api.PrecisionConfig()),
                search=SearchConfig(debug_checks=True),
            )

    def test_exact_m_refused_before_any_candidate(self, monkeypatch):
        monkeypatch.setattr(
            exhaustive, "is_blockable",
            lambda *a, **k: pytest.fail("a candidate ran before the refusal"),
        )
        with pytest.raises(ValueError) as err:
            api.exact_m(2, 2, 1, x=1, m_max=2,
                        search=SearchConfig(debug_checks=True))
        message = str(err.value)
        assert "blocking/sweep traffic cells" in message
        assert "bitmask kernel on the clos fabric" in message
        assert "\n" not in message

    def test_clos_bitmask_run_is_checked(self, monkeypatch):
        calls = []
        check = ThreeStageNetwork.check_invariants

        def counting(net):
            calls.append(1)
            return check(net)

        monkeypatch.setattr(ThreeStageNetwork, "check_invariants", counting)
        checked = api.blocking(2, 2, 2, 1, traffic=self.TRAFFIC,
                               search=SearchConfig(debug_checks=True))
        assert calls
        calls.clear()
        plain = api.blocking(2, 2, 2, 1, traffic=self.TRAFFIC)
        assert not calls
        assert checked == plain
