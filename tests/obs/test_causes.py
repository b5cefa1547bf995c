"""Blocking-cause reconstruction cross-checked against ground truth.

Each scenario drives the network into one of the four contention modes,
asserts ``explain_block`` classifies it correctly, and re-derives the
evidence masks from the raw per-fiber masks (``fiber_masks()``, which
``check_invariants`` holds to the connection ledger).
"""

from __future__ import annotations

import pytest

from repro.core.models import Construction, MulticastModel
from repro.multistage.network import BlockedError, ThreeStageNetwork
from repro.switching.requests import Endpoint, MulticastConnection


def conn(source, *destinations):
    return MulticastConnection(Endpoint(*source), [Endpoint(*d) for d in destinations])


def explain_blocked(net, request):
    """Assert ``request`` blocks, then return the reconstructed cause."""
    with pytest.raises(BlockedError):
        net.connect(request)
    net.check_invariants()  # engine state matches the connection ledger
    assert net.probe_cover(request) is None
    cause = net.explain_block(request)
    return cause


def first_stage_blocked_ground_truth(net, g, wavelength):
    """Recompute the blocked-middles mask from the raw per-fiber masks."""
    in_wave = net.fiber_masks()[0][g]
    if net.construction is Construction.MSW_DOMINANT:
        return sum(
            1 << j
            for j in range(net.topology.m)
            if in_wave[j] >> wavelength & 1
        )
    return sum(
        1 << j
        for j in range(net.topology.m)
        if all(in_wave[j] >> w & 1 for w in range(net.topology.k))
    )


class TestSaturatedWavelength:
    def test_msw_dominant_source_wavelength_busy_everywhere(self):
        net = ThreeStageNetwork(2, 2, 1, 1,
                                construction=Construction.MSW_DOMINANT,
                                model=MulticastModel.MSW, x=1)
        net.connect(conn((0, 0), (0, 0)))
        cause = explain_blocked(net, conn((1, 0), (2, 0)))
        assert cause["kind"] == "saturated_wavelength"
        assert cause["available_middles_mask"] == 0
        assert cause["input_module"] == 0
        assert cause["first_stage_blocked_mask"] == (
            first_stage_blocked_ground_truth(net, 0, 0)
        ) == 0b1


class TestConverterExhaustion:
    def test_maw_dominant_every_wavelength_busy(self):
        net = ThreeStageNetwork(2, 2, 1, 2,
                                construction=Construction.MAW_DOMINANT,
                                model=MulticastModel.MAW, x=1)
        net.connect(conn((0, 0), (0, 0)))
        net.connect(conn((0, 1), (1, 1)))
        cause = explain_blocked(net, conn((1, 0), (2, 0)))
        assert cause["kind"] == "converter_exhaustion"
        assert cause["available_middles_mask"] == 0
        assert cause["first_stage_blocked_mask"] == (
            first_stage_blocked_ground_truth(net, 0, 0)
        ) == 0b1


class TestFullMiddles:
    def test_destination_module_saturated_on_every_middle(self):
        net = ThreeStageNetwork(3, 2, 2, 1,
                                construction=Construction.MSW_DOMINANT,
                                model=MulticastModel.MSW, x=1)
        net.connect(conn((0, 0), (3, 0)), force_middles={0: [1]})
        net.connect(conn((1, 0), (4, 0)), force_middles={1: [1]})
        cause = explain_blocked(net, conn((3, 0), (5, 0)))
        assert cause["kind"] == "full_middles"
        # Both middles are still enterable from input module 1...
        assert cause["available_middles_mask"] == 0b11
        assert cause["first_stage_blocked_mask"] == (
            first_stage_blocked_ground_truth(net, 1, 0)
        ) == 0
        # ...but neither reaches output module 1: its fiber is busy on
        # the needed wavelength on every middle (the raw ground truth).
        assert cause["unreachable_modules"] == [1]
        assert cause["per_destination"] == [[1, 0]]
        mid_out = net.fiber_masks()[1]
        for j in range(2):
            assert mid_out[j][1] & 1  # wavelength 0 busy


class TestNoCover:
    def test_every_module_reachable_but_no_x_cover(self):
        net = ThreeStageNetwork(2, 2, 2, 1,
                                construction=Construction.MSW_DOMINANT,
                                model=MulticastModel.MSW, x=1)
        # Middle 0's fiber to output module 1 and middle 1's fiber to
        # output module 0 are taken by prior connections from the OTHER
        # input module, so the contested source still enters both.
        net.connect(conn((2, 0), (2, 0)), force_middles={0: [1]})
        net.connect(conn((3, 0), (1, 0)), force_middles={1: [0]})
        cause = explain_blocked(net, conn((0, 0), (0, 0), (3, 0)))
        assert cause["kind"] == "no_cover"
        assert cause["available_middles_mask"] == 0b11
        assert cause["unreachable_modules"] == []
        # Each module is covered by exactly the middle whose fiber to it
        # is free -- middle 0 for module 0, middle 1 for module 1 -- and
        # x=1 allows only one of them.
        assert cause["per_destination"] == [[0, 0b01], [1, 0b10]]
        assert cause["x"] == 1

    def test_cause_matches_trace_cause_schema(self):
        from repro.obs.trace import CAUSE_SCHEMA

        net = ThreeStageNetwork(2, 2, 1, 1,
                                construction=Construction.MSW_DOMINANT,
                                model=MulticastModel.MSW, x=1)
        net.connect(conn((0, 0), (0, 0)))
        cause = explain_blocked(net, conn((1, 0), (2, 0)))
        assert set(cause) == set(CAUSE_SCHEMA)
        for name, expected in CAUSE_SCHEMA.items():
            assert isinstance(cause[name], expected), name
