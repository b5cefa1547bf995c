"""PythonState's occupancy view, carrier independence and lane copy."""

from __future__ import annotations

import pytest

from repro.core.models import Construction, MulticastModel
from repro.engine.geometry import FabricGeometry
from repro.engine.state import PythonState

#: idle ``busy_planes()`` of a v(2, 3, 2, 3) fabric: in[g][w], out[w][j]
IDLE = ([[0] * 3 for _ in range(3)], [[0] * 2 for _ in range(3)])


def state(construction: Construction, model: MulticastModel) -> PythonState:
    return PythonState(
        [
            FabricGeometry(
                n=2, r=3, k=3, m=2,
                construction=construction, model=model, x=1,
            )
        ]
    )


class TestBusyPlanes:
    def test_msw_dominant_planes_follow_allocate_and_free(self):
        s = state(Construction.MSW_DOMINANT, MulticastModel.MSW)
        undo = s.allocate(0, 1, 2, {0: 0b101})
        in_planes, out_planes = s.busy_planes()
        assert in_planes[1][2] == 0b01  # middle 0 on wavelength 2
        assert out_planes[2][0] == 0b101  # modules 0 and 2
        s.free(0, 1, 2, undo)
        assert s.busy_planes() == IDLE

    def test_maw_dominant_planes_follow_allocate_and_free(self):
        s = state(Construction.MAW_DOMINANT, MulticastModel.MAW)
        s.allocate(0, 0, 1, {1: 0b001})  # first-fit: wavelength 0 twice
        undo = s.allocate(0, 0, 1, {1: 0b011})  # wavelength 1, then 1 and 0
        assert undo == ((1, 1, ((0, 1), (1, 0))),)
        in_planes, out_planes = s.busy_planes()
        assert in_planes[0][:2] == [0b10, 0b10]
        assert [plane[1] for plane in out_planes] == [0b011, 0b001, 0]
        s.free(0, 0, 1, undo)
        in_planes, out_planes = s.busy_planes()
        assert in_planes[0][:2] == [0b10, 0]
        assert [plane[1] for plane in out_planes] == [0b001, 0, 0]

    def test_view_is_a_copy(self):
        for construction in Construction:
            s = state(construction, MulticastModel.MSW)
            in_planes, out_planes = s.busy_planes()
            in_planes[0][0] = out_planes[0][0] = 1
            assert s.busy_planes() == IDLE


class TestCarrierIndependence:
    @pytest.mark.parametrize("model", list(MulticastModel), ids=lambda m: m.name)
    def test_same_counts_on_other_carriers_give_the_same_views(self, model):
        """MAW-dominant admission reads only how full each fiber is.

        Covers A and B take the same fibers (input module 0, middle 1,
        output module 0) from sources on wavelengths 0 and 1.  Either
        allocation order followed by freeing A leaves B alone, on
        carrier 1 or on carrier 0: the same count on every fiber, on
        different carriers.  Every admission view is the same, so no
        later admit or block decision can tell the two states apart.
        """
        runs = []
        for order in ((0, 1), (1, 0)):
            s = state(Construction.MAW_DOMINANT, model)
            undo = {sw: s.allocate(0, 0, sw, {1: 0b001}) for sw in order}
            s.free(0, 0, 0, undo[0])
            runs.append(s)
        first, second = runs
        assert first.busy_planes() != second.busy_planes()
        for g in range(3):
            for sw in range(3):
                assert first.setup_views(g, sw) == second.setup_views(g, sw)


class TestCopyLane:
    def test_copies_the_source_on_the_destinations_middles_in_place(self):
        for construction in Construction:
            for model in MulticastModel:
                s = PythonState(
                    [
                        FabricGeometry(
                            n=2, r=3, k=3, m=m,
                            construction=construction, model=model, x=1,
                        )
                        for m in (4, 2)
                    ]
                )
                for sw in range(3):  # fills middle 0's fibers
                    s.allocate(0, 1, sw, {0: 0b101})
                s.allocate(0, 1, 0, {1: 0b010})
                s.allocate(0, 0, 0, {3: 0b001})  # a middle lane 1 lacks
                blocked, blockers = s.setup_views(1, 0)
                row = blockers[1]
                s.copy_lane(0, 1)
                in_src, out_src = s.busy_planes(0)
                assert s.busy_planes(1) == (
                    [[mask & 0b11 for mask in planes] for planes in in_src],
                    [plane[:2] for plane in out_src],
                )
                assert blocked[1] == blocked[0] & 0b11 != 0
                assert blockers[1] is row
                assert row == blockers[0][:2]

    def test_refuses_a_destination_with_more_middles(self):
        s = PythonState(
            [
                FabricGeometry(
                    n=2, r=3, k=3, m=m, construction=Construction.MSW_DOMINANT,
                    model=MulticastModel.MSW, x=1,
                )
                for m in (2, 4)
            ]
        )
        with pytest.raises(ValueError, match="it has fewer middles"):
            s.copy_lane(0, 1)
