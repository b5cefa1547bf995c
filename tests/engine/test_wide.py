"""Wide fabrics: masks of 61 to 100 bits through the batched replay.

Widths 61 and 62 sit at the 62-bit seam of the int64 word layout the
array state once packed masks into, 63 and 64 just across it and 100
well past it.  Python ints have no such seam, and these cases pin that
nothing in the replay assumed one:

* three-way agreement -- a lane of a lockstep batch, its one-lane
  replay and the serial network replay the same stream and must agree
  on counts and ``explain_block`` cause dicts, at ``m``, ``r`` or
  ``k`` of each width;
* high-bit round-trips -- covers committed at middle/module/wavelength
  indices on both sides of bit 62, asserting the planes, views and
  undo branches each cover implies after every allocate and all-zero
  planes after the frees.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import Construction, MulticastModel
from repro.core.multistage import valid_x_range
from repro.engine.geometry import FabricGeometry
from repro.engine.state import PythonState
from repro.perf.batch import _simulate
from tests.perf.test_batch import serial_cell_with_causes

BOUNDARY = (61, 62, 63, 64, 100)
STEPS = 50


def canonical_planes(state) -> list[dict]:
    """Per-replication occupancy bitplanes, ``[b]``-leading.

    Transposes the state's view-oriented nesting, so the full-fiber
    planes of the MAW-dominant layout are visible too.
    """
    geos = state.geometries
    k = len(state._out_busy)
    if state.msw_dominant:
        r = len(state._in_busy)
        return [
            {
                "in_busy": [
                    [state._in_busy[g][w][b] for w in range(k)]
                    for g in range(r)
                ],
                "out_busy": [
                    [state._out_busy[w][b][j] for w in range(k)]
                    for j in range(geos[b].m)
                ],
            }
            for b in range(state.batch)
        ]
    r = len(state._in_wave)
    return [
        {
            "in_wave": [
                [state._in_wave[g][b][j] for j in range(geos[b].m)]
                for g in range(r)
            ],
            "in_full": [state._in_full[g][b] for g in range(r)],
            "out_wave": [
                [state._out_wave[b][j][p] for p in range(r)]
                for j in range(geos[b].m)
            ],
            "out_full": [state._out_full[b][j] for j in range(geos[b].m)],
            "out_busy": [
                [state._out_busy[w][b][j] for w in range(k)]
                for j in range(geos[b].m)
            ],
        }
        for b in range(state.batch)
    ]


def assert_three_way(n, r, k, x, m_values, seed, construction, model):
    """Each lane of one batch, its one-lane replay and the serial network.

    All three must agree on counts and ``explain_block`` causes.
    """

    def replay(lanes):
        attempts, replications = _simulate(
            n, r, k, construction, model, x, STEPS, None, seed, list(lanes),
            True,
        )
        return [(attempts, rep.blocked, rep.causes) for rep in replications]

    for m, lane in zip(m_values, replay(m_values)):
        serial = tuple(
            serial_cell_with_causes(
                n, r, m, k, construction, model, x, STEPS, seed
            )
        )
        assert lane == serial
        assert replay([m]) == [serial]


class TestBoundaryAgreement:
    """Lanes, one-lane replays and the serial network across the seam."""

    @pytest.mark.parametrize("wide", BOUNDARY)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_three_way_agreement(self, wide, data):
        family = data.draw(st.sampled_from(("m", "r", "k")), label="family")
        n = data.draw(st.integers(2, 3), label="n")
        r = wide if family == "r" else data.draw(st.integers(2, 4), label="r")
        k = wide if family == "k" else data.draw(st.integers(1, 3), label="k")
        m = wide if family == "m" else data.draw(st.integers(1, 5), label="m")
        x = data.draw(
            st.sampled_from(list(valid_x_range(n, r))[:3]), label="x"
        )
        seed = data.draw(st.integers(0, 10_000), label="seed")
        construction = data.draw(
            st.sampled_from(list(Construction)), label="construction"
        )
        model = data.draw(st.sampled_from(list(MulticastModel)), label="model")
        other = data.draw(st.integers(1, 5), label="other m")

        assert_three_way(
            n, r, k, x, list(dict.fromkeys([m, other])), seed, construction,
            model,
        )

    def test_mixed_batch_straddles_the_seam(self):
        """One lockstep batch whose m column spans every boundary value."""
        n, r, k, x, seed = 3, 63, 2, 2, 7
        for construction in Construction:
            for model in MulticastModel:
                assert_three_way(
                    n, r, k, x, BOUNDARY, seed, construction, model
                )


class TestHighBitRoundTrip:
    """Covers committed on both sides of bit 62, then undone.

    The state's planes, setup views and undo branches are
    checked after every allocate against what the covers imply: the
    in-fiber carrier is first-fit (the source wavelength under
    MSW-dominance) and every delivery rides the source wavelength when
    the endpoint model pins it, else the first free one.
    """

    MIDDLES = (0, 61, 62, 63, 99)
    DEST_BITS = (0, 61, 62, 69)
    R, K, M = 70, 63, 100

    @pytest.mark.parametrize("construction", list(Construction))
    @pytest.mark.parametrize("model", list(MulticastModel))
    def test_allocate_free_identical_planes(self, construction, model):
        geo = FabricGeometry(
            n=3, r=self.R, k=self.K, m=self.M,
            construction=construction, model=model, x=2,
        )
        state = PythonState((geo,))
        dest = sum(1 << p for p in self.DEST_BITS)
        msw_dominant = construction is Construction.MSW_DOMINANT
        pinned = msw_dominant or model is MulticastModel.MSW
        in_w = 62 if msw_dominant else 0
        out_w = 62 if pinned else 0
        expected_in = [[0] * self.K for _ in range(self.R)]
        expected_out = [[0] * self.M for _ in range(self.K)]
        branches = []
        for j in self.MIDDLES:
            branches.append(state.allocate(0, 1, 62, {j: dest}))
            if msw_dominant:
                assert branches[-1] == ((j, dest),)
            else:
                deliveries = tuple((p, out_w) for p in self.DEST_BITS)
                assert branches[-1] == ((j, in_w, deliveries),)
            expected_in[1][in_w] |= 1 << j
            expected_out[out_w][j] = dest
            assert state.busy_planes() == (expected_in, expected_out)
            for g in (0, 2):
                for sw in (0, 61, 62):
                    blocked, blockers = state.setup_views(g, sw)
                    assert list(blocked) == [0]
                    rows = expected_out[sw] if pinned else [0] * self.M
                    assert list(blockers[0]) == rows
        for done in reversed(branches):
            state.free(0, 1, 62, done)
        empty_in = [[0] * self.K for _ in range(self.R)]
        empty_out = [[0] * self.M for _ in range(self.K)]
        assert state.busy_planes() == (empty_in, empty_out)

        def all_zero(node):
            if isinstance(node, list):
                return all(all_zero(item) for item in node)
            return node == 0

        for per_b in canonical_planes(state):
            for plane in per_b.values():
                assert all_zero(plane)
