"""Unit tests for the mask-level admission kernels and the geometry."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.models import Construction, MulticastModel
from repro.engine.cover import CoverSearch, find_cover_bits, mask_of
from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import (
    BLOCK_KINDS,
    block_cause,
    classify_kind,
    free_middles,
    probe_cover,
    reach_map,
)


def geometry(**overrides):
    base = dict(
        n=2, r=3, k=2, m=4,
        construction=Construction.MSW_DOMINANT,
        model=MulticastModel.MSW,
        x=1,
    )
    base.update(overrides)
    return FabricGeometry(**base)


class TestGeometry:
    def test_frozen_and_derived_properties(self):
        geo = geometry(m=5)
        assert geo.msw_dominant and geo.model_msw
        assert geo.all_middles_mask == (1 << 5) - 1
        assert geo.k_full == (1 << geo.k) - 1
        with pytest.raises(AttributeError):
            geo.m = 6

    def test_with_m_preserves_everything_else(self):
        geo = geometry(m=3)
        grown = geo.with_m(7)
        assert grown.m == 7
        assert (grown.n, grown.r, grown.k, grown.x) == (geo.n, geo.r, geo.k, geo.x)
        assert grown.construction is geo.construction
        assert grown.model is geo.model

    def test_rejects_illegal_x(self):
        with pytest.raises(ValueError, match="outside the legal range"):
            geometry(x=99)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            geometry(m=0)

    def test_dominance_and_model_flags(self):
        geo = geometry(
            construction=Construction.MAW_DOMINANT, model=MulticastModel.MAW
        )
        assert not geo.msw_dominant and not geo.model_msw


class TestMaskKernels:
    def test_free_middles_excludes_blocked_and_failed(self):
        assert free_middles(0b1111, 0b0011) == 0b1100
        assert free_middles(0b1111, 0b0001, failed=0b1000) == 0b0110

    def test_reach_map_ascending_and_sparse(self):
        blockers = [0b11, 0b00, 0b01, 0b10]
        got = reach_map(0b1101, 0b11, blockers)
        assert got == {2: 0b10, 3: 0b01}
        assert list(got) == [2, 3]  # ascending middle index

    def test_probe_cover_shortcut_picks_lowest_full_middle(self):
        blockers = [0b01, 0b00, 0b00]
        cover, partial = probe_cover(0b111, 0b11, 1, blockers)
        assert cover == {1: 0b11}
        # the scan stopped at middle 1; only middle 0's partial reach
        # was accumulated before the short-circuit
        assert partial == {0: 0b10}

    def test_probe_cover_blocked_returns_complete_reach_map(self):
        blockers = [0b01, 0b10, 0b11, 0b11]
        cover, partial = probe_cover(0b1111, 0b11, 1, blockers)
        assert cover is None
        assert partial == reach_map(0b1111, 0b11, blockers)

    @given(
        m=st.integers(1, 6),
        x=st.integers(1, 3),
        dest_bits=st.sets(st.integers(0, 4), min_size=1),
        data=st.data(),
    )
    def test_probe_cover_equals_reach_map_plus_cover_search(
        self, m, x, dest_bits, data
    ):
        """The greedy full-reach shortcut never changes the chosen cover,
        and reports the search statistics the composition would."""
        dest_mask = mask_of(dest_bits)
        blockers = [
            data.draw(st.integers(0, 31), label=f"blockers[{j}]")
            for j in range(m)
        ]
        available = data.draw(st.integers(0, (1 << m) - 1), label="available")
        probed, composed = CoverSearch(), CoverSearch()
        cover, _ = probe_cover(available, dest_mask, x, blockers, probed)
        full = reach_map(available, dest_mask, blockers)
        expected = find_cover_bits(dest_mask, full, x, stats=composed)
        assert cover == expected
        assert probed.greedy_hit == composed.greedy_hit
        if full:
            assert probed.exact_nodes == composed.exact_nodes
        else:
            # No middle reaches a destination: the probe runs no search,
            # where the composition counts its one root node.
            assert (probed.exact_nodes, composed.exact_nodes) == (0, 1)

    def test_classify_kind_all_four(self):
        assert classify_kind(0, {}, 0b1, True) == "saturated_wavelength"
        assert classify_kind(0, {}, 0b1, False) == "converter_exhaustion"
        assert classify_kind(0b1, {0: 0b01}, 0b11, True) == "full_middles"
        assert (
            classify_kind(0b11, {0: 0b01, 1: 0b10}, 0b11, True) == "no_cover"
        )
        assert set(BLOCK_KINDS) == {
            "saturated_wavelength",
            "converter_exhaustion",
            "full_middles",
            "no_cover",
        }

    def test_block_cause_matches_trace_schema(self):
        from repro.obs.trace import CAUSE_KINDS, CAUSE_SCHEMA

        cause = block_cause(
            x=2,
            input_module=1,
            source_wavelength=0,
            blocked_mask=0b0100,
            available=0b1011,
            coverable={0: 0b01, 1: 0b10},
            dest_mask=0b111,
            msw_dominant=True,
        )
        assert set(cause) == set(CAUSE_SCHEMA)
        for name, expected in CAUSE_SCHEMA.items():
            assert isinstance(cause[name], expected)
        assert cause["kind"] in CAUSE_KINDS
        assert cause["kind"] == "full_middles"
        assert cause["unreachable_modules"] == [2]
        assert cause["per_destination"] == [[0, 0b01], [1, 0b10], [2, 0]]

    def test_cause_kinds_are_the_engine_taxonomy(self):
        from repro.obs.trace import CAUSE_KINDS

        # The trace schema accepts exactly the kinds the kernels emit.
        assert CAUSE_KINDS == BLOCK_KINDS
