"""Word-boundary suite: multi-word planes at and across 62 bits.

The plane layout switches from one int64 word per mask to ``W =
ceil(bits / 62)`` words exactly past 62, so this file pins the two
backends to each other *at* the boundary (61, 62), just across it (63,
64) and well past it (100):

* two-way agreement -- the python per-event replay and the fused
  kernel replay the same compiled stream and must agree on counts,
  ``explain_block`` cause dicts *and* the end-state occupancy
  bitplanes (extracted backend-agnostically as Python ints);
* high-bit round-trips -- covers committed at middle/module/wavelength
  indices on both sides of the word seam, asserting the planes, views
  and undo branches each cover implies after every allocate and
  all-zero planes after the frees;
* ``W == 1`` byte-identity -- the fused state's single-word arrays
  keep the pre-multi-word layout bit for bit and *byte for byte* (same
  shapes, same dtype, no trailing word axis) for a golden replay.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.models import Construction, MulticastModel
from repro.engine.backends import make_state
from repro.engine.fused import FusedState
from repro.engine.geometry import FabricGeometry
from repro.engine.planes import WORD_BITS, join_words
from repro.engine.state import PythonState
from repro.core.multistage import valid_x_range
from repro.perf.batch import _replay, compile_stream, lower_stream
from tests.fused_support import fused_runnable

BOUNDARY = (61, 62, 63, 64, 100)
BACKENDS = ("python", "numba")
STEPS = 50


def _join_rows(node, depth):
    """Join the innermost word lists of a nested ``tolist()`` into ints."""
    if depth == 0:
        return join_words(node)
    return [_join_rows(item, depth - 1) for item in node]


def canonical_planes(state) -> list[dict]:
    """Per-replication occupancy bitplanes as nested Python ints.

    Backend-agnostic: the fused state joins its int64 word rows back
    into ints and drops the padding rows above each replication's own
    ``m``; the python backend transposes its view-oriented nesting into
    the same ``[b][...]``-leading order.
    """
    geos = state.geometries
    if not isinstance(state, PythonState):

        def grab(name):
            arr = getattr(state, name)
            if not state._multiword:
                return arr.tolist()
            return _join_rows(arr.tolist(), arr.ndim - 1)

        out_busy = grab("_out_busy")
        if state.msw_dominant:
            in_busy = grab("_in_busy")
            return [
                {
                    "in_busy": in_busy[b],
                    "out_busy": out_busy[b][: geos[b].m],
                }
                for b in range(state.batch)
            ]
        in_wave = grab("_in_wave")
        in_full = grab("_in_full")
        out_wave = grab("_out_wave")
        out_full = grab("_out_full")
        return [
            {
                "in_wave": [row[: geos[b].m] for row in in_wave[b]],
                "in_full": in_full[b],
                "out_wave": out_wave[b][: geos[b].m],
                "out_full": out_full[b][: geos[b].m],
                "out_busy": out_busy[b][: geos[b].m],
            }
            for b in range(state.batch)
        ]
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


def replay_all_backends(n, r, k, x, m_values, seed, construction, model):
    """One stream through every backend: counts, causes, end planes."""
    ops = compile_stream(model, n, r, k, STEPS, seed, None, False, None)
    geos = tuple(
        FabricGeometry(
            n=n, r=r, k=k, m=m, construction=construction, model=model, x=x
        )
        for m in m_values
    )
    results = {}
    with fused_runnable():
        for backend in BACKENDS:
            state = make_state(geos, backend)
            attempts, replications = _replay(ops, state, True, True)
            results[backend] = (
                attempts,
                [
                    (
                        rep.blocked,
                        rep.releases,
                        rep.kind_counts,
                        [repr(cause) for cause in rep.causes],
                    )
                    for rep in replications
                ],
                canonical_planes(state),
            )
    return results


class TestBoundaryAgreement:
    """python/fused two-way identity across the word seam."""

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

        results = replay_all_backends(
            n, r, k, x, [m], seed, construction, model
        )
        assert results["python"] == results["numba"]

    def test_mixed_batch_straddles_the_seam(self):
        """One lockstep batch whose m column spans every boundary value."""
        n, r, k, x, seed = 3, 63, 2, 2, 7
        for construction in Construction:
            for model in MulticastModel:
                results = replay_all_backends(
                    n, r, k, x, list(BOUNDARY), seed, construction, model
                )
                assert results["python"] == results["numba"]


class TestHighBitRoundTrip:
    """Covers committed on both sides of the word seam, then undone.

    The python backend's planes, setup views and undo branches are
    checked after every allocate against what the covers imply: the
    in-fiber carrier is first-fit (the source wavelength under
    MSW-dominance) and every delivery rides the source wavelength when
    the endpoint model pins it, else the first free one.
    """

    MIDDLES = (0, WORD_BITS - 1, WORD_BITS, WORD_BITS + 1, 99)
    DEST_BITS = (0, WORD_BITS - 1, WORD_BITS, 69)
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


class TestSingleWordLayout:
    """``W == 1`` fused arrays keep the pre-multi-word layout, byte for byte."""

    GOLDEN_SEED = 2024

    def test_arrays_byte_identical_to_single_word_layout(self):
        n, r, k, x = 3, 3, 2, 1
        m_values = [1, 2, 3, 5, 8]
        m_max = max(m_values)
        batch = len(m_values)
        for construction in Construction:
            for model in MulticastModel:
                ops = compile_stream(
                    model, n, r, k, 400, self.GOLDEN_SEED, None, False, None
                )
                geos = tuple(
                    FabricGeometry(
                        n=n, r=r, k=k, m=m,
                        construction=construction, model=model, x=x,
                    )
                    for m in m_values
                )
                state = FusedState(geos)
                state.replay_ops(lower_stream(ops), False, False)
                reference = PythonState(geos)
                _replay(ops, reference, False, False)
                assert not state._multiword

                def expect(shape, fill):
                    arr = np.zeros(shape, dtype=np.int64)
                    fill(arr)
                    return arr

                def check(actual, expected):
                    assert actual.shape == expected.shape
                    assert actual.dtype == np.int64
                    assert actual.tobytes() == expected.tobytes()

                def fill_out_busy(arr):
                    for b in range(batch):
                        for j in range(m_values[b]):
                            for w in range(k):
                                arr[b, j, w] = reference._out_busy[w][b][j]

                check(
                    state._out_busy, expect((batch, m_max, k), fill_out_busy)
                )
                if state.msw_dominant:

                    def fill_in_busy(arr):
                        for b in range(batch):
                            for g in range(r):
                                for w in range(k):
                                    arr[b, g, w] = reference._in_busy[g][w][b]

                    check(
                        state._in_busy, expect((batch, r, k), fill_in_busy)
                    )
                    continue

                def fill_in_wave(arr):
                    for b in range(batch):
                        for g in range(r):
                            for j in range(m_values[b]):
                                arr[b, g, j] = reference._in_wave[g][b][j]

                def fill_in_full(arr):
                    for b in range(batch):
                        for g in range(r):
                            arr[b, g] = reference._in_full[g][b]

                def fill_out_wave(arr):
                    for b in range(batch):
                        for j in range(m_values[b]):
                            for p in range(r):
                                arr[b, j, p] = reference._out_wave[b][j][p]

                def fill_out_full(arr):
                    for b in range(batch):
                        for j in range(m_values[b]):
                            arr[b, j] = reference._out_full[b][j]

                check(state._in_wave, expect((batch, r, m_max), fill_in_wave))
                check(state._in_full, expect((batch, r), fill_in_full))
                check(
                    state._out_wave, expect((batch, m_max, r), fill_out_wave)
                )
                check(state._out_full, expect((batch, m_max), fill_out_full))
