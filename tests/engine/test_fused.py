"""The fused backend: mode gating, stream lowering, and bit-identity.

The deep two-way identity suites live in ``tests/perf/test_batch.py``;
this module covers the fused machinery itself -- availability logic,
the kernel pick, :func:`repro.perf.batch.lower_stream`, and
the invariant that a fused replay leaves the very same bitplanes a
per-event replay would.
"""

from __future__ import annotations

import pytest

from repro.core.models import Construction, MulticastModel
from repro.engine import fused
from repro.engine.backends import available_backends, resolve_backend
from repro.engine.fused import FusedState
from repro.engine.geometry import FabricGeometry
from repro.engine.state import PythonState
from repro.perf.batch import _SETUP, _TEARDOWN, compile_stream, lower_stream

np = pytest.importorskip("numpy")

from tests.engine.test_wide import canonical_planes  # noqa: E402
from tests.fused_support import fused_runnable  # noqa: E402


def geometries(m_values=(1, 2, 3), model=MulticastModel.MSW,
               construction=Construction.MSW_DOMINANT, n=3, r=3, k=2, x=1):
    return tuple(
        FabricGeometry(
            n=n, r=r, k=k, m=m, construction=construction, model=model, x=x
        )
        for m in m_values
    )


class TestModes:
    def test_unset_without_numba_is_unavailable(self):
        if fused.NUMBA_AVAILABLE:
            assert fused.missing_requirement() is None
            assert fused._kernel() is fused._JIT_KERNEL
        else:
            assert fused.missing_requirement() == "numba is not installed"
            assert "numba" not in available_backends()

    def test_kernel_is_the_plain_loop_without_numba(self):
        if fused.NUMBA_AVAILABLE:
            pytest.skip("numba installed: the compiled loop runs")
        assert fused._JIT_KERNEL is None
        assert fused._kernel() is fused._PY_KERNEL is fused._replay_loop

    def test_runnable_helper_waives_only_numba(self):
        with fused_runnable():
            assert fused.missing_requirement() is None
            assert "numba" in available_backends()
            assert resolve_backend("auto", m_max=4, r=2, k=1) == "numba"
        if not fused.NUMBA_AVAILABLE:
            assert fused.missing_requirement() == "numba is not installed"


class TestLowering:
    def test_slots_are_dense_and_shared(self):
        ops = [
            (_SETUP, 17, 0, 0, 0b011),
            (_SETUP, 99, 1, 1, 0b100),
            (_TEARDOWN, 17, 0, 0, 0),
            (_SETUP, 4, 2, 0, 0b001),
            (_TEARDOWN, 99, 1, 1, 0),
        ]
        low = lower_stream(ops)
        assert low.n_slots == 3
        assert low.n_setups == 3
        assert list(low.tag) == [1, 1, 0, 1, 0]
        # setup and teardown of one connection share a slot; slots are
        # dense in first-appearance order.
        assert list(low.slot) == [0, 1, 0, 2, 1]
        assert list(low.g) == [0, 1, 0, 2, 1]
        assert list(low.sw) == [0, 1, 0, 0, 1]
        assert list(low.dest) == [0b011, 0b100, 0, 0b001, 0]

    def test_empty_stream(self):
        low = lower_stream([])
        assert low.n_slots == 0
        assert low.n_setups == 0
        assert len(low.tag) == 0

    def test_compiled_stream_round_trip(self):
        ops = compile_stream(MulticastModel.MAW, 3, 3, 2, steps=120, seed=5)
        low = lower_stream(ops)
        assert len(low.tag) == len(ops)
        assert low.n_setups == sum(1 for op in ops if op[0] == _SETUP)
        assert low.n_slots == len({op[1] for op in ops})
        assert int(low.slot.max()) == low.n_slots - 1


@pytest.mark.parametrize("construction", list(Construction))
@pytest.mark.parametrize("model", list(MulticastModel))
class TestEndStateIdentity:
    def test_fused_replay_leaves_per_event_bitplanes(
        self, construction, model
    ):
        """After a fused replay the planes equal a per-event replay's.

        Stronger than count identity: every admit/release must have
        set and cleared the same bits, so both replays end in the same
        fabric state.
        """
        from repro.perf.batch import _replay

        geos = geometries(model=model, construction=construction)
        ops = compile_stream(model, 3, 3, 2, steps=200, seed=1)

        reference = PythonState(geos)
        ref_attempts, ref_reps = _replay(ops, reference, True, False)

        state = FusedState(geos)
        replay = state.replay_ops(lower_stream(ops), True, False)

        assert replay.attempts == ref_attempts
        assert replay.blocked == [rep.blocked for rep in ref_reps]
        assert replay.releases == [rep.releases for rep in ref_reps]
        assert replay.kind_counts == [rep.kind_counts for rep in ref_reps]
        assert canonical_planes(state) == canonical_planes(reference)
