"""Backend resolution: the two built-in backends, availability, plane width."""

from __future__ import annotations

import pytest

from repro.core.models import Construction, MulticastModel
from repro.engine import fused
from repro.engine.backends import (
    BACKENDS,
    available_backends,
    backend_status,
    make_state,
    plane_width,
    resolve_backend,
)
from repro.engine.geometry import FabricGeometry
from repro.engine.planes import WORD_BITS
from repro.engine.state import PythonState
from tests.fused_support import fused_runnable


def geometries(m_values=(2, 3), k=1):
    return tuple(
        FabricGeometry(
            n=2, r=2, k=k, m=m,
            construction=Construction.MSW_DOMINANT,
            model=MulticastModel.MSW,
            x=1,
        )
        for m in m_values
    )


def numba_missing(monkeypatch):
    """Make the fused backend report numba missing, whatever is installed."""
    monkeypatch.setattr(
        fused, "missing_requirement", lambda: "numba is not installed"
    )


class TestPlaneWidth:
    def test_named_constant(self):
        assert WORD_BITS == 62

    def test_plane_width_of_a_geometry(self):
        assert plane_width(4, 2, 1) == 1
        assert plane_width(WORD_BITS, 2, 1) == 1
        assert plane_width(WORD_BITS + 1, 2, 1) == 2
        assert plane_width(4, 200, 1) == 4

    def test_builtin_backends_accept_wide_planes(self):
        wide = WORD_BITS + 1
        assert resolve_backend("python", m_max=wide, r=2, k=1) == "python"
        assert resolve_backend("python", m_max=4, r=wide, k=wide) == "python"

    def test_numba_accepts_wide_planes(self):
        pytest.importorskip("numpy")
        wide = WORD_BITS + 1
        with fused_runnable():
            assert resolve_backend("numba", m_max=wide, r=2, k=1) == "numba"


class TestResolution:
    def test_auto_defaults_to_python_without_numba(self):
        if "numba" in available_backends():
            pytest.skip("numba installed: auto legitimately prefers it")
        assert resolve_backend("auto", m_max=4, r=2, k=1) == "python"

    def test_auto_prefers_numba_when_available(self):
        pytest.importorskip("numpy")
        with fused_runnable():
            assert resolve_backend("auto", m_max=4, r=2, k=1) == "numba"

    def test_auto_keeps_numba_on_wide_planes(self):
        pytest.importorskip("numpy")
        with fused_runnable():
            assert (
                resolve_backend("auto", m_max=WORD_BITS + 1, r=2, k=1)
                == "numba"
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown batch backend 'cuda'"):
            resolve_backend("cuda", m_max=4, r=2, k=1)

    def test_unknown_error_lists_only_available_backends(self, monkeypatch):
        # With the optional backend unavailable, the suggestion list
        # must shrink to what a user could actually pick.
        numba_missing(monkeypatch)
        with pytest.raises(ValueError) as err:
            resolve_backend("cuda", m_max=4, r=2, k=1)
        assert "('auto', 'python')" in str(err.value)
        assert "numba" not in str(err.value)

    def test_missing_backend_requested_explicitly(self, monkeypatch):
        numba_missing(monkeypatch)
        with pytest.raises(
            ValueError, match="'numba' requested but numba is not installed"
        ):
            resolve_backend("numba", m_max=4, r=2, k=1)

    def test_available_backends_cover_the_registry(self):
        available = available_backends()
        assert "python" in available
        assert set(available) <= set(BACKENDS)


class TestStatus:
    def test_status_covers_all_builtins(self):
        status = backend_status()
        assert set(status) == set(BACKENDS)
        assert status["python"] == "available"

    def test_unavailable_backend_reports_reason(self, monkeypatch):
        numba_missing(monkeypatch)
        assert backend_status()["numba"] == (
            "unavailable (numba is not installed)"
        )


class TestMakeState:
    def test_python_state(self):
        state = make_state(geometries(), backend="python")
        assert isinstance(state, PythonState)
        assert state.batch == 2

    def test_empty_geometries_rejected(self):
        with pytest.raises(ValueError, match="at least one FabricGeometry"):
            make_state(())
