"""Backend registry: plane-width capabilities, resolution, the plug-in seam."""

from __future__ import annotations

import pytest

from repro.core.models import Construction, MulticastModel
from repro.engine.backends import (
    BACKENDS,
    NUMPY_WORD_BITS,
    available_backends,
    backend_status,
    make_state,
    plane_width,
    plane_width_error,
    register_backend,
    resolve_backend,
)
from repro.engine.fused import FUSED_ENV, FusedState
from repro.engine.geometry import FabricGeometry
from repro.engine.state import NumpyState, PythonState


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


class TestPlaneWidth:
    def test_named_constant(self):
        assert NUMPY_WORD_BITS == 62

    def test_plane_width_of_a_geometry(self):
        assert plane_width(4, 2, 1) == 1
        assert plane_width(NUMPY_WORD_BITS, 2, 1) == 1
        assert plane_width(NUMPY_WORD_BITS + 1, 2, 1) == 2
        assert plane_width(4, 200, 1) == 4

    def test_uniform_error_message(self):
        message = plane_width_error("numpy", 70, 2, 1, 1)
        assert "at most 1 int64 word(s)" in message
        assert "m=70, r=2, k=1" in message
        assert "2-word planes" in message

    def test_builtin_backends_accept_wide_planes(self):
        pytest.importorskip("numpy")
        wide = NUMPY_WORD_BITS + 1
        assert resolve_backend("numpy", m_max=wide, r=2, k=1) == "numpy"
        assert resolve_backend("numpy", m_max=4, r=wide, k=wide) == "numpy"

    def test_numba_accepts_wide_planes(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv(FUSED_ENV, "1")
        wide = NUMPY_WORD_BITS + 1
        assert resolve_backend("numba", m_max=wide, r=2, k=1) == "numba"

    def test_width_capped_backend_rejected_when_too_wide(self):
        from repro.engine import backends as mod

        name = "test-narrow"
        register_backend(name, PythonState, max_plane_width=1)
        try:
            wide = NUMPY_WORD_BITS + 1
            with pytest.raises(ValueError) as err:
                resolve_backend(name, m_max=wide, r=2, k=1)
            assert str(err.value) == plane_width_error(name, wide, 2, 1, 1)
            assert resolve_backend(name, m_max=4, r=2, k=1) == name
        finally:
            del mod._SPECS[name]


class TestResolution:
    def test_auto_defaults_to_python_without_numba(self, monkeypatch):
        monkeypatch.delenv(FUSED_ENV, raising=False)
        if "numba" in available_backends():
            pytest.skip("numba installed: auto legitimately prefers it")
        assert resolve_backend("auto", m_max=4, r=2, k=1) == "python"

    def test_auto_prefers_numba_when_available(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv(FUSED_ENV, "1")
        assert resolve_backend("auto", m_max=4, r=2, k=1) == "numba"

    def test_auto_keeps_numba_on_wide_planes(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv(FUSED_ENV, "1")
        assert (
            resolve_backend("auto", m_max=NUMPY_WORD_BITS + 1, r=2, k=1)
            == "numba"
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown batch backend 'cuda'"):
            resolve_backend("cuda", m_max=4, r=2, k=1)

    def test_unknown_error_lists_only_available_backends(self, monkeypatch):
        from repro.engine import backends as mod

        # With every optional backend unavailable, the suggestion list
        # must shrink to what a user could actually pick.
        monkeypatch.setitem(
            mod._SPECS, "numpy",
            mod.BackendSpec(factory=NumpyState, missing=lambda: "not here"),
        )
        monkeypatch.setitem(
            mod._SPECS, "numba",
            mod.BackendSpec(factory=FusedState, missing=lambda: "not here"),
        )
        with pytest.raises(ValueError) as err:
            resolve_backend("cuda", m_max=4, r=2, k=1)
        assert "('auto', 'python')" in str(err.value)
        assert "numpy" not in str(err.value)

    def test_unknown_error_lists_per_backend_max_widths(self):
        from repro.engine import backends as mod

        name = "test-capped"
        register_backend(name, PythonState, max_plane_width=2)
        try:
            with pytest.raises(ValueError) as err:
                resolve_backend("cuda", m_max=4, r=2, k=1)
            message = str(err.value)
            assert "max plane widths:" in message
            assert "python=any" in message
            assert f"{name}=2 words" in message
        finally:
            del mod._SPECS[name]

    def test_missing_backend_requested_explicitly(self, monkeypatch):
        from repro.engine import backends as mod

        monkeypatch.setitem(
            mod._SPECS, "numba",
            mod.BackendSpec(
                factory=FusedState, missing=lambda: "numba is not installed"
            ),
        )
        with pytest.raises(
            ValueError, match="'numba' requested but numba is not installed"
        ):
            resolve_backend("numba", m_max=4, r=2, k=1)

    def test_available_backends_cover_the_registry(self):
        available = available_backends()
        assert "python" in available
        assert set(available) <= {*BACKENDS}.union(available)


class TestStatus:
    def test_status_covers_all_builtins(self):
        status = backend_status()
        assert set(BACKENDS) <= set(status)
        assert status["python"] == "available (plane width: any)"

    def test_builtin_backends_report_unlimited_width(self):
        pytest.importorskip("numpy")
        status = backend_status()
        assert status["numpy"] == "available (plane width: any)"

    def test_width_capped_backend_reports_its_cap(self):
        from repro.engine import backends as mod

        name = "test-single-word"
        register_backend(name, PythonState, max_plane_width=1)
        try:
            assert backend_status()[name] == (
                "available (max plane width: 1 word)"
            )
        finally:
            del mod._SPECS[name]

    def test_unavailable_backend_reports_reason(self, monkeypatch):
        from repro.engine import backends as mod

        monkeypatch.setitem(
            mod._SPECS, "numba",
            mod.BackendSpec(
                factory=FusedState, missing=lambda: "numba is not installed"
            ),
        )
        assert backend_status()["numba"] == (
            "unavailable (numba is not installed)"
        )


class TestMakeState:
    def test_python_state(self):
        state = make_state(geometries(), backend="python")
        assert isinstance(state, PythonState)
        assert state.batch == 2

    def test_numpy_state(self):
        pytest.importorskip("numpy")
        state = make_state(geometries(), backend="numpy")
        assert isinstance(state, NumpyState)
        assert state.batch == 2

    def test_numpy_state_on_wide_planes(self):
        pytest.importorskip("numpy")
        state = make_state(
            geometries(m_values=(NUMPY_WORD_BITS + 8,)), backend="numpy"
        )
        assert isinstance(state, NumpyState)
        assert state.plane_layout.m_words == 2

    def test_empty_geometries_rejected(self):
        with pytest.raises(ValueError, match="at least one FabricGeometry"):
            make_state(())


class TestRegistry:
    def test_reserved_names_rejected(self):
        for name in ("auto", "python", "numpy", "numba"):
            with pytest.raises(ValueError, match="reserved"):
                register_backend(name, PythonState)

    def test_registered_backend_resolves_and_builds(self):
        from repro.engine import backends as mod

        name = "test-dummy"
        register_backend(name, PythonState)
        try:
            assert resolve_backend(name, m_max=4, r=2, k=1) == name
            state = make_state(geometries(), backend=name)
            assert isinstance(state, PythonState)
            assert name in available_backends()
        finally:
            del mod._SPECS[name]

    def test_registered_backend_with_missing_probe(self):
        from repro.engine import backends as mod

        name = "test-cuda"
        register_backend(name, PythonState, missing=lambda: "no GPU")
        try:
            assert name not in available_backends()
            assert backend_status()[name] == "unavailable (no GPU)"
            with pytest.raises(ValueError, match="requested but no GPU"):
                resolve_backend(name, m_max=4, r=2, k=1)
        finally:
            del mod._SPECS[name]
