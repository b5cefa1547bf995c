"""The batch state constructor and the backend name the bench records."""

from __future__ import annotations

import pytest

from repro.core.models import Construction, MulticastModel
from repro.engine.backends import make_state, resolve_backend
from repro.engine.geometry import FabricGeometry
from repro.engine.state import PythonState


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


class TestResolution:
    def test_auto_defaults_to_python_without_numba(self):
        assert resolve_backend("auto", m_max=4, r=2, k=1) == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown batch backend 'cuda'"):
            resolve_backend("cuda", m_max=4, r=2, k=1)

    def test_unknown_error_lists_only_available_backends(self):
        with pytest.raises(ValueError) as err:
            resolve_backend("numba", m_max=4, r=2, k=1)
        assert "choose from ('auto', 'python')" in str(err.value)


class TestMakeState:
    def test_python_state(self):
        state = make_state(geometries())
        assert isinstance(state, PythonState)
        assert state.batch == 2

    def test_empty_geometries_rejected(self):
        with pytest.raises(ValueError, match="at least one FabricGeometry"):
            make_state(())
