"""The batch replay's state constructor, plus one name the bench reads.

Every batched replay runs on the int-bitplane
:class:`~repro.engine.state.PythonState`; there is no backend choice.
Two names stay here because the benchmark harness under ``bench/``
looks them up:

* :func:`make_state` -- :mod:`repro.perf.batch` builds each work
  unit's state through this module-level name, which
  ``bench/ledger.py`` times as its ``engine.backends.make_state``
  layer;
* :func:`resolve_backend` -- ``bench/worker.py::_meta`` records
  ``resolve_backend("auto", ...)`` as each run's ``auto_backend``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine.geometry import FabricGeometry
from repro.engine.state import PythonState

__all__ = ["make_state", "resolve_backend"]


def make_state(geometries: Iterable[FabricGeometry]) -> PythonState:
    """The lockstep fabric state of one work unit (one lane per geometry).

    Called once per unit by :func:`repro.perf.batch._simulate`, through
    this name so ``bench/ledger.py`` can time it.
    """
    return PythonState(geometries)


def resolve_backend(backend: str = "auto", *, m_max: int, r: int, k: int) -> str:
    """Always ``"python"``, the one batch state; other names are refused.

    Kept for ``bench/worker.py::_meta``, which records
    ``resolve_backend("auto", m_max=1, r=1, k=1)`` as ``auto_backend``.
    ``m_max``, ``r`` and ``k`` are unused.
    """
    if backend not in ("auto", "python"):
        raise ValueError(
            f"unknown batch backend {backend!r}; choose from ('auto', 'python')"
        )
    return "python"
