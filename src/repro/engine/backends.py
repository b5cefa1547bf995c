"""Fabric-state backends: which replay a batch runs on.

Two backends ship, both width-unlimited (masks wider than one int64
word get multi-word planes; see :mod:`repro.engine.planes`):

* ``python`` -- the per-event replay over the int-bitplane
  :class:`~repro.engine.state.PythonState`; no dependencies, always
  available;
* ``numba`` -- the fused whole-stream replay of
  :mod:`repro.engine.fused`; needs numpy plus numba, and is what
  ``auto`` prefers when it can run.

:func:`resolve_backend` maps a request (``"auto"`` or a name) to one of
them and :func:`make_state` instantiates it.  The request is always an
argument (``ExecConfig.backend``, the CLI's ``--backend``), and
:func:`check_backend_name` refuses a name that is unknown or cannot run
in this process.  :func:`backend_status` feeds the ``wdm-repro
kernels`` availability display.  Whether ``numba`` can run is asked of
:func:`repro.engine.fused.missing_requirement` at call time.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine import fused as _fused
from repro.engine.geometry import FabricGeometry
from repro.engine.planes import PlaneLayout
from repro.engine.state import PythonState

__all__ = [
    "BACKENDS",
    "available_backends",
    "backend_status",
    "check_backend_name",
    "make_state",
    "plane_width",
    "resolve_backend",
]

#: the state backends (``auto`` resolves to one of these).
BACKENDS = ("python", "numba")

#: the fix for a missing ``numba`` backend (numba and numpy).
_INSTALL_HINT = 'install the fused extra: pip install -e ".[fused]"'


def _missing(backend: str) -> str | None:
    """Why ``backend`` cannot run in this process, or None when it can."""
    return _fused.missing_requirement() if backend == "numba" else None


def plane_width(m_max: int, r: int, k: int) -> int:
    """The plane width W (int64 words per widest mask) of a geometry."""
    return PlaneLayout.for_fabric(m_max, r, k).width


def available_backends() -> tuple[str, ...]:
    """The state backends usable in this process."""
    return tuple(name for name in BACKENDS if _missing(name) is None)


def backend_status() -> dict[str, str]:
    """Per-backend ``"available"`` or ``"unavailable (<reason>)"``."""
    status: dict[str, str] = {}
    for name in BACKENDS:
        reason = _missing(name)
        status[name] = (
            "available" if reason is None else f"unavailable ({reason})"
        )
    return status


def check_backend_name(backend: str) -> None:
    """Raise unless ``backend`` is ``"auto"`` or a backend that can run here."""
    if backend == "auto":
        return
    if backend not in BACKENDS:
        choices = ("auto",) + available_backends()
        raise ValueError(
            f"unknown batch backend {backend!r}; choose from {choices}"
        )
    reason = _missing(backend)
    if reason is not None:
        raise ValueError(
            f"batch backend {backend!r} requested but {reason}; "
            f"{_INSTALL_HINT}"
        )


def resolve_backend(backend: str = "auto", *, m_max: int, r: int, k: int) -> str:
    """Resolve a backend request to a concrete backend name.

    ``auto`` prefers ``numba`` -- the fused whole-stream kernel --
    whenever it can run, falling back to ``python``.  Asking for a
    backend by name raises if it is unknown or its requirements are
    missing.  Every backend handles any plane width,
    so the geometry (``m_max``, ``r``, ``k``) does not affect the pick.
    """
    check_backend_name(backend)
    if backend != "auto":
        return backend
    return "numba" if _missing("numba") is None else "python"


def make_state(
    geometries: Iterable[FabricGeometry], backend: str = "auto"
) -> PythonState | _fused.FusedState:
    """Build a fabric state for ``geometries`` on a resolved backend."""
    geos = tuple(geometries)
    if not geos:
        raise ValueError("need at least one FabricGeometry")
    name = resolve_backend(
        backend,
        m_max=max(geo.m for geo in geos),
        r=geos[0].r,
        k=geos[0].k,
    )
    if name == "numba":
        return _fused.FusedState(geos)
    return PythonState(geos)
