"""Fabric-state backend registry -- the numba/CUDA seam.

One place decides which :class:`~repro.engine.state.FabricState`
implementation a replay runs on: every backend is a
:class:`BackendSpec` (factory + availability probe + plane-width
capability), :func:`resolve_backend` maps a request (``"auto"`` or a
concrete name) to a registered backend, checking the geometry's plane
width ``W = ceil(bits / 62)`` against the backend's capability with one
uniform error message, and :func:`make_state` then instantiates it.
The request is always an argument (``ExecConfig.backend``, the CLI's
``--backend``).

Three backends ship built in, all width-unlimited (masks wider than
one int64 word get multi-word planes; see
:mod:`repro.engine.planes`):

* ``python`` -- int-bitplane :class:`~repro.engine.state.PythonState`;
  no dependencies, always available;
* ``numpy`` -- int64 structure-of-arrays
  :class:`~repro.engine.state.NumpyState`; needs numpy;
* ``numba`` -- the fused whole-stream replay of
  :mod:`repro.engine.fused`; needs numpy plus numba (or the
  ``WDM_REPRO_FUSED_PY=1`` interpreted-mode testing hook), and is what
  ``auto`` prefers when it can run.

Additional backends (a CUDA kernel, say) plug in through
:func:`register_backend` without touching any consumer; a backend that
only handles single-word planes declares ``max_plane_width=1`` and
:func:`resolve_backend` refuses wider geometries with a message naming
the capability.  :func:`backend_status` feeds the ``wdm-repro
kernels`` availability display.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.engine import fused as _fused
from repro.engine.geometry import FabricGeometry
from repro.engine.planes import WORD_BITS, PlaneLayout
from repro.engine.state import FabricState, NumpyState, PythonState

try:  # NumPy is optional everywhere in this repo.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

__all__ = [
    "BACKENDS",
    "NUMPY_WORD_BITS",
    "BackendSpec",
    "available_backends",
    "backend_status",
    "check_backend_name",
    "make_state",
    "plane_width",
    "plane_width_error",
    "register_backend",
    "resolve_backend",
]

#: the built-in state backends (``auto`` resolves to one of these).
BACKENDS = ("python", "numpy", "numba")
#: usable bits per int64 plane word -- masks wider than this span
#: ``W = ceil(bits / NUMPY_WORD_BITS)`` words (no longer a hard gate).
NUMPY_WORD_BITS = WORD_BITS


def _always() -> str | None:
    return None


def _numpy_missing() -> str | None:
    return None if _np is not None else "numpy is not installed"


def plane_width(m_max: int, r: int, k: int) -> int:
    """The plane width W (int64 words per widest mask) of a geometry."""
    return PlaneLayout.for_fabric(m_max, r, k).width


@dataclass(frozen=True)
class BackendSpec:
    """One selectable backend: how to build it and whether it can run.

    Attributes:
        factory: builds the backend's :class:`FabricState` from the
            per-replication geometries.
        missing: returns None when the backend can run in this process,
            else the human-readable reason (``"numba is not
            installed"``) -- probed dynamically so environment hooks
            can flip availability without re-importing.
        max_plane_width: the widest plane (int64 words per mask) the
            backend handles; None means unlimited (multi-word planes).
    """

    factory: Callable[[tuple[FabricGeometry, ...]], FabricState]
    missing: Callable[[], str | None] = _always
    max_plane_width: int | None = None

    def available(self) -> bool:
        """True when the backend can run in this process."""
        return self.missing() is None

    def supports_width(self, width: int) -> bool:
        """True when the backend handles ``width``-word planes."""
        return self.max_plane_width is None or width <= self.max_plane_width


_SPECS: dict[str, BackendSpec] = {
    "python": BackendSpec(factory=PythonState),
    "numpy": BackendSpec(factory=NumpyState, missing=_numpy_missing),
    "numba": BackendSpec(
        factory=_fused.FusedState,
        missing=_fused.missing_requirement,
    ),
}


def register_backend(
    name: str,
    factory: Callable[[tuple[FabricGeometry, ...]], FabricState],
    *,
    missing: Callable[[], str | None] = _always,
    max_plane_width: int | None = None,
) -> None:
    """Register an additional fabric-state backend (the plug-in seam).

    The factory takes a tuple of per-replication geometries and returns
    a :class:`~repro.engine.state.FabricState`.  Registered names become
    valid ``backend=`` arguments everywhere (batch engine, CLI); they
    are never chosen by ``auto``.  ``missing`` is the availability
    probe (None = usable, else the reason shown by ``wdm-repro
    kernels``); ``max_plane_width`` caps the plane width (int64 words
    per mask) the backend handles, None meaning unlimited.
    """
    if name in ("auto",) + BACKENDS:
        raise ValueError(f"backend name {name!r} is reserved")
    _SPECS[name] = BackendSpec(
        factory=factory, missing=missing, max_plane_width=max_plane_width
    )


def available_backends() -> tuple[str, ...]:
    """The state backends usable in this process."""
    return tuple(name for name, spec in _SPECS.items() if spec.available())


def _width_label(spec: BackendSpec) -> str:
    if spec.max_plane_width is None:
        return "any"
    unit = "word" if spec.max_plane_width == 1 else "words"
    return f"{spec.max_plane_width} {unit}"


def backend_status() -> dict[str, str]:
    """Per-backend one-line availability/capability status (CLI display).

    ``"available (plane width: any)"``, ``"available (max plane
    width: N words)"`` or ``"unavailable (<reason>)"`` for every
    registered backend.
    """
    status: dict[str, str] = {}
    for name, spec in _SPECS.items():
        reason = spec.missing()
        if reason is not None:
            status[name] = f"unavailable ({reason})"
        elif spec.max_plane_width is None:
            status[name] = "available (plane width: any)"
        else:
            status[name] = (
                f"available (max plane width: {_width_label(spec)})"
            )
    return status


def plane_width_error(
    backend: str, m_max: int, r: int, k: int, max_width: int
) -> str:
    """The uniform error message for a plane too wide for a backend."""
    width = plane_width(m_max, r, k)
    return (
        f"batch backend {backend!r} handles at most {max_width} int64 "
        f"word(s) per mask but m={m_max}, r={r}, k={k} needs "
        f"{width}-word planes ({NUMPY_WORD_BITS} bits per word)"
    )


def check_backend_name(backend: str) -> None:
    """Raise unless ``backend`` is ``"auto"`` or a registered name.

    Registration, not availability: a registered backend whose
    requirements are missing passes here and is refused by
    :func:`resolve_backend` when a replay actually asks for it.
    """
    if backend == "auto" or backend in _SPECS:
        return
    choices = ("auto",) + available_backends()
    widths = ", ".join(
        f"{name}={_width_label(spec)}"
        for name, spec in _SPECS.items()
        if spec.available()
    )
    raise ValueError(
        f"unknown batch backend {backend!r}; choose from {choices} "
        f"(max plane widths: {widths})"
    )


def resolve_backend(backend: str = "auto", *, m_max: int, r: int, k: int) -> str:
    """Resolve a backend request to a concrete backend name.

    ``auto`` prefers ``numba`` -- the fused whole-stream kernel --
    whenever it is importable (at any plane width, since the word gate
    was lifted), falling back to ``python`` (the int-bitplane replay,
    which beats the per-event numpy int64 backend on CPython; see
    EXPERIMENTS.md P4/P6).  Asking for a backend by name raises if it
    is not registered, its requirements are missing, or the geometry's
    plane width exceeds the backend's ``max_plane_width`` capability.
    """
    check_backend_name(backend)
    if backend == "auto":
        if _SPECS["numba"].available():
            return "numba"
        return "python"
    spec = _SPECS[backend]
    reason = spec.missing()
    if reason is not None:
        raise ValueError(f"batch backend {backend!r} requested but {reason}")
    width = plane_width(m_max, r, k)
    if not spec.supports_width(width):
        assert spec.max_plane_width is not None
        raise ValueError(
            plane_width_error(backend, m_max, r, k, spec.max_plane_width)
        )
    return backend


def make_state(
    geometries: Iterable[FabricGeometry], backend: str = "auto"
) -> FabricState:
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
    return _SPECS[name].factory(geos)
