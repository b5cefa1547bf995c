"""The admission engine -- per-model semantics stated exactly once.

``repro.engine`` is the bottom layer of the simulator stack: a frozen
:class:`~repro.engine.geometry.FabricGeometry`, the per-event
pure-Python int bitplanes of :class:`~repro.engine.state.PythonState`
(which the serial network and every batched replay run on), the
Lemma-4 cover search (:mod:`repro.engine.cover`), and the pure
mask-level admission kernels of :mod:`repro.engine.kernel`
(``free_middles``/``reach_map``/``probe_cover``/``classify_kind``/
``block_cause``), which the serial network and the lockstep replay
both call on the state's ``setup_views``.

The serial network, the lockstep batch engine, the exhaustive model
checker and the adversary all route through this package, so the
MSW/MSDW/MAW admission rules and the blocking-cause taxonomy cannot
drift between layers.  See ``docs/ARCHITECTURE.md`` for the layer
diagram.
"""

from repro.engine.cover import CoverSearch, find_cover_bits, iter_bits, mask_of
from repro.engine.fabrics import (
    CLOS,
    FabricSpec,
    fabric_names,
    fabric_status,
    get_fabric,
)
from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import (
    BLOCK_KINDS,
    block_cause,
    classify_kind,
    free_middles,
    probe_cover,
    reach_map,
)
from repro.engine.state import PythonState

__all__ = [
    "BLOCK_KINDS",
    "CLOS",
    "CoverSearch",
    "FabricGeometry",
    "FabricSpec",
    "PythonState",
    "block_cause",
    "classify_kind",
    "fabric_names",
    "fabric_status",
    "find_cover_bits",
    "free_middles",
    "get_fabric",
    "iter_bits",
    "mask_of",
    "probe_cover",
    "reach_map",
]
