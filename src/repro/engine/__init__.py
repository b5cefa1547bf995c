"""The admission engine -- per-model semantics stated exactly once.

``repro.engine`` is the bottom layer of the simulator stack: a frozen
:class:`~repro.engine.geometry.FabricGeometry`, the per-event
:class:`~repro.engine.state.FabricState` protocol over pure-Python int
bitplanes (:class:`~repro.engine.state.PythonState`, which the serial
network and every batched replay run on), the Lemma-4 cover search
(:mod:`repro.engine.cover`), and the pure admission kernels of
:mod:`repro.engine.kernel` (``avail``/``coverable``/``admit``/
``release``/``classify_block`` plus their mask-level cores).

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
    register_fabric,
)
from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import (
    ALL_BLOCK_KINDS,
    BLOCK_KINDS,
    AdmissionRequest,
    EngineConnection,
    admit,
    avail,
    block_cause,
    classify_block,
    classify_kind,
    coverable,
    free_middles,
    probe_cover,
    reach_map,
    release,
)
from repro.engine.state import FabricState, PythonState

__all__ = [
    "ALL_BLOCK_KINDS",
    "BLOCK_KINDS",
    "CLOS",
    "AdmissionRequest",
    "CoverSearch",
    "EngineConnection",
    "FabricGeometry",
    "FabricSpec",
    "FabricState",
    "PythonState",
    "admit",
    "avail",
    "block_cause",
    "classify_block",
    "classify_kind",
    "coverable",
    "fabric_names",
    "fabric_status",
    "find_cover_bits",
    "free_middles",
    "get_fabric",
    "iter_bits",
    "mask_of",
    "probe_cover",
    "reach_map",
    "register_fabric",
    "release",
]
