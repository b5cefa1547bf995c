"""Pure admission kernels -- MSW/MSDW/MAW semantics, stated once.

Every consumer of the paper's admission semantics -- the serial
:class:`~repro.multistage.network.ThreeStageNetwork`, the lockstep
batch engine (:mod:`repro.perf.batch`), the exhaustive model checker
and the adversary -- routes through these functions, so wavelength
availability, converter budgets, the Lemma-4 cover condition and the
blocking-cause taxonomy cannot drift between layers.

Two API levels share one implementation:

* **mask level** -- :func:`free_middles`, :func:`reach_map`,
  :func:`probe_cover`, :func:`classify_kind`, :func:`block_cause`
  operate on plain ints and blocker rows; this is what the hot paths
  call on backend views (the network's B = 1 state and the batch
  driver's lanes alike);
* **state level** -- :func:`avail`, :func:`coverable`, :func:`admit`,
  :func:`release`, :func:`classify_block` operate on a
  :class:`~repro.engine.state.FabricState` and an
  :class:`AdmissionRequest`; this is the self-contained form the
  property tests and one-off probes use.

The blocker row encodes the per-model second-stage rule: under the
MSW-dominant construction (and under MAW-dominant when the endpoint
model is MSW) a middle cannot deliver to an output module whose fiber
already carries the source wavelength; otherwise only a *full* fiber
blocks, because the middle converts freely.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine.cover import find_cover_bits, iter_bits
from repro.engine.state import FabricState

__all__ = [
    "ALL_BLOCK_KINDS",
    "BLOCK_KINDS",
    "AdmissionRequest",
    "EngineConnection",
    "admit",
    "avail",
    "block_cause",
    "classify_block",
    "classify_kind",
    "coverable",
    "free_middles",
    "probe_cover",
    "reach_map",
    "release",
]

#: the four blocking causes ``classify_kind`` distinguishes on the
#: paper's Clos -- the contention modes its constructions trade off.
BLOCK_KINDS = (
    "saturated_wavelength",
    "converter_exhaustion",
    "full_middles",
    "no_cover",
)

#: the full taxonomy across registered fabric models: the Clos kinds
#: plus ``awg_no_path`` -- a destination module that *no* middle switch
#: can reach on the request's wavelength under a fabric's static
#: routing constraint (:mod:`repro.engine.fabrics`), however idle the
#: fabric is.  Fused kind histograms and ``repro.obs`` cause labels
#: index this tuple; Clos-only consumers keep seeing ``BLOCK_KINDS``.
ALL_BLOCK_KINDS = BLOCK_KINDS + ("awg_no_path",)


# -- mask level --------------------------------------------------------------


def free_middles(all_middles: int, blocked: int, failed: int = 0) -> int:
    """Available middles: not first-stage blocked and not failed."""
    return all_middles & ~(blocked | failed)


def reach_map(
    available: int, dest_mask: int, blockers: Sequence[int]
) -> dict[int, int]:
    """Per available middle, the requested modules it can reach.

    Keys iterate in ascending middle index (the cover search's sorted
    candidate order); middles reaching nothing are omitted.
    """
    coverable: dict[int, int] = {}
    for j in iter_bits(available):
        reach = dest_mask & ~blockers[j]
        if reach:
            coverable[j] = reach
    return coverable


def probe_cover(
    available: int, dest_mask: int, x: int, blockers: Sequence[int]
) -> tuple[dict[int, int] | None, dict[int, int]]:
    """One setup's routing decision: ``(cover, partial reach map)``.

    Scans available middles in ascending order; if one reaches every
    requested module, greedy would pick exactly that lowest ``j`` with
    the full gain, so the scan short-circuits to ``{j: dest_mask}``
    without calling the cover search.  Otherwise the accumulated reach
    map (equal to :func:`reach_map` when the scan completes) feeds
    :func:`~repro.engine.cover.find_cover_bits`.  ``cover`` is None when
    the request blocks; the reach map is then complete and is exactly
    the evidence :func:`block_cause` needs.
    """
    coverable: dict[int, int] = {}
    scan = available
    while scan:
        low = scan & -scan
        scan ^= low
        j = low.bit_length() - 1
        reach = dest_mask & ~blockers[j]
        if reach == dest_mask:
            return {j: dest_mask}, coverable
        if reach:
            coverable[j] = reach
    if coverable:
        return find_cover_bits(dest_mask, coverable, x), coverable
    return None, coverable


def classify_kind(
    available: int,
    coverable: Mapping[int, int],
    dest_mask: int,
    msw_dominant: bool,
    static_unreachable: int = 0,
) -> str:
    """The blocking-cause kind for one blocked setup (ALL_BLOCK_KINDS).

    ``static_unreachable`` is the fabric model's per-wavelength
    structural mask (modules no middle can ever reach on the request's
    wavelength -- zero on the Clos): a blocked request touching it is
    ``awg_no_path``, checked before ``full_middles`` because the
    structural explanation subsumes the occupancy one.
    """
    if available == 0:
        return "saturated_wavelength" if msw_dominant else "converter_exhaustion"
    if dest_mask & static_unreachable:
        return "awg_no_path"
    union = 0
    for reach in coverable.values():
        union |= reach
    if dest_mask & ~union:
        return "full_middles"
    return "no_cover"


def block_cause(
    *,
    x: int,
    input_module: int,
    source_wavelength: int,
    blocked_mask: int,
    available: int,
    coverable: Mapping[int, int],
    dest_mask: int,
    msw_dominant: bool,
    failed_mask: int = 0,
    fabric: str | None = None,
    static_unreachable: int = 0,
) -> dict[str, Any]:
    """The full ``explain_block``-shaped evidence dict for one blocked setup.

    Matches ``repro.obs.trace.CAUSE_SCHEMA``: alongside ``kind`` it
    carries the raw evidence masks, the requested modules, the
    unreachable subset, and per-module ``[module, middles_mask]`` pairs.
    With a non-None ``fabric`` (a non-Clos fabric model) the dict also
    names the fabric and lists the structurally unreachable destination
    modules; the Clos dict is unchanged key for key.
    """
    per_destination = []
    reachable_union = 0
    for p in iter_bits(dest_mask):
        middles = 0
        for j, reach in coverable.items():
            if reach >> p & 1:
                middles |= 1 << j
        per_destination.append([p, middles])
        if middles:
            reachable_union |= 1 << p
    unreachable = dest_mask & ~reachable_union
    structural = dest_mask & static_unreachable
    if available == 0:
        kind = "saturated_wavelength" if msw_dominant else "converter_exhaustion"
    elif structural:
        kind = "awg_no_path"
    elif unreachable:
        kind = "full_middles"
    else:
        kind = "no_cover"
    cause = {
        "kind": kind,
        "x": x,
        "input_module": input_module,
        "source_wavelength": source_wavelength,
        "failed_middles_mask": failed_mask,
        "first_stage_blocked_mask": blocked_mask,
        "available_middles_mask": available,
        "destination_modules": list(iter_bits(dest_mask)),
        "unreachable_modules": list(iter_bits(unreachable)),
        "per_destination": per_destination,
    }
    if fabric is not None:
        cause["fabric"] = fabric
        cause["awg_unreachable_modules"] = list(iter_bits(structural))
    return cause


# -- state level -------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionRequest:
    """One setup request in module/bitmask form.

    ``dest_mask`` has bit ``p`` set per requested output module;
    ``replication`` selects the fabric inside a batched state.
    """

    input_module: int
    source_wavelength: int
    dest_mask: int
    replication: int = 0


@dataclass(frozen=True)
class EngineConnection:
    """A live engine connection -- the handle :func:`release` takes."""

    input_module: int
    source_wavelength: int
    replication: int
    branches: tuple[tuple[Any, ...], ...]


def avail(state: FabricState, req: AdmissionRequest) -> int:
    """Bitmask of middles the request can enter through its first stage."""
    blocked, _ = state.setup_views(req.input_module, req.source_wavelength)
    return free_middles(
        state.all_masks[req.replication],
        blocked[req.replication],
        state.failed_mask,
    )


def coverable(state: FabricState, req: AdmissionRequest) -> dict[int, int]:
    """Per available middle, the requested modules it can reach now."""
    blocked, blockers = state.setup_views(
        req.input_module, req.source_wavelength
    )
    b = req.replication
    available = free_middles(
        state.all_masks[b], blocked[b], state.failed_mask
    )
    return reach_map(available, req.dest_mask, blockers[b])


def admit(
    state: FabricState, req: AdmissionRequest
) -> EngineConnection | None:
    """Route and commit ``req``, or return None when it blocks."""
    blocked, blockers = state.setup_views(
        req.input_module, req.source_wavelength
    )
    b = req.replication
    available = free_middles(
        state.all_masks[b], blocked[b], state.failed_mask
    )
    cover, _ = probe_cover(available, req.dest_mask, state.x, blockers[b])
    if cover is None:
        return None
    branches = state.allocate(
        b, req.input_module, req.source_wavelength, cover
    )
    return EngineConnection(
        input_module=req.input_module,
        source_wavelength=req.source_wavelength,
        replication=b,
        branches=branches,
    )


def release(state: FabricState, conn: EngineConnection) -> None:
    """Tear down a connection previously returned by :func:`admit`."""
    state.free(
        conn.replication,
        conn.input_module,
        conn.source_wavelength,
        conn.branches,
    )


def classify_block(state: FabricState, req: AdmissionRequest) -> dict[str, Any]:
    """Why ``req`` blocks right now -- the ``explain_block`` cause dict."""
    blocked, blockers = state.setup_views(
        req.input_module, req.source_wavelength
    )
    b = req.replication
    blocked_mask = blocked[b]
    available = free_middles(
        state.all_masks[b], blocked_mask, state.failed_mask
    )
    cov = reach_map(available, req.dest_mask, blockers[b])
    su = getattr(state, "static_unreach_masks", None)
    fabric = state.geometries[b].fabric
    return block_cause(
        x=state.x,
        input_module=req.input_module,
        source_wavelength=req.source_wavelength,
        blocked_mask=blocked_mask,
        available=available,
        coverable=cov,
        dest_mask=req.dest_mask,
        msw_dominant=state.msw_dominant,
        failed_mask=state.failed_mask,
        fabric=None if fabric == "clos" else fabric,
        static_unreachable=(
            0 if su is None else su[b][req.source_wavelength]
        ),
    )
