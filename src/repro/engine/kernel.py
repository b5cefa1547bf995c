"""Pure admission kernels -- MSW/MSDW/MAW semantics, stated once.

Every consumer of the paper's admission semantics -- the serial
:class:`~repro.multistage.network.ThreeStageNetwork`, the lockstep
batch engine (:mod:`repro.perf.batch`), the exhaustive model checker
and the adversary -- routes through these functions, so wavelength
availability, converter budgets, the Lemma-4 cover condition and the
blocking-cause taxonomy cannot drift between layers.

:func:`free_middles`, :func:`reach_map`, :func:`probe_cover`,
:func:`classify_kind` and :func:`block_cause` operate on plain ints
and blocker rows, the views
:meth:`~repro.engine.state.PythonState.setup_views` hands out.  The
serial network (a B = 1 state) and the lockstep replay (one lane per
``m``) call them the same way.

The blocker row encodes the per-model second-stage rule: under the
MSW-dominant construction (and under MAW-dominant when the endpoint
model is MSW) a middle cannot deliver to an output module whose fiber
already carries the source wavelength; otherwise only a *full* fiber
blocks, because the middle converts freely.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.engine.cover import CoverSearch, find_cover_bits, iter_bits

__all__ = [
    "BLOCK_KINDS",
    "block_cause",
    "classify_kind",
    "free_middles",
    "probe_cover",
    "reach_map",
]

#: the four blocking causes ``classify_kind`` distinguishes on the
#: paper's Clos -- the contention modes its constructions trade off.
BLOCK_KINDS = (
    "saturated_wavelength",
    "converter_exhaustion",
    "full_middles",
    "no_cover",
)


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
    available: int,
    dest_mask: int,
    x: int,
    blockers: Sequence[int],
    stats: CoverSearch | None = None,
) -> tuple[dict[int, int] | None, dict[int, int]]:
    """One setup's routing decision: ``(cover, partial reach map)``.

    Scans available middles in ascending order; if one reaches every
    requested module, greedy would pick exactly that lowest ``j`` with
    the full gain, so the scan short-circuits to ``{j: dest_mask}``
    without calling the cover search (``stats.greedy_hit`` is set, as
    the search would set it).  Otherwise the accumulated reach map
    (equal to :func:`reach_map` when the scan completes) feeds
    :func:`~repro.engine.cover.find_cover_bits`, with ``stats``.
    ``cover`` is None when the request blocks; the reach map is then
    complete and is exactly the evidence :func:`block_cause` needs.
    When no middle reaches any requested module the search is not run
    at all, so ``stats.exact_nodes`` stays 0 where ``find_cover_bits``
    on the empty reach map would count its one root node.  ``stats`` is
    a plain positional parameter, not keyword-only: the batched replay
    calls this once per setup without it, and filling a keyword-only
    default costs a dict lookup per call.
    """
    coverable: dict[int, int] = {}
    scan = available
    while scan:
        low = scan & -scan
        scan ^= low
        j = low.bit_length() - 1
        reach = dest_mask & ~blockers[j]
        if reach == dest_mask:
            if stats is not None:
                stats.greedy_hit = True
            return {j: dest_mask}, coverable
        if reach:
            coverable[j] = reach
    if coverable:
        return find_cover_bits(dest_mask, coverable, x, stats=stats), coverable
    return None, coverable


def classify_kind(
    available: int,
    coverable: Mapping[int, int],
    dest_mask: int,
    msw_dominant: bool,
) -> str:
    """The blocking-cause kind for one blocked setup (BLOCK_KINDS)."""
    if available == 0:
        return "saturated_wavelength" if msw_dominant else "converter_exhaustion"
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
) -> dict[str, Any]:
    """The full ``explain_block``-shaped evidence dict for one blocked setup.

    Matches ``repro.obs.trace.CAUSE_SCHEMA``: alongside ``kind`` it
    carries the raw evidence masks, the requested modules, the
    unreachable subset, and per-module ``[module, middles_mask]`` pairs.
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
    return {
        "kind": classify_kind(available, coverable, dest_mask, msw_dominant),
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

