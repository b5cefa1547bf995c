"""Test-only oracle for Lemma-4 routing: the original frozenset search.

The runtime routes every request through the bitmask kernel
(:func:`repro.engine.cover.find_cover_bits`).  This module keeps the
pre-bitmask implementation as an independent oracle the tests pin the
kernel against:

* :func:`find_cover_reference` -- the frozenset cover search (same
  candidate ordering, greedy tie-breaking, DFS expansion order and final
  destination->switch assignment as the bitmask kernel);
* :func:`coverable_sets` -- each available middle switch's reachable
  destination modules, recomputed from the network's raw per-fiber
  wavelength masks (``fiber_masks()``) rather than from the engine's
  setup views;
* :func:`reference_cover` -- the two composed: the cover the network
  should pick for a request in its current state.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.models import Construction, MulticastModel
from repro.multistage.routing import CoverSearch


def _greedy(
    destinations: frozenset,
    coverable: Mapping[int, frozenset],
    candidates: Sequence[int],
    max_switches: int,
) -> dict[int, list] | None:
    """Max-coverage greedy; ties broken by position in ``candidates``."""
    uncovered = set(destinations)
    chosen: dict[int, list] = {}
    while uncovered and len(chosen) < max_switches:
        best = None
        best_gain: frozenset = frozenset()
        for j in candidates:
            if j in chosen:
                continue
            gain = coverable[j] & uncovered
            if len(gain) > len(best_gain):
                best, best_gain = j, frozenset(gain)
        if best is None or not best_gain:
            return None
        chosen[best] = sorted(best_gain)
        uncovered -= best_gain
    return chosen if not uncovered else None


def _exact(
    destinations: frozenset,
    coverable: Mapping[int, frozenset],
    candidates: Sequence[int],
    max_switches: int,
    stats: CoverSearch,
) -> dict[int, list] | None:
    # Keep only useful candidates, largest coverage first (helps pruning).
    useful = [j for j in candidates if coverable[j] & destinations]
    useful.sort(key=lambda j: -len(coverable[j] & destinations))

    def recurse(
        uncovered: frozenset, start: int, picked: list[int]
    ) -> list[int] | None:
        stats.exact_nodes += 1
        if not uncovered:
            return picked
        if len(picked) == max_switches:
            return None
        remaining_slots = max_switches - len(picked)
        # Bound: even taking the largest remaining coverages can't finish.
        best_possible = sum(
            sorted(
                (len(coverable[j] & uncovered) for j in useful[start:]),
                reverse=True,
            )[:remaining_slots]
        )
        if best_possible < len(uncovered):
            return None
        for index in range(start, len(useful)):
            j = useful[index]
            gain = coverable[j] & uncovered
            if not gain:
                continue
            result = recurse(uncovered - gain, index + 1, [*picked, j])
            if result is not None:
                return result
        return None

    picked = recurse(destinations, 0, [])
    if picked is None:
        return None
    # Assign each destination to the first picked switch that covers it.
    cover: dict[int, list] = {j: [] for j in picked}
    for p in sorted(destinations):
        for j in picked:
            if p in coverable[j]:
                cover[j].append(p)
                break
    return {j: ps for j, ps in cover.items() if ps}


def find_cover_reference(
    destinations: frozenset | set,
    coverable: Mapping[int, frozenset],
    max_switches: int,
    *,
    stats: CoverSearch | None = None,
) -> dict[int, list] | None:
    """The frozenset cover search; same contract as ``find_cover``."""
    destinations = frozenset(destinations)
    if not destinations:
        return {}
    if max_switches < 1:
        raise ValueError(f"max_switches must be >= 1, got {max_switches}")
    stats = stats if stats is not None else CoverSearch()
    candidates = sorted(coverable)
    greedy = _greedy(destinations, coverable, candidates, max_switches)
    if greedy is not None:
        stats.greedy_hit = True
        stats.cover = greedy
        return greedy
    exact = _exact(destinations, coverable, candidates, max_switches, stats)
    stats.cover = exact
    return exact


def coverable_sets(net, request) -> dict[int, frozenset[int]]:
    """Per available middle switch, the destination modules it can reach.

    Read straight off the raw per-fiber masks: a middle is
    available when its first-stage fiber from the source's input module
    can carry the connection (the source wavelength is free under the
    MSW-dominant construction; any wavelength is free under
    MAW-dominant), and it reaches output module ``p`` when its fiber to
    ``p`` can carry the delivery wavelength (the source's under
    MSW-dominant; the destinations' when the MSW endpoint model pins it;
    any free one otherwise).
    """
    topo = net.topology
    g = topo.input_module_of(request.source.port)
    source_wavelength = request.source.wavelength
    required: dict[int, int | None] = {}
    for destination in request.destinations:
        module = topo.output_module_of(destination.port)
        pinned = destination.wavelength if net.model is MulticastModel.MSW else None
        required.setdefault(module, pinned)
    k_full = (1 << topo.k) - 1
    msw_dominant = net.construction is Construction.MSW_DOMINANT
    in_mid, mid_out = net.fiber_masks()
    in_wave = in_mid[g]
    coverable: dict[int, frozenset[int]] = {}
    for j in range(topo.m):
        if j in net.failed_middles:
            continue
        if msw_dominant:
            if in_wave[j] >> source_wavelength & 1:
                continue
        elif in_wave[j] == k_full:
            continue
        out_wave = mid_out[j]
        reach = set()
        for p, pinned in required.items():
            if msw_dominant:
                free = not out_wave[p] >> source_wavelength & 1
            elif pinned is not None:
                free = not out_wave[p] >> pinned & 1
            else:
                free = out_wave[p] != k_full
            if free:
                reach.add(p)
        if reach:
            coverable[j] = frozenset(reach)
    return coverable


def reference_cover(net, request) -> dict[int, list] | None:
    """The cover the oracle picks for ``request`` in ``net``'s state.

    Ascending-index candidate order, the network's first-fit router.
    """
    modules = frozenset(
        net.topology.output_module_of(d.port) for d in request.destinations
    )
    return find_cover_reference(modules, coverable_sets(net, request), net.x)
