"""Bitmask set-cover search -- Lemma 4's routing core.

The paper routes each multicast connection through at most ``x`` middle
switches; Lemma 4 reduces admission to a set-cover problem with a
cardinality cap.  :func:`find_cover_bits` solves it exactly on integer
bitmasks: max-coverage greedy first, exact depth-first search with
dominance pruning as the fallback, so a request is declared blocked
only when *no* cover of size <= ``x`` exists.

This module is the bottom of the engine -- pure functions over ints,
no repro imports -- and is re-exported unchanged through
:mod:`repro.multistage.routing`.  The equivalence tests pin it against
a test-only frozenset oracle (bit-identical covers: candidate
ordering, greedy tie-breaking, DFS expansion order and the final
destination->switch assignment).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

__all__ = [
    "CoverSearch",
    "find_cover_bits",
    "iter_bits",
    "mask_of",
]


def mask_of(items: Iterable[int]) -> int:
    """Bitmask with bit ``i`` set for each ``i`` in ``items``."""
    mask = 0
    for item in items:
        mask |= 1 << item
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class CoverSearch:
    """Statistics of one cover search (exposed for tests/benchmarks)."""

    greedy_hit: bool = False
    exact_nodes: int = 0
    cover: dict[int, list[int]] | None = field(default=None)


def _greedy_bits(
    dest_mask: int,
    coverable: Mapping[int, int],
    candidates: Sequence[int],
    max_switches: int,
) -> dict[int, int] | None:
    """Max-coverage greedy on bitmasks; ties broken by candidate order."""
    uncovered = dest_mask
    chosen: dict[int, int] = {}
    while uncovered and len(chosen) < max_switches:
        best = None
        best_gain = 0
        best_count = 0
        for j in candidates:
            if j in chosen:
                continue
            gain = coverable[j] & uncovered
            count = gain.bit_count()
            if count > best_count:
                best, best_gain, best_count = j, gain, count
        if best is None:
            return None
        chosen[best] = best_gain
        uncovered &= ~best_gain
    return chosen if not uncovered else None


def _exact_bits(
    dest_mask: int,
    coverable: Mapping[int, int],
    candidates: Sequence[int],
    max_switches: int,
    stats: CoverSearch,
) -> dict[int, int] | None:
    # Keep only useful candidates, largest coverage first (helps pruning).
    useful = [j for j in candidates if coverable[j] & dest_mask]
    useful.sort(key=lambda j: -(coverable[j] & dest_mask).bit_count())
    picked = _exact_pick(
        dest_mask, 0, [], useful, coverable, max_switches, stats
    )
    if picked is None:
        return None
    # Assign each destination to the first picked switch that covers it.
    cover: dict[int, int] = {j: 0 for j in picked}
    for p in iter_bits(dest_mask):
        bit = 1 << p
        for j in picked:
            if coverable[j] & bit:
                cover[j] |= bit
                break
    return {j: bits for j, bits in cover.items() if bits}


def _exact_pick(
    uncovered: int,
    start: int,
    picked: list[int],
    useful: Sequence[int],
    coverable: Mapping[int, int],
    max_switches: int,
    stats: CoverSearch,
) -> list[int] | None:
    """The first ``picked`` extension from ``useful[start:]`` that covers
    ``uncovered`` within ``max_switches`` middles, depth first, or None.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, which would keep every search's lists alive until
    the next garbage collection.
    """
    stats.exact_nodes += 1
    if not uncovered:
        return picked
    if len(picked) == max_switches:
        return None
    remaining_slots = max_switches - len(picked)
    # Bound: even taking the largest remaining coverages can't finish.
    best_possible = sum(
        sorted(
            ((coverable[j] & uncovered).bit_count() for j in useful[start:]),
            reverse=True,
        )[:remaining_slots]
    )
    if best_possible < uncovered.bit_count():
        return None
    for index in range(start, len(useful)):
        j = useful[index]
        gain = coverable[j] & uncovered
        if not gain:
            continue
        result = _exact_pick(
            uncovered & ~gain, index + 1, [*picked, j],
            useful, coverable, max_switches, stats,
        )
        if result is not None:
            return result
    return None


def find_cover_bits(
    dest_mask: int,
    coverable: Mapping[int, int],
    max_switches: int,
    *,
    stats: CoverSearch | None = None,
) -> dict[int, int] | None:
    """Bitmask core of :func:`repro.multistage.routing.find_cover`.

    Args:
        dest_mask: bitmask of the output modules the request must reach.
        coverable: per available middle switch, the bitmask of output
            modules reachable through it right now (extra bits outside
            ``dest_mask`` are ignored).
        max_switches: the routing parameter ``x``.
        stats: optional search-statistics accumulator (``stats.cover``
            is left untouched here; the wrappers fill it).

    Returns:
        ``{middle_switch: assigned destination bitmask}`` or None when no
        cover of size <= ``max_switches`` exists.
    """
    if not dest_mask:
        return {}
    if max_switches < 1:
        raise ValueError(f"max_switches must be >= 1, got {max_switches}")
    candidates = sorted(coverable)
    greedy = _greedy_bits(dest_mask, coverable, candidates, max_switches)
    if greedy is not None:
        if stats is not None:
            stats.greedy_hit = True
        return greedy
    return _exact_bits(
        dest_mask,
        coverable,
        candidates,
        max_switches,
        stats if stats is not None else CoverSearch(),
    )
