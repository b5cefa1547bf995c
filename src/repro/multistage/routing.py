"""The x-middle-switch routing strategy -- Lemma 4 made executable.

The paper (following [14]) routes each multicast connection through at
most ``x`` middle switches.  Lemma 4 (and its multiset generalization)
says a request with destination set ``D`` can be realized through
middle switches ``j_1..j_x`` iff the intersection of their destination
(multi)sets, restricted to ``D``, is null -- equivalently, iff every
``p`` in ``D`` is *coverable* by at least one chosen middle switch.

So routing is a set-cover problem with a cardinality cap.  We solve it
exactly:

1. **greedy first** -- pick the candidate covering the most uncovered
   destinations; this finds a cover quickly in the common case;
2. **exact fallback** -- depth-first search over candidate subsets of
   size <= ``x`` (with standard dominance pruning).  Only if the exact
   search fails is the request declared blocked, which is what makes
   the simulator a faithful test of the theorems: they promise a cover
   *exists*, not that greedy finds it.

The search runs on int bitmasks (:func:`find_cover_bits`, ``1 << p``
per output module), so set algebra is single-word
``&``/``|``/``bit_count`` arithmetic; :func:`find_cover` is its
label-set front end.  The tests pin it against a test-only frozenset
oracle (candidate ordering, greedy tie-breaking, DFS expansion order
and the final destination->switch assignment).

The Monte-Carlo estimators take a ``kernel`` argument (one of
``_KERNELS``): ``"bitmask"`` replays one network at a time,
``"batched"`` runs replications in lockstep through
:mod:`repro.perf.batch`.  Both use the same cover search.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.engine.cover import (
    CoverSearch,
    find_cover_bits,
    iter_bits,
    mask_of,
)

__all__ = [
    "CoverSearch",
    "find_cover",
    "find_cover_bits",
    "iter_bits",
    "mask_of",
]

#: the Monte-Carlo kernels.  ``"batched"`` routes single requests exactly
#: like ``"bitmask"`` (same cover search, same covers); it additionally
#: makes the estimators run all replications in lockstep through
#: :mod:`repro.perf.batch` instead of one network at a time.
_KERNELS = ("bitmask", "batched")


# The bitmask kernel (mask_of, iter_bits, CoverSearch, find_cover_bits)
# lives in repro.engine.cover -- the engine is the layer below this one
# -- and is re-exported here unchanged for every existing caller.


# -- public entry point ------------------------------------------------------


def find_cover(
    destinations: frozenset | set,
    coverable: Mapping[int, frozenset],
    max_switches: int,
    *,
    stats: CoverSearch | None = None,
) -> dict[int, list] | None:
    """Find <= ``max_switches`` middle switches covering ``destinations``.

    Args:
        destinations: output modules the request must reach (any sortable
            hashable labels).
        coverable: for each *available* middle switch, the set of output
            modules reachable through it right now (``D``-restricted or
            not -- extra elements are ignored).
        max_switches: the routing parameter ``x``.
        stats: optional search-statistics accumulator.

    Returns:
        ``{middle_switch: [assigned destinations]}`` or None if no cover
        of size <= ``max_switches`` exists (the request is blocked).

    Labels map to bits in sorted order and the search runs on
    :func:`find_cover_bits`.
    """
    destinations = frozenset(destinations)
    if not destinations:
        return {}
    # Map labels to bits in sorted order, so ascending-bit iteration in
    # the kernel equals sorted-label iteration.
    labels = sorted(destinations)
    index = {label: i for i, label in enumerate(labels)}
    dest_mask = (1 << len(labels)) - 1
    coverable_bits = {
        j: mask_of(index[p] for p in reach if p in index)
        for j, reach in coverable.items()
    }
    stats = stats if stats is not None else CoverSearch()
    cover_bits = find_cover_bits(
        dest_mask, coverable_bits, max_switches, stats=stats
    )
    if cover_bits is None:
        stats.cover = None
        return None
    cover = {
        j: [labels[i] for i in iter_bits(bits)] for j, bits in cover_bits.items()
    }
    stats.cover = cover
    return cover
