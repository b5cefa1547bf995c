"""The per-event fabric-state protocol and its int-bitplane implementation.

A :class:`FabricState` holds the occupancy bitplanes of ``B``
replications of one fabric family (same ``n, r, k``, construction,
model and ``x``; per-replication ``m``) and exposes exactly three
operations to the admission kernels:

* :meth:`~FabricState.setup_views` -- the per-replication first-stage
  blocked masks and second-stage blocker rows for a setup at
  ``(input module, source wavelength)``;
* :meth:`~FabricState.allocate` -- commit one replication's cover,
  returning the branch tuple needed to undo it;
* :meth:`~FabricState.free` -- release a previously allocated branch
  tuple.

:class:`PythonState` implements it with nested lists of unbounded
ints (bitplanes): no dependencies and any mask width.  Its layout
keeps the batch axis innermost on the blocked planes and outermost on
the blocker rows, so :meth:`~FabricState.setup_views` returns plain
sub-list references.
The serial network is a batch of one on it, and every batched replay
runs on it too.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any, Protocol

from repro.engine.cover import iter_bits
from repro.engine.geometry import FabricGeometry

__all__ = ["FabricState", "PythonState", "check_family", "static_masks"]

#: branch tuples -- ``(j, assigned_mask)`` per middle under the
#: MSW-dominant construction, ``(j, in_wavelength, deliveries)`` with
#: ``deliveries = ((p, out_wavelength), ...)`` under MAW-dominant.
Branches = tuple[tuple[Any, ...], ...]


class FabricState(Protocol):
    """The per-event state the admission kernels read and write."""

    geometries: tuple[FabricGeometry, ...]
    batch: int
    x: int
    msw_dominant: bool
    all_masks: list[int]
    failed_mask: int
    #: ``[b][sw]`` -> modules no middle can reach on that wavelength
    #: (the fabric model's static routing constraint); None for fabrics
    #: without one (the Clos -- the bitplanes then start all-zero,
    #: byte-identical to the pre-seam layout).
    static_unreach_masks: list[list[int]] | None

    def setup_views(
        self, g: int, sw: int
    ) -> tuple[Sequence[int], Sequence[Sequence[int]]]:
        """Per-replication ``(blocked masks, blocker rows)`` for a setup.

        ``blocked[b]`` is the first-stage blocked-middles mask out of
        input module ``g`` (source wavelength busy under MSW-dominant,
        fiber full under MAW-dominant); ``blockers[b][j]`` is the
        output-module mask middle ``j`` can *not* reach (second-stage
        fiber busy on the needed wavelength, or full when the model
        leaves the delivery wavelength free).
        """
        ...

    def allocate(
        self, b: int, g: int, sw: int, cover: Mapping[int, int]
    ) -> Branches:
        """Commit ``cover`` on replication ``b``; returns undo branches."""
        ...

    def free(self, b: int, g: int, sw: int, branches: Branches) -> None:
        """Release branches previously returned by :meth:`allocate`."""
        ...


def check_family(geometries: tuple[FabricGeometry, ...]) -> None:
    """Raise unless ``geometries`` is one non-empty fabric family."""
    if not geometries:
        raise ValueError("need at least one FabricGeometry")
    head = geometries[0]
    for geo in geometries[1:]:
        if geo.with_m(head.m) != head:
            raise ValueError(
                "batched state needs one fabric family (same n, r, k, "
                f"construction, model, x, fabric); got {head} vs {geo}"
            )


def static_masks(
    geometries: tuple[FabricGeometry, ...],
) -> tuple[list[list[list[int]]], list[list[int]]] | None:
    """The fabric model's static blocker seed, or None for Clos-like fabrics.

    Returns ``(blocks, unreach)`` where ``blocks[b][sw][j]`` is the
    module mask middle ``j`` can never reach on wavelength ``sw`` in
    replication ``b`` (OR-ed into the second-stage blocker planes at
    construction -- ``allocate``/``free`` only ever touch assigned
    bits, which are disjoint from the statics, so the seed persists)
    and ``unreach[b][sw]`` is their intersection over the middles --
    the ``awg_no_path`` evidence mask.
    """
    head = geometries[0]
    spec = head.fabric_spec
    if spec.reach_rule is None:
        return None
    r, k = head.r, head.k
    all_modules = (1 << r) - 1
    blocks: list[list[list[int]]] = []
    unreach: list[list[int]] = []
    for geo in geometries:
        per_sw_blocks: list[list[int]] = []
        per_sw_unreach: list[int] = []
        for sw in range(k):
            row = [spec.reach_rule(j, sw, r, k) for j in range(geo.m)]
            acc = all_modules
            for mask in row:
                acc &= mask
            per_sw_blocks.append(row)
            per_sw_unreach.append(acc)
        blocks.append(per_sw_blocks)
        unreach.append(per_sw_unreach)
    return blocks, unreach


class PythonState:
    """Int-bitplane fabric state: the serial network's and every batch's.

    Per replication ``b`` the whole fabric is a handful of bitplanes,
    laid out so the per-event views are sub-list references:

    * MSW-dominant: ``in_busy[g][w][b]`` (middles whose first-stage
      fiber from ``g`` carries ``w``) and ``out_busy[w][b][j]`` (output
      modules whose second-stage fiber from ``j`` carries ``w``);
    * MAW-dominant: per-fiber wavelength masks ``in_wave[g][b][j]`` /
      ``out_wave[b][j][p]`` with their aggregated full-fiber planes
      ``in_full[g][b]`` / ``out_full[b][j]``; ``out_busy[w][b][j]`` is
      maintained too and drives reachability when the endpoint model is
      MSW (delivery wavelength pinned to the source's).

    Wavelength picks default to first-fit (lowest free bit), the
    Monte-Carlo networks' policy; :meth:`allocate` takes a ``pick``
    hook for callers with another policy.  :meth:`busy_planes` is the
    read-only occupancy view, so the layout stays private here.
    :meth:`copy_lane` overwrites one replication's planes with
    another's, so the lockstep replay can run lanes that share a
    trajectory on one slot and split them where their routing can
    differ.
    """

    def __init__(self, geometries: Iterable[FabricGeometry]):
        geos = tuple(geometries)
        check_family(geos)
        head = geos[0]
        self.geometries = geos
        self.batch = len(geos)
        self.x = head.x
        self.msw_dominant = head.msw_dominant
        self.all_masks = [geo.all_middles_mask for geo in geos]
        self.failed_mask = 0
        self._model_msw = head.model_msw
        self._k_full = head.k_full
        r, k, batch = head.r, head.k, self.batch
        m_values = [geo.m for geo in geos]
        self._out_busy = [
            [[0] * m for m in m_values] for _ in range(k)
        ]
        if self.msw_dominant:
            self._in_busy = [
                [[0] * batch for _ in range(k)] for _ in range(r)
            ]
        else:
            self._in_wave = [[[0] * m for m in m_values] for _ in range(r)]
            self._in_full = [[0] * batch for _ in range(r)]
            self._out_wave = [[[0] * r for _ in range(m)] for m in m_values]
            self._out_full = [[0] * m for m in m_values]
        self.static_unreach_masks: list[list[int]] | None = None
        seed = static_masks(geos)
        if seed is not None:
            blocks, self.static_unreach_masks = seed
            for b in range(batch):
                for sw in range(k):
                    row = self._out_busy[sw][b]
                    for j, blk in enumerate(blocks[b][sw]):
                        row[j] |= blk

    def busy_planes(self, b: int = 0) -> tuple[list[list[int]], list[list[int]]]:
        """Replication ``b``'s busy channels, one plane per wavelength (a copy).

        Returns ``(in_planes, out_planes)``: bit ``j`` of
        ``in_planes[g][w]`` says wavelength ``w`` is busy on the fiber
        from input module ``g`` to middle ``j``; bit ``p`` of
        ``out_planes[w][j]`` says it is busy on the fiber from middle
        ``j`` to output module ``p``.  On a wavelength-routed fabric
        (MSW-dominant only) ``out_planes`` also carries the static reach
        blocks seeded at construction.
        """
        if self.msw_dominant:
            in_planes = [[plane[b] for plane in planes] for planes in self._in_busy]
            return in_planes, [list(plane[b]) for plane in self._out_busy]
        k, m = len(self._out_busy), self.geometries[b].m
        in_planes = [[0] * k for _ in self._in_wave]
        out_planes = [[0] * m for _ in range(k)]
        for planes, waves in zip(in_planes, self._in_wave):
            for j, mask in enumerate(waves[b]):
                for w in iter_bits(mask):
                    planes[w] |= 1 << j
        for j, fiber in enumerate(self._out_wave[b]):
            for p, mask in enumerate(fiber):
                for w in iter_bits(mask):
                    out_planes[w][j] |= 1 << p
        return in_planes, out_planes

    def copy_lane(self, src: int, dst: int) -> None:
        """Give replication ``dst`` ``src``'s occupancy on ``dst``'s middles.

        ``dst`` may not have more middles than ``src``; middles ``j <
        m_dst`` take ``src``'s planes (static reach blocks included,
        which depend on ``j``, never on ``m``).  Rows are overwritten in
        place, so the sub-list references :meth:`setup_views` handed
        out stay valid.
        """
        m = self.geometries[dst].m
        if m > self.geometries[src].m:
            raise ValueError(
                f"cannot copy replication {src} (m={self.geometries[src].m}) "
                f"into replication {dst} (m={m}): it has fewer middles"
            )
        keep = self.all_masks[dst]
        for planes in self._out_busy:
            planes[dst][:] = planes[src][:m]
        if self.msw_dominant:
            for rows in self._in_busy:
                for row in rows:
                    row[dst] = row[src] & keep
            return
        for waves in self._in_wave:
            waves[dst][:] = waves[src][:m]
        for row in self._in_full:
            row[dst] = row[src] & keep
        for fiber, source in zip(self._out_wave[dst], self._out_wave[src]):
            fiber[:] = source
        self._out_full[dst][:] = self._out_full[src][:m]

    def setup_views(
        self, g: int, sw: int
    ) -> tuple[Sequence[int], Sequence[Sequence[int]]]:
        if self.msw_dominant:
            return self._in_busy[g][sw], self._out_busy[sw]
        if self._model_msw:
            return self._in_full[g], self._out_busy[sw]
        return self._in_full[g], self._out_full

    def allocate(
        self,
        b: int,
        g: int,
        sw: int,
        cover: Mapping[int, int],
        pick: Callable[[int], int] | None = None,
    ) -> Branches:
        # ``pick(free_mask)`` chooses each MAW-dominant carrier (None is
        # first-fit): the in-fiber first, then every delivery in
        # ascending module order, against the state as allocated so far.
        branches: list[tuple[Any, ...]] = []
        if self.msw_dominant:
            row = self._out_busy[sw][b]
            busy_row = self._in_busy[g][sw]
            busy = busy_row[b]
            for j in sorted(cover):
                assigned = cover[j]
                busy |= 1 << j
                row[j] |= assigned
                branches.append((j, assigned))
            busy_row[b] = busy
            return tuple(branches)
        k_full = self._k_full
        waves = self._in_wave[g][b]
        full_row = self._in_full[g]
        for j in sorted(cover):
            free = k_full & ~waves[j]
            in_w = (free & -free).bit_length() - 1 if pick is None else pick(free)
            waves[j] |= 1 << in_w
            if waves[j] == k_full:
                full_row[b] |= 1 << j
            fiber = self._out_wave[b][j]
            deliveries = []
            assigned = cover[j]
            while assigned:
                low = assigned & -assigned
                assigned ^= low
                p = low.bit_length() - 1
                if self._model_msw:
                    out_w = sw
                else:
                    free_out = k_full & ~fiber[p]
                    out_w = (
                        (free_out & -free_out).bit_length() - 1
                        if pick is None
                        else pick(free_out)
                    )
                fiber[p] |= 1 << out_w
                if fiber[p] == k_full:
                    self._out_full[b][j] |= 1 << p
                self._out_busy[out_w][b][j] |= 1 << p
                deliveries.append((p, out_w))
            branches.append((j, in_w, tuple(deliveries)))
        return tuple(branches)

    def free(self, b: int, g: int, sw: int, branches: Branches) -> None:
        if self.msw_dominant:
            row = self._out_busy[sw][b]
            busy_row = self._in_busy[g][sw]
            busy = busy_row[b]
            for j, assigned in branches:
                busy &= ~(1 << j)
                row[j] &= ~assigned
            busy_row[b] = busy
            return
        k_full = self._k_full
        waves = self._in_wave[g][b]
        full_row = self._in_full[g]
        for j, in_w, deliveries in branches:
            if waves[j] == k_full:
                full_row[b] &= ~(1 << j)
            waves[j] &= ~(1 << in_w)
            fiber = self._out_wave[b][j]
            for p, out_w in deliveries:
                if fiber[p] == k_full:
                    self._out_full[b][j] &= ~(1 << p)
                fiber[p] &= ~(1 << out_w)
                self._out_busy[out_w][b][j] &= ~(1 << p)

