"""The per-event fabric state: int bitplanes of ``B`` replications.

A :class:`PythonState` holds the occupancy bitplanes of ``B``
replications of one fabric family (same ``n, r, k``, construction,
model and ``x``; per-replication ``m``) and exposes exactly three
operations to the admission kernels:

* :meth:`~PythonState.setup_views` -- the per-replication first-stage
  blocked masks and second-stage blocker rows for a setup at
  ``(input module, source wavelength)``;
* :meth:`~PythonState.allocate` -- commit one replication's cover,
  returning the branch tuple needed to undo it;
* :meth:`~PythonState.free` -- release a previously allocated branch
  tuple.

The bitplanes are nested lists of unbounded ints: no dependencies and
any mask width.  The layout keeps the batch axis innermost on the
blocked planes and outermost on the blocker rows, so
:meth:`~PythonState.setup_views` returns plain sub-list references.
The serial network is a batch of one on it, and every batched replay
runs on it too.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.engine.geometry import FabricGeometry

__all__ = ["PythonState"]

#: branch tuples -- ``(j, assigned_mask)`` per middle under the
#: MSW-dominant construction, ``(j, in_wavelength, deliveries)`` with
#: ``deliveries = ((p, out_wavelength), ...)`` under MAW-dominant.
Branches = tuple[tuple[Any, ...], ...]


def _check_family(geometries: tuple[FabricGeometry, ...]) -> None:
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

    Wavelength picks are first-fit (lowest free bit).  MAW-dominant
    admission reads only the full-fiber planes (and, under the MSW
    model, ``out_busy`` on the pinned delivery wavelength), so the
    carrier a pick chooses never changes a later admission.
    :meth:`busy_planes` is the read-only occupancy view, so the layout
    stays private here.
    :meth:`copy_lane` overwrites one replication's planes with
    another's, so the lockstep replay can run lanes that share a
    trajectory on one slot and split them where their routing can
    differ.
    """

    def __init__(self, geometries: Iterable[FabricGeometry]):
        geos = tuple(geometries)
        _check_family(geos)
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

    def busy_planes(self, b: int = 0) -> tuple[list[list[int]], list[list[int]]]:
        """Replication ``b``'s busy channels, one plane per wavelength (a copy).

        Returns ``(in_planes, out_planes)``: bit ``j`` of
        ``in_planes[g][w]`` says wavelength ``w`` is busy on the fiber
        from input module ``g`` to middle ``j``; bit ``p`` of
        ``out_planes[w][j]`` says it is busy on the fiber from middle
        ``j`` to output module ``p``.
        """
        if self.msw_dominant:
            in_planes = [[plane[b] for plane in planes] for planes in self._in_busy]
            return in_planes, [list(plane[b]) for plane in self._out_busy]
        k, m = len(self._out_busy), self.geometries[b].m
        in_planes = [[0] * k for _ in self._in_wave]
        out_planes = [[0] * m for _ in range(k)]
        # Lowest-bit loops inline: the exact search reads these planes
        # for every state signature it computes.
        for planes, waves in zip(in_planes, self._in_wave):
            for j, mask in enumerate(waves[b]):
                while mask:
                    low = mask & -mask
                    mask ^= low
                    planes[low.bit_length() - 1] |= 1 << j
        for j, fiber in enumerate(self._out_wave[b]):
            for p, mask in enumerate(fiber):
                while mask:
                    low = mask & -mask
                    mask ^= low
                    out_planes[low.bit_length() - 1][j] |= 1 << p
        return in_planes, out_planes

    def copy_lane(self, src: int, dst: int) -> None:
        """Give replication ``dst`` ``src``'s occupancy on ``dst``'s middles.

        ``dst`` may not have more middles than ``src``; middles ``j <
        m_dst`` take ``src``'s planes.  Rows are overwritten in place, so
        the sub-list references :meth:`setup_views` handed out stay
        valid.
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
        """Per-replication ``(blocked masks, blocker rows)`` for a setup.

        ``blocked[b]`` is the first-stage blocked-middles mask out of
        input module ``g`` (source wavelength busy under MSW-dominant,
        fiber full under MAW-dominant); ``blockers[b][j]`` is the
        output-module mask middle ``j`` can *not* reach (second-stage
        fiber busy on the needed wavelength, or full when the model
        leaves the delivery wavelength free).
        """
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
    ) -> Branches:
        """Commit ``cover`` on replication ``b``; returns undo branches."""
        branches: list[tuple[Any, ...]] = []
        if self.msw_dominant:
            row = self._out_busy[sw][b]
            busy_row = self._in_busy[g][sw]
            if len(cover) == 1:
                # almost every cover: one middle, one branch
                ((j, assigned),) = cover.items()
                busy_row[b] |= 1 << j
                row[j] |= assigned
                return ((j, assigned),)
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
            in_w = (free & -free).bit_length() - 1
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
                    out_w = (free_out & -free_out).bit_length() - 1
                fiber[p] |= 1 << out_w
                if fiber[p] == k_full:
                    self._out_full[b][j] |= 1 << p
                self._out_busy[out_w][b][j] |= 1 << p
                deliveries.append((p, out_w))
            branches.append((j, in_w, tuple(deliveries)))
        return tuple(branches)

    def free(self, b: int, g: int, sw: int, branches: Branches) -> None:
        """Release branches previously returned by :meth:`allocate`."""
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

