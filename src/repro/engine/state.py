"""Interchangeable fabric-state backends behind one protocol.

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

Two backends implement it bit-identically:

* :class:`PythonState` -- nested lists of unbounded ints (bitplanes);
  no dependencies, and the fastest backend on CPython for paper-scale
  networks;
* :class:`NumpyState` -- the same masks packed into ``int64``
  structure-of-arrays (one row per replication), which vectorizes the
  per-event view extraction across the batch; mask families wider than
  one signed word get a trailing word axis per the fabric's
  :class:`~repro.engine.planes.PlaneLayout` (``W == 1`` keeps the
  historical single-word layout bit for bit).

The storage layouts are chosen so :meth:`~FabricState.setup_views` is
(near) allocation-free: the python backend keeps the batch axis
innermost on the blocked planes and outermost on the blocker rows, so
both views are plain sub-list references; the numpy backend slices and
``.tolist()``-s, which is one vectorized pass.  A future numba/CUDA
backend plugs in through :func:`repro.engine.backends.register_backend`
by conforming to this protocol.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any, Protocol

from repro.engine.cover import iter_bits
from repro.engine.geometry import FabricGeometry
from repro.engine.planes import (
    WORD_BITS,
    WORD_MASK,
    PlaneLayout,
    combine_words,
    join_words,
)

try:  # NumPy is optional everywhere in this repo.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

__all__ = ["FabricState", "NumpyState", "PythonState"]

#: branch tuples -- ``(j, assigned_mask)`` per middle under the
#: MSW-dominant construction, ``(j, in_wavelength, deliveries)`` with
#: ``deliveries = ((p, out_wavelength), ...)`` under MAW-dominant.
Branches = tuple[tuple[Any, ...], ...]


class FabricState(Protocol):
    """Protocol every fabric-state backend conforms to."""

    geometries: tuple[FabricGeometry, ...]
    batch: int
    x: int
    msw_dominant: bool
    all_masks: list[int]
    failed_mask: int
    plane_layout: PlaneLayout
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


def _check_family(geometries: tuple[FabricGeometry, ...]) -> None:
    if not geometries:
        raise ValueError("need at least one FabricGeometry")
    head = geometries[0]
    for geo in geometries[1:]:
        if geo.with_m(head.m) != head:
            raise ValueError(
                "batched state needs one fabric family (same n, r, k, "
                f"construction, model, x, fabric); got {head} vs {geo}"
            )


def _static_masks(
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


def _set_bit(row: Any, bit: int) -> None:
    """Set one bit in a little-endian word row (1-D int64 view)."""
    row[bit // WORD_BITS] |= 1 << (bit % WORD_BITS)


def _clear_bit(row: Any, bit: int) -> None:
    """Clear one bit in a little-endian word row (1-D int64 view)."""
    row[bit // WORD_BITS] &= ~(1 << (bit % WORD_BITS))


def _or_mask(row: Any, mask: int) -> None:
    """OR a (possibly wide) Python-int mask into a word row."""
    wi = 0
    while mask:
        row[wi] |= mask & WORD_MASK
        mask >>= WORD_BITS
        wi += 1


def _andnot_mask(row: Any, mask: int) -> None:
    """Clear a (possibly wide) Python-int mask's bits in a word row."""
    wi = 0
    while mask:
        row[wi] &= ~(mask & WORD_MASK)
        mask >>= WORD_BITS
        wi += 1


class PythonState:
    """Int-bitplane fabric state (the dependency-free backend).

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
        self.plane_layout = PlaneLayout.for_fabric(
            max(geo.m for geo in geos), head.r, head.k
        )
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
        seed = _static_masks(geos)
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


class NumpyState:
    """Int64 structure-of-arrays fabric state (vectorized views).

    Same event-level decisions as :class:`PythonState`, bit for bit;
    the batch dimension is the leading axis of every array, so the
    per-event views for *all* replications come out of one vectorized
    slice + ``.tolist()`` (the cover search itself then runs per
    replication on plain ints).  When any of ``m, r, k`` exceeds one
    signed word (:data:`~repro.engine.planes.WORD_BITS` bits), the
    affected planes carry a trailing little-endian word axis
    (``[..., W]``) and the views combine words back into Python ints in
    one vectorized pass per word; the ``W == 1`` layout is unchanged
    from the single-word backend, bit for bit and byte for byte.
    """

    def __init__(self, geometries: Iterable[FabricGeometry]):
        if _np is None:  # pragma: no cover - registry gates first
            raise ValueError("NumpyState requires numpy")
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
        m_max = max(geo.m for geo in geos)
        layout = PlaneLayout.for_fabric(m_max, r, k)
        self.plane_layout = layout
        self._multiword = layout.multiword
        if not self._multiword:
            self._out_busy = _np.zeros((batch, m_max, k), dtype=_np.int64)
            if self.msw_dominant:
                self._in_busy = _np.zeros((batch, r, k), dtype=_np.int64)
            else:
                self._in_wave = _np.zeros((batch, r, m_max), dtype=_np.int64)
                self._in_full = _np.zeros((batch, r), dtype=_np.int64)
                self._out_wave = _np.zeros((batch, m_max, r), dtype=_np.int64)
                self._out_full = _np.zeros((batch, m_max), dtype=_np.int64)
        else:
            wm, wr, wk = layout.m_words, layout.r_words, layout.k_words
            self._out_busy = _np.zeros((batch, m_max, k, wr), dtype=_np.int64)
            if self.msw_dominant:
                self._in_busy = _np.zeros((batch, r, k, wm), dtype=_np.int64)
            else:
                self._in_wave = _np.zeros((batch, r, m_max, wk), dtype=_np.int64)
                self._in_full = _np.zeros((batch, r, wm), dtype=_np.int64)
                self._out_wave = _np.zeros((batch, m_max, r, wk), dtype=_np.int64)
                self._out_full = _np.zeros((batch, m_max, wr), dtype=_np.int64)
        self.static_unreach_masks: list[list[int]] | None = None
        seed = _static_masks(geos)
        if seed is not None:
            blocks, self.static_unreach_masks = seed
            for b in range(batch):
                for sw in range(k):
                    for j, blk in enumerate(blocks[b][sw]):
                        if not blk:
                            continue
                        if self._multiword:
                            _or_mask(self._out_busy[b, j, sw], blk)
                        else:
                            self._out_busy[b, j, sw] |= blk

    def setup_views(
        self, g: int, sw: int
    ) -> tuple[Sequence[int], Sequence[Sequence[int]]]:
        if self.msw_dominant:
            blocked = self._in_busy[:, g, sw]
            blockers = self._out_busy[:, :, sw]
        else:
            blocked = self._in_full[:, g]
            blockers = (
                self._out_busy[:, :, sw] if self._model_msw else self._out_full
            )
        if self._multiword:
            return combine_words(blocked).tolist(), combine_words(
                blockers
            ).tolist()
        return blocked.tolist(), blockers.tolist()

    def allocate(
        self, b: int, g: int, sw: int, cover: Mapping[int, int]
    ) -> Branches:
        if self._multiword:
            return self._allocate_mw(b, g, sw, cover)
        branches: list[tuple[Any, ...]] = []
        if self.msw_dominant:
            busy = int(self._in_busy[b, g, sw])
            for j in sorted(cover):
                assigned = cover[j]
                busy |= 1 << j
                self._out_busy[b, j, sw] |= assigned
                branches.append((j, assigned))
            self._in_busy[b, g, sw] = busy
            return tuple(branches)
        k_full = self._k_full
        for j in sorted(cover):
            waves = int(self._in_wave[b, g, j])
            free = k_full & ~waves
            in_w = (free & -free).bit_length() - 1
            waves |= 1 << in_w
            self._in_wave[b, g, j] = waves
            if waves == k_full:
                self._in_full[b, g] |= 1 << j
            deliveries = []
            assigned = cover[j]
            while assigned:
                low = assigned & -assigned
                assigned ^= low
                p = low.bit_length() - 1
                fiber = int(self._out_wave[b, j, p])
                if self._model_msw:
                    out_w = sw
                else:
                    free_out = k_full & ~fiber
                    out_w = (free_out & -free_out).bit_length() - 1
                fiber |= 1 << out_w
                self._out_wave[b, j, p] = fiber
                if fiber == k_full:
                    self._out_full[b, j] |= 1 << p
                self._out_busy[b, j, out_w] |= 1 << p
                deliveries.append((p, out_w))
            branches.append((j, in_w, tuple(deliveries)))
        return tuple(branches)

    def free(self, b: int, g: int, sw: int, branches: Branches) -> None:
        if self._multiword:
            return self._free_mw(b, g, sw, branches)
        if self.msw_dominant:
            busy = int(self._in_busy[b, g, sw])
            for j, assigned in branches:
                busy &= ~(1 << j)
                self._out_busy[b, j, sw] &= ~assigned
            self._in_busy[b, g, sw] = busy
            return
        k_full = self._k_full
        for j, in_w, deliveries in branches:
            waves = int(self._in_wave[b, g, j])
            if waves == k_full:
                self._in_full[b, g] &= ~(1 << j)
            self._in_wave[b, g, j] = waves & ~(1 << in_w)
            for p, out_w in deliveries:
                fiber = int(self._out_wave[b, j, p])
                if fiber == k_full:
                    self._out_full[b, j] &= ~(1 << p)
                self._out_wave[b, j, p] = fiber & ~(1 << out_w)
                self._out_busy[b, j, out_w] &= ~(1 << p)

    # -- multi-word (W > 1) paths; same decisions as above, word rows
    #    addressed through the plane-layout packing ------------------------

    def _allocate_mw(
        self, b: int, g: int, sw: int, cover: Mapping[int, int]
    ) -> Branches:
        branches: list[tuple[Any, ...]] = []
        if self.msw_dominant:
            busy_row = self._in_busy[b, g, sw]
            for j in sorted(cover):
                _set_bit(busy_row, j)
                _or_mask(self._out_busy[b, j, sw], cover[j])
                branches.append((j, cover[j]))
            return tuple(branches)
        k_full = self._k_full
        for j in sorted(cover):
            wave_row = self._in_wave[b, g, j]
            waves = join_words(wave_row)
            free = k_full & ~waves
            in_w = (free & -free).bit_length() - 1
            waves |= 1 << in_w
            _set_bit(wave_row, in_w)
            if waves == k_full:
                _set_bit(self._in_full[b, g], j)
            deliveries = []
            assigned = cover[j]
            while assigned:
                low = assigned & -assigned
                assigned ^= low
                p = low.bit_length() - 1
                fiber_row = self._out_wave[b, j, p]
                fiber = join_words(fiber_row)
                if self._model_msw:
                    out_w = sw
                else:
                    free_out = k_full & ~fiber
                    out_w = (free_out & -free_out).bit_length() - 1
                fiber |= 1 << out_w
                _set_bit(fiber_row, out_w)
                if fiber == k_full:
                    _set_bit(self._out_full[b, j], p)
                _set_bit(self._out_busy[b, j, out_w], p)
                deliveries.append((p, out_w))
            branches.append((j, in_w, tuple(deliveries)))
        return tuple(branches)

    def _free_mw(self, b: int, g: int, sw: int, branches: Branches) -> None:
        if self.msw_dominant:
            busy_row = self._in_busy[b, g, sw]
            for j, assigned in branches:
                _clear_bit(busy_row, j)
                _andnot_mask(self._out_busy[b, j, sw], assigned)
            return
        k_full = self._k_full
        for j, in_w, deliveries in branches:
            wave_row = self._in_wave[b, g, j]
            if join_words(wave_row) == k_full:
                _clear_bit(self._in_full[b, g], j)
            _clear_bit(wave_row, in_w)
            for p, out_w in deliveries:
                fiber_row = self._out_wave[b, j, p]
                if join_words(fiber_row) == k_full:
                    _clear_bit(self._out_full[b, j], p)
                _clear_bit(fiber_row, out_w)
                _clear_bit(self._out_busy[b, j, out_w], p)
