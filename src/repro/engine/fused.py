"""Fused batch-replay backend -- the whole event loop in one kernel.

The lockstep batch engine's per-event cost on the ``python`` backend is
Python dispatch: every setup crosses the interpreter boundary once per
replication (``probe_cover`` on int bitplanes).  This module removes
that dispatch entirely: :class:`FusedState` takes the compiled
traffic stream *lowered to flat numpy arrays* (see
:func:`repro.perf.batch.lower_stream`) and replays the entire event
loop -- availability scan, Lemma-4 cover selection (greedy + exact
depth-first search with the bound pruning of
:func:`repro.engine.cover.find_cover_bits`), admit/release bitplane
updates and per-cause block classification -- inside one
nopython-compilable kernel per ``(stream, batch)`` pair.  The kernel
returns per-replication blocked counts, release counts and
:data:`~repro.engine.kernel.ALL_BLOCK_KINDS` histograms (cause codes
are indices into that tuple) with zero Python in the hot loop.

One kernel source serves both ways of running it:

* with numba installed, the kernel is ``@njit``-compiled on first use
  (``cache=True``, so the machine code persists across processes);
* without numba, :func:`missing_requirement` reports the backend
  unavailable and ``auto`` resolution falls back to ``python``.
  :func:`_kernel` then returns the very same Python function,
  uncompiled: the identity suites and ``bench_perf.py`` reach it by
  patching :func:`missing_requirement` (slow, but bit-identical by
  construction), which is how they exercise the fused program on hosts
  without numba.

:class:`FusedState` holds the bitplanes as int64 structure-of-arrays
(batch axis first), with a trailing ``[..., W]`` word axis per
:class:`~repro.engine.planes.PlaneLayout` when a mask family is wider
than one int64 word; it has no per-event protocol, only the
whole-stream :meth:`FusedState.replay_ops` entry point the batch driver
calls.  There is one kernel, :func:`_replay_loop`, and it is
word-generic: every mask is a row of ``W`` int64 words, and
single-word fabrics are simply the ``W == 1`` case (their planes are
passed as ``[..., 1]`` views of the unchanged single-word arrays).
Bit-identity with the python backend -- per-replication counts, end
bitplanes *and* ``classify_block`` cause dicts -- is asserted by
``tests/engine/test_fused.py``, the two-way suites in
``tests/perf/test_batch.py`` and ``tests/engine/test_wide.py``, and the
``fused``/``wide`` sections of ``bench_perf.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any, Protocol

from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import ALL_BLOCK_KINDS, block_cause
from repro.engine.planes import (
    WORD_BITS,
    PlaneLayout,
    join_words,
    pack_masks,
    split_mask,
)
from repro.engine.state import check_family, static_masks

try:  # NumPy is optional everywhere in this repo.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

try:  # numba is optional too: [fused] extra, never a hard dependency.
    from numba import njit as _njit  # type: ignore[import-not-found]

    NUMBA_AVAILABLE = True
except ImportError:
    _njit = None
    NUMBA_AVAILABLE = False

__all__ = [
    "NUMBA_AVAILABLE",
    "FusedReplay",
    "FusedState",
    "LoweredOps",
    "missing_requirement",
]


class LoweredOps(Protocol):
    """The flat-array form of one compiled traffic stream.

    Produced by :func:`repro.perf.batch.lower_stream`; all arrays are
    ``int64`` with one entry per event, ``slot`` is the dense
    connection index (each connection id maps to one slot, shared by
    its setup and teardown ops).
    """

    tag: Any
    slot: Any
    g: Any
    sw: Any
    dest: Any
    n_slots: int
    n_setups: int


def missing_requirement() -> str | None:
    """Why the fused backend cannot run here, or None when it can."""
    if _np is None:
        return "numpy is not installed"
    if not NUMBA_AVAILABLE:
        return "numba is not installed"
    return None


# -- the kernel --------------------------------------------------------------
#
# Everything below the wrapper is written in the nopython subset: int64
# scalars and arrays, while-loops over set bits, no Python objects.  The
# same source runs compiled (numba) and interpreted (fallback), so the
# two modes cannot diverge.  Popcount and lowest-bit-index are loops
# rather than SWAR tricks on purpose: multiply-based popcount overflows
# int64 (wrapping under numba, promoting under CPython), which would
# break the compiled-vs-interpreted bit-identity this module guarantees.
# Masks are rows of little-endian words (trailing axis, W =
# ceil(bits / WORD_BITS) per mask family); every mask op is a short
# loop over words.


def _low_index(v: int) -> int:
    # v != 0; index of the lowest set bit.
    low = v & -v
    idx = 0
    while low > 1:
        low >>= 1
        idx += 1
    return idx


#: usable bits per plane word inside the kernel (= planes.WORD_BITS,
#: spelled as a literal-backed global so numba folds it).
_WB = WORD_BITS


def _find_cover(  # noqa: PLR0912 - mirrors find_cover_bits exactly
    dest_w: Any,
    wr: int,
    x: int,
    ncov: int,
    cov_j: Any,
    cov_reach: Any,
    cover_j: Any,
    cover_mask: Any,
    use_j: Any,
    use_reach: Any,
    use_cnt: Any,
    unc: Any,
    pos: Any,
    picked_j: Any,
    picked_reach: Any,
    top: Any,
    uncov_w: Any,
) -> int:
    """Lemma-4 cover selection on the scratch arrays; returns cover size.

    Bit-for-bit the decision procedure of
    :func:`repro.engine.cover.find_cover_bits` on candidates already in
    ascending-``j`` order: max-coverage greedy with first-candidate tie
    breaking, then the exact depth-first search with the top-``rem``
    coverage bound, then first-picked-wins destination assignment.
    ``dest_w`` and every reach/cover mask are ``wr``-word rows.
    Returns 0 when no cover of size <= ``x`` exists.
    """
    # -- greedy (ties broken by candidate order = ascending j) --
    for wi in range(wr):
        uncov_w[wi] = dest_w[wi]
    n_chosen = 0
    while n_chosen < x:
        any_unc = False
        for wi in range(wr):
            if uncov_w[wi] != 0:
                any_unc = True
        if not any_unc:
            break
        best = -1
        best_count = 0
        for c in range(ncov):
            taken = False
            for t in range(n_chosen):
                if cover_j[t] == cov_j[c]:
                    taken = True
                    break
            if taken:
                continue
            cnt = 0
            for wi in range(wr):
                v = cov_reach[c, wi] & uncov_w[wi]
                while v:
                    v &= v - 1
                    cnt += 1
            if cnt > best_count:
                best = c
                best_count = cnt
        if best < 0:
            break
        cover_j[n_chosen] = cov_j[best]
        for wi in range(wr):
            gain = cov_reach[best, wi] & uncov_w[wi]
            cover_mask[n_chosen, wi] = gain
            uncov_w[wi] &= ~gain
        n_chosen += 1
    all_covered = True
    for wi in range(wr):
        if uncov_w[wi] != 0:
            all_covered = False
    if all_covered:
        return n_chosen

    # -- exact search: stable sort candidates by descending coverage --
    n_use = 0
    for c in range(ncov):
        cnt = 0
        for wi in range(wr):
            v = cov_reach[c, wi]
            while v:
                v &= v - 1
                cnt += 1
        ins = n_use
        while ins > 0 and use_cnt[ins - 1] < cnt:
            use_j[ins] = use_j[ins - 1]
            for wi in range(wr):
                use_reach[ins, wi] = use_reach[ins - 1, wi]
            use_cnt[ins] = use_cnt[ins - 1]
            ins -= 1
        use_j[ins] = cov_j[c]
        for wi in range(wr):
            use_reach[ins, wi] = cov_reach[c, wi]
        use_cnt[ins] = cnt
        n_use += 1

    # -- iterative depth-first search with the coverage bound --
    for wi in range(wr):
        unc[0, wi] = dest_w[wi]
    pos[0] = 0
    depth = 0
    n_picked = -1
    entering = True
    while True:
        if entering:
            u_zero = True
            u_cnt = 0
            for wi in range(wr):
                v = unc[depth, wi]
                if v != 0:
                    u_zero = False
                while v:
                    v &= v - 1
                    u_cnt += 1
            if u_zero:
                n_picked = depth
                break
            ok = False
            if depth < x:
                rem = x - depth
                for t in range(rem):
                    top[t] = 0
                for i in range(pos[depth], n_use):
                    cnt = 0
                    for wi in range(wr):
                        v = use_reach[i, wi] & unc[depth, wi]
                        while v:
                            v &= v - 1
                            cnt += 1
                    mni = 0
                    for t in range(1, rem):
                        if top[t] < top[mni]:
                            mni = t
                    if cnt > top[mni]:
                        top[mni] = cnt
                bound = 0
                for t in range(rem):
                    bound += top[t]
                ok = bound >= u_cnt
            if ok:
                entering = False
            else:
                depth -= 1
                if depth < 0:
                    break
                pos[depth] += 1
                entering = False
        else:
            i = pos[depth]
            descended = False
            while i < n_use:
                any_gain = False
                for wi in range(wr):
                    if use_reach[i, wi] & unc[depth, wi]:
                        any_gain = True
                if any_gain:
                    picked_j[depth] = use_j[i]
                    for wi in range(wr):
                        picked_reach[depth, wi] = use_reach[i, wi]
                        unc[depth + 1, wi] = unc[depth, wi] & ~use_reach[i, wi]
                    pos[depth] = i
                    pos[depth + 1] = i + 1
                    depth += 1
                    entering = True
                    descended = True
                    break
                i += 1
            if not descended:
                depth -= 1
                if depth < 0:
                    break
                pos[depth] += 1
    if n_picked < 0:
        return 0

    # -- assign each destination to the first picked switch covering it --
    for t in range(n_picked):
        for wi in range(wr):
            cover_mask[t, wi] = 0
    for wi in range(wr):
        rem_dest = dest_w[wi]
        while rem_dest:
            lowp = rem_dest & -rem_dest
            rem_dest ^= lowp
            for t in range(n_picked):
                if picked_reach[t, wi] & lowp:
                    cover_mask[t, wi] |= lowp
                    break
    n_cover = 0
    for t in range(n_picked):
        nonzero = False
        for wi in range(wr):
            if cover_mask[t, wi] != 0:
                nonzero = True
        if nonzero:
            cover_j[n_cover] = picked_j[t]
            for wi in range(wr):
                cover_mask[n_cover, wi] = cover_mask[t, wi]
            n_cover += 1
    return n_cover


def _replay_loop(  # noqa: PLR0912, PLR0915 - the fused hot loop
    op_tag: Any,
    op_slot: Any,
    op_g: Any,
    op_sw: Any,
    op_dest: Any,
    all_masks: Any,
    msw_dominant: bool,
    model_msw: bool,
    x: int,
    k_full: Any,
    m_max: int,
    wm: int,
    wr: int,
    wk: int,
    static_unreach: Any,
    in_busy: Any,
    out_busy: Any,
    in_wave: Any,
    in_full: Any,
    out_wave: Any,
    out_full: Any,
    conn_n: Any,
    br_j: Any,
    br_mask: Any,
    br_inw: Any,
    br_outw: Any,
    dropped: Any,
    want_kinds: bool,
    want_causes: bool,
    blocked_ct: Any,
    releases_ct: Any,
    kind_counts: Any,
    n_causes: Any,
    cause_op: Any,
    cause_blocked: Any,
    cause_avail: Any,
    cause_reach: Any,
) -> int:
    """The fused event loop -- every replay decision, no Python dispatch.

    One pass over the lowered stream, advancing all ``B`` replications
    per event exactly like :func:`repro.perf.batch._replay` does
    through the per-event protocol: first-stage availability, the
    ``probe_cover`` full-reach short-circuit, :func:`_find_cover`,
    first-fit wavelength assignment on admit, branch-exact release on
    teardown, and ``classify_kind`` cause codes (indices into
    ``BLOCK_KINDS``) for blocked setups.  With ``want_causes`` it also
    records the per-block evidence words the Python wrapper turns into
    ``block_cause`` dicts after the loop.  Masks are word rows
    (``op_dest`` is ``[events, wr]``, every bitplane carries a trailing
    word axis, ``k_full`` is a ``wk``-word array).
    """
    n_ops = op_tag.shape[0]
    batch = all_masks.shape[0]
    # Scratch for the per-setup cover selection (reused across events).
    cov_j = _np.zeros(m_max, _np.int64)
    cov_reach = _np.zeros((m_max, wr), _np.int64)
    cover_j = _np.zeros(x + 1, _np.int64)
    cover_mask = _np.zeros((x + 1, wr), _np.int64)
    use_j = _np.zeros(m_max, _np.int64)
    use_reach = _np.zeros((m_max, wr), _np.int64)
    use_cnt = _np.zeros(m_max, _np.int64)
    unc = _np.zeros((x + 2, wr), _np.int64)
    pos = _np.zeros(x + 2, _np.int64)
    picked_j = _np.zeros(x + 1, _np.int64)
    picked_reach = _np.zeros((x + 1, wr), _np.int64)
    top = _np.zeros(x + 1, _np.int64)
    uncov_w = _np.zeros(wr, _np.int64)
    avail_w = _np.zeros(wm, _np.int64)
    reach_w = _np.zeros(wr, _np.int64)
    dest_w = _np.zeros(wr, _np.int64)
    swap_w = _np.zeros(wr, _np.int64)
    attempts = 0
    for i in range(n_ops):
        tag = op_tag[i]
        slot = op_slot[i]
        g = op_g[i]
        sw = op_sw[i]
        if tag == 1:
            attempts += 1
            for wi in range(wr):
                dest_w[wi] = op_dest[i, wi]
            for b in range(batch):
                if msw_dominant:
                    for wi in range(wm):
                        avail_w[wi] = all_masks[b, wi] & ~in_busy[b, g, sw, wi]
                else:
                    for wi in range(wm):
                        avail_w[wi] = all_masks[b, wi] & ~in_full[b, g, wi]
                # probe_cover's ascending scan with the full-reach
                # short-circuit; cov_* accumulates the reach map.
                ncov = 0
                full_j = -1
                wi_a = 0
                while wi_a < wm and full_j < 0:
                    scan = avail_w[wi_a]
                    while scan:
                        low = scan & -scan
                        scan ^= low
                        j = wi_a * _WB + _low_index(low)
                        nonzero = False
                        full = True
                        for wi in range(wr):
                            if msw_dominant or model_msw:
                                blk = out_busy[b, j, sw, wi]
                            else:
                                blk = out_full[b, j, wi]
                            rv = dest_w[wi] & ~blk
                            reach_w[wi] = rv
                            if rv != 0:
                                nonzero = True
                            if rv != dest_w[wi]:
                                full = False
                        if full:
                            full_j = j
                            break
                        if nonzero:
                            cov_j[ncov] = j
                            for wi in range(wr):
                                cov_reach[ncov, wi] = reach_w[wi]
                            ncov += 1
                    wi_a += 1
                if full_j >= 0:
                    cover_j[0] = full_j
                    for wi in range(wr):
                        cover_mask[0, wi] = dest_w[wi]
                    n_cover = 1
                elif ncov > 0:
                    n_cover = _find_cover(
                        dest_w, wr, x, ncov, cov_j, cov_reach, cover_j,
                        cover_mask, use_j, use_reach, use_cnt, unc, pos,
                        picked_j, picked_reach, top, uncov_w,
                    )
                else:
                    n_cover = 0
                if n_cover == 0:
                    blocked_ct[b] += 1
                    dropped[b, slot] = True
                    if want_kinds:
                        avail_zero = True
                        for wi in range(wm):
                            if avail_w[wi] != 0:
                                avail_zero = False
                        if avail_zero:
                            kind = 0 if msw_dominant else 1
                        else:
                            structural = False
                            for wi in range(wr):
                                if dest_w[wi] & static_unreach[b, sw, wi]:
                                    structural = True
                            if structural:
                                # awg_no_path: structural, checked before
                                # full_middles (mirrors classify_kind).
                                kind = 4
                            else:
                                missing = False
                                for wi in range(wr):
                                    union = 0
                                    for c in range(ncov):
                                        union |= cov_reach[c, wi]
                                    if dest_w[wi] & ~union:
                                        missing = True
                                kind = 2 if missing else 3
                        kind_counts[b, kind] += 1
                        if want_causes:
                            ci = n_causes[b]
                            cause_op[b, ci] = i
                            for wi in range(wm):
                                if msw_dominant:
                                    cause_blocked[b, ci, wi] = in_busy[
                                        b, g, sw, wi
                                    ]
                                else:
                                    cause_blocked[b, ci, wi] = in_full[
                                        b, g, wi
                                    ]
                                cause_avail[b, ci, wi] = avail_w[wi]
                            for c in range(ncov):
                                for wi in range(wr):
                                    cause_reach[b, ci, cov_j[c], wi] = (
                                        cov_reach[c, wi]
                                    )
                            n_causes[b] = ci + 1
                    continue
                # Commit ascending j, like allocate's sorted(cover).
                for a in range(1, n_cover):
                    jj = cover_j[a]
                    for wi in range(wr):
                        swap_w[wi] = cover_mask[a, wi]
                    t = a
                    while t > 0 and cover_j[t - 1] > jj:
                        cover_j[t] = cover_j[t - 1]
                        for wi in range(wr):
                            cover_mask[t, wi] = cover_mask[t - 1, wi]
                        t -= 1
                    cover_j[t] = jj
                    for wi in range(wr):
                        cover_mask[t, wi] = swap_w[wi]
                conn_n[b, slot] = n_cover
                for t in range(n_cover):
                    j = cover_j[t]
                    br_j[b, slot, t] = j
                    for wi in range(wr):
                        br_mask[b, slot, t, wi] = cover_mask[t, wi]
                    if msw_dominant:
                        in_busy[b, g, sw, j // _WB] |= 1 << (j % _WB)
                        for wi in range(wr):
                            out_busy[b, j, sw, wi] |= cover_mask[t, wi]
                        continue
                    in_w = -1
                    for wi in range(wk):
                        freew = k_full[wi] & ~in_wave[b, g, j, wi]
                        if freew != 0:
                            in_w = wi * _WB + _low_index(freew)
                            break
                    in_wave[b, g, j, in_w // _WB] |= 1 << (in_w % _WB)
                    now_full = True
                    for wi in range(wk):
                        if in_wave[b, g, j, wi] != k_full[wi]:
                            now_full = False
                    if now_full:
                        in_full[b, g, j // _WB] |= 1 << (j % _WB)
                    br_inw[b, slot, t] = in_w
                    for wi_p in range(wr):
                        rem = cover_mask[t, wi_p]
                        while rem:
                            lowp = rem & -rem
                            rem ^= lowp
                            p = wi_p * _WB + _low_index(lowp)
                            if model_msw:
                                out_w = sw
                            else:
                                out_w = -1
                                for wi in range(wk):
                                    freew = k_full[wi] & ~out_wave[b, j, p, wi]
                                    if freew != 0:
                                        out_w = wi * _WB + _low_index(freew)
                                        break
                            out_wave[b, j, p, out_w // _WB] |= 1 << (
                                out_w % _WB
                            )
                            fiber_full = True
                            for wi in range(wk):
                                if out_wave[b, j, p, wi] != k_full[wi]:
                                    fiber_full = False
                            if fiber_full:
                                out_full[b, j, wi_p] |= 1 << (p % _WB)
                            out_busy[b, j, out_w, p // _WB] |= 1 << (p % _WB)
                            br_outw[b, slot, t, p] = out_w
        else:
            for b in range(batch):
                if dropped[b, slot]:
                    dropped[b, slot] = False
                    continue
                nbr = conn_n[b, slot]
                for t in range(nbr):
                    j = br_j[b, slot, t]
                    if msw_dominant:
                        in_busy[b, g, sw, j // _WB] &= ~(1 << (j % _WB))
                        for wi in range(wr):
                            out_busy[b, j, sw, wi] &= ~br_mask[b, slot, t, wi]
                        continue
                    was_full = True
                    for wi in range(wk):
                        if in_wave[b, g, j, wi] != k_full[wi]:
                            was_full = False
                    if was_full:
                        in_full[b, g, j // _WB] &= ~(1 << (j % _WB))
                    in_w = br_inw[b, slot, t]
                    in_wave[b, g, j, in_w // _WB] &= ~(1 << (in_w % _WB))
                    for wi_p in range(wr):
                        rem = br_mask[b, slot, t, wi_p]
                        while rem:
                            lowp = rem & -rem
                            rem ^= lowp
                            p = wi_p * _WB + _low_index(lowp)
                            out_w = br_outw[b, slot, t, p]
                            fiber_was_full = True
                            for wi in range(wk):
                                if out_wave[b, j, p, wi] != k_full[wi]:
                                    fiber_was_full = False
                            if fiber_was_full:
                                out_full[b, j, wi_p] &= ~(1 << (p % _WB))
                            out_wave[b, j, p, out_w // _WB] &= ~(
                                1 << (out_w % _WB)
                            )
                            out_busy[b, j, out_w, p // _WB] &= ~(
                                1 << (p % _WB)
                            )
                releases_ct[b] += 1
    return attempts


#: the interpreted kernel entry point (always the plain function).
_PY_KERNEL: Callable[..., int] = _replay_loop
#: the compiled loop, None without numba.
_JIT_KERNEL: Callable[..., int] | None = None

if NUMBA_AVAILABLE:
    # Rebind the helpers to their compiled dispatchers *before* the
    # loop compiles (numba resolves the globals at first call), then
    # jit the loop itself.  Compilation is lazy and ``cache=True``
    # persists the machine code across processes, so a pool of batch
    # workers pays the compile once per host, not once per worker.
    _jit = _njit(cache=True, nogil=True)
    _low_index = _jit(_low_index)
    _find_cover = _jit(_find_cover)
    _JIT_KERNEL = _jit(_replay_loop)


def _kernel() -> Callable[..., int]:
    """The compiled replay loop, or the interpreted one without numba."""
    return _PY_KERNEL if _JIT_KERNEL is None else _JIT_KERNEL


# -- results and the state wrapper -------------------------------------------


class FusedReplay:
    """One fused replay's outcome, in the batch driver's vocabulary."""

    __slots__ = ("attempts", "blocked", "releases", "kind_counts", "causes")

    def __init__(
        self,
        attempts: int,
        blocked: list[int],
        releases: list[int],
        kind_counts: list[dict[str, int]],
        causes: list[list[dict[str, Any]]],
    ) -> None:
        self.attempts = attempts
        self.blocked = blocked
        self.releases = releases
        self.kind_counts = kind_counts
        self.causes = causes


class FusedState:
    """Int64 structure-of-arrays state with a whole-stream replay entry point.

    The same occupancy as :class:`~repro.engine.state.PythonState`, one
    row per replication: ``_out_busy[b, j, w]`` plus ``_in_busy[b, g,
    w]`` under MSW-dominance, or the per-fiber wavelength masks
    ``_in_wave[b, g, j]`` / ``_out_wave[b, j, p]`` with their full-fiber
    planes ``_in_full[b, g]`` / ``_out_full[b, j]`` under MAW-dominance
    (which also keeps ``_out_busy``).  Rows run to the batch's largest
    ``m``.  When a mask family needs ``W > 1`` words, its planes gain a
    trailing little-endian word axis; at ``W == 1`` there is none.

    :meth:`replay_ops` runs the fused kernel over a whole lowered stream
    and leaves the bitplanes in exactly the end-of-replay state the
    per-event python replay reaches.  One word-generic kernel serves
    every plane width: single-word planes are handed to it as
    ``[..., 1]`` views, so its writes land in the ``W == 1`` arrays.
    """

    def __init__(self, geometries: Iterable[FabricGeometry]):
        if _np is None:  # pragma: no cover - backend resolution gates first
            raise ValueError("FusedState requires numpy")
        geos = tuple(geometries)
        check_family(geos)
        head = geos[0]
        self.geometries = geos
        self.batch = len(geos)
        self.x = head.x
        self.msw_dominant = head.msw_dominant
        self.all_masks = [geo.all_middles_mask for geo in geos]
        self._model_msw = head.model_msw
        self._k_full = head.k_full
        r, k, batch = head.r, head.k, self.batch
        m_max = max(geo.m for geo in geos)
        layout = PlaneLayout.for_fabric(m_max, r, k)
        self.plane_layout = layout
        self._multiword = layout.multiword
        wm, wr, wk = layout.m_words, layout.r_words, layout.k_words

        def zeros(*shape: int, words: int) -> Any:
            if self._multiword:
                shape += (words,)
            return _np.zeros(shape, dtype=_np.int64)

        self._out_busy = zeros(batch, m_max, k, words=wr)
        if self.msw_dominant:
            self._in_busy = zeros(batch, r, k, words=wm)
        else:
            self._in_wave = zeros(batch, r, m_max, words=wk)
            self._in_full = zeros(batch, r, words=wm)
            self._out_wave = zeros(batch, m_max, r, words=wk)
            self._out_full = zeros(batch, m_max, words=wr)
        self.static_unreach_masks: list[list[int]] | None = None
        seed = static_masks(geos)
        if seed is not None:
            blocks, self.static_unreach_masks = seed
            out_busy = self._words(self._out_busy)
            for b in range(batch):
                for sw in range(k):
                    for j, blk in enumerate(blocks[b][sw]):
                        for wi, word in enumerate(split_mask(blk, wr)):
                            out_busy[b, j, sw, wi] |= word

    def _words(self, plane: Any) -> Any:
        """``plane`` with its trailing word axis (a view when ``W == 1``)."""
        return plane if self._multiword else plane[..., None]

    def replay_ops(
        self, lowered: LoweredOps, want_kinds: bool, want_causes: bool
    ) -> FusedReplay:
        """Replay one lowered stream across every replication at once."""
        head = self.geometries[0]
        batch = self.batch
        r, k, x = head.r, head.k, self.x
        m_max = max(geo.m for geo in self.geometries)
        layout = self.plane_layout
        wm, wr, wk = layout.m_words, layout.r_words, layout.k_words
        got_words = getattr(lowered, "r_words", 1)
        if got_words != wr:
            raise ValueError(
                f"lowered stream carries r_words={got_words} dest columns; "
                f"this state's plane layout needs {wr}"
            )
        dest = _np.asarray(lowered.dest).reshape(-1, wr)
        n_slots = max(lowered.n_slots, 1)
        all_masks = pack_masks(self.all_masks, wm)
        k_full = _np.asarray(split_mask(self._k_full, wk), dtype=_np.int64)
        dummy3 = _np.zeros((1, 1, 1), dtype=_np.int64)
        dummy4 = _np.zeros((1, 1, 1, 1), dtype=_np.int64)
        if self.msw_dominant:
            in_busy = self._words(self._in_busy)
            in_wave = out_wave = dummy4
            in_full = out_full = dummy3
            br_inw = _np.zeros((1, 1, 1), dtype=_np.int64)
            br_outw = _np.zeros((1, 1, 1, 1), dtype=_np.int64)
        else:
            in_busy = dummy4
            in_wave = self._words(self._in_wave)
            in_full = self._words(self._in_full)
            out_wave = self._words(self._out_wave)
            out_full = self._words(self._out_full)
            br_inw = _np.zeros((batch, n_slots, x), dtype=_np.int64)
            br_outw = _np.zeros((batch, n_slots, x, r), dtype=_np.int64)
        conn_n = _np.zeros((batch, n_slots), dtype=_np.int64)
        br_j = _np.zeros((batch, n_slots, x), dtype=_np.int64)
        br_mask = _np.zeros((batch, n_slots, x, wr), dtype=_np.int64)
        dropped = _np.zeros((batch, n_slots), dtype=_np.bool_)
        blocked_ct = _np.zeros(batch, dtype=_np.int64)
        releases_ct = _np.zeros(batch, dtype=_np.int64)
        kind_counts = _np.zeros((batch, len(ALL_BLOCK_KINDS)), dtype=_np.int64)
        # The fabric model's static per-wavelength unreachability, split
        # into a [batch, k, wr] word array (all zeros on the Clos).
        static_unreach = _np.zeros((batch, k, wr), dtype=_np.int64)
        su = self.static_unreach_masks
        if su is not None:
            for b in range(batch):
                for sw in range(k):
                    for wi, word in enumerate(split_mask(su[b][sw], wr)):
                        static_unreach[b, sw, wi] = word
        n_causes = _np.zeros(batch, dtype=_np.int64)
        if want_causes:
            cap = max(lowered.n_setups, 1)
            cause_op = _np.zeros((batch, cap), dtype=_np.int64)
            cause_blocked = _np.zeros((batch, cap, wm), dtype=_np.int64)
            cause_avail = _np.zeros((batch, cap, wm), dtype=_np.int64)
            cause_reach = _np.zeros((batch, cap, m_max, wr), dtype=_np.int64)
        else:
            cause_op = _np.zeros((1, 1), dtype=_np.int64)
            cause_blocked = cause_avail = dummy3
            cause_reach = dummy4
        attempts = _kernel()(
            lowered.tag, lowered.slot, lowered.g, lowered.sw, dest,
            all_masks, self.msw_dominant, self._model_msw, x,
            k_full, m_max, wm, wr, wk, static_unreach,
            in_busy, self._words(self._out_busy), in_wave, in_full,
            out_wave, out_full,
            conn_n, br_j, br_mask, br_inw, br_outw, dropped,
            want_kinds, want_causes,
            blocked_ct, releases_ct, kind_counts,
            n_causes, cause_op, cause_blocked, cause_avail, cause_reach,
        )
        kind_dicts: list[dict[str, int]] = []
        causes: list[list[dict[str, Any]]] = []
        for b in range(batch):
            kind_dicts.append(
                {
                    ALL_BLOCK_KINDS[kidx]: int(kind_counts[b, kidx])
                    for kidx in range(len(ALL_BLOCK_KINDS))
                    if kind_counts[b, kidx]
                }
            )
            causes.append(
                self._causes_for(
                    lowered, dest, b, int(n_causes[b]),
                    cause_op, cause_blocked, cause_avail, cause_reach,
                )
                if want_causes
                else []
            )
        return FusedReplay(
            attempts=int(attempts),
            blocked=[int(v) for v in blocked_ct],
            releases=[int(v) for v in releases_ct],
            kind_counts=kind_dicts,
            causes=causes,
        )

    def _causes_for(
        self,
        lowered: LoweredOps,
        dest: Any,
        b: int,
        count: int,
        cause_op: Any,
        cause_blocked: Any,
        cause_avail: Any,
        cause_reach: Any,
    ) -> list[dict[str, Any]]:
        """Rebuild ``block_cause`` dicts from the kernel's evidence words.

        The kernel records exactly the inputs ``probe_cover`` would have
        handed :func:`repro.engine.kernel.block_cause` at that event, so
        the dicts -- down to key order and per-destination lists -- are
        the same objects the python backend produces.
        """
        fabric = self.geometries[b].fabric
        su = self.static_unreach_masks
        out: list[dict[str, Any]] = []
        for ci in range(count):
            i = int(cause_op[b, ci])
            sw = int(lowered.sw[i])
            avail = join_words(cause_avail[b, ci])
            cov: dict[int, int] = {}
            scan = avail
            while scan:
                low = scan & -scan
                scan ^= low
                j = low.bit_length() - 1
                reach = join_words(cause_reach[b, ci, j])
                if reach:
                    cov[j] = reach
            out.append(
                block_cause(
                    x=self.x,
                    input_module=int(lowered.g[i]),
                    source_wavelength=sw,
                    blocked_mask=join_words(cause_blocked[b, ci]),
                    available=avail,
                    coverable=cov,
                    dest_mask=join_words(dest[i]),
                    msw_dominant=self.msw_dominant,
                    failed_mask=0,
                    fabric=None if fabric == "clos" else fabric,
                    static_unreachable=0 if su is None else su[b][sw],
                )
            )
        return out
