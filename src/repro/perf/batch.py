"""Lockstep structure-of-arrays Monte-Carlo engine (``batched`` kernel).

:func:`repro.analysis.montecarlo._traffic_cell` replays one traffic
stream against one :class:`~repro.multistage.network.ThreeStageNetwork`;
a sweep over ``m x seeds`` cells therefore pays the full per-event
Python overhead (object construction, admission validation, cache
bookkeeping) once per cell.  This module removes that multiplier two
ways:

* **common random numbers** -- the traffic stream depends only on
  ``(model, n*r, k, steps, seed, max_fanout)``, never on ``m``, so
  :func:`compile_stream` pre-generates each seed's stream *once* as a
  flat list of integer ops and every ``m`` value replays the same
  stream (which also shrinks the cross-``m`` variance of the curve);
* **lockstep replay** -- :func:`simulate_batch` advances all B
  replications of a seed through each event together, holding the
  fabric state as packed integer bitplanes (middle-switch occupancy,
  per-fiber wavelength masks, converter pools), so the per-event work
  is a handful of mask operations instead of a network object call
  stack;
* **shared trajectories** -- routing is first-fit over middles in
  ascending order, so a replication whose ``m`` lies above every
  middle its routing has needed so far makes exactly the largest
  replication's decisions.  The replications that have not diverged
  share one state slot and one cover probe per setup; one forks onto
  its own slot only at the first setup where its decision can differ
  (a block, or a cover of several middles).

The replay reproduces the serial simulator *bit for bit* because both
run the same code: the event loop of :func:`_replay` drives the shared
admission kernels of :mod:`repro.engine` (``probe_cover`` for routing,
``block_cause`` for ``explain_block``-identical causes) against a
:class:`~repro.engine.state.PythonState` -- the same state the serial
network runs on.  The traffic generator's RNG stream, first-fit
wavelength assignment and ascending-middle allocation order are all
properties of those kernels, and the property tests plus
``bench_perf.py`` assert per-replication equality of ``(attempts,
blocked)`` and causes against the bitmask kernel, and of every lane's
end planes against a one-lane replay.

The engine is wired in as the ``"batched"`` kernel (the estimators'
``kernel`` argument, ``SearchConfig.kernel`` on the facade):
single-request routing is untouched (identical to ``bitmask``), but the
Monte-Carlo estimators dispatch whole seed-batches here instead of one
cell at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs as _obs
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import valid_x_range
from repro.engine.backends import make_state
from repro.engine.fabrics import get_fabric
from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import block_cause, classify_kind, probe_cover
from repro.engine.state import PythonState
from repro.switching.generators import SETUP, stream_rng, traffic_ops

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.workloads.base import WorkloadConfig

__all__ = [
    "CellOutcome",
    "compile_stream",
    "replay_cell",
    "simulate_batch",
]


def compile_stream(
    model: MulticastModel,
    n: int,
    r: int,
    k: int,
    steps: int,
    seed: int,
    max_fanout: int | None = None,
    antithetic: bool = False,
    workload: "WorkloadConfig | None" = None,
) -> list[tuple[int, int, int, int, int]]:
    """Pre-generate one seed's traffic stream as flat replay ops.

    The generator's own endpoint bookkeeping is independent of the
    fabric (blocked setups keep their endpoints busy until teardown),
    so the stream -- and hence this compilation -- depends only on
    ``(model, n*r, k, steps, seed, max_fanout, antithetic)``: one
    compile serves every ``m`` of a sweep.  With ``antithetic=True``
    the stream is generated from the seed's antithetic mirror
    (:func:`repro.switching.generators.stream_rng`) -- because the
    variance-reduction seam sits here, in the stream compiler, every
    kernel that replays compiled streams gets antithetic sampling for
    free.  Each op is
    ``(tag, connection_id, input_module, source_wavelength, dest_mask)``
    with ``tag`` 1 for setup and 0 for teardown (``dest_mask`` is a
    bitmask over output modules; teardown ops carry the setup's module
    and wavelength so releases need no lookup).  Every setup is a
    *guaranteed-legal* addition for the same reason, so the replay can
    skip admission validation entirely.

    The compiler reads the workload's int-level op stream
    (:meth:`~repro.workloads.base.WorkloadConfig.ops`; None reads the
    uniform :func:`~repro.switching.generators.traffic_ops`, the
    historical behaviour) and ORs one table bit per destination port
    into the dest mask, so no connection or event object is built on
    the batched path.  Because this compiler is the one producer of
    replay ops, a workload plugged in here automatically reaches every
    kernel -- the stream contract, not the generator, is the
    interface.  Callers must mix ``workload.token()`` into any key
    derived from the stream.
    """
    stream = traffic_ops if workload is None else workload.ops
    module_bit = [1 << (port // n) for port in range(n * r)]
    ops: list[tuple[int, int, int, int, int]] = []
    for tag, connection_id, source, ports, _ in stream(
        model, n * r, k,
        steps=steps, rng=stream_rng(seed, antithetic), max_fanout=max_fanout,
    ):
        port, wavelength = divmod(source, k)
        dest_mask = 0
        if tag == SETUP:
            for destination in ports:
                dest_mask |= module_bit[destination]
        ops.append((tag, connection_id, port // n, wavelength, dest_mask))
    return ops


@dataclass(frozen=True)
class CellOutcome:
    """One replication's result, with optional blocking causes."""

    m: int
    attempts: int
    blocked: int
    #: per blocked request (in stream order) the ``explain_block``-shaped
    #: cause dict; empty unless ``record_causes=True``.
    causes: tuple[dict, ...] = ()


class _Replication:
    """Mutable per-replication accumulator for one lockstep replay."""

    __slots__ = ("blocked", "releases", "kind_counts", "causes")

    def __init__(self) -> None:
        self.blocked = 0
        self.releases = 0
        self.kind_counts: dict[str, int] = {}
        self.causes: list[dict] = []


def _record_block(
    rep: _Replication,
    cid: int,
    dropped: set[int],
    want_kinds: bool,
    want_causes: bool,
    x: int,
    g: int,
    sw: int,
    blocked_mask: int,
    avail: int,
    coverable: dict[int, int],
    dest_mask: int,
    msw_dominant: bool,
    fabric: str | None = None,
    static_unreachable: int = 0,
) -> None:
    rep.blocked += 1
    dropped.add(cid)
    if want_kinds:
        if want_causes:
            cause = block_cause(
                x=x,
                input_module=g,
                source_wavelength=sw,
                blocked_mask=blocked_mask,
                available=avail,
                coverable=coverable,
                dest_mask=dest_mask,
                msw_dominant=msw_dominant,
                fabric=fabric,
                static_unreachable=static_unreachable,
            )
            rep.causes.append(cause)
            kind = cause["kind"]
        else:
            kind = classify_kind(
                avail, coverable, dest_mask, msw_dominant, static_unreachable
            )
        rep.kind_counts[kind] = rep.kind_counts.get(kind, 0) + 1


def _replay(
    ops: list[tuple[int, int, int, int, int]],
    state: PythonState,
    want_kinds: bool,
    want_causes: bool,
) -> tuple[int, list[_Replication]]:
    """The lockstep replay of one compiled stream.

    Every routing decision is one
    :func:`repro.engine.kernel.probe_cover` against the state's
    ``setup_views`` -- the same kernel the serial network and the
    exhaustive checker route through -- so this loop owns no admission
    semantics of its own: MSW- vs MAW-dominance, endpoint models and
    wavelength picks all live in the engine.  Lanes that have not yet
    diverged share one state slot and one probe per setup (the *group*);
    a lane forks onto its own slot at the first setup where its
    decision can differ from the larger lanes', and replays alone from
    there.  Every lane's counts, causes and end planes equal a
    one-lane replay of its ``m``.
    """
    batch = state.batch
    x = state.x
    msw_dominant = state.msw_dominant
    all_masks = state.all_masks
    # The fabric model's static reach constraint (one family per batch,
    # enforced by the state's check_family): None on the Clos, so the
    # legacy path stays untouched.
    su = state.static_unreach_masks
    fabric_name = state.geometries[0].fabric
    fab_token = None if fabric_name == "clos" else fabric_name
    replications = [_Replication() for _ in range(batch)]
    live: list[dict[int, tuple]] = [{} for _ in range(batch)]
    dropped: list[set[int]] = [set() for _ in range(batch)]
    attempts = 0
    views = state.setup_views
    allocate = state.allocate
    free = state.free
    copy_lane = state.copy_lane
    probe = probe_cover
    # The group: the lanes that have not forked, smallest m last, all
    # living in the lead's (largest m's) slot.  Why sharing is exact:
    # take a lane with m_b middles and a larger lane whose state matches
    # it on middles < m_b.  Both scan the same available middles in the
    # same ascending order, so if the smaller lane's scan stops at one
    # middle j < m_b that reaches every requested module, the larger
    # lane's stops there too, and allocate touches only middle j.
    # Static reach masks depend on (j, sw, r, k), never on m, so this
    # holds on the awg_clos fabric as well.  Any other outcome -- a
    # multi-middle cover, which find_cover_bits only returns once that
    # scan has failed, or a block -- is where a larger lane may decide
    # otherwise, so the group's smallest lane forks there.  A group
    # never blocks, so its dropped set stays empty.
    geometries = state.geometries
    group = sorted(range(batch), key=lambda b: geometries[b].m, reverse=True)
    lead = group[0]
    shared = live[lead]
    lead_rep = replications[lead]
    forked: list[int] = []
    for op in ops:
        tag, cid, g, sw, dest_mask = op
        if tag:
            attempts += 1
            blocked_row, blocker_rows = views(g, sw)
            for b in forked:
                blocked = blocked_row[b]
                avail = all_masks[b] & ~blocked
                cover, coverable = probe(avail, dest_mask, x, blocker_rows[b])
                if cover is None:
                    _record_block(
                        replications[b], cid, dropped[b], want_kinds,
                        want_causes, x, g, sw, blocked, avail, coverable,
                        dest_mask, msw_dominant, fab_token,
                        0 if su is None else su[b][sw],
                    )
                else:
                    live[b][cid] = allocate(b, g, sw, cover)
            while group:
                b = group[-1]
                avail = all_masks[b] & ~blocked_row[lead]
                cover, coverable = probe(
                    avail, dest_mask, x, blocker_rows[lead]
                )
                if cover is not None and len(cover) == 1:
                    shared[cid] = allocate(lead, g, sw, cover)
                    break
                forked.append(group.pop())
                if b != lead:
                    copy_lane(lead, b)
                    live[b] = dict(shared)
                    replications[b].releases = lead_rep.releases
                if cover is None:
                    _record_block(
                        replications[b], cid, dropped[b], want_kinds,
                        want_causes, x, g, sw, blocked_row[b], avail,
                        coverable, dest_mask, msw_dominant, fab_token,
                        0 if su is None else su[b][sw],
                    )
                else:
                    live[b][cid] = allocate(b, g, sw, cover)
        else:
            for b in forked:
                gone = dropped[b]
                if cid in gone:
                    gone.remove(cid)
                    continue
                free(b, g, sw, live[b].pop(cid))
                replications[b].releases += 1
            if group:
                free(lead, g, sw, shared.pop(cid))
                lead_rep.releases += 1
    for b in group[1:]:
        copy_lane(lead, b)
        replications[b].releases = lead_rep.releases
    return attempts, replications


def _simulate(
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    seed: int,
    m_values: list[int],
    record_causes: bool,
    antithetic: bool = False,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> tuple[int, list[_Replication]]:
    """Compile seed ``seed`` once and replay it against every ``m``."""
    legal_x = valid_x_range(n, r)
    if x not in legal_x:
        raise ValueError(
            f"x={x} outside the legal range "
            f"[{legal_x[0]}, {legal_x[-1]}] for n={n}, r={r}"
        )
    if not m_values:
        return 0, []
    for m in m_values:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
    spec = get_fabric(fabric)
    geometries = [
        FabricGeometry(
            n=n, r=r, k=k, m=m,
            construction=construction, model=model, x=x, fabric=fabric,
        )
        for m in m_values
    ]
    want_kinds = record_causes or _obs.enabled()
    ops = compile_stream(
        model, n, r, k, steps, seed, max_fanout, antithetic, workload
    )
    if spec.nonblocking:
        # Single-stage nonblocking fabric: every compiled setup is a
        # legal request and the fabric admits it by construction, so
        # there is no middle-stage state to replay -- attempts are the
        # stream's setup count, blocked is exactly zero (the live
        # oracle property), and every teardown releases.
        attempts = sum(1 for op in ops if op[0] == SETUP)
        teardowns = len(ops) - attempts
        replications = []
        for _ in m_values:
            rep = _Replication()
            rep.releases = teardowns
            replications.append(rep)
    else:
        state = make_state(geometries)
        attempts, replications = _replay(
            ops, state, want_kinds, record_causes
        )
    if _obs.enabled():
        # Aggregate increments, guarded on nonzero so the counter *set*
        # (not just the totals) matches a serial run's -- serial counters
        # only exist once incremented.
        for rep in replications:
            _obs.inc("mc.cells")
            if attempts:
                _obs.inc("net.admit.attempts", attempts)
            admitted = attempts - rep.blocked
            if admitted:
                _obs.inc("net.admit.admitted", admitted)
            if rep.blocked:
                _obs.inc("net.admit.blocked", rep.blocked)
            for kind in sorted(rep.kind_counts):
                _obs.inc(f"net.block.cause.{kind}", rep.kind_counts[kind])
            if rep.releases:
                _obs.inc("net.release", rep.releases)
    return attempts, replications


def simulate_batch(
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    seed: int,
    m_values: tuple[int, ...] | list[int],
    antithetic: bool = False,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> list[tuple[int, tuple[int, int]]]:
    """All of one seed's ``(m, (attempts, blocked))`` cells, in lockstep.

    This is the work-unit function the Monte-Carlo estimators hand to
    :class:`repro.perf.ParallelSweeper` under the ``batched`` kernel
    (batch-per-process instead of cell-per-process): module-level and
    picklable, and every returned cell is bit-identical to
    ``_traffic_cell`` run serially with the same arguments (including
    ``antithetic``, which swaps in the seed's mirrored stream, and
    ``workload``, which swaps in a registered traffic model).
    ``fabric`` selects the registered fabric model the stream replays
    through (:mod:`repro.engine.fabrics`); the default Clos path is
    bit-identical to the pre-seam engine.
    """
    attempts, replications = _simulate(
        n, r, k, construction, model, x, steps, max_fanout, seed,
        list(m_values), record_causes=False, antithetic=antithetic,
        workload=workload, fabric=fabric,
    )
    return [
        (m, (attempts, rep.blocked))
        for m, rep in zip(m_values, replications)
    ]


def replay_cell(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    steps: int,
    seed: int,
    max_fanout: int | None = None,
    record_causes: bool = False,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> CellOutcome:
    """One ``(m, seed)`` replication through the batch engine.

    With ``record_causes=True`` the outcome carries, for each blocked
    setup in stream order, the same cause dict
    :meth:`~repro.multistage.network.ThreeStageNetwork.explain_block`
    would produce at that event -- the hook the equivalence property
    tests compare against the serial simulator.
    """
    attempts, replications = _simulate(
        n, r, k, construction, model, x, steps, max_fanout, seed, [m],
        record_causes=record_causes, workload=workload, fabric=fabric,
    )
    rep = replications[0]
    return CellOutcome(
        m=m,
        attempts=attempts,
        blocked=rep.blocked,
        causes=tuple(rep.causes),
    )
