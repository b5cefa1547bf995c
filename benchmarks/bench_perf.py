"""Performance benchmark for the routing kernel, search and sweep engine.

Ten sections, each asserting that the fast path computes *exactly*
what the slow path computes before reporting any speedup:

* ``engine`` -- the shared admission kernel's per-setup hot path
  (:func:`repro.engine.kernel.probe_cover`, with its greedy full-reach
  short-circuit) against the unconditional reach-map + cover-search
  composition, identical covers asserted per instance;
* ``batched`` -- the lockstep batch engine
  (:mod:`repro.perf.batch`, the ``"batched"`` kernel) against the
  serial bitmask sweep on a B=64 replication grid, end to end through
  :func:`repro.api.sweep`, with bit-identity asserted *per
  replication*: every ``(m, seed)`` cell of the lockstep batch is
  compared against the serial simulator's cell;
* ``wide`` -- an ``m, r, k > 62`` fabric replayed through the batch
  engine with per-replication counts and ``explain_block`` cause dicts
  asserted bit-identical to the serial reference, then the wide sweep
  timed end to end in summed, interleaved reps: the batched kernel vs
  the serial bitmask path an old int64 word gate forced wide fabrics
  onto (>= 3x floored);
* ``workloads`` -- the batched kernel replaying non-uniform traffic
  (:mod:`repro.workloads` hotspot and heavy-tail fanout models)
  against the serial bitmask sweep, pooled estimates and every
  ``(workload, m, seed)`` replication compared bit-for-bit;
* ``topology`` -- the two fabric models, the Clos and the crossbar
  (:mod:`repro.engine.fabrics`), replaying one shared stream, with the
  crossbar's zero-blocking oracle and blocking floor asserted
  (identity only);
* ``exact_search`` -- the symmetry-canonicalized exhaustive model
  checker (:func:`repro.api.exact_m`) against the uncanonicalized
  reference search, asserting identical per-m verdicts and thresholds;
* ``cache`` -- a cold :class:`repro.perf.cache.ResultCache` sweep vs
  the warm re-run of the same sweep (and a cache-free reference),
  asserting all three produce identical estimates -- the warm-vs-cold
  divergence guard;
* ``adaptive`` -- the sequential-stopping sweep
  (:mod:`repro.perf.adaptive`) vs the minimal uniform fixed budget at
  the same per-cell CI half-width; the guarded ``speedup`` is the
  event ratio (floored at 2x via ``min_speedup``) and ``identical``
  asserts the interrupted-then-resumed run is bit-identical to the
  uninterrupted one;
* ``parallel`` -- the same sweep at ``jobs=1`` vs ``jobs="auto"``
  through :class:`repro.perf.ParallelSweeper`.  The section checks
  identity only: ``identical`` asserts that the merged results equal
  the serial ones, and the resolved :class:`repro.perf.ExecutionPlan`
  is recorded.  Its ``speedup`` is unguarded.  A serial fallback
  reports 1.0 by construction, but a real pool can lose to serial on
  this small grid: the committed ``BENCH_perf.json`` reads 0.28x on a
  2-CPU host;
* ``obs`` -- a serial routing replay and an end-to-end sweep with the
  :mod:`repro.obs` layer off (the default) and on, asserting
  bit-identical blocking counts either way and that the *disabled*
  hooks cost <= 2% of the replay (bounded by the measured cost of one
  ``obs.enabled()`` read times the reads the replay ran, and by the
  off-vs-off re-run).

Absolute end-to-end timings of user workloads live in ``bench/``
(``python3 bench/run.py``); the ratios here are divergence guards.

Run as a script (``python benchmarks/bench_perf.py [--quick]``); writes
``BENCH_perf.json`` and exits nonzero if any fast path diverges from
its reference.  ``--quick`` shrinks the workloads for CI smoke runs;
``--sections`` runs a named subset (the wide-fabric CI job runs
``--quick --sections wide``).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

from repro import api, obs
from repro.analysis.montecarlo import _traffic_cell
from repro.core.models import Construction, MulticastModel
from repro.multistage.network import ThreeStageNetwork
from repro.multistage.routing import find_cover_bits, mask_of
from repro.perf.batch import CurveSpec, simulate_batch
from repro.perf.sweeper import resolve_jobs
from repro.switching.generators import dynamic_traffic


def _best(fn, reps: int) -> tuple[float, object]:
    """Best-of-``reps`` wall time of ``fn()`` plus its (stable) result.

    Timed with the garbage collector paused and pre-collected, so a
    generational sweep scheduled by *earlier* allocations cannot land
    inside one timed region -- on a microsecond-scale section with
    ``--quick``'s single rep that is enough to invert a ratio.
    """
    return _best_interleaved((fn,), reps)[0]


def _best_interleaved(fns, reps: int) -> list[tuple[float, object]]:
    """:func:`_best` of several workloads, timed in turn in one loop.

    Each rep runs every ``fn`` once (A, B, A, B, ...), so all sides
    see the same host-speed phases; timing them one after the other
    lets a speed flip between the two blocks move their ratio.
    """
    times, values = _interleaved_times(fns, reps)
    return [(min(side), value) for side, value in zip(times, values)]


def _interleaved_times(
    fns, reps: int, settle: tuple[bool, ...] | None = None
) -> tuple[list[list[float]], list]:
    """Every rep's wall time of each ``fn`` (A, B, A, B, ...), and results.

    One untimed call per ``fn`` first fixes its result; each timed call
    must reproduce it.  The collector is paused and pre-collected.  A
    ``fn`` whose ``settle`` flag is set makes one more untimed call
    right before each timed one, so every timed call starts from the
    allocator state its own kind of call leaves, not the one the other
    side's call left.
    """
    values = [fn() for fn in fns]
    times: list[list[float]] = [[] for _ in fns]
    settles = settle or (False,) * len(fns)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for fn, value, side, warm in zip(fns, values, times, settles):
                if warm:
                    fn()
                gc.collect()
                start = time.perf_counter()
                again = fn()
                side.append(time.perf_counter() - start)
                if again != value:
                    raise AssertionError(
                        "benchmark workload is not deterministic"
                    )
    finally:
        if was_enabled:
            gc.enable()
    return times, values


# -- section: shared admission-engine kernels ---------------------------------


def _engine_instances(count: int, middles: int, modules: int, seed: int):
    """Randomized one-setup admission states (masks + blocker rows)."""
    rng = random.Random(seed)
    instances = []
    for _ in range(count):
        blockers = [
            mask_of(p for p in range(modules) if rng.random() < 0.35)
            for _ in range(middles)
        ]
        available = mask_of(
            j for j in range(middles) if rng.random() < 0.7
        )
        dest_mask = mask_of(
            rng.sample(range(modules), rng.randint(1, 6))
        )
        instances.append((available, dest_mask, rng.randint(1, 3), blockers))
    return instances


def bench_engine(quick: bool, reps: int) -> dict:
    """:func:`repro.engine.kernel.probe_cover` vs the two-step composition.

    ``probe_cover`` is the per-setup hot path every consumer (serial
    network, lockstep batch driver) runs: one ascending scan that
    short-circuits on the first full-reach middle.  The reference
    composition builds the complete reach map and runs the cover search
    unconditionally -- same covers by construction (greedy picks exactly
    that lowest full-reach middle), which this section asserts on every
    instance before reporting the shortcut's win.

    The whole workload runs in single-digit milliseconds, so one noisy
    rep (a scheduler preemption, a cache-cold first pass) or a
    host-speed flip between the two sides can move the ratio past the
    guard's threshold.  The sides are therefore timed interleaved, and
    the section floors its reps at 60 regardless of ``--quick`` (under
    a second).  It declares ``min_speedup`` 1.0 -- the shortcut being
    *slower* than the composition it short-circuits is a code
    regression whatever the baseline says.
    """
    from repro.engine.kernel import probe_cover, reach_map

    reps = max(reps, 60)
    instances = _engine_instances(
        count=1500 if quick else 6000, middles=14, modules=18, seed=11
    )

    def run_probe():
        return [
            probe_cover(available, dest_mask, x, blockers)[0]
            for available, dest_mask, x, blockers in instances
        ]

    def run_split():
        covers = []
        for available, dest_mask, x, blockers in instances:
            full = reach_map(available, dest_mask, blockers)
            covers.append(
                find_cover_bits(dest_mask, full, x) if full else None
            )
        return covers

    (probe_s, probe_out), (split_s, split_out) = _best_interleaved(
        (run_probe, run_split), reps
    )
    return {
        "instances": len(instances),
        "reps": reps,
        "split_s": split_s,
        "probe_s": probe_s,
        "min_speedup": 1.0,
        "speedup": split_s / probe_s,
        "identical": probe_out == split_out,
    }


# -- shared workload: one serial network replaying a fixed trace -------------


def _replay(events, n, r, m, k, x) -> tuple[int, int]:
    """Blocked setups, and the obs guards the network read on the way.

    The network reads ``obs.enabled()`` once per setup (admitted or
    blocked) and once per admitted teardown.
    """
    net = ThreeStageNetwork(
        n,
        r,
        m,
        k,
        construction=Construction.MSW_DOMINANT,
        model=MulticastModel.MSW,
        x=x,
    )
    live: dict[int, int] = {}
    dropped: set[int] = set()
    blocked = 0
    for event in events:
        if event.kind == "setup":
            connection_id = net.try_connect(event.connection)
            if connection_id is None:
                blocked += 1
                dropped.add(event.connection_id)
            else:
                live[event.connection_id] = connection_id
        else:
            if event.connection_id in dropped:
                dropped.discard(event.connection_id)
                continue
            net.disconnect(live.pop(event.connection_id))
    return blocked, net.setups + net.blocks + net.teardowns


# -- section: canonicalized exhaustive search --------------------------------


def _exact_key(result) -> tuple:
    """Verdict fingerprint of one exact-threshold scan (witness-agnostic)."""
    return (
        result.m_exact,
        tuple((per_m.m, per_m.blockable) for per_m in result.per_m),
    )


def bench_exact_search(quick: bool, reps: int) -> dict:
    # Configs where BOTH searches complete: the multicast v(2,2,m,1)
    # scan (true threshold 3 vs the paper's 4) and -- full mode only --
    # the unicast Clos v(2,3,m,1) scan (recovers 2n-1 = 3), where the
    # symmetry factor is larger.  The canonicalized search also settles
    # multicast v(2,3,m,1) (m_exact = 4, ~2.3M raw states) in under a
    # minute, which the reference cannot do in hours -- that frontier
    # point is recorded in EXPERIMENTS.md rather than re-run here.
    scans = [
        {"label": "multicast v(2,2,m,1)", "args": (2, 2, 1),
         "kwargs": dict(x=1, m_max=6)},
    ]
    if not quick:
        scans.append(
            {"label": "unicast v(2,3,m,1)", "args": (2, 3, 1),
             "kwargs": dict(x=1, m_max=5, unicast_only=True)}
        )
    cells = []
    reference_total = 0.0
    canonical_total = 0.0
    identical = True
    for scan in scans:
        scan_reps = max(1, min(reps, 3))
        canonical_s, canonical_out = _best(
            lambda scan=scan: _exact_key(
                api.exact_m(
                    *scan["args"],
                    search=api.SearchConfig(canonicalize=True),
                    **scan["kwargs"],
                )
            ),
            scan_reps,
        )
        reference_s, reference_out = _best(
            lambda scan=scan: _exact_key(
                api.exact_m(
                    *scan["args"],
                    search=api.SearchConfig(canonicalize=False),
                    **scan["kwargs"],
                )
            ),
            scan_reps,
        )
        identical = identical and canonical_out == reference_out
        reference_total += reference_s
        canonical_total += canonical_s
        cells.append(
            {
                "scan": scan["label"],
                "m_exact": canonical_out[0],
                "reference_s": reference_s,
                "canonical_s": canonical_s,
                "speedup": reference_s / canonical_s,
                "identical": canonical_out == reference_out,
            }
        )
    return {
        "cells": cells,
        "reference_s": reference_total,
        "canonical_s": canonical_total,
        "speedup": reference_total / canonical_total,
        "identical": identical,
    }


# -- section: content-addressed sweep cache ----------------------------------


def bench_cache(quick: bool, reps: int) -> dict:
    m_values = [2, 4, 6]
    traffic = api.UniformConfig(steps=200 if quick else 800, seeds=(0, 1))

    def run(cache_dir):
        return _estimate_key(
            api.sweep(
                3, 3, 2, m_values,
                traffic=traffic,
                execution=api.ExecConfig(cache_dir=cache_dir),
            )
        )

    nocache_out = run(None)
    with tempfile.TemporaryDirectory(prefix="wdm-bench-cache-") as tmp:
        # Cold: every cell computed and stored (timed once -- a second
        # cold run would be warm).  Cache traffic is read from the obs
        # counters the cache increments.
        with obs.capture() as watch:
            start = time.perf_counter()
            cold_out = run(tmp)
            cold_s = time.perf_counter() - start
        stored = watch.metrics.snapshot()["counters"].get("cache.stores", 0)
        # Warm: every cell served from disk.
        with obs.capture() as watch:
            warm_s, warm_out = _best(lambda: run(tmp), reps)
        hits = watch.metrics.snapshot()["counters"].get("cache.hits", 0)
    return {
        "config": {
            "n": 3, "r": 3, "k": 2, "m_values": m_values,
            "steps": traffic.steps, "seeds": traffic.seeds,
        },
        "cells_stored": stored,
        "warm_hits": hits,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "identical": cold_out == warm_out == nocache_out,
    }


# -- section: observability overhead ------------------------------------------


def bench_obs(quick: bool, reps: int) -> dict:
    """Obs-off must cost nothing; obs-on must not change results.

    Three measurements on the routing-replay workload plus one on the
    end-to-end sweep:

    * the replay with obs off, run twice -- the second timing bounds
      run-to-run noise, so a real obs-off regression is separable from
      jitter;
    * the replay and the sweep with obs on (metrics), asserting blocked
      counts and estimates are bit-identical to obs-off;
    * the disabled guard measured directly (``obs.enabled()`` read in a
      loop while off), scaled by the guard reads the replay actually
      ran to bound the obs-off overhead fraction -- asserted <= 2%.
    """
    n, r, m, k, x = 4, 4, 4, 2, 2
    steps = 1000 if quick else 4000
    events = list(
        dynamic_traffic(MulticastModel.MSW, n * r, k, steps=steps, seed=0)
    )

    def replay():
        return _replay(events, n, r, m, k, x)

    assert not obs.enabled()
    off_s, (off_blocked, guard_reads) = _best(replay, reps)
    off2_s, _ = _best(replay, reps)
    with obs.capture():
        on_s, (on_blocked, _) = _best(replay, reps)

    traffic = api.UniformConfig(steps=200 if quick else 600, seeds=(0, 1))

    def sweep():
        return _estimate_key(api.sweep(4, 4, 2, [2, 5, 8], traffic=traffic))

    sweep_off_s, sweep_off = _best(sweep, reps)
    with obs.capture():
        sweep_on_s, sweep_on = _best(sweep, reps)

    # Direct guard cost: every hook site the disabled replay touches is
    # one ``obs.enabled()`` read; bound their total share of the replay
    # time.  Timing noise only inflates a measurement, so take the best
    # of several runs -- the same convention ``_best`` applies
    # everywhere else in this file.
    guard_calls = 200_000
    per_call = []
    for _ in range(max(reps, 5)):
        start = time.perf_counter()
        for _ in range(guard_calls):
            obs.enabled()
        per_call.append((time.perf_counter() - start) / guard_calls)
    guard_per_call = min(per_call)
    off_overhead = guard_per_call * guard_reads / off_s
    return {
        "config": {"n": n, "r": r, "m": m, "k": k, "x": x, "steps": steps},
        "events": len(events),
        "guard_reads": guard_reads,
        "replay_off_s": off_s,
        "replay_off_rerun_s": off2_s,
        "replay_on_s": on_s,
        "on_overhead": on_s / off_s - 1.0,
        "sweep_off_s": sweep_off_s,
        "sweep_on_s": sweep_on_s,
        "sweep_on_overhead": sweep_on_s / sweep_off_s - 1.0,
        "guard_ns": guard_per_call * 1e9,
        "off_overhead_bound": off_overhead,
        "speedup": 1.0 / (1.0 + off_overhead),
        "identical": (
            off_blocked == on_blocked
            and sweep_off == sweep_on
            and off_overhead <= 0.02
        ),
    }


# -- the n=4, r=4, k=2 sweep grid shared by the parallel section ---------------


def _grid_traffic(quick: bool) -> api.UniformConfig:
    return api.UniformConfig(
        steps=400 if quick else 1500,
        seeds=(0, 1) if quick else (0, 1, 2),
    )


def _estimate_key(estimates) -> list[tuple[int, int, int]]:
    return [(e.m, e.attempts, e.blocked) for e in estimates]


# -- section: lockstep batched Monte Carlo ------------------------------------


def bench_batched(quick: bool, reps: int) -> dict:
    """The batched kernel vs the serial bitmask sweep at B = 64.

    Timed end to end through :func:`repro.api.sweep` (same traffic, same
    estimates, only the kernel differs).  ``identical`` is the
    conjunction of the pooled estimates matching *and* per-replication
    bit-identity: every ``(m, seed)`` cell of the lockstep batch must
    equal the serial simulator's ``(attempts, blocked)`` for that cell,
    so a single diverging replication fails the bench.
    """
    n, r, k, x = 3, 3, 2, 1
    m_values = list(range(1, 17))
    seeds = (0, 1, 2, 3)
    batch_size = len(m_values) * len(seeds)  # 64 lockstep replications
    traffic = api.UniformConfig(steps=500 if quick else 2000, seeds=seeds)

    def run(kernel):
        return _estimate_key(
            api.sweep(
                n, r, k, m_values,
                traffic=traffic,
                search=api.SearchConfig(kernel=kernel),
            )
        )

    bitmask_s, bitmask_out = _best(lambda: run("bitmask"), reps)
    batched_s, batched_out = _best(lambda: run("batched"), reps)

    spec = CurveSpec(
        n, r, k, Construction.MSW_DOMINANT, MulticastModel.MSW, x,
        traffic.steps, traffic,
    )
    serial_cells = {
        (m, seed): _traffic_cell(spec, m, seed)
        for m in m_values
        for seed in seeds
    }
    diverged: list[dict] = []
    for seed in seeds:
        batch = simulate_batch(spec, seed, m_values)
        for m, value in batch:
            if value != serial_cells[(m, seed)]:
                diverged.append({"m": m, "seed": seed})
    return {
        "config": {
            "n": n, "r": r, "k": k, "x": x, "m_values": m_values,
            "steps": traffic.steps, "seeds": seeds,
        },
        "batch_size": batch_size,
        "replications_checked": batch_size,
        "diverged_cells": diverged,
        "bitmask_s": bitmask_s,
        "batched_s": batched_s,
        "speedup": bitmask_s / batched_s,
        "identical": bitmask_out == batched_out and not diverged,
    }


def bench_wide(quick: bool, reps: int) -> dict:
    """Wide fabrics: an ``m, r, k > 62`` fabric through the batch engine.

    An int64 word gate once refused any geometry with ``m``, ``r`` or
    ``k`` above 62 on the array state, so wide sweeps silently fell
    back to serial pure-python runs.  This section replays a
    v(3, 70, m, 63) fabric (r = 70 output modules, k = 63 wavelengths,
    m up to 100 middles -- every mask family wider than one signed
    int64 word):

    * identity -- the batched replay runs the stream with cause
      recording on, and every ``m`` replication must match the serial
      reference simulator on ``(attempts, blocked)`` *and* the full
      ``explain_block`` cause dict of every blocked setup;
    * timing -- :func:`repro.api.sweep` end to end under the
      ``batched`` kernel against the pure-python serial ``bitmask``
      kernel the gate used to force wide sweeps onto, the two sides
      timed interleaved and ``bitmask_s`` / ``python_s`` summed over
      ``timed_reps`` reps each, every timed batched rep right after an
      untimed one.  The guarded ``speedup`` declares a 3x
      ``min_speedup`` floor.
    """
    from repro.perf.batch import _simulate

    n, r, k, x = 3, 70, 63, 2
    m_values = [1, 2, 3, 4, 63, 70, 85, 100]
    construction = Construction.MSW_DOMINANT
    model = MulticastModel.MSW

    # Identity: the serial simulator's ground truth, causes included.
    # The traffic does not depend on m, so one event list replays
    # against every m cell.
    id_steps = 250
    id_seed = 0
    events = list(
        dynamic_traffic(
            model, n * r, k, steps=id_steps, seed=random.Random(id_seed)
        )
    )
    serial_cells: dict[int, tuple[int, int, list[str]]] = {}
    for m in m_values:
        net = ThreeStageNetwork(
            n, r, m, k, construction=construction, model=model, x=x
        )
        live: dict[int, int] = {}
        dropped: set[int] = set()
        attempts = blocked = 0
        causes: list[str] = []
        for event in events:
            if event.kind == "setup":
                attempts += 1
                connection_id = net.try_connect(event.connection)
                if connection_id is None:
                    blocked += 1
                    causes.append(repr(net.explain_block(event.connection)))
                    dropped.add(event.connection_id)
                else:
                    live[event.connection_id] = connection_id
            else:
                if event.connection_id in dropped:
                    dropped.discard(event.connection_id)
                    continue
                net.disconnect(live.pop(event.connection_id))
        serial_cells[m] = (attempts, blocked, causes)

    diverged: list[dict] = []
    attempts, replications = _simulate(
        CurveSpec(
            n, r, k, construction, model, x, id_steps, api.UniformConfig()
        ),
        id_seed, list(m_values), True,
    )
    for m, rep in zip(m_values, replications):
        got = (attempts, rep.blocked, [repr(c) for c in rep.causes])
        if got != serial_cells[m]:
            diverged.append({"m": m})

    # Timing: the wide sweep end to end, serial vs batched.
    steps = 200 if quick else 500
    seeds = (0,) if quick else (0, 1)
    traffic = api.UniformConfig(steps=steps, seeds=seeds)

    def run(kernel):
        return _estimate_key(
            api.sweep(
                n, r, k, m_values,
                traffic=traffic,
                search=api.SearchConfig(kernel=kernel),
            )
        )

    # The guarded sides run interleaved (bitmask, batched, bitmask,
    # ...) at least 10 times and each side's times are summed, so both
    # sides average over the same host-speed phases: one ~20 ms batched
    # rep is too short to guard, and best-of-10 still let the ratio
    # read 19x and 28x on unchanged code.  Each timed batched rep
    # follows an untimed one: right after a bitmask rep, which frees
    # one large event list per seed, its time depended on that rep.
    timed_reps = max(reps, 10)
    (bitmask_times, python_times), (bitmask_out, python_out) = (
        _interleaved_times(
            (lambda: run("bitmask"), lambda: run("batched")), timed_reps,
            settle=(False, True),
        )
    )
    bitmask_s, python_s = sum(bitmask_times), sum(python_times)

    return {
        "config": {
            "n": n, "r": r, "k": k, "x": x, "m_values": m_values,
            "steps": steps, "seeds": seeds, "identity_steps": id_steps,
        },
        "serial_blocked": {m: serial_cells[m][1] for m in m_values},
        "replications_checked": len(m_values),
        "diverged_cells": diverged,
        "timed_reps": timed_reps,
        "bitmask_s": bitmask_s,
        "python_s": python_s,
        "min_speedup": 3.0,
        "speedup": bitmask_s / python_s,
        "identical": not diverged and bitmask_out == python_out,
    }


def bench_workloads(quick: bool, reps: int) -> dict:
    """Non-uniform workloads through the batch engine vs the serial path.

    The workload seam sits in the stream compiler, so a skewed model
    must keep both halves of the lockstep contract: the batched kernel
    replaying hotspot and heavy-tail traffic must stay bit-identical
    *per replication* to the serial bitmask simulator on the same
    stream, and must keep its speedup -- a workload that silently
    forces the slow path would pass every identity test while
    discarding the engine's reason to exist.  ``identical`` is the
    conjunction of pooled-estimate equality and per-cell equality for
    every ``(workload, m, seed)`` triple; the guarded ``speedup`` is
    total serial time over total batched time across both workloads.
    The two kernels are timed in turn for at least 5 reps and each
    side's times are summed, so both sides average over the same
    host-speed phases: timed once each, the ~0.1 s batched side read
    up to 1.6x slower in a slow phase and the ratio spread wider than
    the guard's 15% on unchanged code, at 400 and at 1,500 steps alike.
    """
    n, r, k, x = 3, 3, 2, 1
    m_values = list(range(1, 17))
    seeds = (0, 1, 2, 3)
    steps = 400 if quick else 1500
    construction = Construction.MSW_DOMINANT
    model = MulticastModel.MSW
    workloads = [
        api.HotspotConfig(steps=steps, seeds=seeds, zipf_s=1.5),
        api.HeavyTailFanoutConfig(steps=steps, seeds=seeds, alpha=0.9),
    ]

    cells = []
    diverged: list[dict] = []
    serial_total = batched_total = 0.0
    pooled_identical = True
    for workload in workloads:

        def run(kernel, workload=workload):
            return _estimate_key(
                api.sweep(
                    n, r, k, m_values,
                    traffic=workload,
                    search=api.SearchConfig(kernel=kernel),
                )
            )

        (serial_times, batched_times), (serial_out, batched_out) = (
            _interleaved_times(
                (lambda: run("bitmask"), lambda: run("batched")),
                max(reps, 5),
            )
        )
        serial_s, batched_s = sum(serial_times), sum(batched_times)
        pooled_identical = pooled_identical and serial_out == batched_out

        spec = CurveSpec(n, r, k, construction, model, x, steps, workload)
        serial_cells = {
            (m, seed): _traffic_cell(spec, m, seed)
            for m in m_values
            for seed in seeds
        }
        for seed in seeds:
            batch = simulate_batch(spec, seed, m_values)
            for m, value in batch:
                if value != serial_cells[(m, seed)]:
                    diverged.append(
                        {"workload": workload.workload, "m": m, "seed": seed}
                    )
        serial_total += serial_s
        batched_total += batched_s
        cells.append(
            {
                "workload": workload.workload,
                "serial_s": serial_s,
                "batched_s": batched_s,
                "speedup": serial_s / batched_s,
                "replications_checked": len(m_values) * len(seeds),
            }
        )
    return {
        "config": {
            "n": n, "r": r, "k": k, "x": x, "m_values": m_values,
            "steps": steps, "seeds": seeds,
            "workloads": [w.workload for w in workloads],
        },
        "cells": cells,
        "diverged_cells": diverged,
        "serial_s": serial_total,
        "batched_s": batched_total,
        "speedup": serial_total / batched_total,
        "identical": pooled_identical and not diverged,
    }


def bench_topology(quick: bool, reps: int) -> dict:
    """The Clos and the crossbar head-to-head on one shared stream.

    A fabric changes *which* setups are admitted, never the traffic
    stream itself, so both fabrics replay the same compiled streams.
    Two live oracles check it: the crossbar must record exactly zero
    blocked events (it is nonblocking by construction), and the Clos
    may not block *less* than the crossbar.  The payload is the
    paper-style blocking-vs-cost curve per fabric (crosspoints from
    each spec's Table-1 cost model), the comparison of the paper's
    Section 2.  The section is identity-only: ``speedup`` is 1.0 by
    construction and the regression guard watches ``identical``.
    """
    from repro.engine.fabrics import fabric_names, get_fabric
    from repro.perf.batch import _simulate

    n, r, k, x = 3, 3, 2, 1
    m_values = list(range(1, 9)) if quick else list(range(1, 13))
    seeds = (0, 1) if quick else (0, 1, 2, 3)
    steps = 300 if quick else 1000
    construction = Construction.MSW_DOMINANT
    model = MulticastModel.MSW

    diverged: list[dict] = []
    fabric_rows = []
    blocked_by_fabric: dict[str, list[int]] = {}
    for fabric in fabric_names():
        spec = get_fabric(fabric)
        curve_spec = CurveSpec(
            n, r, k, construction, model, x, steps, api.UniformConfig(),
            fabric,
        )
        runs = [
            _simulate(curve_spec, seed, m_values, False) for seed in seeds
        ]
        attempts_total = sum(attempts for attempts, _ in runs)
        blocked_per_m = [
            sum(replications[mi].blocked for _, replications in runs)
            for mi in range(len(m_values))
        ]
        blocked_by_fabric[fabric] = blocked_per_m
        if spec.nonblocking and any(blocked_per_m):
            diverged.append({"fabric": fabric, "check": "nonblocking-oracle"})
        curve = [
            {
                "m": m,
                "crosspoints": spec.cost(n, r, m, k, construction, model),
                "blocked": blocked_per_m[mi],
                "probability": (
                    blocked_per_m[mi] / attempts_total
                    if attempts_total
                    else 0.0
                ),
            }
            for mi, m in enumerate(m_values)
        ]
        fabric_rows.append(
            {
                "fabric": fabric,
                "nonblocking": spec.nonblocking,
                "attempts": attempts_total,
                "replications_checked": len(m_values) * len(seeds),
                "curve": curve,
            }
        )
    floor = blocked_by_fabric.get("crossbar")
    if floor is not None:
        for fabric, blocked_per_m in blocked_by_fabric.items():
            if any(b < f for b, f in zip(blocked_per_m, floor)):
                diverged.append({"fabric": fabric, "check": "crossbar-floor"})

    return {
        "config": {
            "n": n, "r": r, "k": k, "x": x, "m_values": m_values,
            "steps": steps, "seeds": seeds,
            "construction": construction.name, "model": model.name,
        },
        "fabrics": fabric_rows,
        "diverged_cells": diverged,
        "speedup": 1.0,
        "identical": not diverged,
    }


def bench_adaptive(quick: bool, reps: int) -> dict:
    """The adaptive sequential-stopping sweep vs a fixed budget at equal CI.

    Both paths must deliver every curve point at the same Wilson
    half-width target.  The fixed-replication design cannot know in
    advance which ``m`` needs the most sampling, so its minimal uniform
    budget is the *widest* cell's replication count applied to every
    cell; the adaptive engine spends that count only where the variance
    is and stops the tail at the round floor.  The guarded ``speedup``
    is the **event ratio** -- fixed-budget events over adaptive events
    at matched precision -- which is a pure function of the stopping
    rule (machine-independent, like the kernel sections' time ratios).
    ``tools/check_bench_regression.py`` additionally enforces the
    absolute floor ``min_speedup`` (>= 2x fewer events).

    ``identical`` asserts the resume contract: a sweep interrupted after
    its first rounds (persisted in a :class:`ResultCache`) and resumed
    must reproduce the uninterrupted run bit-identically -- per-cell
    ``(attempts, blocked)`` divergences are listed in
    ``diverged_cells``.
    """
    from repro.perf.adaptive import PrecisionConfig, adaptive_sweep
    from repro.perf.cache import ResultCache

    n, r, k, x = 3, 3, 1, 1
    m_values = list(range(1, 7 if quick else 9))
    steps = 150 if quick else 400
    precision = PrecisionConfig(half_width=0.01, min_rounds=2, max_rounds=64)
    spec = CurveSpec(
        n, r, k, Construction.MSW_DOMINANT, MulticastModel.MSW, x, steps,
        api.UniformConfig(),
    )
    config = dict(precision=precision, kernel="batched")

    def run_adaptive():
        estimates = adaptive_sweep(spec, m_values, **config)
        return [
            (e.m, e.attempts, e.blocked, e.adaptive.rounds, e.adaptive.converged)
            for e in estimates
        ]

    adaptive_s, cells = _best(run_adaptive, reps)
    rounds = [cell[3] for cell in cells]
    converged = all(cell[4] for cell in cells)
    per_round = precision.replications_per_round() * steps
    adaptive_events = sum(rounds) * per_round
    fixed_events = max(rounds) * per_round * len(m_values)

    # Resume identity: persist the first rounds, then resume to the full
    # target and compare against the uninterrupted run per cell.
    diverged: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="wdm-bench-adaptive-") as tmp:
        cache = ResultCache(tmp)
        partial = dict(
            config,
            precision=PrecisionConfig(
                half_width=0.01, min_rounds=2, max_rounds=2
            ),
        )
        adaptive_sweep(spec, m_values, cache=cache, **partial)
        resumed = adaptive_sweep(spec, m_values, cache=cache, **config)
    for cell, estimate in zip(cells, resumed):
        if (estimate.m, estimate.attempts, estimate.blocked) != cell[:3]:
            diverged.append(
                {
                    "m": estimate.m,
                    "uninterrupted": cell[:3],
                    "resumed": (estimate.m, estimate.attempts, estimate.blocked),
                }
            )
    # The matched-precision claim only holds if every cell actually met
    # the target (the resumed estimates are bit-identical to the timed
    # run's cells when nothing diverged).
    within_target = all(
        e.half_width(precision.level) <= precision.half_width for e in resumed
    )

    return {
        "config": {
            "n": n, "r": r, "k": k, "x": x, "m_values": m_values,
            "steps": steps, "half_width": precision.half_width,
            "level": precision.level,
        },
        "rounds_per_m": rounds,
        "replications_per_round": precision.replications_per_round(),
        "adaptive_events": adaptive_events,
        "fixed_events_at_matched_precision": fixed_events,
        "adaptive_s": adaptive_s,
        "all_converged": converged,
        "diverged_cells": diverged,
        "min_speedup": 2.0,
        "speedup": fixed_events / adaptive_events,
        "identical": converged and not diverged and within_target,
    }


def bench_parallel(quick: bool, reps: int, jobs: int | str) -> dict:
    m_values = [2, 5, 8, 11, 14]
    traffic = _grid_traffic(quick)

    def run(n_jobs):
        estimates = api.sweep(
            4, 4, 2, m_values,
            traffic=traffic,
            execution=api.ExecConfig(jobs=n_jobs),
        )
        return _estimate_key(estimates), estimates[0].meta.plan

    serial_s, (serial_out, _) = _best(lambda: run(1), reps)
    parallel_s, (parallel_out, plan) = _best(lambda: run(jobs), reps)
    fallback_serial = plan is not None and plan["executor"] == "serial"
    # When the adaptive executor resolved the "parallel" run to the very
    # same inline serial path (e.g. a single effective CPU), the two
    # timings measure identical code and any ratio is pure noise -- the
    # speedup is 1.0 by construction and reported as such, with the
    # measured times and the fallback reason kept alongside.
    speedup = 1.0 if fallback_serial else serial_s / parallel_s
    return {
        "config": {
            "n": 4, "r": 4, "k": 2, "m_values": m_values,
            "steps": traffic.steps, "seeds": traffic.seeds,
        },
        "jobs": jobs,
        "plan": plan,
        "fallback_serial": fallback_serial,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
        "identical": serial_out == parallel_out,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (CI smoke run)"
    )
    parser.add_argument(
        "--jobs",
        type=lambda v: v if v == "auto" else int(v),
        default="auto",
        help='workers for the parallel section ("auto" adapts to the host)',
    )
    parser.add_argument(
        "--reps", type=int, default=None, help="timing repetitions per section"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_perf.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--sections",
        type=lambda v: tuple(v.split(",")),
        default=None,
        help="comma-separated subset of sections to run (default: all)",
    )
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (1 if args.quick else 5)

    report = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "effective_cpus": resolve_jobs(0),
            "quick": args.quick,
            "reps": reps,
        }
    }
    sections = [
        ("engine", lambda: bench_engine(args.quick, reps)),
        ("batched", lambda: bench_batched(args.quick, reps)),
        ("wide", lambda: bench_wide(args.quick, reps)),
        ("workloads", lambda: bench_workloads(args.quick, reps)),
        ("topology", lambda: bench_topology(args.quick, reps)),
        ("exact_search", lambda: bench_exact_search(args.quick, reps)),
        ("cache", lambda: bench_cache(args.quick, reps)),
        ("adaptive", lambda: bench_adaptive(args.quick, reps)),
        ("parallel", lambda: bench_parallel(args.quick, reps, args.jobs)),
        ("obs", lambda: bench_obs(args.quick, reps)),
    ]
    if args.sections is not None:
        known = {name for name, _ in sections}
        unknown = set(args.sections) - known
        if unknown:
            parser.error(f"unknown sections: {', '.join(sorted(unknown))}")
        sections = [
            (name, section)
            for name, section in sections
            if name in args.sections
        ]
    failures = []
    for name, section in sections:
        result = section()
        report[name] = result
        flag = "ok" if result["identical"] else "DIVERGED"
        print(f"{name:15s} speedup {result['speedup']:5.2f}x  [{flag}]")
        if not result["identical"]:
            failures.append(name)

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if failures:
        print(f"FAIL: fast path diverged from reference in: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
