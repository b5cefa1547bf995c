"""Deterministic parallel sweep engine with an adaptive executor.

The engine runs a list of :class:`WorkUnit`\\ s -- top-level callables
plus arguments -- inline or across a ``ProcessPoolExecutor``.  Four
properties make it safe to drop under every sweep in the repo:

* **deterministic merging** -- results are returned in work-unit order
  regardless of which worker finished first, so a parallel sweep is
  bit-identical to the serial one (each unit must itself be a pure
  function of its arguments, which all sweeps here guarantee by seeding
  their own RNG streams per unit);
* **adaptive execution** -- ``jobs="auto"`` resolves to
  ``min(effective CPUs, work units)``, and any plan that a pool cannot
  win (a single effective CPU, one pending unit, or an explicit jobs
  request exceeding the unit count, where spawn overhead dominates)
  falls back to inline serial execution.  The resolved plan is recorded
  in :attr:`ParallelSweeper.last_plan` so benchmarks and sweeps can put
  the executor that actually ran into their results metadata;
* **persistent pools** -- a sweeper reuses its pool across ``run``
  calls (multi-stage sweeps pay the spawn cost once); ``close()`` or
  the context-manager form shuts it down;
* **chunking and timing capture** -- units are dispatched in contiguous
  chunks to amortize inter-process overhead, and every unit's wall time
  is recorded in its :class:`SweepResult`.

``run(units, cache=...)`` additionally consults a
:class:`repro.perf.cache.ResultCache`: units carrying a ``cache_key``
are looked up first and only the misses are dispatched (results are
stored back), which makes repeated and interrupted sweeps incremental.
``run(units, until=...)`` is an ordered scan: the results end at the
first unit whose value satisfies the predicate.  A serial plan --
``jobs=1`` or any fallback, a refused pool included -- runs nothing
after that unit; a pool runs every unit and keeps the same prefix.
``run(units, on_result=...)`` hands each executed result to the
caller, on a serial plan before the next unit starts, so a caller can
store entries a unit's single ``cache_key`` cannot name (one column
unit's per-cell results); ``run(units, cache_hits=n)`` counts ``n``
units such a caller served from its own lookups.

Worker functions must be module-level (picklable); if the platform
refuses to give us a pool (restricted containers), the engine degrades
to serial execution rather than failing the sweep.  While a
:func:`repro.obs.capture` is active, each dispatched chunk runs inside
its own capture in the worker process and ships that capture's
snapshot back, merged into the caller's capture -- so pooled counters
equal serial ones.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro import obs as _obs

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from concurrent.futures import Executor

    from repro.perf.cache import ResultCache

__all__ = [
    "ExecutionPlan",
    "ParallelSweeper",
    "SweepResult",
    "WorkUnit",
    "resolve_jobs",
]


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a ``jobs`` request: None, ``"auto"`` or <= 0 mean all CPUs."""
    if jobs is None or jobs == "auto":
        return _effective_cpus()
    if isinstance(jobs, str):
        raise ValueError(f"jobs must be an int, None or 'auto', got {jobs!r}")
    if jobs <= 0:
        return _effective_cpus()
    return jobs


@dataclass(frozen=True)
class WorkUnit:
    """One independent cell of a sweep: ``fn(*args, **kwargs)``.

    ``fn`` must be a module-level callable so worker processes can
    unpickle it.  ``unit_id`` keys the deterministic merge; ids must be
    unique within one sweep.  ``cache_key`` (optional) is the unit's
    content address in a :class:`~repro.perf.cache.ResultCache`; units
    without one are always executed.
    """

    unit_id: Any
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    cache_key: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one work unit: its value plus wall time in seconds.

    ``cached`` marks results served from a :class:`ResultCache` instead
    of executed (their ``seconds`` is 0.0 -- no work was done).
    """

    unit_id: Any
    value: Any
    seconds: float
    cached: bool = False


@dataclass(frozen=True)
class ExecutionPlan:
    """The executor resolution of one ``run`` call (results metadata).

    Attributes:
        requested_jobs: the caller's ``jobs`` argument, verbatim.
        resolved_jobs: worker count after ``auto``/CPU/unit clamping.
        executor: ``"serial"`` or ``"process"`` -- what actually ran.
        units: total work units in the sweep.
        dispatched: units actually executed (the rest were cache hits).
        cache_hits: units served from the result cache.
        reason: one-line explanation of a serial fallback ("" when the
            requested parallel plan ran as asked).
    """

    requested_jobs: int | str | None
    resolved_jobs: int
    executor: str
    units: int
    dispatched: int
    cache_hits: int
    reason: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "requested_jobs": self.requested_jobs,
            "resolved_jobs": self.resolved_jobs,
            "executor": self.executor,
            "units": self.units,
            "dispatched": self.dispatched,
            "cache_hits": self.cache_hits,
            "reason": self.reason,
        }


def _run_unit(unit: WorkUnit) -> SweepResult:
    start = time.perf_counter()
    value = unit.fn(*unit.args, **unit.kwargs)
    return SweepResult(unit.unit_id, value, time.perf_counter() - start)


def _lookup(unit: WorkUnit, cache: "ResultCache | None") -> SweepResult | None:
    """The unit's cached result, or None on a miss or without a key."""
    if cache is None or unit.cache_key is None:
        return None
    hit, value = cache.lookup(unit.cache_key)
    return SweepResult(unit.unit_id, value, 0.0, cached=True) if hit else None


def _run_chunk(units: list[WorkUnit]) -> list[SweepResult]:
    return [_run_unit(unit) for unit in units]


def _run_chunk_obs(units: list[WorkUnit]) -> tuple[list[SweepResult], dict[str, Any]]:
    """Chunk runner for worker processes while the caller observes.

    The caller's capture does not cross the process boundary, so the
    chunk runs inside its own metrics-only capture (tracers do not
    pickle) and ships that capture's snapshot back for the parent to
    merge -- a fresh capture per chunk, so snapshots are per-chunk
    deltas even on a persistent pool worker.
    """
    with _obs.capture() as run:
        results = _run_chunk(units)
    return results, run.metrics.snapshot()


class ParallelSweeper:
    """Fans independent work units across workers; merges deterministically.

    Args:
        jobs: worker count.  ``1`` (default) runs inline in this process
            with zero spawn/pickle overhead; ``"auto"``, None or <= 0
            resolve to the effective CPU count (clamped to the unit
            count at run time).
        chunk_size: units per dispatched task.  Default: enough chunks
            for ~4 tasks per worker, so stragglers rebalance.

    Parallel runs use a process pool: arguments and results cross a
    pickle boundary.

    The sweeper keeps its pool alive across ``run`` calls; use
    ``close()`` (or the context-manager form) to shut it down.
    """

    def __init__(
        self,
        jobs: int | str | None = 1,
        *,
        chunk_size: int | None = None,
    ):
        self.requested_jobs = jobs
        self.jobs = resolve_jobs(jobs)
        #: was the jobs request adaptive (auto/all-CPUs) rather than explicit?
        self._auto_jobs = jobs is None or jobs == "auto" or (
            isinstance(jobs, int) and jobs <= 0
        )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.last_plan: ExecutionPlan | None = None
        self._pool: Executor | None = None
        self._pool_workers = 0

    # -- pool lifecycle -----------------------------------------------------

    def _acquire_pool(self, workers: int) -> "Executor":
        """The persistent pool, (re)created when more workers are needed."""
        if self._pool is not None and self._pool_workers >= workers:
            return self._pool
        self.close()
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._pool_workers = workers
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_workers = 0

    def __enter__(self) -> "ParallelSweeper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown ordering
        try:
            self.close()
        except Exception:
            pass

    # -- execution ----------------------------------------------------------

    def _resolve_plan(self, pending: int) -> tuple[int, str, str]:
        """``(workers, executor, reason)`` for ``pending`` executable units."""
        workers = min(self.jobs, pending) if pending else 1
        cpus = _effective_cpus()
        if workers <= 1 or pending <= 1:
            if self.jobs == 1 and not self._auto_jobs:
                reason = ""  # serial was asked for, not fallen back to
            elif pending <= 1:
                reason = (
                    "single pending unit"
                    if pending
                    else "all units served from cache"
                )
            elif cpus == 1:
                reason = "single effective CPU; a pool cannot win"
            else:
                reason = ""
            return 1, "serial", reason
        if cpus == 1:
            return 1, "serial", "single effective CPU; a pool cannot win"
        if not self._auto_jobs and self.jobs > pending:
            return 1, "serial", (
                f"jobs={self.jobs} exceeds {pending} work units; "
                "spawn overhead would dominate"
            )
        return workers, "process", ""

    def run(
        self,
        units: Iterable[WorkUnit],
        *,
        cache: "ResultCache | None" = None,
        until: Callable[[Any], bool] | None = None,
        on_result: Callable[[SweepResult], None] | None = None,
        cache_hits: int = 0,
    ) -> list[SweepResult]:
        """Execute the units; results come back in input order.

        With ``cache``, units whose ``cache_key`` resolves to a stored
        entry are served from disk (marked ``cached=True``) and only
        the misses are executed; executed results carrying a key are
        stored back.

        With ``until``, a predicate on a unit's value, the results end
        at the first unit in input order whose value satisfies it.  A
        serial plan (``jobs=1`` or any fallback) runs nothing after
        that unit.  When the plan is serial before any lookup, units
        are also looked up one at a time, so nothing after it is looked
        up either.  A pooled plan looks up and executes every unit,
        then truncates, so every ``jobs`` value returns the same list.

        ``on_result`` is called with each executed result: on a serial
        plan as soon as its unit finishes, before the next unit starts,
        so what it stores survives a run killed mid-sweep; on a pool
        once the pool returns, in input order.

        ``cache_hits`` counts units the caller served from the cache
        itself and left out of ``units``; the plan and the ``sweep.*``
        counters report them with the units served here.
        """
        units = list(units)
        ids = [unit.unit_id for unit in units]
        if len(set(ids)) != len(ids):
            raise ValueError("work-unit ids must be unique within a sweep")
        # A plan serial for every unit stays serial for any subset of
        # them, so an ordered scan can look units up as it reaches them.
        workers, executor, reason = self._resolve_plan(len(units))
        if until is not None and executor == "serial":
            results = self._run_inline(units, cache, until, on_result)
        else:
            merged: dict[int, SweepResult] = {}
            for index, unit in enumerate(units):
                result = _lookup(unit, cache)
                if result is not None:
                    merged[index] = result
            pending = [
                (index, unit)
                for index, unit in enumerate(units)
                if index not in merged
            ]
            workers, executor, reason = self._resolve_plan(len(pending))
            executed = None
            if executor == "process":
                executed = self._run_pooled(
                    [unit for _, unit in pending], workers
                )
                if executed is None:
                    workers, executor = 1, "serial"
                    reason = "platform refused a worker pool"
            if executed is None:
                results = self._run_inline(
                    units, cache, until, on_result, merged
                )
            else:
                for (index, unit), result in zip(pending, executed):
                    merged[index] = result
                    if cache is not None and unit.cache_key is not None:
                        cache.put(unit.cache_key, result.value)
                    if on_result is not None:
                        on_result(result)
                results = [merged[index] for index in range(len(units))]

        executed = [result for result in results if not result.cached]
        total = len(units) + cache_hits
        cache_hits += len(results) - len(executed)
        self.last_plan = ExecutionPlan(
            requested_jobs=self.requested_jobs,
            resolved_jobs=workers,
            executor=executor,
            units=total,
            dispatched=len(executed),
            cache_hits=cache_hits,
            reason=reason,
        )
        if _obs.enabled():
            _obs.inc("sweep.units", total)
            _obs.inc("sweep.dispatched", len(executed))
            _obs.inc("sweep.cache_hits", cache_hits)
            for result in executed:
                _obs.observe("sweep.unit_seconds", result.seconds)
        if until is not None and executor == "process":
            for stop, result in enumerate(results):
                if until(result.value):
                    return results[: stop + 1]
        return results

    def _run_inline(
        self,
        units: list[WorkUnit],
        cache: "ResultCache | None",
        until: Callable[[Any], bool] | None,
        on_result: Callable[[SweepResult], None] | None,
        hits: dict[int, SweepResult] | None = None,
    ) -> list[SweepResult]:
        """Run ``units`` in this process, in input order, through the stop.

        Each unit comes from ``hits`` (an earlier lookup pass) or, when
        ``hits`` is None, is looked up just before it would run, so no
        unit after the stopping one is touched.  A miss is executed,
        stored and handed to ``on_result`` at once.
        """
        results = []
        for index, unit in enumerate(units):
            result = _lookup(unit, cache) if hits is None else hits.get(index)
            if result is None:
                result = _run_unit(unit)
                if cache is not None and unit.cache_key is not None:
                    cache.put(unit.cache_key, result.value)
                if on_result is not None:
                    on_result(result)
            results.append(result)
            if until is not None and until(result.value):
                break
        return results

    def _run_pooled(
        self, units: list[WorkUnit], workers: int
    ) -> list[SweepResult] | None:
        """Run ``units`` on the pool; None when the platform refuses one."""
        chunk = self.chunk_size or max(1, -(-len(units) // (workers * 4)))
        chunks = [units[i : i + chunk] for i in range(0, len(units), chunk)]
        # Workers cannot see the caller's capture, so while one is active
        # their chunks run under the snapshot-returning wrapper.
        run = _obs.active()
        runner = _run_chunk if run is None else _run_chunk_obs
        try:
            pool = self._acquire_pool(workers)
            submitted = time.perf_counter()
            futures = [pool.submit(runner, c) for c in chunks]
            # Collect in submission order: the merge is positional,
            # never completion-ordered.
            results: list[SweepResult] = []
            for future in futures:
                payload = future.result()
                if run is None:
                    chunk_results = payload
                else:
                    chunk_results, snapshot = payload
                    run.metrics.merge(snapshot)
                    queued = (time.perf_counter() - submitted) - sum(
                        r.seconds for r in chunk_results
                    )
                    run.metrics.observe("sweep.pool.queue_seconds", max(0.0, queued))
                results.extend(chunk_results)
            return results
        except (OSError, PermissionError):  # sandboxed hosts
            return None
