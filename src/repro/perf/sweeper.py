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

Worker functions must be module-level (picklable); if the platform
refuses to give us a pool (restricted containers), the engine degrades
to serial execution rather than failing the sweep.  While a
:func:`repro.obs.capture` is active, each dispatched chunk runs inside
its own capture in the worker process and ships that capture's
snapshot back, merged into the caller's capture -- so pooled counters
equal serial ones.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Iterable, Sequence
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
    "sweep",
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

    def to_json(self) -> str:
        """Canonical JSON; inverse of :meth:`from_json`."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        return cls(**json.loads(payload))


def _run_unit(unit: WorkUnit) -> SweepResult:
    start = time.perf_counter()
    value = unit.fn(*unit.args, **unit.kwargs)
    return SweepResult(unit.unit_id, value, time.perf_counter() - start)


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
    ) -> list[SweepResult]:
        """Execute all units; results come back in input order.

        The unit ids additionally key the results (see
        :meth:`run_keyed`), so callers can merge by id instead of
        position when that reads better.  With ``cache``, units whose
        ``cache_key`` resolves to a stored entry are served from disk
        (marked ``cached=True``) and only the misses are dispatched;
        executed results carrying a key are stored back.
        """
        units = list(units)
        ids = [unit.unit_id for unit in units]
        if len(set(ids)) != len(ids):
            raise ValueError("work-unit ids must be unique within a sweep")

        merged: dict[int, SweepResult] = {}
        if cache is not None:
            for index, unit in enumerate(units):
                if unit.cache_key is None:
                    continue
                hit, value = cache.lookup(unit.cache_key)
                if hit:
                    merged[index] = SweepResult(
                        unit.unit_id, value, 0.0, cached=True
                    )
        pending = [
            (index, unit)
            for index, unit in enumerate(units)
            if index not in merged
        ]

        workers, executor, reason = self._resolve_plan(len(pending))
        self.last_plan = ExecutionPlan(
            requested_jobs=self.requested_jobs,
            resolved_jobs=workers,
            executor=executor,
            units=len(units),
            dispatched=len(pending),
            cache_hits=len(merged),
            reason=reason,
        )
        if _obs.enabled():
            _obs.inc("sweep.units", len(units))
            _obs.inc("sweep.dispatched", len(pending))
            _obs.inc("sweep.cache_hits", len(merged))

        if executor == "serial":
            executed = [_run_unit(unit) for _, unit in pending]
        else:
            executed = self._run_pooled([unit for _, unit in pending], workers)
        if _obs.enabled():
            for result in executed:
                _obs.observe("sweep.unit_seconds", result.seconds)
        for (index, unit), result in zip(pending, executed):
            merged[index] = result
            if cache is not None and unit.cache_key is not None:
                cache.put(unit.cache_key, result.value)
        return [merged[index] for index in range(len(units))]

    def _run_pooled(self, units: list[WorkUnit], workers: int) -> list[SweepResult]:
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
        except (OSError, PermissionError):  # pragma: no cover - sandboxed hosts
            self.last_plan = ExecutionPlan(
                requested_jobs=self.requested_jobs,
                resolved_jobs=1,
                executor="serial",
                units=self.last_plan.units if self.last_plan else len(units),
                dispatched=len(units),
                cache_hits=self.last_plan.cache_hits if self.last_plan else 0,
                reason="platform refused a worker pool",
            )
            return [_run_unit(unit) for unit in units]

    def run_keyed(
        self,
        units: Iterable[WorkUnit],
        *,
        cache: "ResultCache | None" = None,
    ) -> dict[Any, SweepResult]:
        """Like :meth:`run` but keyed by unit id."""
        return {result.unit_id: result for result in self.run(units, cache=cache)}

    def run_adaptive(
        self,
        next_units: Callable[[list[SweepResult] | None], Iterable[WorkUnit] | None],
        *,
        cache: "ResultCache | None" = None,
    ) -> list[SweepResult]:
        """Run waves of units until the caller stops enqueueing more.

        The sequential-stopping protocol of :mod:`repro.perf.adaptive`:
        ``next_units(None)`` produces the first wave, every subsequent
        call receives the previous wave's results and returns the next
        wave -- typically one sampling *round* for every cell that has
        not yet converged -- or ``None`` to stop.  An *empty* wave is
        legal and does not stop the loop: it means every unit of that
        round was satisfied elsewhere (e.g. served from a warm result
        cache), and the caller still gets a callback to decide whether
        another round is needed.  All executed results are returned in
        execution order; each wave individually obeys the deterministic
        merge and serial-fallback contracts of :meth:`run`, so an
        adaptive sweep is bit-identical for any ``jobs`` value.
        """
        results: list[SweepResult] = []
        wave = next_units(None)
        while wave is not None:
            executed = self.run(list(wave), cache=cache)
            results.extend(executed)
            wave = next_units(executed)
        return results

    def map(
        self,
        fn: Callable[..., Any],
        argtuples: Sequence[tuple],
        **kwargs: Any,
    ) -> list[Any]:
        """Apply ``fn`` to each argument tuple; values in input order."""
        units = [
            WorkUnit(unit_id=index, fn=fn, args=tuple(args), kwargs=dict(kwargs))
            for index, args in enumerate(argtuples)
        ]
        return [result.value for result in self.run(units)]


def sweep(
    fn: Callable[..., Any],
    argtuples: Sequence[tuple],
    *,
    jobs: int | str | None = 1,
    chunk_size: int | None = None,
    **kwargs: Any,
) -> list[Any]:
    """One-shot convenience wrapper around :class:`ParallelSweeper.map`."""
    with ParallelSweeper(jobs, chunk_size=chunk_size) as sweeper:
        return sweeper.map(fn, argtuples, **kwargs)
