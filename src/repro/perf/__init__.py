"""Performance layer: sweep engine, result cache and routing-kernel tools.

Every expensive computation in the reproduction decomposes into
independent work units -- (seed, m, config) cells of the Monte-Carlo
sweeps, adversary seeds, m-candidates of the exact model checker,
benchmark grid points.  :meth:`ParallelSweeper.run` is the one way to
run them: it fans units out across worker processes with chunking and
merges the results in input order, so parallel output is
bit-identical to serial output; ``jobs="auto"`` adapts the worker
count to the host and falls back to inline serial execution whenever a
pool cannot win (the resolved :class:`ExecutionPlan` is recorded for
results metadata).  The ordered scans -- exact ``m`` candidates up to
the first nonblocking one, adversary restarts up to the first witness
-- pass ``run`` a stop rule, which a serial run honours by running
nothing after the stopping unit.

:class:`ResultCache` persists per-cell results content-addressed by
``(config hash, seed, kernel id, code version)`` with atomic writes and
corrupted-entry recovery, making repeated and interrupted sweeps
incremental and resumable (``--cache`` on the CLI).

The third piece is the simulation kernel, an argument of every
estimator (``SearchConfig.kernel`` on the :mod:`repro.api` facade):
``"bitmask"`` (the default: one network per replication) or
``"batched"`` -- bitmask routing plus the lockstep
structure-of-arrays Monte-Carlo engine of :mod:`repro.perf.batch`,
which compiles each seed's traffic stream once and replays it against
every ``m`` value of a sweep in a single pass (common random numbers,
batch-per-process work units, per-replication bit-identity with the
serial simulator).
"""

from repro.perf.batch import (
    CellOutcome,
    compile_stream,
    replay_cell,
    simulate_batch,
)
from repro.perf.cache import CODE_VERSION, CacheStats, ResultCache
from repro.perf.sweeper import (
    ExecutionPlan,
    ParallelSweeper,
    SweepResult,
    WorkUnit,
    resolve_jobs,
)

__all__ = [
    "CODE_VERSION",
    "CacheStats",
    "CellOutcome",
    "ExecutionPlan",
    "ParallelSweeper",
    "ResultCache",
    "SweepResult",
    "WorkUnit",
    "compile_stream",
    "replay_cell",
    "resolve_jobs",
    "simulate_batch",
]
