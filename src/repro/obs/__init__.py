"""Observability layer: zero-cost-when-off metrics, tracing and reports.

The paper's theorems are about *why* a request blocks -- which middle
switches are full, which wavelength is saturated -- but the Monte-Carlo
and exhaustive engines historically reported only aggregate verdicts.
This package instruments every hot path in the repo; what the hooks
record belongs to the active :func:`capture`, and nothing is recorded
outside one:

* :mod:`repro.obs.metrics` -- counters and timers (admission attempts,
  cover-search node expansions, cache hits/misses, pool queue
  latencies), mergeable across :class:`repro.perf.ParallelSweeper`
  worker processes;
* :mod:`repro.obs.trace` -- a structured JSONL tracer for request
  admit/block/release events, with the blocking *cause* reconstructed
  from :class:`~repro.multistage.network.ThreeStageNetwork`'s bitmask
  caches (``wdm-repro trace`` on the CLI);
* :mod:`repro.obs.meta` -- the :class:`~repro.obs.meta.ResultMeta`
  envelope (code version, kernel id, execution plan, obs summary)
  attached to results by :mod:`repro.api`.

**Per capture.**  One context variable holds the active
:class:`Capture`: a fresh :class:`MetricsRegistry` plus an optional
:class:`Tracer`.  :func:`capture` sets it for its ``with`` block and
restores the previous value on exit, so a nested capture records into
its own registry and leaves the outer one intact, and a capture in one
thread sees nothing another thread does (each thread starts with no
capture).  :func:`active` returns the active capture or None.

**Zero cost when off.**  Every hook site in the simulator guards on
``enabled()`` -- the bound getter of a boolean context variable that
:func:`capture` sets beside the capture, so a read is one C call and
no Python frame -- and the disabled hooks return before touching
anything (``tests/obs`` counts the guard reads and the allocations).

Typical use::

    from repro import api, obs

    with obs.capture() as run:                 # metrics only
        estimate = api.blocking(3, 3, 4, 1)
    print(run.metrics.snapshot()["counters"])

    import sys
    with obs.capture(tracer=obs.Tracer(sys.stdout)):  # metrics + JSONL trace
        api.blocking(3, 3, 2, 1)
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACE_SCHEMA, Tracer, validate_record

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.multistage.network import MulticastConnection, ThreeStageNetwork
    from repro.multistage.routing import CoverSearch

__all__ = [
    "Capture",
    "MetricsRegistry",
    "TRACE_SCHEMA",
    "Tracer",
    "active",
    "capture",
    "enabled",
    "inc",
    "observe",
    "on_admit",
    "on_block",
    "on_release",
    "validate_record",
]


@dataclass(frozen=True)
class Capture:
    """Handle yielded by :func:`capture`: its registry plus the tracer."""

    metrics: MetricsRegistry
    tracer: Tracer | None

    def summary(self) -> dict[str, Any]:
        """Metrics snapshot plus trace summary for this capture."""
        out: dict[str, Any] = {"metrics": self.metrics.snapshot()}
        if self.tracer is not None:
            out["trace"] = self.tracer.summary_record()
        return out


#: the active capture of the current context, None outside every capture
_RUN: ContextVar[Capture | None] = ContextVar("repro_obs_capture", default=None)
#: the getter, bound once: the hooks call it without a lookup
_active = _RUN.get
#: True exactly while ``_RUN`` holds a capture; :func:`capture` sets and
#: resets the two together
_ON: ContextVar[bool] = ContextVar("repro_obs_enabled", default=False)
#: Is a capture active?  The hot-path guard: the flag's bound getter,
#: so a read is one C call that returns a real bool for this context.
enabled = _ON.get


def active() -> Capture | None:
    """The active capture, or None."""
    return _active()


@contextmanager
def capture(*, tracer: Tracer | None = None) -> Iterator[Capture]:
    """Observe a ``with`` block into a fresh :class:`Capture` and yield it.

    Args:
        tracer: a :class:`Tracer` to receive the JSONL trace; None
            (default) means metrics only.
    """
    run = Capture(metrics=MetricsRegistry(), tracer=tracer)
    token = _RUN.set(run)
    on = _ON.set(True)
    try:
        yield run
    finally:
        _ON.reset(on)
        _RUN.reset(token)


# -- guarded recording helpers (no-ops while disabled) -----------------------


def inc(name: str, value: int = 1) -> None:
    """Counter increment that is a no-op (and allocation-free) when off."""
    run = _active()
    if run is None:
        return
    run.metrics.inc(name, value)


def observe(name: str, seconds: float) -> None:
    """Timer observation that is a no-op (and allocation-free) when off."""
    run = _active()
    if run is None:
        return
    run.metrics.observe(name, seconds)


# -- hot-path hooks ----------------------------------------------------------
#
# The simulator calls these behind its own ``if obs.enabled():`` guard,
# but each hook re-checks for a capture so a direct call is equally
# safe; the disabled path returns before allocating anything.


def _record_cover_stats(metrics: MetricsRegistry, stats: "CoverSearch | None") -> None:
    if stats is None:
        return
    if stats.greedy_hit:
        metrics.inc("route.cover.greedy_hits")
    if stats.exact_nodes:
        metrics.inc("route.cover.exact_nodes", stats.exact_nodes)


def on_admit(
    net: "ThreeStageNetwork",
    connection_id: int,
    stats: "CoverSearch | None" = None,
) -> None:
    """Record one admitted connection (and trace it if tracing).

    Only the tracer reads the connection's routed view, so a
    metrics-only capture never builds it.
    """
    run = _active()
    if run is None:
        return
    run.metrics.inc("net.admit.attempts")
    run.metrics.inc("net.admit.admitted")
    _record_cover_stats(run.metrics, stats)
    if run.tracer is not None:
        routed = net._routed(connection_id)
        request = routed.request
        run.tracer.emit(
            {
                "event": "admit",
                "connection_id": routed.connection_id,
                "source": [request.source.port, request.source.wavelength],
                "destinations": [
                    [d.port, d.wavelength] for d in request.destinations
                ],
                "middles": [branch.middle for branch in routed.branches],
                "branches": [
                    [
                        branch.middle,
                        branch.in_wavelength,
                        [[p, w] for p, w in branch.deliveries],
                    ]
                    for branch in routed.branches
                ],
            }
        )


def on_block(
    net: "ThreeStageNetwork",
    request: "MulticastConnection",
    cause: dict[str, Any],
    stats: "CoverSearch | None" = None,
) -> None:
    """Record one blocked request with its reconstructed cause."""
    run = _active()
    if run is None:
        return
    run.metrics.inc("net.admit.attempts")
    run.metrics.inc("net.admit.blocked")
    run.metrics.inc(f"net.block.cause.{cause['kind']}")
    _record_cover_stats(run.metrics, stats)
    if run.tracer is not None:
        run.tracer.emit(
            {
                "event": "block",
                "source": [request.source.port, request.source.wavelength],
                "destinations": [
                    [d.port, d.wavelength] for d in request.destinations
                ],
                "cause": cause,
            }
        )


def on_release(net: "ThreeStageNetwork", connection_id: int) -> None:
    """Record one teardown."""
    run = _active()
    if run is None:
        return
    run.metrics.inc("net.release")
    if run.tracer is not None:
        run.tracer.emit({"event": "release", "connection_id": connection_id})


# -- lazy heavy exports ------------------------------------------------------
#
# ``meta`` pulls in repro.perf (and through it the multistage package);
# importing it eagerly here would cycle with the simulator modules that
# import repro.obs for their hook guards.


def __getattr__(name: str) -> Any:  # pragma: no cover - thin import shim
    if name in ("meta", "ResultMeta"):
        import importlib

        meta = importlib.import_module("repro.obs.meta")
        globals().update(meta=meta, ResultMeta=meta.ResultMeta)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
