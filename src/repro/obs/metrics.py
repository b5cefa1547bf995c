"""Counters and timers for the observability layer.

A :class:`MetricsRegistry` is a plain in-memory accumulator: counters
are summed integers and timers are ``(count, total_seconds)`` pairs.
Each :func:`repro.obs.capture` owns a fresh registry, which the hooks
write to while that capture is active (see :mod:`repro.obs`).

Two properties make the registry fit the repo's hot paths:

* **mergeable snapshots** -- :meth:`MetricsRegistry.snapshot` returns a
  plain-dict copy and :meth:`MetricsRegistry.merge` folds one back in
  (counters and timers add), which is how
  :class:`repro.perf.ParallelSweeper` aggregates metrics collected in
  worker processes into the parent's capture;
* **thread safety** -- mutations take a lock, so threads that share one
  capture (a copied :mod:`contextvars` context) lose no counts.

This module is intentionally dependency-free (stdlib only): the hot
paths import it transitively via :mod:`repro.obs`, and any import of a
heavier module here would create cycles with the simulator packages.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """In-memory metrics accumulator (counters / timers)."""

    __slots__ = ("_lock", "counters", "timers")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> summed integer count
        self.counters: dict[str, int] = {}
        #: name -> (observation count, total seconds)
        self.timers: dict[str, tuple[int, float]] = {}

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Record one observation of ``seconds`` under timer ``name``."""
        with self._lock:
            count, total = self.timers.get(name, (0, 0.0))
            self.timers[name] = (count + 1, total + seconds)

    # -- aggregation --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy of the current state (JSON-serializable)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {
                    name: [count, total] for name, (count, total) in self.timers.items()
                },
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this registry.

        Counters and timers accumulate.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, (count, total) in snapshot.get("timers", {}).items():
                have_count, have_total = self.timers.get(name, (0, 0.0))
                self.timers[name] = (have_count + count, have_total + total)
