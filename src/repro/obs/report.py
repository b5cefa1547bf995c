"""Aggregation and export of one run's observations (:class:`ObsReport`).

The raw observability state is spread over the process-wide metrics
registry (already merged across :class:`repro.perf.ParallelSweeper`
worker processes by the sweeper's obs-aware chunk runner), the active
:class:`~repro.obs.trace.Tracer`, and the run's resolved
:class:`~repro.perf.sweeper.ExecutionPlan`, which the caller passes in.
:func:`ObsReport.collect` snapshots all three into one
JSON-serializable object that the CLI renders (``wdm-repro trace``),
the benches export, and :class:`repro.obs.meta.ResultMeta` embeds into
results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["ObsReport", "merge_snapshots"]


def merge_snapshots(snapshots: list[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold worker-process metrics snapshots into one combined snapshot.

    Counters and timers accumulate; gauges take the last snapshot's
    value -- the same semantics as
    :meth:`repro.obs.metrics.MetricsRegistry.merge`, but as a pure
    function over plain dicts (usable on snapshots that crossed a
    pickle boundary without touching the live registry).
    """
    from repro.obs.metrics import MetricsRegistry

    combined = MetricsRegistry()
    for snapshot in snapshots:
        combined.merge(snapshot)
    return combined.snapshot()


@dataclass(frozen=True)
class ObsReport:
    """One run's merged observations: metrics + trace summary + plan."""

    metrics: dict[str, Any] = field(default_factory=dict)
    trace: dict[str, Any] | None = None
    plan: dict[str, Any] | None = None

    @classmethod
    def collect(cls, plan: Any = None) -> "ObsReport":
        """Snapshot the current process's observability state.

        Args:
            plan: the run's :class:`~repro.perf.sweeper.ExecutionPlan`
                (or dict) to embed -- a sweeper's ``last_plan`` or an
                estimate's ``meta.plan``; None records no plan.
        """
        from repro import obs

        active = obs.tracer()
        return cls(
            metrics=obs.REGISTRY.snapshot(),
            trace=active.summary_record() if active is not None else None,
            plan=plan.as_dict() if hasattr(plan, "as_dict") else plan,
        )

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {"metrics": self.metrics, "trace": self.trace, "plan": self.plan}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "ObsReport":
        data = json.loads(payload)
        return cls(
            metrics=data.get("metrics", {}),
            trace=data.get("trace"),
            plan=data.get("plan"),
        )

    def render(self) -> str:
        """Human-readable multi-line summary (CLI footer format)."""
        lines: list[str] = []
        counters = self.metrics.get("counters", {})
        if counters:
            lines.append("counters:")
            for name in sorted(counters):
                lines.append(f"  {name} = {counters[name]}")
        timers = self.metrics.get("timers", {})
        if timers:
            lines.append("timers:")
            for name in sorted(timers):
                count, total = timers[name]
                mean = total / count if count else 0.0
                lines.append(
                    f"  {name}: n={count} total={total:.6f}s mean={mean:.6f}s"
                )
        gauges = self.metrics.get("gauges", {})
        if gauges:
            lines.append("gauges:")
            for name in sorted(gauges):
                lines.append(f"  {name} = {gauges[name]}")
        if self.trace is not None:
            causes = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.trace.get("causes", {}).items())
            ) or "none"
            lines.append(
                "trace: attempts={attempts} admitted={admitted} "
                "blocked={blocked} released={released}".format(**self.trace)
            )
            lines.append(f"  causes: {causes}")
        if self.plan is not None:
            lines.append(
                "plan: executor={executor} jobs={resolved_jobs} "
                "units={units} dispatched={dispatched} "
                "cache_hits={cache_hits}".format(**self.plan)
            )
        return "\n".join(lines) if lines else "no observations recorded"
