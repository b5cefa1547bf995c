"""The shared result-metadata envelope (:class:`ResultMeta`).

Every result the public facade (:mod:`repro.api`) returns --
:class:`~repro.analysis.montecarlo.BlockingEstimate`, the exact-search
summaries, sweep tables -- carries one :class:`ResultMeta` describing
*how* the numbers were produced: the cache code version, the routing
kernel that ran, the executor plan the sweeper resolved, and (when a
capture was active) that capture's obs summary.  One envelope instead
of ad-hoc metadata dicts means every result answers the same
provenance questions the same way, and ``to_json()``/``from_json()``
round-trips make results self-describing on disk.

The plan and obs summary are stored as canonical JSON *strings*
(``plan_json`` / ``obs_json``), not dicts: results embedding a
:class:`ResultMeta` stay frozen-dataclass hashable and equality is
content equality.  The parsed views are the :attr:`ResultMeta.plan`
and :attr:`ResultMeta.obs` properties.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.perf.cache import CODE_VERSION

__all__ = ["ResultMeta"]


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ResultMeta:
    """Provenance envelope shared by every :mod:`repro.api` result.

    Attributes:
        code_version: :data:`repro.perf.cache.CODE_VERSION` at compute
            time -- the cache-compatibility generation of the numbers.
        kernel: the routing kernel id that produced them
            (``"bitmask"`` / ``"batched"``).
        plan_json: canonical JSON of the
            :class:`~repro.perf.sweeper.ExecutionPlan` that ran the
            sweep, or None when no sweeper was involved.
        obs_json: canonical JSON of the summary of the
            :func:`repro.obs.capture` active during the run, or None
            when no capture was active.
        workload_json: canonical JSON of the tagged
            :meth:`repro.workloads.WorkloadConfig.as_dict` form of the
            traffic model that produced the numbers, or None for
            results predating the workload library (or paths that
            bypass it); ``repro.workloads.workload_from_dict`` rebuilds
            the config, so a result names exactly the traffic that
            produced it.  Records written while the adversary was a
            workload field also hold ``adversarial`` and
            ``adversary_seeds``, which the rebuild drops.
    """

    code_version: str
    kernel: str
    plan_json: str | None = None
    obs_json: str | None = None
    workload_json: str | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def capture(
        cls,
        plan: Any = None,
        *,
        kernel: str = "bitmask",
        obs_summary: dict[str, Any] | None = None,
        workload: Any = None,
    ) -> "ResultMeta":
        """Build the envelope of one run.

        Args:
            plan: an :class:`~repro.perf.sweeper.ExecutionPlan`, an
                equivalent dict, or None.
            kernel: the routing kernel the run used.
            obs_summary: an explicit observability summary; by default
                the envelope records the summary of the active
                :func:`repro.obs.capture`, nothing outside one.
            workload: the :class:`repro.workloads.WorkloadConfig` the
                run sampled (its tagged ``as_dict`` form is stored), an
                equivalent dict, or None.
        """
        from repro import obs

        run = obs.active()
        if obs_summary is None and run is not None:
            obs_summary = run.summary()
        plan_dict = plan.as_dict() if hasattr(plan, "as_dict") else plan
        workload_dict = (
            workload.as_dict() if hasattr(workload, "as_dict") else workload
        )
        return cls(
            code_version=CODE_VERSION,
            kernel=kernel,
            plan_json=_canonical(plan_dict) if plan_dict is not None else None,
            obs_json=_canonical(obs_summary) if obs_summary is not None else None,
            workload_json=(
                _canonical(workload_dict) if workload_dict is not None else None
            ),
        )

    # -- parsed views --------------------------------------------------------

    @property
    def plan(self) -> dict[str, Any] | None:
        """The execution plan as a dict, or None."""
        return json.loads(self.plan_json) if self.plan_json is not None else None

    @property
    def obs(self) -> dict[str, Any] | None:
        """The observability summary as a dict, or None."""
        return json.loads(self.obs_json) if self.obs_json is not None else None

    @property
    def workload(self) -> dict[str, Any] | None:
        """The tagged workload-config dict, or None."""
        return (
            json.loads(self.workload_json)
            if self.workload_json is not None
            else None
        )

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """Fully parsed dict form (plan/obs expanded)."""
        return {
            "code_version": self.code_version,
            "kernel": self.kernel,
            "plan": self.plan,
            "obs": self.obs,
            "workload": self.workload,
        }

    def to_json(self) -> str:
        """Canonical JSON; inverse of :meth:`from_json`."""
        return _canonical(
            {
                "code_version": self.code_version,
                "kernel": self.kernel,
                "plan_json": self.plan_json,
                "obs_json": self.obs_json,
                "workload_json": self.workload_json,
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "ResultMeta":
        """Rebuild an envelope from :meth:`to_json` output.

        Backward compatible: payloads written before ``workload_json``
        existed load with it as None.
        """
        data = json.loads(payload)
        return cls(
            code_version=data["code_version"],
            kernel=data["kernel"],
            plan_json=data.get("plan_json"),
            obs_json=data.get("obs_json"),
            workload_json=data.get("workload_json"),
        )
