"""The tests' shorthand for a :class:`repro.perf.batch.CurveSpec`."""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.core.models import Construction, MulticastModel
from repro.perf.batch import CurveSpec
from repro.workloads import UniformConfig, WorkloadConfig


def curve(
    n: int,
    r: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    steps: int = 1500,
    workload: WorkloadConfig | None = None,
    fabric: str = "clos",
    **traffic: Any,
) -> CurveSpec:
    """A spec with the estimators' usual defaults.

    ``traffic`` fields (``seeds``, ``max_fanout``, ...) build uniform
    traffic, or replace those fields of ``workload`` when one is given.
    """
    if workload is None:
        workload = UniformConfig(**traffic)
    elif traffic:
        workload = replace(workload, **traffic)
    return CurveSpec(n, r, k, construction, model, x, steps, workload, fabric)
