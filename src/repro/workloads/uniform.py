"""Uniform-random multicast traffic (the compatibility anchor)."""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.core.models import MulticastModel
from repro.switching.generators import TrafficOp, traffic_ops
from repro.workloads.base import WorkloadConfig, register_workload

__all__ = ["UniformConfig"]


@register_workload
@dataclass(frozen=True)
class UniformConfig(WorkloadConfig):
    """Uniform-random arrivals (the historical generator, bit-identical).

    Sources, fanouts, destination ports and wavelengths are all drawn
    uniformly over the feasible choices -- exactly
    :func:`repro.switching.generators.traffic_ops` with no hooks,
    so every stream this config produces is bit-identical to the
    pre-workload-library generator for the same ``(seed, antithetic)``
    pair (the golden-seed contract the equivalence tests assert).  It
    is also the only workload whose :meth:`token` is ``None``: uniform
    runs keep their legacy cache keys and adaptive schedules verbatim.
    """

    workload: ClassVar[str] = "uniform"

    def ops(
        self,
        model: MulticastModel,
        n_ports: int,
        k: int,
        *,
        steps: int,
        rng: random.Random,
        max_fanout: int | None,
    ) -> Iterator[TrafficOp]:
        return traffic_ops(
            model, n_ports, k, steps=steps, rng=rng, max_fanout=max_fanout
        )

    def token(self) -> dict[str, Any] | None:
        return None
