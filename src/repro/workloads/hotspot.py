"""Zipf-skewed hotspot destination traffic."""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import ClassVar

from repro.core.models import MulticastModel
from repro.switching.generators import TrafficOp, traffic_ops
from repro.workloads.base import WorkloadConfig, register_workload

__all__ = ["HotspotConfig"]


@register_workload
@dataclass(frozen=True)
class HotspotConfig(WorkloadConfig):
    """Zipf-skewed destination popularity with a configurable hot set.

    The first ``ceil(hot_fraction * N)`` output ports are *hotspots*:
    hot port ``i`` carries Zipf weight ``(i + 1) ** -zipf_s`` while
    every cold port shares the flat tail weight ``(H + 1) ** -zipf_s``
    (``H`` = hot-set size), the shape of the WDM-packet-ring hotspot
    study.  Destination ports are drawn by weighted sampling without
    replacement among the *currently feasible* ports -- the
    ``pick_ports`` hook this model passes to
    :func:`repro.switching.generators.traffic_ops` -- so the stream
    keeps the guaranteed-legality contract: only the popularity
    changes, never the feasibility bookkeeping, which stays in
    :func:`repro.switching.generators.draw_connection` (it also checks
    that the hook returns ``fanout`` distinct eligible ports).

    Attributes:
        zipf_s: Zipf exponent of the hot set (larger = more skew).
        hot_fraction: fraction of output ports forming the hot set,
            in (0, 1].
    """

    zipf_s: float = 1.2
    hot_fraction: float = 0.25

    workload: ClassVar[str] = "hotspot"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.zipf_s <= 0.0:
            raise ValueError(f"zipf_s must be > 0, got {self.zipf_s}")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in (0, 1], got {self.hot_fraction}"
            )

    def _weight_table(self, n_ports: int) -> list[float]:
        hot = max(1, round(self.hot_fraction * n_ports))
        tail = (hot + 1.0) ** -self.zipf_s
        return [
            (port + 1.0) ** -self.zipf_s if port < hot else tail
            for port in range(n_ports)
        ]

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
        weight_of = self._weight_table(n_ports)

        def pick_ports(
            pick_rng: random.Random,
            eligible: Sequence[int],
            fanout: int,
        ) -> list[int]:
            # Weighted sampling without replacement by cumulative scan:
            # O(fanout * ports), deterministic, and exact for the tiny
            # port counts of a fabric (no float-sum reordering).  The
            # eligible list is the generator's live index: pop from a
            # copy.
            ports = list(eligible)
            weights = [weight_of[port] for port in ports]
            chosen: list[int] = []
            for _ in range(fanout):
                total = sum(weights)
                threshold = pick_rng.random() * total
                acc = 0.0
                index = len(ports) - 1
                for i, weight in enumerate(weights):
                    acc += weight
                    if threshold < acc:
                        index = i
                        break
                chosen.append(ports.pop(index))
                weights.pop(index)
            return chosen

        return traffic_ops(
            model, n_ports, k,
            steps=steps, rng=rng, max_fanout=max_fanout,
            pick_ports=pick_ports,
        )
