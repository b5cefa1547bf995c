"""Heavy-tailed (truncated Pareto) multicast fanout traffic."""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

from repro.core.models import MulticastModel
from repro.switching.generators import TrafficOp, traffic_ops
from repro.workloads.base import WorkloadConfig, register_workload

__all__ = ["HeavyTailFanoutConfig"]


@register_workload
@dataclass(frozen=True)
class HeavyTailFanoutConfig(WorkloadConfig):
    """Pareto-distributed multicast group sizes, truncated to the fabric.

    Fanouts follow a discrete heavy tail: ``f = floor(Pareto(alpha))``
    with scale 1, clamped to the feasible range ``[1, cap]`` (the
    fabric's free ports and ``max_fanout``).  Small ``alpha`` means
    frequent fabric-wide multicasts -- the stress regime where wide
    groups exhaust middle-stage cover sets long before uniform traffic
    would.  Destination ports
    stay uniform; only the group-size law changes, through the
    ``pick_fanout`` hook this model passes to
    :func:`repro.switching.generators.traffic_ops`.

    Attributes:
        alpha: Pareto tail exponent (> 0; smaller = heavier tail, so
            more near-broadcast groups).
    """

    alpha: float = 1.1

    workload: ClassVar[str] = "heavytail_fanout"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

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
        inverse_alpha = 1.0 / self.alpha

        def pick_fanout(pick_rng: random.Random, cap: int) -> int:
            # Inverse-CDF Pareto with scale 1: u in [0, 1) maps to
            # (1 - u) ** (-1/alpha) in [1, inf); the floor is the
            # discrete tail and draw_connection clamps to [1, cap].
            survival = 1.0 - pick_rng.random()
            try:
                return min(cap, int(survival ** -inverse_alpha))
            except OverflowError:
                # Small alpha: the power leaves float range, so the
                # draw is far above any cap.
                return cap

        return traffic_ops(
            model, n_ports, k,
            steps=steps, rng=rng, max_fanout=max_fanout,
            pick_fanout=pick_fanout,
        )
