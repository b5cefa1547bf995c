"""Poisson arrivals with exponential holding times (offered Erlangs)."""

from __future__ import annotations

import heapq
import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

from repro.core.models import MulticastModel
from repro.switching.generators import (
    SETUP,
    TEARDOWN,
    FreeEndpoints,
    TrafficOp,
    draw_connection,
)
from repro.workloads.base import WorkloadConfig, register_workload

__all__ = ["PoissonErlangConfig"]


@register_workload
@dataclass(frozen=True)
class PoissonErlangConfig(WorkloadConfig):
    """Poisson call arrivals with exponential holding times.

    A continuous-time loss model: calls arrive at rate
    ``offered_erlangs / mean_holding`` and hold for
    ``Exponential(mean_holding)``, so the offered load is
    ``offered_erlangs`` -- sweeps can be expressed in Erlangs instead
    of a teardown probability.  Setups and teardowns are emitted in
    simulated-time order (a heap of scheduled departures) until
    ``steps`` events have been produced; arrivals that find no feasible
    source endpoint are lost without an event, exactly like the
    discrete generator's infeasible draws.  Connection shapes reuse the
    shared :func:`repro.switching.generators.draw_connection` draw
    sequence over the same
    :class:`~repro.switching.generators.FreeEndpoints` index as the
    discrete generator, so feasibility (and hence replay legality) is
    inherited; the event clock runs on the same int-level ops, so the
    batched compiler builds no connection object here either.

    Attributes:
        offered_erlangs: offered load ``arrival rate x mean holding``
            (> 0; larger = more concurrent calls pressing the fabric).
        mean_holding: mean call duration in simulated time units (> 0;
            a pure time scale -- it cancels out of the event sequence
            except through ``offered_erlangs``).
    """

    offered_erlangs: float = 4.0
    mean_holding: float = 1.0

    workload: ClassVar[str] = "poisson_erlang"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.offered_erlangs <= 0.0:
            raise ValueError(
                f"offered_erlangs must be > 0, got {self.offered_erlangs}"
            )
        if self.mean_holding <= 0.0:
            raise ValueError(
                f"mean_holding must be > 0, got {self.mean_holding}"
            )

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
        cap = n_ports if max_fanout is None else min(max_fanout, n_ports)
        if cap < 1:
            raise ValueError(
                f"max_fanout must allow at least one destination, got {cap}"
            )
        arrival_rate = self.offered_erlangs / self.mean_holding
        departure_rate = 1.0 / self.mean_holding

        free = FreeEndpoints(n_ports, k, model)
        live: dict[int, TrafficOp] = {}
        departures: list[tuple[float, int]] = []
        now = 0.0
        emitted = 0
        next_id = 0

        while emitted < steps:
            now += rng.expovariate(arrival_rate)
            # Scheduled departures before this arrival leave first.
            while departures and departures[0][0] <= now and emitted < steps:
                _, connection_id = heapq.heappop(departures)
                _, _, source, ports, waves = live.pop(connection_id)
                free.release(source, ports, waves)
                emitted += 1
                yield TEARDOWN, connection_id, source, ports, waves
            if emitted >= steps:
                return
            drawn = draw_connection(rng, free, cap)
            if drawn is None:
                if not live:
                    return  # degenerate fabric: nothing can ever connect
                continue  # all sources busy: the offered call is lost
            source, ports, waves = drawn
            free.take(source, ports, waves)
            holding = rng.expovariate(departure_rate)
            heapq.heappush(departures, (now + holding, next_id))
            op = (SETUP, next_id, source, ports, waves)
            live[next_id] = op
            next_id += 1
            emitted += 1
            yield op
