"""Stochastic offered-load study: blocking vs Erlang load.

The paper motivates nonblocking designs by the absence of optical RAM:
a blocked connection is a *lost* connection.  This module quantifies
the loss a given (possibly under-provisioned) network suffers under a
classical teletraffic workload:

* connection requests arrive as a Poisson process of rate ``lambda``;
* holding times are exponential with mean ``1/mu``;
* offered load is ``rho = lambda / mu`` Erlangs;
* each request picks a free source endpoint uniformly and a random
  legal destination pattern (fanout geometric-ish, capped).

The output is the loss probability vs offered load -- the curve a
switch designer would use to decide how far below the nonblocking bound
they can afford to provision.  At ``m`` >= the corrected bound the loss
is exactly zero at every load, which the tests assert.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.core.models import Construction, MulticastModel
from repro.multistage.network import ThreeStageNetwork
from repro.switching.requests import Endpoint, MulticastConnection

__all__ = ["LoadPoint", "simulate_offered_load", "loss_vs_load"]


@dataclass(frozen=True)
class LoadPoint:
    """Loss statistics at one offered load.

    Fabric losses (the quantity the nonblocking theorems govern) are
    separated from endpoint-busy losses (the node simply has no free
    transmitter/receiver, which no switch design can fix).
    """

    offered_erlangs: float
    arrivals: int
    fabric_losses: int
    endpoint_losses: int
    mean_carried: float

    @property
    def fabric_loss_probability(self) -> float:
        """Fraction of arrivals refused by the switching fabric."""
        return self.fabric_losses / self.arrivals if self.arrivals else 0.0

    @property
    def endpoint_busy_probability(self) -> float:
        """Fraction of arrivals lost because endpoints were exhausted."""
        return self.endpoint_losses / self.arrivals if self.arrivals else 0.0


def _sample_request(
    net: ThreeStageNetwork, rng: random.Random, max_fanout: int
) -> MulticastConnection | None:
    topo = net.topology
    n_ports, k = topo.n_ports, topo.k
    free_inputs = [
        Endpoint(p, w)
        for p in range(n_ports)
        for w in range(k)
        if not net._input_used >> (p * k + w) & 1
    ]
    if not free_inputs:
        return None
    source = rng.choice(free_inputs)
    model = net.model
    if model is MulticastModel.MSW:
        allowed = [source.wavelength]
    elif model is MulticastModel.MSDW:
        allowed = [rng.randrange(k)]
    else:
        allowed = list(range(k))
    per_port: dict[int, list[int]] = {}
    for p in range(n_ports):
        free = [w for w in allowed if not net._output_used >> (p * k + w) & 1]
        if free:
            per_port[p] = free
    if not per_port:
        return None
    # Geometric-ish fanout: mostly small, occasionally wide.
    fanout = 1
    while fanout < min(max_fanout, len(per_port)) and rng.random() < 0.45:
        fanout += 1
    ports = rng.sample(sorted(per_port), fanout)
    return MulticastConnection(
        source, [Endpoint(p, rng.choice(per_port[p])) for p in ports]
    )


def simulate_offered_load(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    offered_erlangs: float,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    arrivals: int = 2000,
    seed: int = 0,
    max_fanout: int | None = None,
    selection: str = "greedy",
) -> LoadPoint:
    """Poisson arrivals / exponential holding on one network.

    Args:
        n, r, m, k: topology.
        offered_erlangs: ``arrival_rate * mean_holding``; the arrival
            rate is fixed at 1, the mean holding time at the offered
            load.
        construction, model, x: network configuration.
        arrivals: number of connection attempts to simulate.
        seed: RNG seed (fully deterministic).
        max_fanout: cap on destinations per request (default ``r``).

    Returns:
        The measured :class:`LoadPoint`.
    """
    if offered_erlangs <= 0:
        raise ValueError(f"offered load must be > 0, got {offered_erlangs}")
    rng = random.Random(seed)
    net = ThreeStageNetwork(
        n, r, m, k,
        construction=construction, model=model, x=x,
        selection=selection, selection_seed=seed,
    )
    cap = max_fanout if max_fanout is not None else r
    mean_holding = offered_erlangs  # arrival rate = 1

    clock = 0.0
    departures: list[tuple[float, int]] = []  # (time, connection id)
    fabric_losses = 0
    endpoint_losses = 0
    attempted = 0
    carried_area = 0.0
    last_time = 0.0

    while attempted < arrivals:
        clock += rng.expovariate(1.0)
        # Release everything that departed before this arrival.
        while departures and departures[0][0] <= clock:
            depart_time, cid = heapq.heappop(departures)
            carried_area += len(net.active_connections) * (depart_time - last_time)
            last_time = depart_time
            net.disconnect(cid)
        carried_area += len(net.active_connections) * (clock - last_time)
        last_time = clock

        request = _sample_request(net, rng, cap)
        attempted += 1
        if request is None:
            endpoint_losses += 1  # node out of transmitters/receivers
            continue
        cid = net.try_connect(request)
        if cid is None:
            fabric_losses += 1
            continue
        heapq.heappush(
            departures, (clock + rng.expovariate(1.0 / mean_holding), cid)
        )

    return LoadPoint(
        offered_erlangs=offered_erlangs,
        arrivals=attempted,
        fabric_losses=fabric_losses,
        endpoint_losses=endpoint_losses,
        mean_carried=carried_area / clock if clock > 0 else 0.0,
    )


def loss_vs_load(
    n: int,
    r: int,
    m: int,
    k: int,
    loads: list[float],
    **kwargs,
) -> list[LoadPoint]:
    """The loss-probability-vs-offered-load curve at fixed ``m``."""
    return [
        simulate_offered_load(n, r, m, k, offered_erlangs=load, **kwargs)
        for load in loads
    ]
