"""Seeded random assignment and dynamic-traffic generators.

Two kinds of randomness are needed by the reproduction:

* **static assignments** -- random legal multicast assignments of a
  crossbar network, used to exercise the fabric simulator
  (:mod:`repro.fabric`) on inputs it has never seen;
* **dynamic traffic** -- randomized sequences of connection setups and
  teardowns, used to fuzz the three-stage simulator: Theorems 1-2 claim
  the network never blocks under *any* such sequence once ``m`` meets
  the bound, which is exactly the property the fuzz tests assert.

All randomness flows through :class:`random.Random` instances seeded by
the caller, so every test and benchmark is reproducible.

Dynamic traffic keeps its free endpoints in one :class:`FreeEndpoints`
index, updated once per event, and :func:`draw_connection` reads the
index's sorted lists directly.  A setup attempt therefore costs its RNG
draws, and an event a few ``bisect`` list updates per endpoint it takes
or releases; nothing rebuilds or re-sorts the fabric's ``N * k``
endpoints.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Literal

from repro.core.models import MulticastModel
from repro.switching.enumeration import _compatible
from repro.switching.requests import Endpoint, MulticastAssignment, MulticastConnection

__all__ = [
    "AntitheticRandom",
    "AssignmentGenerator",
    "FreeEndpoints",
    "TrafficEvent",
    "draw_connection",
    "dynamic_traffic",
    "stream_rng",
]

#: workload hook: ``(rng, fanout_cap) -> fanout`` (clamped to [1, cap])
FanoutPicker = Callable[[random.Random, int], int]
#: workload hook: ``(rng, eligible, fanout) -> ports`` where
#: ``eligible`` is the ascending list of output ports offering an
#: admissible free wavelength; must return ``fanout`` distinct members.
#: ``eligible`` is the index's live list: read it, never mutate it.
PortPicker = Callable[[random.Random, Sequence[int], int], list[int]]


class AntitheticRandom(random.Random):
    """The antithetic mirror of a seeded :class:`random.Random` stream.

    Every primitive draw is complemented -- ``random()`` returns
    ``1 - u`` and ``getrandbits(k)`` returns the bitwise complement --
    so all derived draws (``randrange``, ``choice``, ``sample``, ...)
    come from the mirrored stream.  The marginal distribution of each
    draw is unchanged (``1 - U`` is uniform, the complement of uniform
    ``k``-bit words is uniform, and rejection sampling accepts both
    streams identically in distribution), so an antithetic replication
    is as unbiased as its twin; but the two streams' draws are
    negatively coupled, which is what makes averaging a
    ``(seed, antithetic-seed)`` pair a variance-reduction device for
    the adaptive sweep driver (:mod:`repro.perf.adaptive`).
    """

    def random(self) -> float:
        value = 1.0 - super().random()
        # super().random() is in [0, 1), so the mirror is in (0, 1];
        # fold the measure-zero endpoint back to keep the contract.
        return value if value < 1.0 else 0.0

    def getrandbits(self, k: int) -> int:
        return (1 << k) - 1 - super().getrandbits(k)


def stream_rng(seed: int, antithetic: bool = False) -> random.Random:
    """The RNG stream of one replication: ``seed``'s stream or its mirror.

    The single constructor every traffic path (serial cell, stream
    compiler) uses, so a ``(seed, antithetic)`` pair names the same
    stream everywhere -- the bit-identity contract of the adaptive
    rounds.
    """
    return AntitheticRandom(seed) if antithetic else random.Random(seed)


class AssignmentGenerator:
    """Generates random legal assignments of an ``N x N`` ``k``-wavelength net.

    Sampling walks the output endpoints in random order and picks a
    compatible input endpoint (or idle) uniformly at each step.  The
    distribution is *not* uniform over assignments -- it doesn't need to
    be; it just needs to cover the legal space and be reproducible.
    """

    def __init__(
        self,
        model: MulticastModel,
        n_ports: int,
        k: int,
        rng: random.Random | int | None = None,
    ):
        if n_ports < 1 or k < 1:
            raise ValueError(f"need N >= 1 and k >= 1, got N={n_ports}, k={k}")
        self.model = model
        self.n_ports = n_ports
        self.k = k
        if isinstance(rng, random.Random):
            self._rng = rng
        else:
            self._rng = random.Random(rng)

    def random_mapping(self, idle_probability: float = 0.3) -> dict[Endpoint, Endpoint]:
        """One random output->input endpoint mapping.

        Args:
            idle_probability: chance each output endpoint stays idle
                (0.0 forces an attempt at a full assignment; an output
                may still idle if no compatible input remains, which for
                these models cannot actually happen -- there is always a
                same-wavelength input free -- so 0.0 yields full
                assignments).
        """
        outputs = [
            Endpoint(port, wavelength)
            for port in range(self.n_ports)
            for wavelength in range(self.k)
        ]
        inputs = list(outputs)
        self._rng.shuffle(outputs)
        chosen: dict[Endpoint, Endpoint] = {}
        for output_endpoint in outputs:
            if idle_probability and self._rng.random() < idle_probability:
                continue
            candidates = [
                input_endpoint
                for input_endpoint in inputs
                if _compatible(self.model, output_endpoint, input_endpoint, chosen)
            ]
            if not candidates:
                continue
            chosen[output_endpoint] = self._rng.choice(candidates)
        return chosen

    def random_assignment(self, idle_probability: float = 0.3) -> MulticastAssignment:
        """One random legal :class:`MulticastAssignment`."""
        return MulticastAssignment.from_mapping(
            self.random_mapping(idle_probability)
        )

    def random_full_assignment(self) -> MulticastAssignment:
        """One random legal *full* assignment (every output endpoint used)."""
        return MulticastAssignment.from_mapping(self.random_mapping(0.0))


@dataclass(frozen=True)
class TrafficEvent:
    """One step of a dynamic traffic sequence."""

    kind: Literal["setup", "teardown"]
    connection: MulticastConnection
    connection_id: int


class FreeEndpoints:
    """The free endpoints of an ``N x N``, ``k``-wavelength fabric.

    Input endpoints are int codes ``port * k + wavelength`` (numeric
    order equals ``Endpoint`` order); output endpoints are indexed by
    port and by wavelength.  Every list is ascending and kept so by
    :meth:`take`/:meth:`release` with ``bisect``, so
    :func:`draw_connection` can hand the lists straight to
    ``rng.choice`` and ``rng.sample``: the pinned streams draw from
    the ascending free populations.

    Attributes:
        k: wavelengths per fiber.
        inputs: free input endpoint codes.
        ports_on: per wavelength, the output ports free on it.
        waves_at: per output port, its free wavelengths.
        ports_any: output ports with at least one free wavelength.
    """

    __slots__ = ("k", "inputs", "ports_on", "waves_at", "ports_any")

    def __init__(self, n_ports: int, k: int):
        self.k = k
        self.inputs = list(range(n_ports * k))
        self.ports_on = [list(range(n_ports)) for _ in range(k)]
        self.waves_at = [list(range(k)) for _ in range(n_ports)]
        self.ports_any = list(range(n_ports))

    def take(self, connection: MulticastConnection) -> None:
        """Mark ``connection``'s endpoints busy.

        Raises ValueError if one of them is not free; the index is then
        part-updated and unusable (the generators only take endpoints
        they just drew, so this is a programming error).
        """
        source = connection.source
        inputs = self.inputs
        code = source.port * self.k + source.wavelength
        index = bisect_left(inputs, code)
        if index == len(inputs) or inputs[index] != code:
            raise ValueError(f"input endpoint {source} is not free")
        del inputs[index]
        ports_on, waves_at = self.ports_on, self.waves_at
        for destination in connection.destinations:
            port, wavelength = destination.port, destination.wavelength
            # waves_at and ports_on describe the same endpoints, so
            # checking one of them checks both
            waves = waves_at[port]
            index = bisect_left(waves, wavelength)
            if index == len(waves) or waves[index] != wavelength:
                raise ValueError(f"output endpoint {destination} is not free")
            del waves[index]
            if not waves:
                ports_any = self.ports_any
                del ports_any[bisect_left(ports_any, port)]
            ports = ports_on[wavelength]
            del ports[bisect_left(ports, port)]

    def release(self, connection: MulticastConnection) -> None:
        """Mark ``connection``'s endpoints free.

        Raises ValueError, like :meth:`take`, if one of them is already
        free.
        """
        source = connection.source
        inputs = self.inputs
        code = source.port * self.k + source.wavelength
        index = bisect_left(inputs, code)
        if index < len(inputs) and inputs[index] == code:
            raise ValueError(f"input endpoint {source} is already free")
        inputs.insert(index, code)
        ports_on, waves_at = self.ports_on, self.waves_at
        for destination in connection.destinations:
            port, wavelength = destination.port, destination.wavelength
            waves = waves_at[port]
            index = bisect_left(waves, wavelength)
            if index < len(waves) and waves[index] == wavelength:
                raise ValueError(
                    f"output endpoint {destination} is already free"
                )
            if not waves:
                insort(self.ports_any, port)
            waves.insert(index, wavelength)
            insort(ports_on[wavelength], port)


def draw_connection(
    rng: random.Random,
    model: MulticastModel,
    free: FreeEndpoints,
    cap: int,
    pick_fanout: FanoutPicker | None = None,
    pick_ports: PortPicker | None = None,
) -> MulticastConnection | None:
    """One feasible random connection over the free endpoint index.

    The single draw sequence every traffic model shares (source
    endpoint, admissible wavelength, fanout, destination ports,
    per-port wavelength); :func:`dynamic_traffic` and the
    continuous-time Poisson/Erlang workload both route through it, so
    endpoint feasibility is stated once.  It leaves ``free`` unchanged;
    the caller passes the connection it keeps to
    :meth:`FreeEndpoints.take`.

    Each draw reads a stored list of ``free`` -- the free input codes,
    the ports free on the allowed wavelength (MSW/MSDW) or with any
    free wavelength (MAW), and each chosen port's free wavelengths --
    so a call costs its RNG draws and the connection it builds,
    independent of ``N * k``.  MSW/MSDW destinations draw their one
    admissible wavelength with ``rng.choice`` too: that call consumes
    random bits, and the streams are pinned with it.

    The two hooks are the workload seam: ``pick_fanout`` replaces the
    uniform fanout draw (heavy-tail group sizes), ``pick_ports`` the
    uniform destination-port sample (hotspot skew).  ``pick_ports``
    receives the index's live eligible-port list: it must only read
    it, since mutating it would corrupt ``free``.  With both ``None``
    the draws -- and hence every stream compiled from them -- are
    bit-identical to the historical generator, which is the uniform
    workload's compatibility contract.

    Returns None when no feasible connection exists (no free input, or
    no output port offers an admissible wavelength).
    """
    inputs = free.inputs
    if not inputs:
        return None
    source = Endpoint(*divmod(rng.choice(inputs), free.k))
    if model is MulticastModel.MSW:
        allowed: int | None = source.wavelength
    elif model is MulticastModel.MSDW:
        allowed = rng.randrange(free.k)
    else:
        allowed = None  # MAW: every wavelength admissible
    eligible = free.ports_any if allowed is None else free.ports_on[allowed]
    if not eligible:
        return None
    fanout_cap = min(cap, len(eligible))
    if pick_fanout is None:
        fanout = rng.randint(1, fanout_cap)
    else:
        fanout = max(1, min(fanout_cap, pick_fanout(rng, fanout_cap)))
    if pick_ports is None:
        ports = rng.sample(eligible, fanout)
    else:
        ports = pick_ports(rng, eligible, fanout)
    if allowed is None:
        waves_at = free.waves_at
        destinations = [
            Endpoint(port, rng.choice(waves_at[port])) for port in ports
        ]
    else:
        only = (allowed,)
        destinations = [Endpoint(port, rng.choice(only)) for port in ports]
    return MulticastConnection(source, destinations)


def dynamic_traffic(
    model: MulticastModel,
    n_ports: int,
    k: int,
    *,
    steps: int,
    seed: int | random.Random,
    max_fanout: int | None = None,
    teardown_probability: float = 0.35,
    pick_fanout: FanoutPicker | None = None,
    pick_ports: PortPicker | None = None,
) -> Iterator[TrafficEvent]:
    """Yield a random feasible sequence of connection setups/teardowns.

    Every prefix of the generated sequence keeps the set of active
    connections a legal multicast assignment under ``model``; a
    nonblocking network must therefore accept every setup event.

    The free endpoints live in one :class:`FreeEndpoints` index that
    each event updates (a setup takes its endpoints, a teardown
    releases them), so a setup attempt never rescans the fabric -- the
    generator sits on the hot path of every Monte-Carlo sweep.  A
    teardown picks uniformly from the live connection ids in ascending
    order.

    Args:
        model: multicast model the connections must obey.
        n_ports: network size ``N``.
        k: wavelengths per fiber.
        steps: number of events to generate (fewer if the traffic space
            is exhausted, which only happens for degenerate sizes).
        seed: RNG seed; identical seeds give identical sequences.  A
            ``random.Random`` instance is used directly, letting a caller
            thread one stream per replication end-to-end.
        max_fanout: cap on destinations per connection (default ``N``).
        teardown_probability: chance a step tears down an active
            connection instead of setting up a new one.
        pick_fanout, pick_ports: the :func:`draw_connection` workload
            hooks (None keeps the bit-identical uniform draws).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cap = n_ports if max_fanout is None else min(max_fanout, n_ports)
    if cap < 1:
        raise ValueError(f"max_fanout must allow at least one destination, got {cap}")

    free = FreeEndpoints(n_ports, k)
    # ids are issued in ascending order and dicts keep insertion order,
    # so list(active) is the sorted id list the teardown draw expects
    active: dict[int, MulticastConnection] = {}
    next_id = 0

    def teardown() -> TrafficEvent:
        connection_id = rng.choice(list(active))
        connection = active.pop(connection_id)
        free.release(connection)
        return TrafficEvent("teardown", connection, connection_id)

    for _ in range(steps):
        if active and (rng.random() < teardown_probability or not free.inputs):
            yield teardown()
            continue
        connection = draw_connection(
            rng, model, free, cap, pick_fanout, pick_ports
        )
        if connection is None:
            if not active:
                return  # nothing to do in either direction
            yield teardown()
            continue
        free.take(connection)
        active[next_id] = connection
        yield TrafficEvent("setup", connection, next_id)
        next_id += 1
