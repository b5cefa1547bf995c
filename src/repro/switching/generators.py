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

Dynamic traffic is produced once, at the int level: :func:`traffic_ops`
yields ``(tag, connection_id, source_code, ports, waves)`` ops, drawing
each setup with :func:`draw_connection` over one :class:`FreeEndpoints`
index that every event updates.  The index keeps only the lists its
multicast model's draws read, and a draw spends its random words
straight from ``getrandbits``: each bounded value through the
stdlib's own rejection loop, without the ``choice``/``randrange``
frames around it, the destination ports through an inline copy of
``Random.sample`` (:func:`_sample`), and the wavelength bits of an
MSW/MSDW connection's destinations in a few multi-word
``getrandbits`` calls (:func:`_below_one`).  A setup attempt therefore
costs the Mersenne words its draws consume, not a Python call per
destination, and an event either a ``bisect`` list
update per endpoint it takes or releases, or -- when an MSW/MSDW
connection holds a large share of its wavelength's free ports -- one
pass over that wavelength's port list; nothing rebuilds or re-sorts
the fabric's ``N * k`` endpoints, and nothing builds an object per
endpoint.  The stream has two readers: the batched stream compiler
(:func:`repro.perf.batch.compile_stream`) folds the ops straight into
replay ops, and :func:`traffic_events` turns them into the
:class:`TrafficEvent` objects the serial simulator, the trace writer and
the tests read.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import ceil, log
from typing import Literal

from repro.core.models import MulticastModel
from repro.switching.enumeration import _compatible
from repro.switching.requests import Endpoint, MulticastAssignment, MulticastConnection

__all__ = [
    "SETUP",
    "TEARDOWN",
    "AntitheticRandom",
    "AssignmentGenerator",
    "FreeEndpoints",
    "TrafficEvent",
    "TrafficOp",
    "draw_connection",
    "dynamic_traffic",
    "stream_rng",
    "traffic_events",
    "traffic_ops",
]

#: op tags of the int-level traffic stream (the replay ops reuse them)
SETUP = 1
TEARDOWN = 0

#: one event of the int-level stream: ``(tag, connection_id,
#: source_code, ports, waves)``.  ``source_code`` is the input endpoint
#: ``port * k + wavelength``; ``ports`` are the destination ports in
#: draw order and ``waves`` their wavelengths, one per port.  A
#: teardown repeats its setup's fields.
TrafficOp = tuple[int, int, int, Sequence[int], Sequence[int]]

#: workload hook: ``(rng, fanout_cap) -> fanout`` (clamped to [1, cap])
FanoutPicker = Callable[[random.Random, int], int]
#: workload hook: ``(rng, eligible, fanout) -> ports`` where
#: ``eligible`` is the ascending list of output ports offering an
#: admissible free wavelength; must return ``fanout`` distinct members
#: (:func:`draw_connection` checks).  ``eligible`` is the index's live
#: list: read it, never mutate it.
PortPicker = Callable[[random.Random, Sequence[int], int], list[int]]

# The plain draws the mirror complements, looked up once: a
# zero-argument super() per draw costs more than the draw.
_plain_random = random.Random.random
_plain_getrandbits = random.Random.getrandbits


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
        value = 1.0 - _plain_random(self)
        # the plain draw is in [0, 1), so the mirror is in (0, 1];
        # fold the measure-zero endpoint back to keep the contract.
        return value if value < 1.0 else 0.0

    def getrandbits(self, k: int) -> int:
        return (1 << k) - 1 - _plain_getrandbits(self, k)


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


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)`` for ``n >= 1``: ``Random._randbelow``.

    The same rejection loop over ``getrandbits(n.bit_length())`` the
    stdlib's ``choice``, ``randrange`` and ``randint`` run, so it
    consumes the same bits and returns the same value, on a plain
    ``Random`` and on an :class:`AntitheticRandom` alike; the pinned
    streams were drawn through those methods.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(
    getrandbits: Callable[[int], int], population: Sequence[int], k: int
) -> list[int]:
    """``Random.sample(population, k)``: the same list from the same bits.

    The stdlib's algorithm for a sequence population (its source is
    the same in Python 3.10 through 3.13): while a ``k``-entry set's
    table would outweigh the population, draw from a pool list that
    moves its last unchosen member into each vacancy; otherwise draw
    indices into the population and redraw the ones already chosen.
    Each index is the rejection loop of :func:`_below`, inlined, so a
    destination costs its ``getrandbits`` words and no frame of its own.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    result = [0] * k
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # table size for big sets
    if n <= setsize:
        pool = list(population)
        for i in range(k):
            size = n - i
            bits = size.bit_length()
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[size - 1]
    else:
        selected: set[int] = set()
        selected_add = selected.add
        bits = n.bit_length()
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected_add(j)
            result[i] = population[j]
    return result


#: bit 31 of each of the lowest ``_TOP_WORDS`` 32-bit words
_TOP_WORDS = 1024
_TOP_BITS = int("80000000" * _TOP_WORDS, 16)


def _below_one(getrandbits: Callable[[int], int], count: int) -> None:
    """Spend the words of ``count`` ``_below(getrandbits, 1)`` calls.

    Each call draws ``getrandbits(1)`` -- the top bit of one 32-bit
    Mersenne word -- until it reads 0.  ``getrandbits(32 * c)`` returns
    the next ``c`` words, the first in the lowest 32 bits, so drawing
    as many words as zeros are still missing and counting their set top
    bits leaves the number still missing.  That never draws a word the
    calls would not: each missing zero needs at least one more word.
    So the calls' words are spent in about ``log2(count)`` draws.
    """
    while count:
        words = count if count <= _TOP_WORDS else _TOP_WORDS
        count -= words - (getrandbits(32 * words) & _TOP_BITS).bit_count()


def _in_one_pass(count: int, size: int) -> bool:
    """Whether ``count`` ports of a ``size``-long port list update in one pass.

    Per port, a ``bisect`` and a list delete or insert cost about as
    much as one pass spends on seven list entries, plus a fixed price
    for the pass's set; so one pass wins once the connection's ports
    are more than a seventh of the list, past a few ports.
    """
    return 7 * count > size + 21


class FreeEndpoints:
    """The free endpoints of an ``N x N``, ``k``-wavelength fabric.

    Input endpoints are int codes ``port * k + wavelength`` (numeric
    order equals ``Endpoint`` order).  Output endpoints are kept only
    in the lists ``model``'s draws read: under MSW and MSDW, per
    wavelength the ports free on it (``ports_on``); under MAW, per
    port its free wavelengths (``waves_at``) and the ports with any
    free wavelength (``ports_any``).  The other lists are never built:
    reading one raises AttributeError.  Every list is ascending, so
    :func:`draw_connection` can hand the lists straight to the RNG:
    the pinned streams draw from the ascending free populations.

    :meth:`take` and :meth:`release` take one connection as the ints
    of a :data:`TrafficOp`: its source code, and its destination ports
    with one wavelength each (under MSW and MSDW, one wavelength for
    every port, as the model requires).  An MSW/MSDW connection's
    ports all sit on one wavelength's list, so when they are a large
    share of it (:func:`_in_one_pass`) that list is rebuilt in one
    pass, and otherwise updated port by port with ``bisect``; MAW
    always updates port by port.

    Attributes:
        k: wavelengths per fiber.
        model: the multicast model whose draws read the index.
        inputs: free input endpoint codes.
        ports_on: MSW/MSDW: per wavelength, the output ports free on it.
        waves_at: MAW: per output port, its free wavelengths.
        ports_any: MAW: output ports with at least one free wavelength.
    """

    __slots__ = ("k", "model", "inputs", "ports_on", "waves_at", "ports_any")

    def __init__(self, n_ports: int, k: int, model: MulticastModel):
        self.k = k
        self.model = model
        self.inputs = list(range(n_ports * k))
        if model is MulticastModel.MAW:
            self.waves_at = [list(range(k)) for _ in range(n_ports)]
            self.ports_any = list(range(n_ports))
        else:
            self.ports_on = [list(range(n_ports)) for _ in range(k)]

    def take(
        self, source: int, ports: Sequence[int], waves: Sequence[int]
    ) -> None:
        """Mark input endpoint ``source`` and each ``(port, wave)`` busy.

        Raises ValueError if one of them is not free; the index is then
        part-updated and unusable (the generators only take endpoints
        they just drew, so this is a programming error).
        """
        inputs = self.inputs
        index = bisect_left(inputs, source)
        if index == len(inputs) or inputs[index] != source:
            raise ValueError(
                f"input endpoint {divmod(source, self.k)} is not free"
            )
        del inputs[index]
        if self.model is MulticastModel.MAW:
            waves_at = self.waves_at
            for port, wavelength in zip(ports, waves):
                free_waves = waves_at[port]
                index = bisect_left(free_waves, wavelength)
                if index == len(free_waves) or free_waves[index] != wavelength:
                    raise ValueError(
                        f"output endpoint {(port, wavelength)} is not free"
                    )
                del free_waves[index]
                if not free_waves:
                    ports_any = self.ports_any
                    del ports_any[bisect_left(ports_any, port)]
            return
        wavelength = waves[0]
        free_ports = self.ports_on[wavelength]
        if _in_one_pass(len(ports), len(free_ports)):
            taken = set(ports)
            kept = [port for port in free_ports if port not in taken]
            if len(kept) + len(ports) == len(free_ports):
                self.ports_on[wavelength] = kept
                return
            # a port is repeated or not free: the loop below raises
        for port in ports:
            index = bisect_left(free_ports, port)
            if index == len(free_ports) or free_ports[index] != port:
                raise ValueError(
                    f"output endpoint {(port, wavelength)} is not free"
                )
            del free_ports[index]

    def release(
        self, source: int, ports: Sequence[int], waves: Sequence[int]
    ) -> None:
        """Mark input endpoint ``source`` and each ``(port, wave)`` free.

        Raises ValueError, like :meth:`take`, if one of them is already
        free.
        """
        inputs = self.inputs
        index = bisect_left(inputs, source)
        if index < len(inputs) and inputs[index] == source:
            raise ValueError(
                f"input endpoint {divmod(source, self.k)} is already free"
            )
        inputs.insert(index, source)
        if self.model is MulticastModel.MAW:
            waves_at = self.waves_at
            for port, wavelength in zip(ports, waves):
                free_waves = waves_at[port]
                index = bisect_left(free_waves, wavelength)
                if index < len(free_waves) and free_waves[index] == wavelength:
                    raise ValueError(
                        f"output endpoint {(port, wavelength)} is already free"
                    )
                if not free_waves:
                    insort(self.ports_any, port)
                free_waves.insert(index, wavelength)
            return
        wavelength = waves[0]
        free_ports = self.ports_on[wavelength]
        if _in_one_pass(len(ports), len(free_ports)):
            merged = sorted({*free_ports, *ports})
            if len(merged) == len(free_ports) + len(ports):
                self.ports_on[wavelength] = merged
                return
            # a port is repeated or already free: the loop below raises
        for port in ports:
            index = bisect_left(free_ports, port)
            if index < len(free_ports) and free_ports[index] == port:
                raise ValueError(
                    f"output endpoint {(port, wavelength)} is already free"
                )
            free_ports.insert(index, port)


def draw_connection(
    rng: random.Random,
    free: FreeEndpoints,
    cap: int,
    pick_fanout: FanoutPicker | None = None,
    pick_ports: PortPicker | None = None,
) -> tuple[int, Sequence[int], list[int]] | None:
    """One feasible random connection over the free endpoint index.

    The single draw sequence every traffic model shares (source
    endpoint, admissible wavelength, fanout, destination ports,
    per-port wavelength), under the multicast model of ``free``;
    :func:`traffic_ops` and the continuous-time Poisson/Erlang
    workload both route through it, so endpoint feasibility is stated
    once.  It returns the connection as ints, ``(source_code, ports,
    waves)``: the source endpoint's code ``port * k + wavelength``,
    the destination ports in draw order and one wavelength per port.
    It leaves ``free`` unchanged; the caller passes the connection it
    keeps to :meth:`FreeEndpoints.take`.

    Each draw reads a stored list of ``free`` -- the free input codes,
    the ports free on the allowed wavelength (MSW/MSDW) or with any
    free wavelength (MAW), and each chosen port's free wavelengths
    (MAW) -- so a call costs its random bits, independent of
    ``N * k``.  Every bounded draw (source, MSDW wavelength, fanout,
    MAW per-port wavelength) runs the stdlib's own rejection loop,
    :func:`_below`, on ``rng.getrandbits``; the port sample is
    ``rng.sample``'s algorithm on the same loop (:func:`_sample`); and
    the bits ``rng.choice`` spends on each MSW/MSDW destination's
    one-element wavelength list are spent for all destinations at once
    (:func:`_below_one`).  So each draw consumes and returns exactly
    what the ``choice``/``randrange``/``randint``/``sample`` calls the
    streams were pinned with did, and a call costs the words it
    consumes rather than a Python call per destination.

    The two hooks are the workload seam: ``pick_fanout`` replaces the
    uniform fanout draw (heavy-tail group sizes), ``pick_ports`` the
    uniform destination-port sample (hotspot skew).  ``pick_ports``
    receives the index's live eligible-port list: it must only read
    it, since mutating it would corrupt ``free``.  Its result is
    checked before anything uses it -- ``fanout`` distinct members of
    the eligible list, else ValueError -- which also keeps every drawn
    connection non-empty, one destination per port and inside the
    fabric.  With both hooks ``None`` the draws -- and hence every
    stream compiled from them -- are bit-identical to the historical
    generator, which is the uniform workload's compatibility contract.

    Returns None when no feasible connection exists (no free input, or
    no output port offers an admissible wavelength).
    """
    inputs = free.inputs
    if not inputs:
        return None
    getrandbits = rng.getrandbits
    source = inputs[_below(getrandbits, len(inputs))]
    model = free.model
    if model is MulticastModel.MSW:
        allowed: int | None = source % free.k
    elif model is MulticastModel.MSDW:
        allowed = _below(getrandbits, free.k)
    else:
        allowed = None  # MAW: every wavelength admissible
    eligible = free.ports_any if allowed is None else free.ports_on[allowed]
    if not eligible:
        return None
    fanout_cap = min(cap, len(eligible))
    if pick_fanout is None:
        fanout = 1 + _below(getrandbits, fanout_cap)
    else:
        fanout = max(1, min(fanout_cap, pick_fanout(rng, fanout_cap)))
    if pick_ports is None:
        ports = _sample(getrandbits, eligible, fanout)
    else:
        ports = pick_ports(rng, eligible, fanout)
        # fanout distinct eligible ports share fanout ports with eligible
        if (
            len(ports) != fanout
            or len(set(ports).intersection(eligible)) != fanout
        ):
            raise ValueError(
                f"pick_ports must return {fanout} distinct ports from the "
                f"eligible list it is given, got {list(ports)!r}"
            )
    if allowed is None:
        waves_at = free.waves_at
        waves = []
        for port in ports:
            free_waves = waves_at[port]
            waves.append(free_waves[_below(getrandbits, len(free_waves))])
        return source, ports, waves
    # the bits rng.choice((allowed,)) spends per destination
    _below_one(getrandbits, fanout)
    return source, ports, [allowed] * fanout


def traffic_ops(
    model: MulticastModel,
    n_ports: int,
    k: int,
    *,
    steps: int,
    rng: random.Random,
    max_fanout: int | None = None,
    teardown_probability: float = 0.35,
    pick_fanout: FanoutPicker | None = None,
    pick_ports: PortPicker | None = None,
) -> Iterator[TrafficOp]:
    """The discrete traffic loop: one :data:`TrafficOp` per event.

    Every prefix of the generated sequence keeps the set of active
    connections a legal multicast assignment under ``model``; a
    nonblocking network must therefore accept every setup event.  Each
    step tears down a live connection with probability
    ``teardown_probability`` (or when no input endpoint is free, or
    when no connection can be drawn), and otherwise sets up a new one
    drawn by :func:`draw_connection`.  A teardown picks uniformly from
    the live connection ids in ascending order.

    The free endpoints live in one :class:`FreeEndpoints` index that
    each event updates (a setup takes its endpoints, a teardown
    releases them), so a setup attempt never rescans the fabric -- the
    generator sits on the hot path of every Monte-Carlo sweep.

    Args:
        model: multicast model the connections must obey.
        n_ports: network size ``N``.
        k: wavelengths per fiber.
        steps: number of events to generate (fewer if the traffic space
            is exhausted, which only happens for degenerate sizes).
        rng: the replication's whole randomness budget.
        max_fanout: cap on destinations per connection (default ``N``).
        teardown_probability: chance a step tears down an active
            connection instead of setting up a new one.
        pick_fanout, pick_ports: the :func:`draw_connection` workload
            hooks (None keeps the bit-identical uniform draws).
    """
    cap = n_ports if max_fanout is None else min(max_fanout, n_ports)
    if cap < 1:
        raise ValueError(f"max_fanout must allow at least one destination, got {cap}")

    free = FreeEndpoints(n_ports, k, model)
    getrandbits = rng.getrandbits
    # Live setups in ascending id order (ids are issued ascending and
    # appended): popping index _below(len) draws the same bits as
    # rng.choice over the sorted live-id list, which the pinned streams
    # were drawn with.
    live: list[TrafficOp] = []
    next_id = 0

    def teardown() -> TrafficOp:
        _, connection_id, source, ports, waves = live.pop(
            _below(getrandbits, len(live))
        )
        free.release(source, ports, waves)
        return TEARDOWN, connection_id, source, ports, waves

    for _ in range(steps):
        if live and (rng.random() < teardown_probability or not free.inputs):
            yield teardown()
            continue
        drawn = draw_connection(rng, free, cap, pick_fanout, pick_ports)
        if drawn is None:
            if not live:
                return  # nothing to do in either direction
            yield teardown()
            continue
        source, ports, waves = drawn
        free.take(source, ports, waves)
        op = (SETUP, next_id, source, ports, waves)
        live.append(op)
        yield op
        next_id += 1


def traffic_events(ops: Iterable[TrafficOp], k: int) -> Iterator[TrafficEvent]:
    """The object view of an int-level op stream, for the serial readers.

    Builds each setup's :class:`~repro.switching.requests.MulticastConnection`
    once and yields that same object again at its teardown.  The serial
    simulator, the trace writer and the tests read these events; the
    batched compiler reads the ops directly and builds none of them.
    """
    live: dict[int, MulticastConnection] = {}
    for tag, connection_id, source, ports, waves in ops:
        if tag == SETUP:
            connection = MulticastConnection(
                Endpoint(*divmod(source, k)),
                [Endpoint(port, wave) for port, wave in zip(ports, waves)],
            )
            live[connection_id] = connection
            yield TrafficEvent("setup", connection, connection_id)
        else:
            connection = live.pop(connection_id)
            yield TrafficEvent("teardown", connection, connection_id)


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

    :func:`traffic_ops` read through :func:`traffic_events`: the same
    stream the batched compiler replays, as connection objects.  Every
    prefix keeps the active connections a legal multicast assignment
    under ``model``, so a nonblocking network must accept every setup.

    Args:
        model, n_ports, k, steps, max_fanout, teardown_probability,
            pick_fanout, pick_ports: as for :func:`traffic_ops`.
        seed: RNG seed; identical seeds give identical sequences.  A
            ``random.Random`` instance is used directly, letting a caller
            thread one stream per replication end-to-end.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    ops = traffic_ops(
        model, n_ports, k,
        steps=steps, rng=rng, max_fanout=max_fanout,
        teardown_probability=teardown_probability,
        pick_fanout=pick_fanout, pick_ports=pick_ports,
    )
    return traffic_events(ops, k)
