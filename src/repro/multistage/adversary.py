"""Adversarial traffic: making under-provisioned networks block.

Theorems 1-2 are *sufficient* conditions; the paper notes (citing [16])
that matching necessary values of ``m`` exist under common routing
strategies.  This module provides the blocking side of the story:

* :func:`fig10_scenario` -- the paper's Fig. 10: a connection blocked at
  a middle-stage MSW switch because of its pinned wavelength, which the
  MAW-dominant construction routes without trouble.  Both networks see
  the *same* external connection sequence; only the construction differs.
* :func:`minimal_blocking_scenario` -- the smallest deterministic
  blocking witness: with ``m`` below the bound, a legal request the
  MSW-dominant network must refuse.
* :func:`search_blocking_state` -- randomized adversary: drives a
  network with fanout-heavy traffic until a legal request blocks,
  returning the witness (or None).
* :func:`scan_witnesses` -- restarts of that adversary at each ``m``
  of a curve, up to the first witness.  A witness proves that a
  blocking state exists; it is not a traffic sample, so no blocking
  estimate counts it.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.models import Construction, MulticastModel
from repro.multistage.network import BlockedError, ThreeStageNetwork
from repro.perf.sweeper import ParallelSweeper, WorkUnit
from repro.switching.requests import Endpoint, MulticastConnection
from repro.workloads.keys import key_fragment, require_distinct

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.perf.cache import ResultCache

__all__ = [
    "BlockingWitness",
    "Fig10Outcome",
    "Theorem1GapResult",
    "demonstrate_theorem1_gap",
    "fig10_scenario",
    "minimal_blocking_scenario",
    "scan_witnesses",
    "search_blocking_state",
]


@dataclass(frozen=True)
class BlockingWitness:
    """A reproducible blocking event: prior connections + refused request."""

    n: int
    r: int
    m: int
    k: int
    construction: Construction
    model: MulticastModel
    x: int
    prior: tuple[MulticastConnection, ...]
    blocked_request: MulticastConnection

    def replay(self) -> ThreeStageNetwork:
        """Rebuild the network, route the priors, and verify the block.

        Returns the network in the blocking state.  Raises AssertionError
        if the witness no longer blocks (a routing change regression).
        """
        net = ThreeStageNetwork(
            self.n,
            self.r,
            self.m,
            self.k,
            construction=self.construction,
            model=self.model,
            x=self.x,
        )
        for request in self.prior:
            net.connect(request)
        try:
            net.connect(self.blocked_request)
        except BlockedError:
            return net
        raise AssertionError("witness no longer blocks; routing changed?")

    def explain(self) -> dict:
        """Replay the witness and classify the block through the engine.

        Returns the :func:`repro.engine.kernel.block_cause` dict (shape
        :data:`repro.obs.trace.CAUSE_SCHEMA`) for the refused request --
        the same classification the serial simulator and the lockstep
        batch engine would report, since all three paths share
        :mod:`repro.engine`.
        """
        net = self.replay()
        return net.explain_block(self.blocked_request)


@dataclass(frozen=True)
class Fig10Outcome:
    """Result of the Fig. 10 comparison."""

    connections: tuple[MulticastConnection, ...]
    contested: MulticastConnection
    msw_dominant_blocked: bool
    maw_dominant_blocked: bool


def fig10_scenario() -> Fig10Outcome:
    """Reproduce Fig. 10: MSW middle switches block, MAW ones don't.

    Network: ``v(n=2, r=2, m=2, k=2)`` under the MAW model, ``x = 1``.
    Three single-destination connections arrive in order; the third is
    routable only if the first two stages can change wavelengths.

    Returns the outcome; the reproduction requires
    ``msw_dominant_blocked and not maw_dominant_blocked``.
    """
    lam0, lam1 = 0, 1
    prior = (
        # Module 0's other input, wavelength 0, to output module 1.
        MulticastConnection(Endpoint(1, lam0), [Endpoint(2, lam0)]),
        # Module 1's input, wavelength 0, also to output module 1.
        MulticastConnection(Endpoint(2, lam0), [Endpoint(3, lam0)]),
    )
    # The contested request: port 0 on wavelength 0 to output module 1.
    contested = MulticastConnection(Endpoint(0, lam0), [Endpoint(2, lam1)])

    outcomes = {}
    for construction in Construction:
        net = ThreeStageNetwork(
            2, 2, 2, 2, construction=construction, model=MulticastModel.MAW, x=1
        )
        for request in prior:
            net.connect(request)
        outcomes[construction] = net.try_connect(contested) is None
    return Fig10Outcome(
        connections=prior,
        contested=contested,
        msw_dominant_blocked=outcomes[Construction.MSW_DOMINANT],
        maw_dominant_blocked=outcomes[Construction.MAW_DOMINANT],
    )


def minimal_blocking_scenario() -> BlockingWitness:
    """The smallest deterministic blocking witness.

    ``v(n=2, r=2, m=1, k=1)`` (Theorem 1 requires ``m >= 4``): one prior
    connection saturates the only first-stage fiber wavelength from
    input module 0, so any further request from module 0's other port
    must block.
    """
    witness = BlockingWitness(
        n=2,
        r=2,
        m=1,
        k=1,
        construction=Construction.MSW_DOMINANT,
        model=MulticastModel.MSW,
        x=1,
        prior=(MulticastConnection(Endpoint(1, 0), [Endpoint(2, 0)]),),
        blocked_request=MulticastConnection(Endpoint(0, 0), [Endpoint(3, 0)]),
    )
    witness.replay()  # self-check
    return witness


@dataclass(frozen=True)
class Theorem1GapResult:
    """Outcome of the Theorem-1 gap demonstration (see ``core.corrected``)."""

    n: int
    r: int
    k: int
    model: MulticastModel
    m_paper: int
    m_corrected: int
    blocked_at_paper_bound: bool
    routed_at_corrected_bound: bool


def _gap_attack(
    n: int, r: int, k: int, m: int, model: MulticastModel
) -> tuple[ThreeStageNetwork, MulticastConnection]:
    """Drive an MSW-dominant network into the worst lambda_0 state.

    Every connection is legal, uses one middle switch (x = 1), and the
    middle choices are within the routing strategy's freedom (enforced
    via ``force_middles``, which validates feasibility).  Returns the
    loaded network and the fanout-``r`` probe request.
    """
    net = ThreeStageNetwork(
        n, r, m, k, construction=Construction.MSW_DOMINANT, model=model, x=1
    )
    used_outputs: set[tuple[int, int]] = set()

    def allocate_output(module: int) -> Endpoint:
        for port in range(module * n, (module + 1) * n):
            for wavelength in range(k):
                if (port, wavelength) not in used_outputs:
                    used_outputs.add((port, wavelength))
                    return Endpoint(port, wavelength)
        raise RuntimeError(f"output module {module} exhausted")

    # Stage 1: the request's sibling sources occupy the lambda_0 channel
    # of module 0's fibers to middles 0..n-2 (first-stage kills).
    for index in range(1, n):
        middle = index - 1
        target_module = index % r
        net.connect(
            MulticastConnection(
                Endpoint(index, 0), [allocate_output(target_module)]
            ),
            force_middles={middle: [target_module]},
        )

    # Stage 2: lambda_0 sources from the other modules saturate the
    # lambda_0 channel of one middle->output fiber each (destination
    # kills), spread so no output module exceeds its nk-1 endpoints.
    other_sources = [
        Endpoint(port, 0)
        for module in range(1, r)
        for port in range(module * n, (module + 1) * n)
    ]
    kills_per_module = [0] * r
    source_index = 0
    for middle in range(n - 1, m):
        if source_index >= len(other_sources):
            break  # out of ammunition: the bound holds at this m
        target_module = min(range(r), key=lambda p: kills_per_module[p])
        if kills_per_module[target_module] >= n * k - 1:
            break  # capacity exhausted everywhere relevant
        kills_per_module[target_module] += 1
        net.connect(
            MulticastConnection(
                other_sources[source_index], [allocate_output(target_module)]
            ),
            force_middles={middle: [target_module]},
        )
        source_index += 1

    if model is MulticastModel.MSDW:
        # All probe destinations must share one wavelength: find a
        # wavelength with a free endpoint in every output module.
        for wavelength in range(k):
            candidates = []
            for module in range(r):
                free = [
                    Endpoint(port, wavelength)
                    for port in range(module * n, (module + 1) * n)
                    if (port, wavelength) not in used_outputs
                ]
                if not free:
                    break
                candidates.append(free[0])
            if len(candidates) == r:
                for endpoint in candidates:
                    used_outputs.add((endpoint.port, endpoint.wavelength))
                probe = MulticastConnection(Endpoint(0, 0), candidates)
                break
        else:  # pragma: no cover - sizes are chosen to avoid this
            raise RuntimeError("no common probe wavelength available")
    else:
        probe = MulticastConnection(
            Endpoint(0, 0), [allocate_output(module) for module in range(r)]
        )
    return net, probe


def demonstrate_theorem1_gap(
    n: int = 2, r: int = 3, k: int = 2, model: MulticastModel = MulticastModel.MAW
) -> Theorem1GapResult:
    """Show that Theorem 1's bound is insufficient for MSDW/MAW models.

    Builds the worst-case lambda_0 traffic pattern (legal, x = 1) on an
    MSW-dominant network sized exactly at the paper's Theorem-1 minimum,
    where a fanout-``r`` request must block; then repeats the attack at
    the corrected model-aware minimum
    (:func:`repro.core.corrected.min_middle_switches_corrected`), where
    it must route.

    Args:
        n, r, k: topology; requires ``r >= n + 1`` and ``k >= 2`` (the
            regime where the gap opens) and a non-MSW ``model``.

    Returns:
        The result record; a successful demonstration has
        ``blocked_at_paper_bound and routed_at_corrected_bound``.
    """
    from repro.core.corrected import min_middle_switches_corrected
    from repro.core.multistage import min_middle_switches_msw_dominant

    if model is MulticastModel.MSW:
        raise ValueError("the gap only exists for MSDW/MAW models")
    if k < 2 or r < n + 1:
        raise ValueError(
            f"the demonstration needs k >= 2 and r >= n + 1, got k={k}, "
            f"n={n}, r={r}"
        )
    m_paper = min_middle_switches_msw_dominant(n, r, k, x=1)
    m_corrected = min_middle_switches_corrected(
        n, r, k, Construction.MSW_DOMINANT, model, x=1
    )

    net, probe = _gap_attack(n, r, k, m_paper, model)
    blocked = net.try_connect(probe) is None

    net_corrected, probe_corrected = _gap_attack(n, r, k, m_corrected, model)
    routed = net_corrected.try_connect(probe_corrected) is not None

    return Theorem1GapResult(
        n=n,
        r=r,
        k=k,
        model=model,
        m_paper=m_paper,
        m_corrected=m_corrected,
        blocked_at_paper_bound=blocked,
        routed_at_corrected_bound=routed,
    )


def search_blocking_state(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    seed: int = 0,
    max_events: int = 2000,
    fanout_bias: float = 0.7,
) -> BlockingWitness | None:
    """Randomized adversary hunting for a blocking state.

    Drives the network with randomized setups/teardowns biased toward
    large-fanout requests (which consume middle-switch diversity
    fastest).  Stops at the first legal request the network refuses.

    Args:
        n, r, m, k: topology under attack.
        construction, model, x: network configuration.
        seed: RNG seed (deterministic given all arguments).
        max_events: give up after this many traffic events.
        fanout_bias: probability of requesting the maximum feasible
            fanout rather than a random one.

    Returns:
        A replayable :class:`BlockingWitness`, or None if no blocking
        state was found within the budget.
    """
    rng = random.Random(seed)
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x
    )
    # Endpoint ``port * k + wavelength`` of the fabric, and whether no
    # live connection holds it as its source / as a destination.
    endpoints = [Endpoint(p, w) for p in range(n * r) for w in range(k)]
    source_free = [True] * len(endpoints)
    output_free = [True] * len(endpoints)
    live: dict[int, MulticastConnection] = {}

    def mark(connection: MulticastConnection, free: bool) -> None:
        source = connection.source
        source_free[source.port * k + source.wavelength] = free
        for d in connection.destinations:
            output_free[d.port * k + d.wavelength] = free

    def sample_request() -> MulticastConnection | None:
        sources = [e for e, free in zip(endpoints, source_free) if free]
        if not sources:
            return None
        source = rng.choice(sources)
        if model is MulticastModel.MSW:
            band = slice(source.wavelength, None, k)
        elif model is MulticastModel.MSDW:
            band = slice(rng.randrange(k), None, k)
        else:
            band = slice(None)
        per_port: dict[int, list[Endpoint]] = {}
        for endpoint, free in zip(endpoints[band], output_free[band]):
            if free:
                per_port.setdefault(endpoint.port, []).append(endpoint)
        if not per_port:
            return None
        max_fanout = len(per_port)
        fanout = (
            max_fanout
            if rng.random() < fanout_bias
            else rng.randint(1, max_fanout)
        )
        ports = rng.sample(sorted(per_port), fanout)
        return MulticastConnection(
            source, [rng.choice(per_port[port]) for port in ports]
        )

    def release_one() -> None:
        victim = rng.choice(sorted(live))
        net.disconnect(victim)
        mark(live.pop(victim), True)

    for _ in range(max_events):
        if live and rng.random() < 0.25:
            release_one()
            continue
        request = sample_request()
        if request is None:
            if not live:
                return None
            release_one()
            continue
        try:
            connection_id = net.connect(request)
        except BlockedError:
            witness = BlockingWitness(
                n=n,
                r=r,
                m=m,
                k=k,
                construction=construction,
                model=model,
                x=x,
                prior=tuple(live[cid] for cid in sorted(live)),
                blocked_request=request,
            )
            # Replaying the live set fresh (in id order) may route
            # differently than the original interleaved history did; only
            # return witnesses that still block when replayed.
            try:
                witness.replay()
            except (AssertionError, BlockedError):
                continue
            return witness
        live[connection_id] = request
        mark(request, False)
    return None


def _adversary_traffic_key(
    n: int, r: int, k: int, construction: Construction, model: MulticastModel, x: int
) -> str:
    """Configuration fingerprint mixed into the adversary-seed schedule."""
    return key_fragment(
        dict(n=n, r=r, k=k, construction=construction, model=model, x=x)
    )


def _adversary_seeds(m: int, count: int, traffic_key: str) -> list[int]:
    """The deterministic adversary-seed schedule for one ``m`` point.

    Derived from the *whole* configuration (``traffic_key``, see
    :func:`_adversary_traffic_key`) as well as ``m``, so two scans with
    equal ``m`` but different topology/model/x get independent
    adversary streams.
    """
    rng = random.Random(f"{traffic_key}|m={m}")
    return [rng.randrange(10**9) for _ in range(count)]


def scan_witnesses(
    n: int,
    r: int,
    k: int,
    m_values: Sequence[int],
    *,
    construction: Construction,
    model: MulticastModel,
    x: int,
    restarts: int = 20,
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
) -> dict[int, BlockingWitness | None]:
    """Each ``m``'s first blocking witness in ``restarts`` adversary runs.

    Each ``m`` is one ordered scan of :func:`search_blocking_state`
    restarts, seeded from the configuration and ``m``, that stops at
    the first witness: a serial plan (``jobs=1`` or any fallback) runs
    no restart after it, and a pool runs them all but keeps the same
    one.  With ``cache``, each restart is stored under the
    ``adversary_cell`` namespace and the default kernel tag (the search
    never depends on a run's kernel).  Each ``m`` may appear once.

    None means no restart blocked, not that ``m`` is nonblocking; the
    exact model checker (:func:`repro.api.exact_m`) decides that on
    small fabrics.
    """
    require_distinct("m_values", m_values)
    traffic_key = _adversary_traffic_key(n, r, k, construction, model, x)
    config = dict(construction=construction, model=model, x=x)
    witnesses: dict[int, BlockingWitness | None] = {}
    with ParallelSweeper(jobs) as sweeper:
        for m in m_values:
            seeds = _adversary_seeds(m, restarts, traffic_key)
            # Ids are restart indices: the schedule may draw a seed twice.
            scanned = sweeper.run(
                (
                    WorkUnit(
                        unit_id=attempt,
                        fn=search_blocking_state,
                        args=(n, r, m, k),
                        kwargs=dict(config, seed=seed),
                        cache_key=None if cache is None else cache.key(
                            "adversary_cell",
                            dict(n=n, r=r, m=m, k=k, **config, seed=seed),
                        ),
                    )
                    for attempt, seed in enumerate(seeds)
                ),
                cache=cache,
                until=lambda witness: witness is not None,
            )
            witnesses[m] = scanned[-1].value if scanned else None
    return witnesses
