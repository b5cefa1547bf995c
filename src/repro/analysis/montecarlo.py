"""Monte-Carlo blocking probability of three-stage networks.

The paper's theorems assert zero blocking above the ``m`` bound; this
module measures what happens *below* it: drive the network with random
dynamic multicast traffic and estimate the per-request blocking
probability as a function of ``m``.  The expected shape -- the implied
"figure" X3 of DESIGN.md -- is a blocking probability that decreases
with ``m`` and hits exactly zero at (in practice, somewhat before) the
theorem bound.

Blocked requests are dropped (the optical-domain behaviour the paper
motivates: no optical RAM to buffer them) and the simulation proceeds.

Determinism and parallelism
---------------------------

Each replication owns one :class:`random.Random` stream created from
its seed and threaded end-to-end through the traffic generator, so a
(seed, m, config) cell is a pure function of its arguments.  A seed's
column of cells -- one stream, replayed against every ``m`` -- is one
work unit, fanned out through :class:`repro.perf.ParallelSweeper` and
merged in seed order, which makes every :class:`BlockingEstimate`
bit-identical for any ``jobs`` value -- pooled seeds are summed, never
interleaved.

Because every cell is a pure function of its arguments, cells are also
*cacheable*: pass a :class:`repro.perf.cache.ResultCache` and each
(seed, m, config) replication -- and, in adversarial mode, each
(m, adversary-seed) search -- is looked up before being computed and
stored afterwards.  A re-run of an interrupted or repeated sweep then
recomputes only the missing cells, with results bit-identical to a
cold run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import TYPE_CHECKING, Any

from repro import obs as _obs
from repro.core.models import (
    Construction,
    MulticastModel,
    parse_construction,
    parse_multicast_model,
)
from repro.engine.fabrics import get_fabric
from repro.multistage.adversary import search_blocking_state
from repro.multistage.network import ThreeStageNetwork
from repro.obs.meta import ResultMeta
from repro.perf.batch import CurveSpec, simulate_batch
from repro.perf.sweeper import ParallelSweeper, SweepResult, WorkUnit
from repro.switching.generators import stream_rng
from repro.workloads.keys import key_fragment, require_distinct

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from collections.abc import Iterator, Sequence

    from repro.perf.cache import ResultCache
    from repro.switching.generators import TrafficEvent
    from repro.workloads.base import WorkloadConfig

__all__ = [
    "AdaptiveInfo",
    "BlockingEstimate",
]


def _z_value(level: float) -> float:
    """Two-sided normal quantile for a confidence ``level`` in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


@dataclass(frozen=True)
class AdaptiveInfo:
    """How an adaptive (sequentially stopped) estimate was sampled.

    Attached to :attr:`BlockingEstimate.adaptive` by
    :mod:`repro.perf.adaptive`; excluded from estimate equality the same
    way ``meta`` is, so a pooled adaptive estimate can compare equal to
    a fixed-budget estimate with the same numbers.

    Attributes:
        rounds: sampling rounds this cell ran before stopping.
        replications: independent replications pooled (antithetic twins
            count individually).
        events: traffic events simulated (``replications x steps``).
        converged: whether the CI target was met (False means the
            round cap stopped the cell first).
        target_half_width: the requested half-width.
        relative: whether the target is relative to the point estimate.
        level: the confidence level of the stopping rule.
    """

    rounds: int
    replications: int
    events: int
    converged: bool
    target_half_width: float
    relative: bool
    level: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "rounds": self.rounds,
            "replications": self.replications,
            "events": self.events,
            "converged": self.converged,
            "target_half_width": self.target_half_width,
            "relative": self.relative,
            "level": self.level,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AdaptiveInfo":
        return cls(**data)


def _traffic_key(
    cache: "ResultCache", spec: CurveSpec, m: int, seed: int, kernel: str
) -> str:
    return cache.key(
        "traffic_cell", spec.key_params(m=m, seed=seed), kernel=kernel
    )


def _adversary_key(
    cache: "ResultCache", spec: CurveSpec, m: int, seed: int, kernel: str
) -> str:
    return cache.key(
        "adversary_cell",
        dict(
            n=spec.n, r=spec.r, m=m, k=spec.k,
            construction=spec.construction, model=spec.model, x=spec.x,
            seed=seed,
        ),
        kernel=kernel,
    )


@dataclass(frozen=True)
class BlockingEstimate:
    """Blocking statistics of one configuration under random traffic.

    ``meta`` is the shared :class:`repro.obs.meta.ResultMeta` provenance
    envelope (code version, routing kernel, execution plan, obs
    summary).  It is excluded from equality/hashing -- two estimates
    with identical numbers compare equal even if one ran serial and the
    other parallel, preserving the bit-identity contracts.  ``adaptive``
    (how a sequentially stopped estimate was sampled) is excluded for
    the same reason: the pooled numbers, not the sampling path, define
    identity.

    The estimate carries first-class interval statistics: ``stderr``
    (binomial normal-approximation), ``ci(level)`` (the Wilson score
    interval, well behaved at and near ``p = 0`` -- exactly where the
    blocking curves live), ``half_width(level)`` (the Wilson interval's
    half-width, the quantity the adaptive driver's stopping rule
    targets), and ``merged``/``pooled`` for combining independent
    estimates of the same configuration.
    """

    n: int
    r: int
    m: int
    k: int
    construction: Construction
    model: MulticastModel
    x: int
    attempts: int
    blocked: int
    meta: ResultMeta | None = field(default=None, compare=False, repr=False)
    adaptive: AdaptiveInfo | None = field(default=None, compare=False, repr=False)

    @property
    def probability(self) -> float:
        """Fraction of setup attempts refused."""
        return self.blocked / self.attempts if self.attempts else 0.0

    @property
    def stderr(self) -> float:
        """Normal-approximation standard error ``sqrt(p(1-p)/n)``.

        ``inf`` with no attempts -- an unsampled estimate carries no
        information, and ``inf`` keeps stopping rules conservative.
        """
        if not self.attempts:
            return math.inf
        p = self.probability
        return math.sqrt(p * (1.0 - p) / self.attempts)

    def ci(self, level: float = 0.95) -> tuple[float, float]:
        """Wilson score confidence interval at ``level``.

        Unlike the Wald interval, Wilson never collapses to a width-zero
        interval at ``p = 0`` (its half-width shrinks like ``z^2 / n``),
        so a cell that has seen no blocking still reports honest
        uncertainty -- the property that lets the adaptive driver stop
        near-zero cells only once they are *provably* near zero.
        """
        if not self.attempts:
            return (0.0, 1.0)
        z = _z_value(level)
        n = self.attempts
        p = self.probability
        z2 = z * z
        denom = 1.0 + z2 / n
        center = (p + z2 / (2.0 * n)) / denom
        half = (z / denom) * math.sqrt(
            p * (1.0 - p) / n + z2 / (4.0 * n * n)
        )
        return (max(0.0, center - half), min(1.0, center + half))

    def half_width(self, level: float = 0.95) -> float:
        """Half the width of :meth:`ci` (``inf`` with no attempts)."""
        if not self.attempts:
            return math.inf
        low, high = self.ci(level)
        return (high - low) / 2.0

    def merged(self, other: "BlockingEstimate") -> "BlockingEstimate":
        """Pool this estimate with an independent one of the same cell.

        Attempts and blocked counts are summed, so merging the
        per-round estimates of a split run reproduces the single-run
        estimate *exactly* (integer sums carry no rounding).  ``meta``
        and ``adaptive`` describe a single run's provenance and do not
        survive a merge.
        """
        mine = (self.n, self.r, self.m, self.k, self.construction,
                self.model, self.x)
        theirs = (other.n, other.r, other.m, other.k, other.construction,
                  other.model, other.x)
        if mine != theirs:
            raise ValueError(
                f"cannot merge estimates of different cells: {mine} vs {theirs}"
            )
        return BlockingEstimate(
            n=self.n, r=self.r, m=self.m, k=self.k,
            construction=self.construction, model=self.model, x=self.x,
            attempts=self.attempts + other.attempts,
            blocked=self.blocked + other.blocked,
        )

    @classmethod
    def pooled(cls, estimates: "list[BlockingEstimate]") -> "BlockingEstimate":
        """Merge a non-empty list of independent same-cell estimates."""
        if not estimates:
            raise ValueError("cannot pool zero estimates")
        result = estimates[0]
        for estimate in estimates[1:]:
            result = result.merged(estimate)
        return result

    def to_json(self) -> str:
        """Canonical JSON; inverse of :meth:`from_json`.

        Alongside the defining counts, the payload carries the derived
        interval statistics (``stderr``, ``ci95``, ``half_width95``) so
        downstream consumers need no recomputation, plus the
        ``adaptive`` sampling record when present.  ``from_json``
        ignores the derived fields (they are functions of the counts)
        and tolerates their absence -- payloads written before they
        existed still load.
        """
        ci_low, ci_high = self.ci(0.95)
        half = self.half_width(0.95)
        return json.dumps(
            {
                "n": self.n, "r": self.r, "m": self.m, "k": self.k,
                "construction": self.construction.name,
                "model": self.model.name,
                "x": self.x,
                "attempts": self.attempts,
                "blocked": self.blocked,
                "stderr": self.stderr if self.attempts else None,
                "ci95": [ci_low, ci_high],
                "half_width95": half if self.attempts else None,
                "adaptive": (
                    self.adaptive.as_dict()
                    if self.adaptive is not None
                    else None
                ),
                "meta": self.meta.to_json() if self.meta is not None else None,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, payload: str) -> "BlockingEstimate":
        """Rebuild an estimate (meta included) from :meth:`to_json` output.

        Backward compatible with payloads written before the interval
        statistics and ``adaptive`` record existed: missing keys simply
        yield an estimate without an adaptive record (the interval
        statistics are always recomputed from the counts).
        """
        data = json.loads(payload)
        meta = data.get("meta")
        adaptive = data.get("adaptive")
        return cls(
            n=data["n"], r=data["r"], m=data["m"], k=data["k"],
            construction=parse_construction(data["construction"]),
            model=parse_multicast_model(data["model"]),
            x=data["x"],
            attempts=data["attempts"],
            blocked=data["blocked"],
            meta=ResultMeta.from_json(meta) if meta is not None else None,
            adaptive=(
                AdaptiveInfo.from_dict(adaptive)
                if adaptive is not None
                else None
            ),
        )


def _stream_events(
    spec: CurveSpec, seed: int, antithetic: bool
) -> "Iterator[TrafficEvent]":
    """The seed's traffic stream as the serial simulator reads it."""
    return spec.workload.events(
        spec.model, spec.n * spec.r, spec.k, steps=spec.steps,
        rng=stream_rng(seed, antithetic), max_fanout=spec.max_fanout,
    )


def _traffic_cell(
    spec: CurveSpec,
    m: int,
    seed: int,
    antithetic: bool = False,
    debug_checks: bool = False,
    events: "Sequence[TrafficEvent] | None" = None,
) -> tuple[int, int]:
    """One replication: ``(attempts, blocked)`` for one traffic seed.

    The seed's single ``random.Random`` stream drives the spec's
    workload end-to-end; nothing else in the cell draws randomness, so
    the result depends only on the arguments (the parallel-safety
    contract of the sweep engine).  With ``antithetic=True`` the stream
    is the seed's antithetic mirror
    (:class:`repro.switching.generators.AntitheticRandom`) -- the
    variance-reduction twin the adaptive driver pairs with the plain
    stream.  ``events`` is that stream already drawn, which
    :func:`_traffic_column` shares across a column's ``m`` values
    (the stream never depends on ``m``); None draws it here.
    ``debug_checks`` re-verifies the network invariants after
    every event; it cannot change the result, so it is deliberately
    absent from the cell's cache key.  The serial ``ThreeStageNetwork``
    below *is* the Clos admission program: :func:`_traffic_column`
    hands any other fabric to the batch engine.
    """
    _obs.inc("mc.cells")
    net = ThreeStageNetwork(
        spec.n, spec.r, m, spec.k, construction=spec.construction,
        model=spec.model, x=spec.x, debug_checks=debug_checks,
    )
    attempts = 0
    blocked = 0
    live: dict[int, int] = {}
    dropped: set[int] = set()
    if events is None:
        events = _stream_events(spec, seed, antithetic)
    for event in events:
        if event.kind == "setup":
            attempts += 1
            connection_id = net.try_connect(event.connection)
            if connection_id is None:
                blocked += 1
                dropped.add(event.connection_id)
            else:
                live[event.connection_id] = connection_id
        else:
            if event.connection_id in dropped:
                dropped.discard(event.connection_id)
                continue
            net.disconnect(live.pop(event.connection_id))
    return attempts, blocked


def _traffic_column(
    spec: CurveSpec,
    seed: int,
    m_values: tuple[int, ...],
    antithetic: bool = False,
    debug_checks: bool = False,
) -> list[tuple[int, tuple[int, int]]]:
    """:func:`_traffic_cell` per ``m``, in ``simulate_batch``'s unit shape.

    The ``bitmask`` kernel's work unit: takes ``simulate_batch``'s
    arguments (plus ``debug_checks``) and returns its
    ``[(m, (attempts, blocked)), ...]``, so both estimators fold either
    kernel's units the same way.  On the Clos fabric the seed's stream
    is drawn once and replayed against a fresh serial network per
    ``m``; the networks share its frozen connection objects.  A
    one-``m`` column shares the stream with nothing, so its cell reads
    the stream as it is drawn rather than holding it.  Any other
    fabric hands the whole column to one ``simulate_batch`` call,
    which replays the same compiled stream through the same shared
    kernels, bit-identically.
    """
    if spec.fabric != "clos":
        return simulate_batch(spec, seed, m_values, antithetic)
    events = (
        list(_stream_events(spec, seed, antithetic))
        if len(m_values) > 1
        else None
    )
    return [
        (m, _traffic_cell(spec, m, seed, antithetic, debug_checks, events))
        for m in m_values
    ]


def _run_columns(
    sweeper: ParallelSweeper,
    cache: "ResultCache | None",
    spec: CurveSpec,
    m_values: list[int],
    kernel: str,
    debug_checks: bool,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Every ``(m, seed)`` traffic cell, one seed's ``m`` column per unit.

    Both kernels share the unit shape: one seed's whole pending ``m``
    column, run by :func:`repro.perf.batch.simulate_batch` (``batched``,
    a lockstep replay of the compiled stream) or :func:`_traffic_column`
    (``bitmask``, the drawn stream on one serial network per ``m``).
    Each cell's result lands in ``cache`` under its own kernel-tagged
    traffic key, stored as soon as its column finishes on a serial
    plan: a ``jobs=1`` sweep killed mid-run keeps every column it
    finished, and its re-run dispatches only the missing seeds.  A
    seed whose cells are all in the cache counts as one cache-hit unit
    in the sweep's plan; any other seed is dispatched for its missing
    cells only.
    """
    if kernel == "batched":
        run_column, extra = simulate_batch, {}
    else:
        run_column, extra = _traffic_column, dict(debug_checks=debug_checks)
    results: dict[tuple[int, int], tuple[int, int]] = {}
    keys: dict[tuple[int, int], str] = {}
    by_seed: dict[int, list[int]] = {}
    for m in m_values:
        for seed in spec.workload.seeds:
            cell = (m, seed)
            if cache is not None:
                keys[cell] = _traffic_key(cache, spec, m, seed, kernel)
                hit, value = cache.lookup(keys[cell])
                if hit:
                    results[cell] = tuple(value)
                    continue
            by_seed.setdefault(seed, []).append(m)

    def store(unit_result: SweepResult) -> None:
        for m, value in unit_result.value:
            cell = (m, unit_result.unit_id)
            results[cell] = value
            if cache is not None:
                cache.put(keys[cell], value)

    sweeper.run(
        (
            WorkUnit(
                unit_id=seed,
                fn=run_column,
                args=(spec, seed, tuple(by_seed[seed])),
                kwargs=extra,
            )
            for seed in sorted(by_seed)
        ),
        on_result=store,
        cache_hits=len(spec.workload.seeds) - len(by_seed),
    )
    return results


def _adversary_seeds(m: int, count: int, traffic_key: str) -> list[int]:
    """The deterministic adversary-seed schedule for one ``m`` point.

    Derived from the *whole* configuration (``traffic_key``, see
    :func:`_adversary_traffic_key`) as well as ``m``, so two sweeps with
    equal ``m`` but different topology/model/x get independent
    adversary streams.
    """
    rng = random.Random(f"{traffic_key}|m={m}")
    return [rng.randrange(10**9) for _ in range(count)]


def _adversary_traffic_key(spec: CurveSpec) -> str:
    """Configuration fingerprint mixed into the adversary-seed schedule."""
    return key_fragment(
        dict(
            n=spec.n, r=spec.r, k=spec.k, construction=spec.construction,
            model=spec.model, x=spec.x,
        )
    )


def _check_adversarial(workload: "WorkloadConfig", fabric: str) -> None:
    """Refuse adversarial probing outside uniform traffic on the Clos."""
    if workload.token() is not None:
        raise ValueError(
            "adversarial probing is defined for uniform traffic only "
            "(the adversary constructs its own worst-case states); got "
            f"workload {workload.workload!r}"
        )
    if get_fabric(fabric).token() is not None:
        raise ValueError(
            "adversarial probing is defined for the Clos fabric only "
            "(the adversary constructs three-stage worst-case states); "
            f"got fabric {fabric!r}"
        )


def _blocking_curve(
    spec: CurveSpec,
    m_values: list[int],
    *,
    adversarial: bool = False,
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
    debug_checks: bool = False,
    kernel: str = "bitmask",
) -> list[BlockingEstimate]:
    """The blocking-probability-vs-``m`` curve (implied figure X3).

    Every ``m`` pools the ``(m, seed)`` cells of ``spec.workload.seeds``
    (a seed owns one RNG stream end-to-end, so the curve is
    deterministic for any ``jobs``).

    With ``adversarial=True``, each point additionally runs
    ``spec.workload.adversary_seeds`` restarts of the randomized
    adversary of :func:`repro.multistage.adversary.search_blocking_state`;
    if the adversary finds a witness at an ``m`` where random traffic
    saw no blocking, one synthetic blocked attempt is recorded so the
    curve reflects *worst-case* rather than average-case behaviour.

    Each seed's column of pending ``m`` values is one work unit fanned
    out through the sweep engine (:func:`_run_columns`): the seed's
    stream is drawn once and replayed against every ``m``, in lockstep
    through :mod:`repro.perf.batch` under ``kernel="batched"`` or on
    one serial network per ``m`` under ``"bitmask"`` -- per-cell
    results and the adversarial stage are bit-identical either way.
    With ``jobs > 1`` (or ``"auto"``) the columns run concurrently and
    merge in input order, so the curve is bit-identical to ``jobs=1``.
    In adversarial mode each unblocked
    ``m`` then runs its adversary restarts as one ordered scan that
    stops at the first witness: a serial plan (``jobs=1`` or any
    fallback) runs no restart after it, and a pool runs them all but
    keeps the same first witness.  Both stages share one sweeper, so a
    parallel run pays the pool spawn cost once, and the estimates'
    ``meta.plan`` is the traffic stage's.  With ``cache``, every cell
    is content-addressed in the given
    :class:`~repro.perf.cache.ResultCache`, so re-runs only compute
    cells missing from the cache; a serial run stores each column's
    cells as it finishes, so one killed mid-sweep keeps every column
    it finished.
    ``kernel`` tags every cache address and the results' ``meta``.  A
    single point is ``m_values=[m]``; each ``m`` may appear once.
    ``debug_checks`` turns on per-event invariant checking inside each
    serial cell (slow; result-identical, so cache keys ignore it).
    """
    require_distinct("m_values", m_values)
    workload = spec.workload
    seeds = workload.seeds
    if not seeds:
        raise ValueError(
            "seeds is empty; list at least one seed, e.g. seeds=(0,)"
        )
    if adversarial:
        _check_adversarial(workload, spec.fabric)
    traffic_key = _adversary_traffic_key(spec)
    with ParallelSweeper(jobs) as sweeper:
        by_cell = _run_columns(
            sweeper, cache, spec, m_values, kernel, debug_checks
        )
        estimates = []
        for m in m_values:
            attempts = sum(by_cell[(m, seed)][0] for seed in seeds)
            blocked = sum(by_cell[(m, seed)][1] for seed in seeds)
            estimates.append(
                BlockingEstimate(
                    n=spec.n,
                    r=spec.r,
                    m=m,
                    k=spec.k,
                    construction=spec.construction,
                    model=spec.model,
                    x=spec.x,
                    attempts=attempts,
                    blocked=blocked,
                )
            )
        # The estimates report the traffic stage's plan, not the
        # adversary stage's.
        plan = sweeper.last_plan
        if adversarial:
            for index, estimate in enumerate(estimates):
                if estimate.blocked:
                    continue
                # One ordered scan of this m's restarts, up to the first
                # witness.  Ids are restart indices because the schedule
                # may draw the same seed twice.
                restarts = sweeper.run(
                    (
                        WorkUnit(
                            unit_id=attempt,
                            fn=search_blocking_state,
                            args=(spec.n, spec.r, estimate.m, spec.k),
                            kwargs=dict(
                                construction=spec.construction,
                                model=spec.model, x=spec.x, seed=seed,
                            ),
                            cache_key=(
                                None
                                if cache is None
                                else _adversary_key(
                                    cache, spec, estimate.m, seed, kernel
                                )
                            ),
                        )
                        for attempt, seed in enumerate(
                            _adversary_seeds(
                                estimate.m, workload.adversary_seeds,
                                traffic_key,
                            )
                        )
                    ),
                    cache=cache,
                    until=lambda witness: witness is not None,
                )
                if any(result.value is not None for result in restarts):
                    estimates[index] = replace(
                        estimate, attempts=estimate.attempts + 1, blocked=1
                    )
    meta = ResultMeta.capture(plan, kernel=kernel, workload=workload)
    return [replace(estimate, meta=meta) for estimate in estimates]
