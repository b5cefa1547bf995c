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
(seed, m, config) cell is a pure function of its arguments.  Cells are
fanned out through :class:`repro.perf.ParallelSweeper` and merged in
seed order, which makes every :class:`BlockingEstimate` bit-identical
for any ``jobs`` value -- pooled seeds are summed, never interleaved.

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
from repro.perf.batch import simulate_batch
from repro.perf.sweeper import ParallelSweeper, WorkUnit
from repro.switching.generators import dynamic_traffic, stream_rng
from repro.workloads.keys import key_fragment, require_distinct

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.perf.cache import ResultCache
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
        events: total traffic events simulated
            (``replications x steps``) -- the budget the fixed-budget
            comparison in ``bench_perf.py`` measures against.
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
    cache: "ResultCache",
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    seed: int,
    max_fanout: int | None,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
    kernel: str = "bitmask",
) -> str:
    params = dict(
        n=n, r=r, m=m, k=k, construction=construction, model=model,
        x=x, steps=steps, seed=seed, max_fanout=max_fanout,
    )
    # The workload token joins the key only when non-uniform: uniform
    # runs keep their legacy addresses (warm caches stay warm), while a
    # non-uniform run can never collide with them -- the cross-workload
    # cache-poisoning guarantee.
    token = None if workload is None else workload.token()
    if token is not None:
        params["workload"] = token
    # The fabric token follows the same anchor rule: the Clos (token
    # None) keeps every legacy address, any other fabric model gets its
    # own -- Clos results can never be served for another topology.
    fabric_token = get_fabric(fabric).token()
    if fabric_token is not None:
        params["fabric"] = fabric_token
    return cache.key("traffic_cell", params, kernel=kernel)


def _adversary_key(
    cache: "ResultCache",
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    seed: int,
    kernel: str = "bitmask",
) -> str:
    return cache.key(
        "adversary_cell",
        dict(
            n=n, r=r, m=m, k=k, construction=construction, model=model,
            x=x, seed=seed,
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


def _traffic_cell(
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    seed: int,
    max_fanout: int | None,
    debug_checks: bool = False,
    antithetic: bool = False,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> tuple[int, int]:
    """One replication: ``(attempts, blocked)`` for one traffic seed.

    The seed's single ``random.Random`` stream drives the traffic
    generator end-to-end; nothing else in the cell draws randomness, so
    the result depends only on the arguments (the parallel-safety
    contract of the sweep engine).  With ``antithetic=True`` the stream
    is the seed's antithetic mirror
    (:class:`repro.switching.generators.AntitheticRandom`) -- the
    variance-reduction twin the adaptive driver pairs with the plain
    stream.  ``workload`` swaps in a registered traffic model from
    :mod:`repro.workloads` (None = the uniform generator, the
    historical behaviour); its identity must accompany the cell in any
    cache key (see :func:`_traffic_key`).  ``debug_checks`` re-verifies
    the network invariants after every event; it cannot change the
    result, so it is deliberately absent from the cell's cache key.
    ``fabric`` selects the registered fabric model; the serial
    ``ThreeStageNetwork`` below *is* the Clos admission program, so any
    other fabric delegates to the batch engine (which replays the same
    compiled stream through the same shared kernels, bit-identically).
    """
    if fabric != "clos":
        return simulate_batch(
            n, r, k, construction, model, x, steps, max_fanout, seed,
            (m,), antithetic, workload, fabric,
        )[0][1]
    _obs.inc("mc.cells")
    rng = stream_rng(seed, antithetic)
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x,
        debug_checks=debug_checks,
    )
    attempts = 0
    blocked = 0
    live: dict[int, int] = {}
    dropped: set[int] = set()
    if workload is None:
        events = dynamic_traffic(
            model, n * r, k, steps=steps, seed=rng, max_fanout=max_fanout
        )
    else:
        events = workload.events(
            model, n * r, k, steps=steps, rng=rng, max_fanout=max_fanout
        )
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


def _run_batched_cells(
    sweeper: ParallelSweeper,
    cache: "ResultCache | None",
    cells: list[tuple[int, int]],
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    batch: int | None,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> dict[tuple[int, int], tuple[int, int]]:
    """All ``(m, seed)`` traffic cells through the lockstep batch engine.

    The ``batched`` kernel's replacement for the cell-per-work-unit
    sweep: cells sharing a seed share one compiled traffic stream and
    one :func:`repro.perf.batch.simulate_batch` work unit (so the
    sweeper fans out batch-per-process), and each cell's result still
    lands in ``cache`` under the same per-cell traffic key -- a batched
    sweep warms the cache for cell-granular re-runs and vice versa
    (kernel-tagged keys keep the two pipelines' entries separate).
    ``batch`` caps replications per work unit; None packs each seed's
    whole ``m`` column into one unit.
    """
    results: dict[tuple[int, int], tuple[int, int]] = {}
    keys: dict[tuple[int, int], str] = {}
    pending: list[tuple[int, int]] = []
    for cell in cells:
        m, seed = cell
        if cache is not None:
            key = _traffic_key(
                cache, n, r, m, k, construction, model, x, steps, seed,
                max_fanout, workload, fabric, "batched",
            )
            keys[cell] = key
            hit, value = cache.lookup(key)
            if hit:
                results[cell] = tuple(value)
                continue
        pending.append(cell)
    by_seed: dict[int, list[int]] = {}
    for m, seed in pending:
        by_seed.setdefault(seed, []).append(m)
    units = []
    for seed in sorted(by_seed):
        ms = by_seed[seed]
        size = len(ms) if batch is None else batch
        for start in range(0, len(ms), size):
            units.append(
                WorkUnit(
                    unit_id=(seed, start),
                    fn=simulate_batch,
                    args=(
                        n, r, k, construction, model, x, steps, max_fanout,
                        seed, tuple(ms[start : start + size]), False,
                        workload, fabric,
                    ),
                )
            )
    for unit_result in sweeper.run(units):
        seed = unit_result.unit_id[0]
        for m, value in unit_result.value:
            cell = (m, seed)
            results[cell] = value
            if cache is not None:
                cache.put(keys[cell], value)
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


def _adversary_traffic_key(
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
) -> str:
    """Configuration fingerprint mixed into the adversary-seed schedule."""
    return key_fragment(
        dict(n=n, r=r, k=k, construction=construction, model=model, x=x)
    )


def _blocking_curve(
    n: int,
    r: int,
    k: int,
    m_values: list[int],
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    steps: int = 1500,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_fanout: int | None = None,
    adversarial: bool = False,
    adversary_seeds: int = 20,
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
    debug_checks: bool = False,
    batch: int | None = None,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
    kernel: str = "bitmask",
) -> list[BlockingEstimate]:
    """The blocking-probability-vs-``m`` curve (implied figure X3).

    With ``adversarial=True``, each point additionally runs the
    randomized adversary of
    :func:`repro.multistage.adversary.search_blocking_state`; if the
    adversary finds a witness at an ``m`` where random traffic saw no
    blocking, one synthetic blocked attempt is recorded so the curve
    reflects *worst-case* rather than average-case behaviour.

    All (m, seed) traffic cells are independent work units fanned out
    through the sweep engine; with ``jobs > 1`` (or ``"auto"``) they
    run concurrently and merge in input order, so the curve is
    bit-identical to ``jobs=1``.  In adversarial mode each unblocked
    ``m`` then runs its adversary restarts as one ordered scan that
    stops at the first witness: a serial plan (``jobs=1`` or any
    fallback) runs no restart after it, and a pool runs them all but
    keeps the same first witness.  Both stages share one sweeper, so a
    parallel run pays the pool spawn cost once, and the estimates'
    ``meta.plan`` is the traffic stage's.  With ``cache``, every cell
    is content-addressed in the given
    :class:`~repro.perf.cache.ResultCache`, so re-runs only compute
    cells missing from the cache.

    With ``kernel="batched"`` the traffic stage instead runs each
    seed's whole ``m`` column in lockstep through
    :mod:`repro.perf.batch` (``batch`` caps replications per work
    unit) -- per-cell results and the adversarial stage are
    bit-identical to the ``"bitmask"`` kernel's either way.  ``kernel`` tags every cache address and the
    results' ``meta``.  A single point is ``m_values=[m]``.

    Args:
        n, r, k, m_values: topology; each ``m`` may appear once.
        construction, model, x: network configuration.
        steps: traffic events per seed.
        seeds: independent replications, pooled per ``m``; at least
            one, and each seed may appear once.  A seed owns one RNG
            stream end-to-end, so the curve is deterministic for any
            ``jobs``.
        max_fanout: cap on destinations per request.
        adversarial, adversary_seeds: run the adversary, with this many
            restarts, at every ``m`` where traffic saw no blocking.
        jobs: worker processes for the sweep (``"auto"`` adapts to the
            host).
        cache: optional per-cell result cache (incremental re-runs).
        debug_checks: per-event invariant checking inside each serial
            cell (slow; result-identical, so cache keys ignore it).
        batch: with ``kernel="batched"``, the cap on lockstep
            replications per work unit (None = one unit per seed);
            never affects results.
        workload: a registered traffic model from
            :mod:`repro.workloads` (None = uniform); its identity joins
            every non-uniform cell cache key.
        fabric: the registered fabric model (:mod:`repro.engine.fabrics`;
            ``"clos"`` is the paper's network); its token joins every
            non-Clos cell cache key.
        kernel: ``"bitmask"`` or ``"batched"``.
    """
    require_distinct("m_values", m_values)
    require_distinct("seeds", seeds)
    if not seeds:
        raise ValueError(
            "seeds is empty; list at least one seed, e.g. seeds=(0,)"
        )
    if adversarial and workload is not None and workload.token() is not None:
        raise ValueError(
            "adversarial probing is defined for uniform traffic only "
            "(the adversary constructs its own worst-case states); got "
            f"workload {workload.workload!r}"
        )
    if adversarial and get_fabric(fabric).token() is not None:
        raise ValueError(
            "adversarial probing is defined for the Clos fabric only "
            "(the adversary constructs three-stage worst-case states); "
            f"got fabric {fabric!r}"
        )
    traffic_key = _adversary_traffic_key(n, r, k, construction, model, x)
    with ParallelSweeper(jobs) as sweeper:
        if kernel == "batched":
            by_cell = _run_batched_cells(
                sweeper, cache,
                [(m, seed) for m in m_values for seed in seeds],
                n, r, k, construction, model, x, steps, max_fanout, batch,
                workload, fabric,
            )
        else:
            cells = sweeper.run(
                (
                    WorkUnit(
                        unit_id=(m, seed),
                        fn=_traffic_cell,
                        args=(
                            n, r, m, k, construction, model, x, steps, seed,
                            max_fanout, debug_checks, False, workload, fabric,
                        ),
                        cache_key=(
                            None
                            if cache is None
                            else _traffic_key(
                                cache, n, r, m, k, construction, model, x,
                                steps, seed, max_fanout, workload, fabric,
                                kernel,
                            )
                        ),
                    )
                    for m in m_values
                    for seed in seeds
                ),
                cache=cache,
            )
            by_cell = {result.unit_id: result.value for result in cells}
        estimates = []
        for m in m_values:
            attempts = sum(by_cell[(m, seed)][0] for seed in seeds)
            blocked = sum(by_cell[(m, seed)][1] for seed in seeds)
            estimates.append(
                BlockingEstimate(
                    n=n,
                    r=r,
                    m=m,
                    k=k,
                    construction=construction,
                    model=model,
                    x=x,
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
                            args=(n, r, estimate.m, k),
                            kwargs=dict(
                                construction=construction, model=model,
                                x=x, seed=seed,
                            ),
                            cache_key=(
                                None
                                if cache is None
                                else _adversary_key(
                                    cache, n, r, estimate.m, k,
                                    construction, model, x, seed, kernel,
                                )
                            ),
                        )
                        for attempt, seed in enumerate(
                            _adversary_seeds(
                                estimate.m, adversary_seeds, traffic_key
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
