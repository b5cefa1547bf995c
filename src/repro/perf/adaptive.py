"""Precision-targeted adaptive sweep driver (sequential stopping).

The fixed-budget Monte-Carlo estimators spend ``steps x seeds`` events
on *every* cell of a blocking-vs-``m`` curve, even though cells far
from the knee (``P_block`` at or near zero) settle almost immediately
and only the knee needs heavy sampling.  This module replaces the fixed
replication count with a **sequential stopping rule**: every cell runs
*rounds* of replications until the Wilson confidence interval on its
pooled :class:`~repro.analysis.montecarlo.BlockingEstimate` reaches a
requested half-width (absolute or relative), then stops.  On a typical
curve most cells stop at the round floor and the event budget
concentrates where the variance is -- the whole-curve cost drops by the
ratio ``bench_perf.py``'s ``adaptive`` section guards.

Three layers make the rounds cheap, low-variance and resumable:

* **round schedule** -- :func:`round_specs` derives each round's
  replication seeds deterministically from the *traffic key* (the full
  configuration minus ``m`` -- the PR 3 adversary-seed lesson: never
  key a schedule on less than the experiment's identity) so every
  ``m`` of a sweep replays the same streams (common random numbers,
  which also smooths the curve).  Seeds are drawn from disjoint
  **strata** of the seed space (one per pair, fixed across rounds) and
  each seed is paired with its **antithetic** mirror
  (:class:`repro.switching.generators.AntitheticRandom`), layered on
  the stream compiler so every kernel inherits both;

* **kernel reuse** -- rounds run through the existing cells: with
  ``kernel="batched"`` each round spec becomes one lockstep
  :func:`repro.perf.batch.simulate_batch` unit covering every
  unconverged ``m``, otherwise one :func:`~repro.analysis.montecarlo._traffic_cell` unit per
  ``(m, spec)`` -- bit-identical numbers either way;

* **resumable rounds** -- each completed round's ``(attempts,
  blocked)`` aggregate lands in the content-addressed
  :class:`~repro.perf.cache.ResultCache` keyed by *(cell, round,
  schedule)*; a killed sweep restarted with the same manifest replays
  warm rounds from disk and continues sampling exactly where it
  stopped, bit-identically (the stopping rule is a pure function of
  the round results, so resume cannot diverge).  The round keys omit
  the precision *target*, so tightening the half-width on a later run
  reuses every warm round and only samples the difference.

Each round's work units run as one
:meth:`repro.perf.sweeper.ParallelSweeper.run` call, so adaptive
sweeps parallelize and serial-fallback exactly like fixed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro import obs as _obs
from repro.analysis.montecarlo import (
    AdaptiveInfo,
    BlockingEstimate,
    _traffic_cell,
)
from repro.core.models import Construction, MulticastModel
from repro.engine.fabrics import get_fabric
from repro.obs.meta import ResultMeta
from repro.perf.batch import simulate_batch
from repro.perf.sweeper import ParallelSweeper, SweepResult, WorkUnit
from repro.workloads.keys import (
    fabric_fragment,
    key_fragment,
    require_distinct,
    schedule_rng,
    workload_fragment,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.perf.cache import ResultCache
    from repro.workloads.base import WorkloadConfig

__all__ = [
    "SCHEDULE_VERSION",
    "PrecisionConfig",
    "ReplicationSpec",
    "adaptive_sweep",
    "round_specs",
    "stream_key",
]

#: bumped whenever the seed-schedule derivation changes; part of every
#: round cache key, so stale rounds can never resume a new schedule
SCHEDULE_VERSION = "1"

#: seeds are drawn from [0, 2**62): comfortably inside Python's fast
#: int path and partitionable into equal strata without bias
_SEED_SPACE = 1 << 62


class ReplicationSpec(NamedTuple):
    """One replication of a round: a seed and which of its streams."""

    seed: int
    antithetic: bool


@dataclass(frozen=True)
class PrecisionConfig:
    """The stopping rule and variance-reduction plan of an adaptive run.

    Attributes:
        half_width: target confidence-interval half-width.  Absolute by
            default; with ``relative=True`` the target is
            ``half_width x probability`` (10% relative precision is
            ``half_width=0.1, relative=True``).
        relative: interpret ``half_width`` relative to the point
            estimate.
        level: confidence level of the Wilson interval the rule tests.
        pairs_per_round: seed draws per round.  Each draw comes from its
            own stratum of the seed space and (with ``antithetic``)
            contributes its mirrored twin too, so a round runs
            ``pairs_per_round x 2`` replications by default.
        antithetic: pair every seed with its antithetic mirror stream.
        stratified: draw each round's seeds from disjoint strata of the
            seed space (pair ``i`` always samples stratum ``i``) instead
            of the full range.
        min_rounds: rounds every cell must complete before it may stop
            (guards against stopping on a lucky zero-variance first
            round).
        max_rounds: hard cap; a cell still unconverged here stops and
            is flagged ``converged=False`` in its
            :class:`~repro.analysis.montecarlo.AdaptiveInfo`.
        zero_half_width: under ``relative=True``, the absolute
            half-width at which a cell whose point estimate is exactly
            zero is accepted (a relative target is meaningless at
            ``p = 0``; the Wilson interval still shrinks like
            ``z^2/n``, so this bounds "provably near zero").
    """

    half_width: float = 0.01
    relative: bool = False
    level: float = 0.95
    pairs_per_round: int = 2
    antithetic: bool = True
    stratified: bool = True
    min_rounds: int = 2
    max_rounds: int = 64
    zero_half_width: float = 0.005

    def __post_init__(self) -> None:
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.pairs_per_round < 1:
            raise ValueError(
                f"pairs_per_round must be >= 1, got {self.pairs_per_round}"
            )
        if self.min_rounds < 1:
            raise ValueError(f"min_rounds must be >= 1, got {self.min_rounds}")
        if self.max_rounds < self.min_rounds:
            raise ValueError(
                f"max_rounds ({self.max_rounds}) must be >= min_rounds "
                f"({self.min_rounds})"
            )
        if not self.zero_half_width > 0.0:
            raise ValueError(
                f"zero_half_width must be > 0, got {self.zero_half_width}"
            )

    def replications_per_round(self) -> int:
        """Replications one round runs for one cell."""
        return self.pairs_per_round * (2 if self.antithetic else 1)

    def converged(self, estimate: BlockingEstimate) -> bool:
        """Does ``estimate`` meet the precision target?"""
        if not estimate.attempts:
            return False
        half = estimate.half_width(self.level)
        if self.relative:
            p = estimate.probability
            if p == 0.0:
                return half <= self.zero_half_width
            return half <= self.half_width * p
        return half <= self.half_width


def stream_key(
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> str:
    """The traffic key the round schedule derives from.

    Deliberately *without* ``m``: the compiled traffic stream is
    ``m``-independent, so sharing one schedule across the whole curve
    gives every ``m`` common random numbers.  Everything else that
    shapes the experiment is mixed in -- including the workload token,
    when the traffic is non-uniform, and the fabric token, when the
    fabric is not the Clos -- so two sweeps differing in any
    configuration dimension get independent schedules (the regression
    guard for the PR 3 adversary-seed fix pattern).  Uniform traffic on
    the Clos contributes no tokens, so pre-workload and pre-seam
    schedule keys -- and the golden adaptive values derived from them --
    are unchanged.
    """
    base = key_fragment(
        dict(
            n=n, r=r, k=k, construction=construction, model=model, x=x,
            steps=steps, max_fanout=max_fanout, schedule=SCHEDULE_VERSION,
        )
    )
    token = None if workload is None else workload.token()
    return (
        base
        + workload_fragment(token)
        + fabric_fragment(get_fabric(fabric).token())
    )


def round_specs(
    key: str, round_index: int, precision: PrecisionConfig
) -> tuple[ReplicationSpec, ...]:
    """The deterministic replication specs of one round.

    A pure function of ``(traffic key, round index, schedule shape)``:
    pair ``i`` hashes ``key|round|stratum=i`` into its own RNG, draws a
    seed (from stratum ``i``'s slice of the seed space when
    ``stratified``), and -- when ``antithetic`` -- contributes both the
    seed's plain stream and its mirror.  Resume depends on this purity:
    a restarted sweep re-derives exactly the schedule the killed sweep
    was running.
    """
    specs: list[ReplicationSpec] = []
    pairs = precision.pairs_per_round
    width = _SEED_SPACE // pairs if precision.stratified else _SEED_SPACE
    for stratum in range(pairs):
        rng = schedule_rng(key, round_index, stratum)
        offset = stratum * width if precision.stratified else 0
        seed = offset + rng.randrange(width)
        specs.append(ReplicationSpec(seed, False))
        if precision.antithetic:
            specs.append(ReplicationSpec(seed, True))
    return tuple(specs)


def _round_key(
    cache: "ResultCache",
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    round_index: int,
    precision: PrecisionConfig,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
    kernel: str = "bitmask",
) -> str:
    """Content address of one ``(cell, round)`` aggregate.

    Keyed by the cell, the round index and the *schedule shape*
    (pairs/antithetic/stratified + schedule version) -- but not by the
    precision target or level, which select how many rounds run without
    changing any round's content.  A resumed sweep with a tighter
    target therefore reuses every warm round.  The workload token joins
    the key only when non-uniform, so uniform rounds keep their legacy
    addresses while non-uniform traffic can never resume from them.
    """
    params = dict(
        n=n, r=r, m=m, k=k, construction=construction, model=model,
        x=x, steps=steps, max_fanout=max_fanout,
        round=round_index,
        pairs=precision.pairs_per_round,
        antithetic=precision.antithetic,
        stratified=precision.stratified,
        schedule=SCHEDULE_VERSION,
    )
    token = None if workload is None else workload.token()
    if token is not None:
        params["workload"] = token
    fabric_token = get_fabric(fabric).token()
    if fabric_token is not None:
        params["fabric"] = fabric_token
    return cache.key("adaptive_round", params, kernel=kernel)


class _AdaptiveDriver:
    """Round-by-round state machine behind ``adaptive_sweep``.

    Produces each round's work units for one
    :meth:`~repro.perf.sweeper.ParallelSweeper.run` call and absorbs
    the results: per-cell totals, convergence bookkeeping, and the
    per-round cache traffic (warm rounds short-circuit without units).
    """

    def __init__(
        self,
        n: int,
        r: int,
        k: int,
        m_values: list[int],
        construction: Construction,
        model: MulticastModel,
        x: int,
        steps: int,
        max_fanout: int | None,
        precision: PrecisionConfig,
        cache: "ResultCache | None",
        debug_checks: bool,
        workload: "WorkloadConfig | None" = None,
        fabric: str = "clos",
        kernel: str = "bitmask",
    ):
        self.n, self.r, self.k = n, r, k
        self.m_values = list(m_values)
        self.construction, self.model, self.x = construction, model, x
        self.steps, self.max_fanout = steps, max_fanout
        self.precision = precision
        self.cache = cache
        self.debug_checks = debug_checks
        self.workload = workload
        self.fabric = fabric
        self.kernel = kernel
        self.batched = kernel == "batched"
        self.key = stream_key(
            n, r, k, construction, model, x, steps, max_fanout, workload,
            fabric,
        )
        #: pooled (attempts, blocked) per m
        self.totals: dict[int, list[int]] = {m: [0, 0] for m in self.m_values}
        self.rounds_done: dict[int, int] = {m: 0 for m in self.m_values}
        self.converged: dict[int, bool] = {m: False for m in self.m_values}
        self.active: list[int] = list(self.m_values)
        self.round_index = 0
        # per-pending-round scratch
        self._need: list[int] = []
        self._cached: dict[int, tuple[int, int]] = {}
        self._keys: dict[int, str] = {}

    # -- pooled estimate ----------------------------------------------------

    def _estimate(self, m: int) -> BlockingEstimate:
        attempts, blocked = self.totals[m]
        return BlockingEstimate(
            n=self.n, r=self.r, m=m, k=self.k,
            construction=self.construction, model=self.model, x=self.x,
            attempts=attempts, blocked=blocked,
        )

    # -- round lifecycle ----------------------------------------------------

    def _finish_round(self, round_totals: dict[int, tuple[int, int]]) -> None:
        """Fold one completed round into the totals; retire converged cells."""
        for m in self.active:
            attempts, blocked = round_totals[m]
            self.totals[m][0] += attempts
            self.totals[m][1] += blocked
            self.rounds_done[m] += 1
        _obs.inc("adaptive.rounds")
        still: list[int] = []
        for m in self.active:
            if (
                self.rounds_done[m] >= self.precision.min_rounds
                and self.precision.converged(self._estimate(m))
            ):
                self.converged[m] = True
                _obs.inc("adaptive.cells_converged")
            else:
                still.append(m)
        self.active = still
        self.round_index += 1

    def _absorb(self, executed: list[SweepResult]) -> None:
        """Merge one round's executed units with its cache hits."""
        round_totals = dict(self._cached)
        acc: dict[int, list[int]] = {m: [0, 0] for m in self._need}
        if self.batched:
            # One unit per spec, each covering every unconverged m.
            for result in executed:
                for m, (attempts, blocked) in result.value:
                    acc[m][0] += attempts
                    acc[m][1] += blocked
        else:
            for result in executed:
                m, _ = result.unit_id
                attempts, blocked = result.value
                acc[m][0] += attempts
                acc[m][1] += blocked
        for m in self._need:
            round_totals[m] = (acc[m][0], acc[m][1])
            if self.cache is not None:
                self.cache.put(self._keys[m], round_totals[m])
        self._finish_round(round_totals)

    def next_units(
        self, executed: list[SweepResult] | None
    ) -> list[WorkUnit] | None:
        """Absorb ``executed``, then return the next round's units or None."""
        if executed is not None:
            self._absorb(executed)
        while True:
            if not self.active or self.round_index >= self.precision.max_rounds:
                return None
            specs = round_specs(self.key, self.round_index, self.precision)
            cached: dict[int, tuple[int, int]] = {}
            keys: dict[int, str] = {}
            if self.cache is not None:
                for m in self.active:
                    rkey = _round_key(
                        self.cache, self.n, self.r, m, self.k,
                        self.construction, self.model, self.x, self.steps,
                        self.max_fanout, self.round_index, self.precision,
                        self.workload, self.fabric, self.kernel,
                    )
                    keys[m] = rkey
                    hit, value = self.cache.lookup(rkey)
                    if hit:
                        cached[m] = tuple(value)
            need = [m for m in self.active if m not in cached]
            self._need = need
            self._cached, self._keys = cached, keys
            if not need:
                # Whole round served warm: fold it in and look at the
                # next round without dispatching anything.
                self._finish_round(cached)
                continue
            if self.batched:
                return [
                    WorkUnit(
                        unit_id=index,
                        fn=simulate_batch,
                        args=(
                            self.n, self.r, self.k, self.construction,
                            self.model, self.x, self.steps, self.max_fanout,
                            spec.seed, tuple(need), spec.antithetic,
                            self.workload, self.fabric,
                        ),
                    )
                    for index, spec in enumerate(specs)
                ]
            return [
                WorkUnit(
                    unit_id=(m, index),
                    fn=_traffic_cell,
                    args=(
                        self.n, self.r, m, self.k, self.construction,
                        self.model, self.x, self.steps, spec.seed,
                        self.max_fanout, self.debug_checks, spec.antithetic,
                        self.workload, self.fabric,
                    ),
                )
                for m in need
                for index, spec in enumerate(specs)
            ]

    def estimates(self, meta: ResultMeta) -> list[BlockingEstimate]:
        """The final pooled estimates, adaptive provenance attached."""
        results = []
        for m in self.m_values:
            attempts, blocked = self.totals[m]
            replications = (
                self.rounds_done[m] * self.precision.replications_per_round()
            )
            info = AdaptiveInfo(
                rounds=self.rounds_done[m],
                replications=replications,
                events=replications * self.steps,
                converged=self.converged[m],
                target_half_width=self.precision.half_width,
                relative=self.precision.relative,
                level=self.precision.level,
            )
            results.append(
                BlockingEstimate(
                    n=self.n, r=self.r, m=m, k=self.k,
                    construction=self.construction, model=self.model,
                    x=self.x, attempts=attempts, blocked=blocked,
                    meta=meta, adaptive=info,
                )
            )
        return results


def adaptive_sweep(
    n: int,
    r: int,
    k: int,
    m_values: list[int],
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    steps: int = 1500,
    max_fanout: int | None = None,
    precision: PrecisionConfig = PrecisionConfig(),
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
    debug_checks: bool = False,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
    kernel: str = "bitmask",
) -> list[BlockingEstimate]:
    """The blocking-vs-``m`` curve at a target precision, not a budget.

    Each ``m`` cell samples rounds of replications (the deterministic
    antithetic/stratified schedule of :func:`round_specs`) until its
    Wilson interval meets ``precision``'s half-width target, then
    stops; the returned estimates carry the usual
    :class:`~repro.obs.meta.ResultMeta` plus an
    :class:`~repro.analysis.montecarlo.AdaptiveInfo` recording rounds,
    replications, events and convergence.  With ``cache``, every
    completed round is persisted under a ``(cell, round)`` content
    address: an interrupted sweep re-run with the same arguments
    replays warm rounds from disk and continues sampling where it
    stopped, producing bit-identical estimates to an uninterrupted run.

    ``jobs`` parallelizes each round across worker processes through
    :class:`~repro.perf.sweeper.ParallelSweeper` (bit-identical for any
    value); with ``kernel="batched"`` the round's cells run in
    lockstep through :func:`repro.perf.batch.simulate_batch`.
    ``kernel`` also tags every round's cache address and the results'
    ``meta``.  Each ``m`` may appear once in
    ``m_values``; a single point is ``[m]`` and shares its warm rounds
    with the same cell of any wider sweep.
    """
    require_distinct("m_values", m_values)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if workload is not None:
        workload.validate_precision(precision, steps)
    driver = _AdaptiveDriver(
        n, r, k, list(m_values), construction, model, x, steps, max_fanout,
        precision, cache, debug_checks, workload, fabric, kernel,
    )
    with ParallelSweeper(jobs) as sweeper:
        wave = driver.next_units(None)
        while wave is not None:
            wave = driver.next_units(sweeper.run(wave))
        plan = sweeper.last_plan
    return driver.estimates(
        ResultMeta.capture(plan, kernel=kernel, workload=workload)
    )

