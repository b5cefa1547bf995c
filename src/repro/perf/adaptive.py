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
concentrates where the variance is.

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

* **kernel reuse** -- rounds run through the existing cells.  A work
  unit replays one round spec's stream against the column of every
  unconverged ``m``: a lockstep
  :func:`repro.perf.batch.simulate_batch` unit with
  ``kernel="batched"``, otherwise a
  :func:`~repro.analysis.montecarlo._traffic_column` unit that draws
  the stream once and runs one serial network per ``m`` --
  bit-identical numbers either way;

* **resumable rounds** -- each completed round's ``(attempts,
  blocked)`` aggregate lands in the content-addressed
  :class:`~repro.perf.cache.ResultCache` keyed by *(cell, round,
  schedule)*; a killed sweep restarted with the same manifest replays
  warm rounds from disk and continues sampling exactly where it
  stopped, bit-identically (the stopping rule is a pure function of
  the round results, so resume cannot diverge).  The round keys omit
  the precision *target*, so tightening the half-width on a later run
  reuses every warm round and only samples the difference.

:func:`adaptive_sweep` is one loop over the rounds: look up the
active cells' round keys, run the missing cells as one
:meth:`repro.perf.sweeper.ParallelSweeper.run` call (so adaptive
sweeps parallelize and serial-fallback exactly like fixed ones), store
each computed round total, and retire the cells that converged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from repro import obs as _obs
from repro.analysis.montecarlo import (
    AdaptiveInfo,
    BlockingEstimate,
    _traffic_column,
)
from repro.engine.fabrics import get_fabric
from repro.obs.meta import ResultMeta
from repro.perf.batch import CurveSpec, simulate_batch
from repro.perf.sweeper import ParallelSweeper, WorkUnit
from repro.workloads.keys import (
    fabric_fragment,
    key_fragment,
    require_distinct,
    schedule_rng,
    workload_fragment,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.perf.cache import ResultCache

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


def stream_key(spec: CurveSpec) -> str:
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
            n=spec.n, r=spec.r, k=spec.k, construction=spec.construction,
            model=spec.model, x=spec.x, steps=spec.steps,
            max_fanout=spec.max_fanout, schedule=SCHEDULE_VERSION,
        )
    )
    return (
        base
        + workload_fragment(spec.workload.token())
        + fabric_fragment(get_fabric(spec.fabric).token())
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
    spec: CurveSpec,
    m: int,
    round_index: int,
    precision: PrecisionConfig,
    kernel: str,
) -> str:
    """Content address of one ``(cell, round)`` aggregate.

    Keyed by the cell, the round index and the *schedule shape*
    (pairs/antithetic/stratified + schedule version) -- but not by the
    precision target or level, which select how many rounds run without
    changing any round's content.  A resumed sweep with a tighter
    target therefore reuses every warm round.
    """
    params = spec.key_params(
        m=m,
        round=round_index,
        pairs=precision.pairs_per_round,
        antithetic=precision.antithetic,
        stratified=precision.stratified,
        schedule=SCHEDULE_VERSION,
    )
    return cache.key("adaptive_round", params, kernel=kernel)


def adaptive_sweep(
    spec: CurveSpec,
    m_values: list[int],
    *,
    precision: PrecisionConfig = PrecisionConfig(),
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
    debug_checks: bool = False,
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
    A workload that cannot draw fresh streams every round (a trace)
    is refused before any round runs.

    ``jobs`` parallelizes each round across worker processes through
    :class:`~repro.perf.sweeper.ParallelSweeper` (bit-identical for any
    value).  Each work unit is one replication's column of pending
    ``m`` values, under either kernel: with ``kernel="batched"`` the
    column runs in lockstep through
    :func:`repro.perf.batch.simulate_batch`.
    ``kernel`` also tags every round's cache address and the results'
    ``meta``.  Each ``m`` may appear once in
    ``m_values``; a single point is ``[m]`` and shares its warm rounds
    with the same cell of any wider sweep.
    """
    require_distinct("m_values", m_values)
    spec.workload.validate_precision(precision, spec.steps)
    m_values = list(m_values)
    # Every unit replays one round spec's stream against the column of
    # pending ``m`` values and returns ``[(m, (attempts, blocked)), ...]``.
    if kernel == "batched":
        run_column, extra = simulate_batch, {}
    else:
        run_column, extra = _traffic_column, dict(debug_checks=debug_checks)
    key = stream_key(spec)
    #: pooled (attempts, blocked) per m
    totals = {m: [0, 0] for m in m_values}
    rounds_done = dict.fromkeys(m_values, 0)
    converged = dict.fromkeys(m_values, False)

    def pooled(m: int, **provenance: Any) -> BlockingEstimate:
        attempts, blocked = totals[m]
        return BlockingEstimate(
            n=spec.n, r=spec.r, m=m, k=spec.k,
            construction=spec.construction, model=spec.model, x=spec.x,
            attempts=attempts, blocked=blocked, **provenance,
        )

    active = list(m_values)
    with ParallelSweeper(jobs) as sweeper:
        for round_index in range(precision.max_rounds):
            if not active:
                break
            # The active cells' warm rounds.
            round_totals: dict[int, tuple[int, int]] = {}
            keys: dict[int, str] = {}
            if cache is not None:
                for m in active:
                    keys[m] = _round_key(
                        cache, spec, m, round_index, precision, kernel
                    )
                    hit, value = cache.lookup(keys[m])
                    if hit:
                        round_totals[m] = tuple(value)
            # The missing cells, in one sweeper.run; each computed
            # round total is stored.
            need = [m for m in active if m not in round_totals]
            if need:
                column = tuple(need)
                schedule = round_specs(key, round_index, precision)
                units = [
                    WorkUnit(
                        unit_id=index,
                        fn=run_column,
                        args=(spec, rep.seed, column, rep.antithetic),
                        kwargs=extra,
                    )
                    for index, rep in enumerate(schedule)
                ]
                computed = {m: [0, 0] for m in need}
                for result in sweeper.run(units):
                    for m, (attempts, blocked) in result.value:
                        computed[m][0] += attempts
                        computed[m][1] += blocked
                for m in need:
                    round_totals[m] = tuple(computed[m])
                    if cache is not None:
                        cache.put(keys[m], round_totals[m])
            # Fold the round in and retire the converged cells.
            _obs.inc("adaptive.rounds")
            still: list[int] = []
            for m in active:
                totals[m][0] += round_totals[m][0]
                totals[m][1] += round_totals[m][1]
                rounds_done[m] += 1
                if (
                    rounds_done[m] >= precision.min_rounds
                    and precision.converged(pooled(m))
                ):
                    converged[m] = True
                    _obs.inc("adaptive.cells_converged")
                else:
                    still.append(m)
            active = still
        plan = sweeper.last_plan
    meta = ResultMeta.capture(plan, kernel=kernel, workload=spec.workload)
    estimates = []
    for m in m_values:
        replications = rounds_done[m] * precision.replications_per_round()
        info = AdaptiveInfo(
            rounds=rounds_done[m],
            replications=replications,
            events=replications * spec.steps,
            converged=converged[m],
            target_half_width=precision.half_width,
            relative=precision.relative,
            level=precision.level,
        )
        estimates.append(pooled(m, meta=meta, adaptive=info))
    return estimates
