"""Typed public facade over the analysis entry points.

Every run is described by frozen config dataclasses grouped by
concern:

* the :class:`repro.workloads.WorkloadConfig` family -- what traffic to
  offer.  :class:`UniformConfig` is the uniform member (the legacy
  behaviour, bit-identical); :class:`HotspotConfig`,
  :class:`HeavyTailFanoutConfig`, :class:`PoissonErlangConfig` and
  :class:`TraceConfig` are the non-uniform models, and any config
  registered with :func:`repro.workloads.register_workload` works too;
* :class:`ExecConfig` -- how to run it (worker count, result-cache
  directory, precision targeting);
* :class:`SearchConfig` -- how to search (routing kernel,
  canonicalized exhaustive search, per-event invariant checks);

and three verbs that consume them:

* :func:`blocking` -- blocking probability of one configuration;
* :func:`sweep` -- the blocking-vs-``m`` curve;
* :func:`exact_m` -- the exhaustive exact nonblocking threshold.

Every result carries the shared :class:`repro.obs.meta.ResultMeta`
provenance envelope, which records the workload that produced the
numbers.  Adversary seeds derive from the whole configuration, not
just ``m``.

Typical use::

    from repro import api

    estimate = api.blocking(3, 3, 4, 1, x=1)
    curve = api.sweep(
        3, 3, 1, [1, 2, 3, 4],
        traffic=api.HotspotConfig(zipf_s=1.5, steps=500, seeds=(0, 1)),
        execution=api.ExecConfig(jobs="auto"),
    )
    exact = api.exact_m(2, 2, 1, x=1, m_max=5)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.montecarlo import BlockingEstimate, _blocking_curve
from repro.core.models import Construction, MulticastModel
from repro.engine.fabrics import fabric_names
from repro.multistage.exhaustive import ExactMinimal, _exact_threshold
from repro.multistage.routing import _KERNELS
from repro.perf.adaptive import PrecisionConfig, adaptive_sweep
from repro.perf.batch import CurveSpec
from repro.perf.cache import ResultCache
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    TraceConfig,
    UniformConfig,
    WorkloadConfig,
    make_workload,
    workload_from_dict,
    workload_names,
)

__all__ = [
    "BlockingEstimate",
    "ExactMinimal",
    "ExecConfig",
    "HeavyTailFanoutConfig",
    "HotspotConfig",
    "PoissonErlangConfig",
    "PrecisionConfig",
    "SearchConfig",
    "TraceConfig",
    "UniformConfig",
    "WorkloadConfig",
    "blocking",
    "exact_m",
    "fabric_names",
    "make_workload",
    "sweep",
    "workload_from_dict",
    "workload_names",
]


def _as_workload(traffic: WorkloadConfig) -> WorkloadConfig:
    """Validate the ``traffic`` argument."""
    if not isinstance(traffic, WorkloadConfig):
        raise TypeError(
            "traffic must be a repro.workloads config (UniformConfig, "
            f"HotspotConfig, ...), got {type(traffic).__name__}"
        )
    return traffic


@dataclass(frozen=True)
class ExecConfig:
    """How to execute a run.

    Attributes:
        jobs: worker processes -- 1 (inline, default), an explicit
            count, or ``"auto"`` for the effective CPU count (an int
            <= 0 means the same).  The engine still falls back to
            serial whenever a pool cannot win.  Anything but ``"auto"``
            or an int is refused at construction.
        cache_dir: directory of a content-addressed
            :class:`repro.perf.cache.ResultCache`; None disables
            caching.
        precision: switch :func:`blocking` and :func:`sweep` from the
            fixed ``traffic.seeds`` replication budget to the adaptive
            sequential-stopping engine
            (:func:`repro.perf.adaptive.adaptive_sweep`): each cell
            samples antithetic/stratified rounds until its Wilson
            interval meets the configured half-width.  ``traffic.seeds``
            is ignored in this mode (the round schedule derives its own
            seeds); ``traffic.adversarial`` is rejected.  With
            ``cache_dir`` set, completed rounds persist and an
            interrupted sweep resumes bit-identically.
    """

    jobs: int | str = 1
    cache_dir: str | None = None
    precision: PrecisionConfig | None = None

    def __post_init__(self) -> None:
        if self.jobs != "auto" and (
            not isinstance(self.jobs, int) or isinstance(self.jobs, bool)
        ):
            raise ValueError(
                "jobs must be 'auto' or an int (<= 0 also means every CPU), "
                f"got {self.jobs!r}"
            )

    def cache(self) -> ResultCache | None:
        """The configured result cache, or None."""
        return ResultCache(self.cache_dir) if self.cache_dir is not None else None


@dataclass(frozen=True)
class SearchConfig:
    """How to search: kernel choice and self-verification.

    Attributes:
        kernel: simulation kernel -- ``"bitmask"`` (default) or
            ``"batched"`` (bitmask routing plus the lockstep
            Monte-Carlo engine of :mod:`repro.perf.batch`).  A speed
            choice only: numbers are identical, while cache addresses
            and ``meta.kernel`` record which one ran.
        canonicalize: dedup exhaustive-search states by canonical
            signature (identical verdicts, far fewer states).
        debug_checks: re-verify network invariants after every
            connect/disconnect inside Monte-Carlo cells (slow;
            result-identical).  Only the serial network of the
            ``"bitmask"`` kernel on the Clos fabric carries the checks,
            so any other kernel is refused here, any other fabric by
            :func:`blocking` and :func:`sweep` before a cell runs, and
            :func:`exact_m` before a candidate runs.
    """

    kernel: str = "bitmask"
    canonicalize: bool = True
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.kernel not in _KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from {_KERNELS}"
            )
        if self.debug_checks and self.kernel != "bitmask":
            raise _debug_checks_refusal(f"kernel {self.kernel!r}")

    def check_fabric(self, fabric: str) -> None:
        """Refuse ``debug_checks`` on any fabric but ``"clos"``."""
        if self.debug_checks and fabric != "clos":
            raise _debug_checks_refusal(f"fabric {fabric!r}")


def _debug_checks_refusal(path: str) -> ValueError:
    """The one error for ``debug_checks`` where no checked network runs."""
    return ValueError(
        "debug_checks applies to blocking/sweep traffic cells on the "
        f"bitmask kernel on the clos fabric; {path} never builds the "
        "checked network"
    )


def _estimates(
    n: int,
    r: int,
    k: int,
    m_values: list[int],
    construction: Construction,
    model: MulticastModel,
    x: int,
    traffic: WorkloadConfig,
    execution: ExecConfig,
    search: SearchConfig,
    fabric: str,
    *,
    default_steps: int,
    probe: bool,
) -> list[BlockingEstimate]:
    """Route a run to the fixed-budget curve or the adaptive engine.

    ``probe`` says whether the verb runs the adversary when
    ``traffic.adversarial`` asks for it.
    """
    traffic = _as_workload(traffic)
    spec = CurveSpec(
        n, r, k, construction, model, x,
        traffic.resolved_steps(default_steps), traffic, fabric,
    )
    search.check_fabric(fabric)
    precision = execution.precision
    if precision is None:
        return _blocking_curve(
            spec, m_values,
            adversarial=probe and traffic.adversarial,
            jobs=execution.jobs,
            cache=execution.cache(),
            debug_checks=search.debug_checks,
            kernel=search.kernel,
        )
    return adaptive_sweep(
        spec, m_values,
        precision=precision,
        jobs=execution.jobs,
        cache=execution.cache(),
        debug_checks=search.debug_checks,
        kernel=search.kernel,
    )


def blocking(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    traffic: WorkloadConfig = UniformConfig(),
    execution: ExecConfig = ExecConfig(),
    search: SearchConfig = SearchConfig(),
    fabric: str = "clos",
) -> BlockingEstimate:
    """Blocking probability of ``v(n, r, m, k)`` under dynamic traffic.

    The one-point curve: ``sweep(..., [m], ...)[0]`` (same cells, cache
    addresses and ``meta``), except that the default budget is 2000
    steps per replication instead of 1500 and ``traffic.adversarial``
    is ignored (adversarial probing is a curve feature).  ``traffic``
    accepts any :mod:`repro.workloads` config -- the uniform default
    reproduces the historical generator, the others reshape the offered
    traffic while keeping every kernel bit-identical per
    replication.  The returned estimate carries a
    :class:`repro.obs.meta.ResultMeta` envelope (kernel, execution
    plan, workload, obs summary when enabled).

    With ``execution.precision`` set, the fixed ``traffic.seeds``
    budget is replaced by the adaptive sequential-stopping engine and
    the estimate carries its
    :class:`~repro.analysis.montecarlo.AdaptiveInfo` provenance.

    ``fabric="crossbar"`` swaps the Clos for the single-stage
    nonblocking crossbar -- see :mod:`repro.engine.fabrics`.
    """
    return _estimates(
        n, r, k, [m], construction, model, x, traffic, execution, search,
        fabric, default_steps=2000, probe=False,
    )[0]


def sweep(
    n: int,
    r: int,
    k: int,
    m_values: list[int],
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    traffic: WorkloadConfig = UniformConfig(),
    execution: ExecConfig = ExecConfig(),
    search: SearchConfig = SearchConfig(),
    fabric: str = "clos",
) -> list[BlockingEstimate]:
    """The blocking-probability-vs-``m`` curve (implied figure X3).

    ``traffic`` accepts any :mod:`repro.workloads` config (see
    :func:`blocking`).  With ``traffic.adversarial``, the adversary-seed
    schedule is derived from the whole configuration (topology,
    construction, model, x) as well as ``m``, so two sweeps sharing an
    ``m`` value never reuse identical adversary streams.  Adversarial
    probing is only meaningful for uniform traffic and is rejected
    otherwise.  Each ``m`` may appear once in ``m_values``.

    With ``execution.precision`` set, every curve point samples until
    its Wilson interval meets the precision target instead of running
    the fixed ``traffic.seeds`` budget (see
    :class:`ExecConfig.precision`).

    ``fabric="crossbar"`` swaps the Clos for the single-stage
    nonblocking crossbar; adversarial probing is Clos-only and rejected
    on it.
    """
    return _estimates(
        n, r, k, list(m_values), construction, model, x, traffic,
        execution, search, fabric, default_steps=1500, probe=True,
    )


def exact_m(
    n: int,
    r: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    m_max: int | None = None,
    state_budget: int = 100_000,
    unicast_only: bool = False,
    execution: ExecConfig = ExecConfig(),
    search: SearchConfig = SearchConfig(),
) -> ExactMinimal:
    """The exact minimal nonblocking ``m`` by exhaustive model checking.

    ``search.debug_checks`` is refused: the exhaustive search never
    builds the checked network.
    """
    if search.debug_checks:
        raise _debug_checks_refusal("exact_m")
    return _exact_threshold(
        n, r, k,
        construction=construction,
        model=model,
        x=x,
        m_max=m_max,
        state_budget=state_budget,
        unicast_only=unicast_only,
        canonicalize=search.canonicalize,
        jobs=execution.jobs,
        cache=execution.cache(),
        kernel=search.kernel,
    )
