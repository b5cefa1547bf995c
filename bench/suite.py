"""The benchmark's workloads: inputs from a seed, the timed call, checks.

Each workload drives the public API (``repro.api``) the way a user
would, one process, ``jobs=1``.  The ``api`` module is passed in and
``repro`` is imported only inside functions, so the worker can time the
import separately and the parent can read workload shapes without it.

Every workload offers the same hooks:

* ``begin(scratch)`` -> ``ctx`` before the first call, ``between(ctx)``
  after each call (both untimed), and ``call(api, seed, ctx)``, the
  timed operation;
* ``points(result)``: the outputs checked for correctness, as JSON
  lists keyed by their first ``key_len`` fields;
* ``events(result)``: the work one call did (stream events replayed,
  or search states explored), the numerator of ``events_per_s``;
* ``reference(api, seed)``: the same points through the reference
  path -- a different kernel or search mode -- from which
  ``make_golden.py`` pins ``golden.json`` (a seeded sweep also takes
  the ``m`` values to recompute);
* ``oracle(point)``: whether a point contradicts the paper (Theorem 1:
  zero blocking at ``m >= min_middle_switches``; the unicast threshold
  is ``2n - 1``).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

#: layers on every batched sweep's path
BATCHED_LAYERS = (
    "api.sweep",
    "perf.sweeper.run",
    "perf.batch.simulate_batch",
    "perf.batch.compile_stream",
    "engine.backends.make_state",
    "switching.generators.draw_connection",
)
#: layers on the serial (one network per cell) sweep path
SERIAL_LAYERS = (
    "api.sweep",
    "perf.sweeper.run",
    "analysis.montecarlo.cell",
    "switching.generators.draw_connection",
    "multistage.network.try_connect",
    "multistage.network.connect",
    "multistage.network.disconnect",
)
CACHE_LAYERS = ("perf.cache.lookup", "perf.cache.put")
EXACT_LAYERS = (
    "api.exact_m",
    "multistage.exhaustive.is_blockable",
    "multistage.network.connect",
    "multistage.network.disconnect",
    "multistage.network.canonical_signature",
)


def theorem1_bound(n: int, r: int, k: int, x: int) -> int:
    """Theorem 1's minimal nonblocking ``m`` (MSW-dominant) at fixed ``x``."""
    from repro.core.models import Construction
    from repro.core.multistage import min_middle_switches

    return min_middle_switches(n, r, k, Construction.MSW_DOMINANT, x)


class _Stateless:
    """A workload whose calls share no scratch state."""

    cached = False

    def begin(self, scratch: Path) -> None:
        return None

    def between(self, ctx: None) -> None:
        return None


class _Curve:
    """A blocking curve: points ``[m, attempts, blocked, ...]`` keyed by ``m``."""

    key_len = 1

    def oracle(self, point: list) -> bool:
        m, _, blocked = point[:3]
        return m >= theorem1_bound(self.n, self.r, self.k, self.x) and blocked > 0


@dataclass(frozen=True)
class Sweep(_Curve, _Stateless):
    """A fixed-budget blocking-vs-``m`` curve through ``api.sweep``.

    ``--seed s`` selects the replication seeds
    ``s*seeds_per_call .. s*seeds_per_call + seeds_per_call - 1``, so
    different seeds give disjoint streams.  ``hotspot_s`` switches the
    traffic from uniform to Zipf-skewed destinations.  ``spot_m`` are
    the points recomputed through ``reference_kernel`` on a seed that
    ``golden.json`` does not pin.
    """

    name: str
    n: int
    r: int
    k: int
    x: int
    m_values: tuple[int, ...]
    steps: int
    seeds_per_call: int
    kernel: str
    reference_kernel: str
    spot_m: tuple[int, ...]
    hotspot_s: float | None = None

    seeded = True

    @property
    def layers(self) -> tuple[str, ...]:
        return BATCHED_LAYERS if self.kernel == "batched" else SERIAL_LAYERS

    def seeds(self, seed: int) -> tuple[int, ...]:
        first = seed * self.seeds_per_call
        return tuple(range(first, first + self.seeds_per_call))

    def _traffic(self, api: Any, seed: int) -> Any:
        if self.hotspot_s is None:
            return api.UniformConfig(steps=self.steps, seeds=self.seeds(seed))
        return api.HotspotConfig(
            zipf_s=self.hotspot_s, steps=self.steps, seeds=self.seeds(seed)
        )

    def _sweep(self, api: Any, seed: int, m_values: tuple[int, ...], kernel: str) -> list:
        return api.sweep(
            self.n, self.r, self.k, list(m_values), x=self.x,
            traffic=self._traffic(api, seed),
            execution=api.ExecConfig(jobs=1),
            search=api.SearchConfig(kernel=kernel),
        )

    def call(self, api: Any, seed: int, ctx: None) -> list:
        return self._sweep(api, seed, self.m_values, self.kernel)

    def points(self, result: list) -> list[list]:
        return [[e.m, e.attempts, e.blocked] for e in result]

    def events(self, result: list) -> int:
        return self.steps * self.seeds_per_call * len(self.m_values)

    def reference(self, api: Any, seed: int, m_values: tuple | None = None) -> list[list]:
        """The reference kernel's points, at ``m_values`` (default: all)."""
        m_values = self.m_values if m_values is None else m_values
        return self.points(self._sweep(api, seed, m_values, self.reference_kernel))

    def tiny(self) -> "Sweep":
        """The 1-cell, 20-step call the set-up probe times."""
        return replace(self, m_values=self.m_values[-1:], steps=20, seeds_per_call=1)


@dataclass(frozen=True)
class Adaptive(_Curve):
    """A precision-targeted curve with a result cache (``api.sweep``).

    Seedless: the round schedule derives from the configuration.  Every
    call gets a fresh cache directory, so each call samples every round
    and writes it.  ``cached``: the worker also re-runs the warm-up
    call once on the cache it filled, and that warm re-run must
    reproduce it.
    """

    name: str
    n: int
    r: int
    k: int
    x: int
    m_values: tuple[int, ...]
    steps: int
    half_width: float
    kernel: str = "batched"
    reference_kernel: str = "bitmask"

    seeded = False
    cached = True
    layers = BATCHED_LAYERS + CACHE_LAYERS

    def _sweep(self, api: Any, m_values: tuple[int, ...], kernel: str, cache_dir: str | None) -> list:
        return api.sweep(
            self.n, self.r, self.k, list(m_values), x=self.x,
            traffic=api.UniformConfig(steps=self.steps),
            execution=api.ExecConfig(
                jobs=1,
                precision=api.PrecisionConfig(half_width=self.half_width),
                cache_dir=cache_dir,
            ),
            search=api.SearchConfig(kernel=kernel),
        )

    def begin(self, scratch: Path) -> Path:
        return scratch / "cache"

    def between(self, ctx: Path) -> None:
        shutil.rmtree(ctx, ignore_errors=True)

    def call(self, api: Any, seed: int, ctx: Path) -> list:
        return self._sweep(api, self.m_values, self.kernel, str(ctx))

    def points(self, result: list) -> list[list]:
        return [[e.m, e.attempts, e.blocked, e.adaptive.rounds] for e in result]

    def events(self, result: list) -> int:
        return sum(e.adaptive.events for e in result)

    def reference(self, api: Any, seed: int) -> list[list]:
        """The reference kernel's points, uncached."""
        return self.points(self._sweep(api, self.m_values, self.reference_kernel, None))

    def tiny(self) -> "Adaptive":
        return replace(self, m_values=self.m_values[-1:], steps=20)


@dataclass(frozen=True)
class ExactSpec:
    """One ``api.exact_m`` scan of the exact nonblocking threshold."""

    label: str
    n: int
    r: int
    k: int
    x: int
    m_max: int
    unicast_only: bool = False


@dataclass(frozen=True)
class Exact(_Stateless):
    """Exhaustive exact-threshold scans (seedless, no traffic)."""

    name: str
    specs: tuple[ExactSpec, ...]

    seeded = False
    key_len = 2
    layers = EXACT_LAYERS

    def _scan(self, api: Any, canonicalize: bool) -> list:
        return [
            api.exact_m(
                s.n, s.r, s.k, x=s.x, m_max=s.m_max, unicast_only=s.unicast_only,
                execution=api.ExecConfig(jobs=1),
                search=api.SearchConfig(canonicalize=canonicalize),
            )
            for s in self.specs
        ]

    def call(self, api: Any, seed: int, ctx: None) -> list:
        return self._scan(api, canonicalize=True)

    def points(self, result: list) -> list[list]:
        points = []
        for spec, exact in zip(self.specs, result):
            points.extend(
                [spec.label, p.m, p.blockable, p.states_explored] for p in exact.per_m
            )
            points.append([spec.label, "m_exact", exact.m_exact, None])
        return points

    def events(self, result: list) -> int:
        return sum(p.states_explored for exact in result for p in exact.per_m)

    def reference(self, api: Any, seed: int) -> list[list]:
        """Verdicts of the uncanonicalized search; its state counts differ
        by design, so they are blanked (``make_golden.py`` pins the
        canonical counts of the path under test once verdicts agree)."""
        return [
            point[:3] + [None] for point in self.points(self._scan(api, canonicalize=False))
        ]

    def oracle(self, point: list) -> bool:
        spec = next(s for s in self.specs if s.label == point[0])
        if spec.unicast_only:
            # The classical Clos threshold: strictly nonblocking iff m >= 2n - 1.
            return point[1] == "m_exact" and point[2] != 2 * spec.n - 1
        bound = theorem1_bound(spec.n, spec.r, spec.k, spec.x)
        if point[1] == "m_exact":
            return point[2] is None or point[2] > bound
        return point[1] >= bound and point[2] is not False

    def tiny(self) -> "Exact":
        return replace(self, specs=tuple(replace(s, m_max=1) for s in self.specs))


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "uniform_curve", n=3, r=3, k=2, x=1, m_values=tuple(range(1, 17)),
            steps=3000, seeds_per_call=8, kernel="batched",
            reference_kernel="bitmask", spot_m=(3, 4),
        ),
        Sweep(
            "wide_curve", n=3, r=70, k=63, x=2,
            m_values=(1, 2, 3, 4, 63, 70, 85, 100), steps=250, seeds_per_call=4,
            kernel="batched", reference_kernel="bitmask", spot_m=(3,),
        ),
        Sweep(
            "serial_hotspot", n=4, r=4, k=2, x=1, m_values=tuple(range(2, 17, 2)),
            steps=1500, seeds_per_call=3, kernel="bitmask",
            reference_kernel="batched", spot_m=tuple(range(2, 17, 2)),
            hotspot_s=1.5,
        ),
        Adaptive(
            "adaptive_cached", n=3, r=3, k=1, x=1, m_values=tuple(range(1, 11)),
            steps=400, half_width=0.005,
        ),
        Exact(
            "exact_threshold",
            specs=(
                ExactSpec("multicast", n=2, r=2, k=1, x=1, m_max=6),
                ExactSpec("unicast", n=2, r=2, k=1, x=1, m_max=5, unicast_only=True),
            ),
        ),
    )
}


GOLDEN = Path(__file__).resolve().parent / "golden.json"


def pinned(golden: dict, workload: Any, seed: int) -> list[list] | None:
    """The golden points of ``workload`` at ``seed``; None if unpinned.

    Seedless workloads must be pinned: their pins do not depend on the
    seed, so a missing one means ``golden.json`` is stale.
    """
    if workload.seeded:
        return golden["seeded"].get(workload.name, {}).get(str(seed))
    points = golden["seedless"].get(workload.name)
    if points is None:
        raise LookupError(
            f"bench/golden.json has no pins for {workload.name}; run "
            f"python3 bench/make_golden.py --workloads {workload.name}"
        )
    return points


def check(
    workload: Any,
    points: list[list],
    expected: list[list],
    full: bool,
    baseline: list[list] | None = None,
) -> int:
    """How many of ``points`` fail.

    A point fails when it differs from the expected point with its key,
    differs from the ``baseline`` call's point (a repeated or
    cache-served call must reproduce the first), or contradicts the
    oracle.  With ``full`` (a golden pin of the whole call), a point
    without an expected twin and an expected point that is missing
    also fail.
    """
    size = workload.key_len
    want = {tuple(p[:size]): p for p in expected}
    first = {tuple(p[:size]): p for p in baseline or ()}
    failed = 0
    for point in points:
        key = tuple(point[:size])
        twin = want.pop(key, None)
        wrong = (twin is not None or full) and twin != point
        drifted = baseline is not None and first.get(key) != point
        if wrong or drifted or workload.oracle(point):
            failed += 1
    if full:
        failed += len(want)
    return failed
