"""Tests for the precision-targeted adaptive sweep engine."""

from __future__ import annotations

import math
from dataclasses import astuple

import pytest

from repro import obs
from repro.analysis.montecarlo import AdaptiveInfo, BlockingEstimate
from repro.core.models import Construction, MulticastModel
from repro.perf.adaptive import (
    PrecisionConfig,
    adaptive_sweep,
    round_specs,
    stream_key,
)
from repro.perf.cache import ResultCache
from repro.switching.generators import AntitheticRandom, stream_rng
from tests.curves import curve

CONFIG = dict(
    construction=Construction.MSW_DOMINANT,
    model=MulticastModel.MSW,
    steps=120,
)
QUICK = PrecisionConfig(half_width=0.05, min_rounds=2, max_rounds=8)


def _identity(estimates):
    return [(e.m, e.attempts, e.blocked) for e in estimates]


class TestPrecisionConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="half_width"):
            PrecisionConfig(half_width=0.0)
        with pytest.raises(ValueError, match="level"):
            PrecisionConfig(level=1.0)
        with pytest.raises(ValueError, match="pairs_per_round"):
            PrecisionConfig(pairs_per_round=0)
        with pytest.raises(ValueError, match="min_rounds"):
            PrecisionConfig(min_rounds=0)
        with pytest.raises(ValueError, match="max_rounds"):
            PrecisionConfig(min_rounds=5, max_rounds=4)
        with pytest.raises(ValueError, match="zero_half_width"):
            PrecisionConfig(zero_half_width=-1.0)

    def test_nan_half_width_rejected(self):
        # NaN compares False with everything, so a "<= 0" check let it
        # through and every cell then ran to max_rounds unconverged.
        with pytest.raises(ValueError, match="half_width must be > 0, got nan"):
            PrecisionConfig(half_width=float("nan"))

    def test_nan_zero_half_width_rejected(self):
        with pytest.raises(
            ValueError, match="zero_half_width must be > 0, got nan"
        ):
            PrecisionConfig(relative=True, zero_half_width=float("nan"))

    def test_replications_per_round(self):
        assert PrecisionConfig(pairs_per_round=3).replications_per_round() == 6
        assert (
            PrecisionConfig(pairs_per_round=3, antithetic=False)
            .replications_per_round() == 3
        )

    def test_absolute_convergence(self):
        precision = PrecisionConfig(half_width=0.05)
        wide = BlockingEstimate(
            n=3, r=3, m=2, k=1,
            construction=Construction.MSW_DOMINANT, model=MulticastModel.MSW,
            x=1, attempts=20, blocked=10,
        )
        narrow = BlockingEstimate(
            n=3, r=3, m=2, k=1,
            construction=Construction.MSW_DOMINANT, model=MulticastModel.MSW,
            x=1, attempts=20_000, blocked=10_000,
        )
        assert not precision.converged(wide)
        assert precision.converged(narrow)

    def test_relative_convergence_falls_back_at_zero(self):
        precision = PrecisionConfig(
            half_width=0.1, relative=True, zero_half_width=0.01
        )
        zero_wide = BlockingEstimate(
            n=3, r=3, m=9, k=1,
            construction=Construction.MSW_DOMINANT, model=MulticastModel.MSW,
            x=1, attempts=50, blocked=0,
        )
        zero_narrow = BlockingEstimate(
            n=3, r=3, m=9, k=1,
            construction=Construction.MSW_DOMINANT, model=MulticastModel.MSW,
            x=1, attempts=50_000, blocked=0,
        )
        assert not precision.converged(zero_wide)
        assert precision.converged(zero_narrow)

    def test_no_attempts_never_converged(self):
        empty = BlockingEstimate(
            n=3, r=3, m=2, k=1,
            construction=Construction.MSW_DOMINANT, model=MulticastModel.MSW,
            x=1, attempts=0, blocked=0,
        )
        assert not PrecisionConfig(half_width=0.5).converged(empty)


class TestSchedule:
    """The seed schedule: deterministic, key-sensitive, stratified."""

    KEY = stream_key(curve(3, 3, 2, steps=120))

    def test_specs_are_pure(self):
        assert round_specs(self.KEY, 3, QUICK) == round_specs(self.KEY, 3, QUICK)

    def test_rounds_do_not_repeat_seeds(self):
        seeds = set()
        for round_index in range(10):
            for spec in round_specs(self.KEY, round_index, QUICK):
                if not spec.antithetic:
                    assert spec.seed not in seeds
                    seeds.add(spec.seed)

    def test_stream_key_excludes_m_but_nothing_else(self):
        """Common random numbers across the curve; the PR 3 lesson for
        everything else -- every configuration dimension must change the
        schedule."""
        base = dict(
            n=3, r=3, k=2, construction=Construction.MSW_DOMINANT,
            model=MulticastModel.MSW, x=1, steps=120, max_fanout=None,
        )
        key = stream_key(curve(**base))
        assert "m=" not in key.replace("max_fanout", "")
        variations = [
            dict(base, n=4),
            dict(base, r=4),
            dict(base, k=3),
            dict(base, construction=Construction.MAW_DOMINANT),
            dict(base, model=MulticastModel.MAW),
            dict(base, x=2),
            dict(base, steps=121),
            dict(base, max_fanout=2),
        ]
        keys = {stream_key(curve(**v)) for v in variations}
        assert len(keys) == len(variations)
        assert key not in keys

    def test_stratified_seeds_come_from_disjoint_strata(self):
        precision = PrecisionConfig(pairs_per_round=4)
        width = (1 << 62) // 4
        for round_index in range(5):
            plain = [
                s for s in round_specs(self.KEY, round_index, precision)
                if not s.antithetic
            ]
            for stratum, spec in enumerate(plain):
                assert stratum * width <= spec.seed < (stratum + 1) * width

    def test_antithetic_twin_shares_the_seed(self):
        specs = round_specs(self.KEY, 0, QUICK)
        pairs = list(zip(specs[::2], specs[1::2]))
        for plain, mirror in pairs:
            assert plain.seed == mirror.seed
            assert (plain.antithetic, mirror.antithetic) == (False, True)


class TestAntitheticStream:
    def test_marginals_mirrored(self):
        plain = stream_rng(42)
        mirror = stream_rng(42, antithetic=True)
        assert isinstance(mirror, AntitheticRandom)
        for _ in range(100):
            u, v = plain.random(), mirror.random()
            assert math.isclose(u + v, 1.0) or (u == v == 0.0)

    def test_getrandbits_complemented(self):
        plain = stream_rng(7)
        mirror = stream_rng(7, antithetic=True)
        for k in (1, 8, 31, 64):
            assert plain.getrandbits(k) + mirror.getrandbits(k) == (1 << k) - 1

    def test_random_stays_in_unit_interval(self):
        mirror = stream_rng(0, antithetic=True)
        draws = [mirror.random() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_antithetic_replication_differs_but_is_plausible(self):
        plain = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [2],
            precision=PrecisionConfig(
                half_width=0.5, antithetic=False, min_rounds=1, max_rounds=1
            )
        )[0]
        paired = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [2],
            precision=PrecisionConfig(
                half_width=0.5, min_rounds=1, max_rounds=1
            )
        )[0]
        # The paired run folds the mirrored streams in on top.
        assert paired.attempts > plain.attempts


class TestAdaptiveSweep:
    def test_stops_at_the_target(self):
        estimates = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [1, 2, 3, 4], precision=QUICK
        )
        for e in estimates:
            assert e.adaptive is not None
            assert e.adaptive.converged
            assert e.half_width(QUICK.level) <= QUICK.half_width
            assert e.adaptive.rounds >= QUICK.min_rounds
            assert e.adaptive.events == e.adaptive.replications * CONFIG["steps"]

    def test_effort_concentrates_at_the_knee(self):
        tight = PrecisionConfig(half_width=0.02, min_rounds=2, max_rounds=32)
        estimates = adaptive_sweep(curve(3, 3, 1, **CONFIG), [1, 4], precision=tight)
        knee, tail = estimates
        assert knee.probability > tail.probability
        assert knee.adaptive.rounds > tail.adaptive.rounds

    def test_curve_costs_under_half_the_fixed_budget(self):
        """A fixed budget must give every cell the widest cell's rounds.

        At equal half-width it spends 111,600 events here against the
        adaptive curve's 44,400 (2.51x).  The rounds depend only on the
        stopping rule and the seeded streams, so they are pinned exactly.
        """
        target = PrecisionConfig(half_width=0.01, min_rounds=2, max_rounds=64)
        estimates = adaptive_sweep(
            curve(3, 3, 1, steps=150), list(range(1, 7)), precision=target,
            kernel="batched",
        )
        rounds = [e.adaptive.rounds for e in estimates]
        assert rounds == [31, 26, 11, 2, 2, 2]
        assert all(e.adaptive.converged for e in estimates)
        adaptive = sum(e.adaptive.events for e in estimates)
        per_round = target.replications_per_round() * 150
        fixed = max(rounds) * per_round * len(estimates)
        assert fixed / adaptive >= 2.0

    def test_max_rounds_caps_and_flags(self):
        impossible = PrecisionConfig(
            half_width=1e-6, min_rounds=1, max_rounds=2
        )
        [estimate] = adaptive_sweep(curve(3, 3, 2, **CONFIG), [2], precision=impossible)
        assert estimate.adaptive.rounds == 2
        assert not estimate.adaptive.converged

    def test_batched_kernel_bit_identical_to_serial(self):
        serial = adaptive_sweep(curve(3, 3, 2, **CONFIG), [1, 2, 3], precision=QUICK)
        batched = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [1, 2, 3], precision=QUICK, kernel="batched"
        )
        assert _identity(batched) == _identity(serial)

    def test_parallel_bit_identical_to_serial(self):
        serial = adaptive_sweep(curve(3, 3, 2, **CONFIG), [1, 2], precision=QUICK)
        pooled = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [1, 2], precision=QUICK, jobs=2
        )
        assert _identity(pooled) == _identity(serial)

    def test_single_cell_matches_sweep_cell(self):
        """Pooled estimates from split rounds equal the single-run pool:
        the same schedule drives both, so the cell of a sweep and a
        lone query are the same numbers."""
        [alone] = adaptive_sweep(curve(3, 3, 2, steps=120), [2], precision=QUICK)
        swept = adaptive_sweep(curve(3, 3, 2, **CONFIG), [1, 2, 3], precision=QUICK)
        cell = next(e for e in swept if e.m == 2)
        assert (alone.attempts, alone.blocked) == (cell.attempts, cell.blocked)

    def test_adaptive_info_round_trips_json(self):
        [estimate] = adaptive_sweep(curve(3, 3, 2, **CONFIG), [2], precision=QUICK)
        back = BlockingEstimate.from_json(estimate.to_json())
        assert back == estimate
        assert back.adaptive == estimate.adaptive
        assert isinstance(back.adaptive, AdaptiveInfo)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            adaptive_sweep(
                curve(3, 3, 2, construction=Construction.MSW_DOMINANT,
                      model=MulticastModel.MSW, steps=0),
                [1],
            )


class TestResume:
    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path):
        cold = adaptive_sweep(curve(3, 3, 2, **CONFIG), [1, 2, 3], precision=QUICK)
        # "Interrupt" by running only the first rounds, persisting them.
        cache = ResultCache(tmp_path)
        first = PrecisionConfig(half_width=0.05, min_rounds=2, max_rounds=2)
        adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [1, 2, 3], precision=first, cache=cache
        )
        stores = cache.stats.stores
        assert stores > 0
        resumed = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [1, 2, 3], precision=QUICK, cache=cache
        )
        assert _identity(resumed) == _identity(cold)
        assert cache.stats.hits >= stores  # the warm rounds replayed

    def test_fully_warm_sweep_dispatches_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [1, 2], precision=QUICK, cache=cache
        )
        stores = cache.stats.stores
        warm = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [1, 2], precision=QUICK, cache=cache
        )
        assert _identity(warm) == _identity(cold)
        assert cache.stats.stores == stores  # nothing recomputed

    def test_tighter_target_reuses_warm_rounds(self, tmp_path):
        cache = ResultCache(tmp_path)
        loose = PrecisionConfig(half_width=0.10, min_rounds=2, max_rounds=8)
        adaptive_sweep(curve(3, 3, 2, **CONFIG), [1, 2], precision=loose, cache=cache)
        hits_before = cache.stats.hits
        tight = PrecisionConfig(half_width=0.05, min_rounds=2, max_rounds=8)
        tightened = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [1, 2], precision=tight, cache=cache
        )
        nocache = adaptive_sweep(curve(3, 3, 2, **CONFIG), [1, 2], precision=tight)
        assert _identity(tightened) == _identity(nocache)
        assert cache.stats.hits > hits_before  # loose rounds were reused

    def test_schedule_shape_change_does_not_alias(self, tmp_path):
        cache = ResultCache(tmp_path)
        adaptive_sweep(curve(3, 3, 2, **CONFIG), [2], precision=QUICK, cache=cache)
        other_shape = PrecisionConfig(
            half_width=0.05, min_rounds=2, max_rounds=8, pairs_per_round=3
        )
        hits_before = cache.stats.hits
        reshaped = adaptive_sweep(
            curve(3, 3, 2, **CONFIG), [2], precision=other_shape, cache=cache
        )
        nocache = adaptive_sweep(curve(3, 3, 2, **CONFIG), [2], precision=other_shape)
        assert _identity(reshaped) == _identity(nocache)
        assert cache.stats.hits == hits_before  # different shape, no aliasing


class TestApiIntegration:
    def test_exec_config_precision_routes_to_adaptive(self):
        from repro import api

        direct = adaptive_sweep(curve(3, 3, 2, **CONFIG), [1, 2], precision=QUICK)
        via_api = api.sweep(
            3, 3, 2, [1, 2],
            traffic=api.UniformConfig(steps=120),
            execution=api.ExecConfig(precision=QUICK),
        )
        assert _identity(via_api) == _identity(direct)
        assert all(e.adaptive is not None for e in via_api)

    def test_blocking_precision_single_cell(self):
        from repro import api

        estimate = api.blocking(
            3, 3, 2, 2,
            traffic=api.UniformConfig(steps=120),
            execution=api.ExecConfig(precision=QUICK),
        )
        assert estimate.adaptive is not None
        assert estimate.meta is not None


# -- pinned adaptive runs ------------------------------------------------------
#
# A small sweep whose cells stop at different rounds (m=3 converges at
# the round floor, m=1 and m=2 hit the round cap), run cold into a
# fresh cache, fully warm, and partially warm (one more m and a larger
# round cap).  The literals were computed before the round loop was
# rewritten; every estimate, AdaptiveInfo field, plan and obs counter
# must stay exactly as pinned under both kernels.

PIN_CONFIG = dict(
    construction=Construction.MSW_DOMINANT,
    model=MulticastModel.MSW,
    steps=60,
)
PIN_COLD = PrecisionConfig(half_width=0.03, min_rounds=2, max_rounds=4)
PIN_LONGER = PrecisionConfig(half_width=0.03, min_rounds=2, max_rounds=7)

PIN_COLD_ESTIMATES = [(1, 506, 308), (2, 506, 122), (3, 253, 12)]
PIN_COLD_INFO = [
    (4, 16, 960, False, 0.03, False, 0.95),
    (4, 16, 960, False, 0.03, False, 0.95),
    (2, 8, 480, True, 0.03, False, 0.95),
]
PIN_PARTIAL_ESTIMATES = [(1, 886, 541), (2, 886, 221), (3, 253, 12), (4, 253, 0)]
PIN_PARTIAL_INFO = [
    (7, 28, 1680, False, 0.03, False, 0.95),
    (7, 28, 1680, True, 0.03, False, 0.95),
    (2, 8, 480, True, 0.03, False, 0.95),
    (2, 8, 480, True, 0.03, False, 0.95),
]
#: counters that do not depend on the kernel
PIN_COLD_COUNTERS = {
    "adaptive.cells_converged": 1,
    "adaptive.rounds": 4,
    "cache.misses": 10,
    "cache.stores": 10,
    "mc.cells": 40,
    "net.admit.admitted": 823,
    "net.admit.attempts": 1265,
    "net.admit.blocked": 442,
    "net.block.cause.full_middles": 329,
    "net.block.cause.no_cover": 13,
    "net.block.cause.saturated_wavelength": 100,
    "net.release": 751,
    "sweep.cache_hits": 0,
}
PIN_WARM_COUNTERS = {
    "adaptive.cells_converged": 1,
    "adaptive.rounds": 4,
    "cache.hits": 10,
}
PIN_PARTIAL_COUNTERS = {
    "adaptive.cells_converged": 3,
    "adaptive.rounds": 7,
    "cache.hits": 10,
    "cache.misses": 8,
    "cache.stores": 8,
    "mc.cells": 32,
    "net.admit.admitted": 681,
    "net.admit.attempts": 1013,
    "net.admit.blocked": 332,
    "net.block.cause.full_middles": 208,
    "net.block.cause.no_cover": 3,
    "net.block.cause.saturated_wavelength": 121,
    "net.release": 611,
    "sweep.cache_hits": 0,
}
#: per kernel: units of the whole run (cold, partial) and of the last
#: ``sweeper.run`` call, which ``meta.plan`` reports
PIN_UNITS = {
    "bitmask": dict(cold=16, partial=20, plan=4),
    "batched": dict(cold=16, partial=20, plan=4),
}


def _pinned_run(kernel, m_values, precision, cache, jobs=1):
    with obs.capture() as run:
        estimates = adaptive_sweep(
            curve(3, 3, 1, **PIN_CONFIG), m_values, precision=precision,
            cache=cache, kernel=kernel, jobs=jobs,
        )
    return estimates, run.metrics.snapshot()["counters"]


def _serial_plan(units):
    return {
        "cache_hits": 0, "dispatched": units, "executor": "serial",
        "reason": "", "requested_jobs": 1, "resolved_jobs": 1,
        "units": units,
    }


def _with_units(counters, units):
    return dict(counters, **{"sweep.units": units, "sweep.dispatched": units})


@pytest.mark.parametrize("kernel", ["bitmask", "batched"])
class TestPinnedRuns:
    def test_cold_run(self, kernel, tmp_path):
        estimates, counters = _pinned_run(
            kernel, [1, 2, 3], PIN_COLD, ResultCache(tmp_path)
        )
        units = PIN_UNITS[kernel]
        assert _identity(estimates) == PIN_COLD_ESTIMATES
        assert [astuple(e.adaptive) for e in estimates] == PIN_COLD_INFO
        assert all(e.meta.plan == _serial_plan(units["plan"]) for e in estimates)
        assert counters == _with_units(PIN_COLD_COUNTERS, units["cold"])

    def test_fully_warm_run(self, kernel, tmp_path):
        cache = ResultCache(tmp_path)
        _pinned_run(kernel, [1, 2, 3], PIN_COLD, cache)
        estimates, counters = _pinned_run(kernel, [1, 2, 3], PIN_COLD, cache)
        assert _identity(estimates) == PIN_COLD_ESTIMATES
        assert [astuple(e.adaptive) for e in estimates] == PIN_COLD_INFO
        # No round ran, so no sweeper plan was resolved.
        assert all(e.meta.plan is None for e in estimates)
        assert counters == PIN_WARM_COUNTERS

    def test_partially_warm_run(self, kernel, tmp_path):
        cache = ResultCache(tmp_path)
        _pinned_run(kernel, [1, 2, 3], PIN_COLD, cache)
        estimates, counters = _pinned_run(kernel, [1, 2, 3, 4], PIN_LONGER, cache)
        units = PIN_UNITS[kernel]
        assert _identity(estimates) == PIN_PARTIAL_ESTIMATES
        assert [astuple(e.adaptive) for e in estimates] == PIN_PARTIAL_INFO
        assert all(e.meta.plan == _serial_plan(units["plan"]) for e in estimates)
        assert counters == _with_units(PIN_PARTIAL_COUNTERS, units["partial"])
        assert cache.stats.as_dict() == dict(
            hits=10, misses=18, stores=18, corrupt=0
        )

    def test_two_jobs_match_one_job(self, kernel, tmp_path):
        """A pool merges its workers' counters: the same estimates and
        the same simulation, cache and adaptive counts as ``jobs=1``.
        The plan depends on the host's CPU count, so it is not pinned."""
        serial, serial_counters = _pinned_run(
            kernel, [1, 2, 3], PIN_COLD, ResultCache(tmp_path / "one")
        )
        pooled, pooled_counters = _pinned_run(
            kernel, [1, 2, 3], PIN_COLD, ResultCache(tmp_path / "two"), jobs=2
        )

        def compared(counters):
            return {
                name: value for name, value in counters.items()
                if name.split(".")[0] in ("mc", "net", "adaptive", "cache")
            }

        assert _identity(pooled) == _identity(serial) == PIN_COLD_ESTIMATES
        assert [astuple(e.adaptive) for e in pooled] == PIN_COLD_INFO
        assert compared(pooled_counters) == compared(serial_counters)
