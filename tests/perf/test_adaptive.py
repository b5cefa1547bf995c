"""Tests for the precision-targeted adaptive sweep engine."""

from __future__ import annotations

import math

import pytest

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

    KEY = stream_key(
        3, 3, 2, Construction.MSW_DOMINANT, MulticastModel.MSW, 1, 120, None
    )

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
        key = stream_key(*base.values())
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
        keys = {stream_key(*v.values()) for v in variations}
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
            3, 3, 2, [2],
            precision=PrecisionConfig(
                half_width=0.5, antithetic=False, min_rounds=1, max_rounds=1
            ),
            **CONFIG,
        )[0]
        paired = adaptive_sweep(
            3, 3, 2, [2],
            precision=PrecisionConfig(
                half_width=0.5, min_rounds=1, max_rounds=1
            ),
            **CONFIG,
        )[0]
        # The paired run folds the mirrored streams in on top.
        assert paired.attempts > plain.attempts


class TestAdaptiveSweep:
    def test_stops_at_the_target(self):
        estimates = adaptive_sweep(3, 3, 2, [1, 2, 3, 4], precision=QUICK, **CONFIG)
        for e in estimates:
            assert e.adaptive is not None
            assert e.adaptive.converged
            assert e.half_width(QUICK.level) <= QUICK.half_width
            assert e.adaptive.rounds >= QUICK.min_rounds
            assert e.adaptive.events == e.adaptive.replications * CONFIG["steps"]

    def test_effort_concentrates_at_the_knee(self):
        tight = PrecisionConfig(half_width=0.02, min_rounds=2, max_rounds=32)
        estimates = adaptive_sweep(3, 3, 1, [1, 4], precision=tight, **CONFIG)
        knee, tail = estimates
        assert knee.probability > tail.probability
        assert knee.adaptive.rounds > tail.adaptive.rounds

    def test_max_rounds_caps_and_flags(self):
        impossible = PrecisionConfig(
            half_width=1e-6, min_rounds=1, max_rounds=2
        )
        [estimate] = adaptive_sweep(3, 3, 2, [2], precision=impossible, **CONFIG)
        assert estimate.adaptive.rounds == 2
        assert not estimate.adaptive.converged

    def test_batched_kernel_bit_identical_to_serial(self):
        serial = adaptive_sweep(3, 3, 2, [1, 2, 3], precision=QUICK, **CONFIG)
        batched = adaptive_sweep(
            3, 3, 2, [1, 2, 3], precision=QUICK, kernel="batched", **CONFIG
        )
        assert _identity(batched) == _identity(serial)

    def test_parallel_bit_identical_to_serial(self):
        serial = adaptive_sweep(3, 3, 2, [1, 2], precision=QUICK, **CONFIG)
        pooled = adaptive_sweep(
            3, 3, 2, [1, 2], precision=QUICK, jobs=2, **CONFIG
        )
        assert _identity(pooled) == _identity(serial)

    def test_single_cell_matches_sweep_cell(self):
        """Pooled estimates from split rounds equal the single-run pool:
        the same schedule drives both, so the cell of a sweep and a
        lone query are the same numbers."""
        [alone] = adaptive_sweep(3, 3, 2, [2], steps=120, precision=QUICK)
        swept = adaptive_sweep(3, 3, 2, [1, 2, 3], precision=QUICK, **CONFIG)
        cell = next(e for e in swept if e.m == 2)
        assert (alone.attempts, alone.blocked) == (cell.attempts, cell.blocked)

    def test_adaptive_info_round_trips_json(self):
        [estimate] = adaptive_sweep(3, 3, 2, [2], precision=QUICK, **CONFIG)
        back = BlockingEstimate.from_json(estimate.to_json())
        assert back == estimate
        assert back.adaptive == estimate.adaptive
        assert isinstance(back.adaptive, AdaptiveInfo)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            adaptive_sweep(
                3, 3, 2, [1], construction=Construction.MSW_DOMINANT,
                model=MulticastModel.MSW, steps=0,
            )


class TestResume:
    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path):
        cold = adaptive_sweep(3, 3, 2, [1, 2, 3], precision=QUICK, **CONFIG)
        # "Interrupt" by running only the first rounds, persisting them.
        cache = ResultCache(tmp_path)
        first = PrecisionConfig(half_width=0.05, min_rounds=2, max_rounds=2)
        adaptive_sweep(3, 3, 2, [1, 2, 3], precision=first, cache=cache, **CONFIG)
        stores = cache.stats.stores
        assert stores > 0
        resumed = adaptive_sweep(
            3, 3, 2, [1, 2, 3], precision=QUICK, cache=cache, **CONFIG
        )
        assert _identity(resumed) == _identity(cold)
        assert cache.stats.hits >= stores  # the warm rounds replayed

    def test_fully_warm_sweep_dispatches_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = adaptive_sweep(3, 3, 2, [1, 2], precision=QUICK, cache=cache, **CONFIG)
        stores = cache.stats.stores
        warm = adaptive_sweep(3, 3, 2, [1, 2], precision=QUICK, cache=cache, **CONFIG)
        assert _identity(warm) == _identity(cold)
        assert cache.stats.stores == stores  # nothing recomputed

    def test_tighter_target_reuses_warm_rounds(self, tmp_path):
        cache = ResultCache(tmp_path)
        loose = PrecisionConfig(half_width=0.10, min_rounds=2, max_rounds=8)
        adaptive_sweep(3, 3, 2, [1, 2], precision=loose, cache=cache, **CONFIG)
        hits_before = cache.stats.hits
        tight = PrecisionConfig(half_width=0.05, min_rounds=2, max_rounds=8)
        tightened = adaptive_sweep(
            3, 3, 2, [1, 2], precision=tight, cache=cache, **CONFIG
        )
        nocache = adaptive_sweep(3, 3, 2, [1, 2], precision=tight, **CONFIG)
        assert _identity(tightened) == _identity(nocache)
        assert cache.stats.hits > hits_before  # loose rounds were reused

    def test_schedule_shape_change_does_not_alias(self, tmp_path):
        cache = ResultCache(tmp_path)
        adaptive_sweep(3, 3, 2, [2], precision=QUICK, cache=cache, **CONFIG)
        other_shape = PrecisionConfig(
            half_width=0.05, min_rounds=2, max_rounds=8, pairs_per_round=3
        )
        hits_before = cache.stats.hits
        reshaped = adaptive_sweep(
            3, 3, 2, [2], precision=other_shape, cache=cache, **CONFIG
        )
        nocache = adaptive_sweep(3, 3, 2, [2], precision=other_shape, **CONFIG)
        assert _identity(reshaped) == _identity(nocache)
        assert cache.stats.hits == hits_before  # different shape, no aliasing


class TestApiIntegration:
    def test_exec_config_precision_routes_to_adaptive(self):
        from repro import api

        direct = adaptive_sweep(3, 3, 2, [1, 2], precision=QUICK, **CONFIG)
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

    def test_adversarial_precision_rejected(self):
        from repro import api

        with pytest.raises(ValueError, match="adversarial"):
            api.sweep(
                3, 3, 2, [1, 2],
                traffic=api.UniformConfig(adversarial=True),
                execution=api.ExecConfig(precision=QUICK),
            )
