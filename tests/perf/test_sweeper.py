"""Tests for the deterministic parallel sweep engine."""

from __future__ import annotations

import pytest

import repro.perf.sweeper as sweeper_module
from repro.perf.cache import ResultCache
from repro.perf.sweeper import (
    ParallelSweeper,
    SweepResult,
    WorkUnit,
    resolve_jobs,
)


def square(value: int) -> int:
    return value * value


def combine(a: int, b: int, *, offset: int = 0) -> int:
    return a * 100 + b + offset


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_none_and_nonpositive_mean_all_cpus(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        assert resolve_jobs(-3) == resolve_jobs(None)

    def test_auto_means_all_cpus(self):
        assert resolve_jobs("auto") == resolve_jobs(None)

    def test_other_strings_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            resolve_jobs("fast")


class TestSerialRun:
    def test_results_in_input_order(self):
        units = [WorkUnit(unit_id=i, fn=square, args=(i,)) for i in (3, 1, 2)]
        results = ParallelSweeper(1).run(units)
        assert [r.unit_id for r in results] == [3, 1, 2]
        assert [r.value for r in results] == [9, 1, 4]

    def test_timing_captured(self):
        [result] = ParallelSweeper(1).run([WorkUnit(unit_id=0, fn=square, args=(4,))])
        assert isinstance(result, SweepResult)
        assert result.seconds >= 0.0

    def test_duplicate_ids_rejected(self):
        units = [
            WorkUnit(unit_id=0, fn=square, args=(1,)),
            WorkUnit(unit_id=0, fn=square, args=(2,)),
        ]
        with pytest.raises(ValueError, match="unique"):
            ParallelSweeper(1).run(units)

    def test_kwargs_forwarded(self):
        [result] = ParallelSweeper(1).run(
            [WorkUnit(unit_id="c", fn=combine, args=(2, 3), kwargs={"offset": 7})]
        )
        assert result.value == 210


class TestParallelRun:
    def test_parallel_matches_serial(self):
        units = [WorkUnit(unit_id=i, fn=square, args=(i,)) for i in range(20)]
        serial = ParallelSweeper(1).run(units)
        parallel = ParallelSweeper(2).run(units)
        assert [r.unit_id for r in parallel] == [r.unit_id for r in serial]
        assert [r.value for r in parallel] == [r.value for r in serial]

    def test_explicit_chunk_size(self):
        units = [WorkUnit(unit_id=i, fn=square, args=(i,)) for i in range(10)]
        results = ParallelSweeper(2, chunk_size=3).run(units)
        assert [r.value for r in results] == [i * i for i in range(10)]

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelSweeper(2, chunk_size=0)

    def test_single_unit_runs_inline(self):
        [result] = ParallelSweeper(4).run([WorkUnit(unit_id=0, fn=square, args=(5,))])
        assert result.value == 25


class TestAdaptiveExecutor:
    UNITS = [WorkUnit(unit_id=i, fn=square, args=(i,)) for i in range(6)]

    def test_plan_recorded_for_parallel_run(self, monkeypatch):
        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: 8)
        with ParallelSweeper(2) as sweeper:
            sweeper.run(self.UNITS)
            plan = sweeper.last_plan
        assert plan.requested_jobs == 2
        assert plan.resolved_jobs == 2
        assert plan.executor == "process"
        assert plan.units == plan.dispatched == len(self.UNITS)
        assert plan.reason == ""

    def test_single_cpu_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: 1)
        with ParallelSweeper(4) as sweeper:
            results = sweeper.run(self.UNITS)
            plan = sweeper.last_plan
        assert plan.executor == "serial"
        assert "single effective CPU" in plan.reason
        assert [r.value for r in results] == [i * i for i in range(6)]

    def test_auto_on_single_cpu_reports_the_fallback(self, monkeypatch):
        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: 1)
        with ParallelSweeper("auto") as sweeper:
            sweeper.run(self.UNITS)
            plan = sweeper.last_plan
        assert plan.requested_jobs == "auto"
        assert plan.executor == "serial"
        assert "single effective CPU" in plan.reason

    def test_explicit_jobs_exceeding_units_falls_back(self, monkeypatch):
        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: 16)
        with ParallelSweeper(12) as sweeper:
            sweeper.run(self.UNITS)
            plan = sweeper.last_plan
        assert plan.executor == "serial"
        assert "exceeds" in plan.reason

    def test_auto_jobs_clamp_to_units_without_fallback(self, monkeypatch):
        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: 16)
        with ParallelSweeper("auto") as sweeper:
            sweeper.run(self.UNITS)
            plan = sweeper.last_plan
        assert plan.executor == "process"
        assert plan.resolved_jobs == len(self.UNITS)

    def test_pool_persists_across_runs(self, monkeypatch):
        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: 8)
        with ParallelSweeper(2) as sweeper:
            sweeper.run(self.UNITS)
            first_pool = sweeper._pool
            sweeper.run(self.UNITS)
            assert sweeper._pool is first_pool
        assert sweeper._pool is None  # context exit closed it


class TestCacheAwareRun:
    def units(self, cache):
        return [
            WorkUnit(
                unit_id=i,
                fn=square,
                args=(i,),
                cache_key=cache.key("square", dict(i=i)),
            )
            for i in range(5)
        ]

    def test_hits_are_marked_and_not_dispatched(self, tmp_path):
        cache = ResultCache(tmp_path)
        with ParallelSweeper(1) as sweeper:
            cold = sweeper.run(self.units(cache), cache=cache)
            assert all(not r.cached for r in cold)
            assert sweeper.last_plan.dispatched == 5
            warm = sweeper.run(self.units(cache), cache=cache)
        assert all(r.cached for r in warm)
        assert all(r.seconds == 0.0 for r in warm)
        assert [r.value for r in warm] == [r.value for r in cold]
        assert sweeper.last_plan.dispatched == 0
        assert sweeper.last_plan.cache_hits == 5

    def test_partial_hits_dispatch_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = self.units(cache)
        with ParallelSweeper(1) as sweeper:
            sweeper.run(units[:2], cache=cache)
            results = sweeper.run(units, cache=cache)
        assert [r.cached for r in results] == [True, True, False, False, False]
        assert sweeper.last_plan.cache_hits == 2
        assert sweeper.last_plan.dispatched == 3

    def test_caller_served_hits_join_the_plan(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = self.units(cache)
        with ParallelSweeper(1) as sweeper:
            sweeper.run(units[:1], cache=cache)
            sweeper.run(units[:2], cache=cache, cache_hits=3)
        plan = sweeper.last_plan
        assert (plan.units, plan.dispatched, plan.cache_hits) == (5, 1, 4)

    def test_units_without_keys_always_execute(self, tmp_path):
        cache = ResultCache(tmp_path)
        unkeyed = [WorkUnit(unit_id=i, fn=square, args=(i,)) for i in range(3)]
        with ParallelSweeper(1) as sweeper:
            sweeper.run(unkeyed, cache=cache)
            again = sweeper.run(unkeyed, cache=cache)
        assert all(not r.cached for r in again)


def reaches_nine(value: int) -> bool:
    return value >= 9


class TestStopRule:
    """``run(until=...)`` ends the results at the first satisfying unit."""

    def units(self, cache):
        return [
            WorkUnit(
                unit_id=i,
                fn=square,
                args=(i,),
                cache_key=cache.key("square", dict(i=i)),
            )
            for i in range(6)
        ]

    def test_serial_run_touches_nothing_after_the_stop(self, tmp_path):
        cache = ResultCache(tmp_path)
        with ParallelSweeper(1) as sweeper:
            results = sweeper.run(
                self.units(cache), cache=cache, until=reaches_nine
            )
            plan = sweeper.last_plan
        assert [r.value for r in results] == [0, 1, 4, 9]
        # Units 4 and 5 were neither looked up nor run.
        assert cache.stats.misses == 4
        assert cache.stats.stores == 4
        assert (plan.executor, plan.dispatched, plan.cache_hits) == (
            "serial", 4, 0
        )

    def test_cached_stopping_unit_stops_the_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = self.units(cache)
        cache.put(units[3].cache_key, 9)
        with ParallelSweeper(1) as sweeper:
            results = sweeper.run(units, cache=cache, until=reaches_nine)
            plan = sweeper.last_plan
        assert [r.cached for r in results] == [False, False, False, True]
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)
        assert cache.stats.stores == 1 + 3
        assert (plan.dispatched, plan.cache_hits) == (3, 1)

    @pytest.mark.parametrize(
        "jobs,cpus,reason",
        [(12, 16, "exceeds"), (4, 1, "single effective CPU")],
    )
    def test_serial_fallbacks_stop_like_jobs_1(
        self, monkeypatch, tmp_path, jobs, cpus, reason
    ):
        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: cpus)
        cache = ResultCache(tmp_path)
        with ParallelSweeper(jobs) as sweeper:
            results = sweeper.run(
                self.units(cache), cache=cache, until=reaches_nine
            )
            plan = sweeper.last_plan
        assert [r.value for r in results] == [0, 1, 4, 9]
        assert plan.executor == "serial" and reason in plan.reason
        assert cache.stats.misses == cache.stats.stores == 4

    def test_refused_pool_runs_nothing_after_the_stop(
        self, monkeypatch, tmp_path
    ):
        def refuse(self, workers):
            raise PermissionError("no semaphores on this host")

        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: 8)
        monkeypatch.setattr(ParallelSweeper, "_acquire_pool", refuse)
        cache = ResultCache(tmp_path)
        with ParallelSweeper(2) as sweeper:
            results = sweeper.run(
                self.units(cache), cache=cache, until=reaches_nine
            )
            plan = sweeper.last_plan
        assert [r.value for r in results] == [0, 1, 4, 9]
        assert plan.executor == "serial"
        assert plan.reason == "platform refused a worker pool"
        # The lookups preceded the refusal; the runs stop at unit 3.
        assert cache.stats.misses == 6
        assert cache.stats.stores == plan.dispatched == 4

    def test_pooled_run_returns_the_same_prefix(self, monkeypatch):
        monkeypatch.setattr(sweeper_module, "_effective_cpus", lambda: 8)
        units = [WorkUnit(unit_id=i, fn=square, args=(i,)) for i in range(6)]
        serial = ParallelSweeper(1).run(units, until=reaches_nine)
        with ParallelSweeper(2) as sweeper:
            pooled = sweeper.run(units, until=reaches_nine)
            plan = sweeper.last_plan
        assert (plan.executor, plan.dispatched) == ("process", 6)
        assert [(r.unit_id, r.value) for r in pooled] == [
            (r.unit_id, r.value) for r in serial
        ] == [(0, 0), (1, 1), (2, 4), (3, 9)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_satisfying_unit_returns_every_result(self, jobs):
        units = [WorkUnit(unit_id=i, fn=square, args=(i,)) for i in range(3)]
        with ParallelSweeper(jobs) as sweeper:
            results = sweeper.run(units, until=reaches_nine)
        assert [r.value for r in results] == [0, 1, 4]
