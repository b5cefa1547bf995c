"""Tests for the content-addressed sweep-result cache."""

from __future__ import annotations

import shutil
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import api, obs
from repro.core.models import Construction, MulticastModel
from repro.multistage import scan_witnesses
from repro.perf.cache import CODE_VERSION, ResultCache


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _counted(call):
    """Run ``call`` with observability on: ``(result, counters)``."""
    with obs.capture() as captured:
        result = call()
    return result, captured.metrics.snapshot()["counters"]


def _hammer(directory, worker, writes):
    """One concurrent writer: interleaved puts and lookups on a shared dir.

    Module-level so worker processes can unpickle it.  Returns
    ``(bad_values, stats)`` -- ``bad_values`` counts lookups that hit
    but returned the wrong payload, which must never happen no matter
    how writes interleave.
    """
    cache = ResultCache(directory)
    bad = 0
    for i in range(writes):
        # Writers deliberately collide on half the key space.
        shared = i % (writes // 2)
        key = cache.key("concurrent", dict(cell=shared))
        cache.put(key, ("payload", shared))
        hit, value = cache.lookup(key)
        if hit and value != ("payload", shared):
            bad += 1
        # And probe a peer's keyspace while they write it.
        other_key = cache.key("concurrent", dict(cell=(shared + 1) % (writes // 2)))
        hit, value = cache.lookup(other_key)
        if hit and not (value[0] == "payload" and isinstance(value[1], int)):
            bad += 1
    return bad, cache.stats.as_dict()


class TestKeys:
    def test_deterministic(self, cache):
        params = dict(n=2, r=2, m=3, k=1, seed=0)
        assert cache.key("cell", params) == cache.key("cell", params)

    def test_sensitive_to_namespace_and_params(self, cache):
        params = dict(n=2, r=2, m=3, k=1, seed=0)
        assert cache.key("cell", params) != cache.key("other", params)
        assert cache.key("cell", params) != cache.key(
            "cell", dict(params, seed=1)
        )

    def test_enums_are_stable_key_material(self, cache):
        a = cache.key("cell", dict(model=MulticastModel.MSW))
        b = cache.key("cell", dict(model=MulticastModel.MAW))
        c = cache.key(
            "cell", dict(model=MulticastModel.MSW, extra=Construction.MSW_DOMINANT)
        )
        assert len({a, b, c}) == 3

    def test_unstable_key_material_rejected(self, cache):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="stable"):
            cache.key("cell", dict(thing=Opaque()))

    def test_code_version_bump_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, code_version=CODE_VERSION)
        new = ResultCache(tmp_path, code_version=CODE_VERSION + ".bumped")
        params = dict(n=2, r=2, m=3, k=1)
        key_old = old.key("cell", params)
        old.put(key_old, "stale")
        key_new = new.key("cell", params)
        assert key_new != key_old
        hit, _ = new.lookup(key_new)
        assert not hit  # the bumped version cannot see the old entry

    def test_kernel_id_separates_entries(self, cache):
        params = dict(n=2, r=2, m=3, k=1)
        assert cache.key("cell", params, kernel="bitmask") != cache.key(
            "cell", params, kernel="batched"
        )

    def test_kernel_defaults_to_active_kernel(self, cache):
        """With no ``kernel`` argument a key is the default (bitmask)
        kernel's; it never depends on what ran before."""
        params = dict(n=2, r=2, m=3, k=1)
        under_batched = cache.key("cell", params, kernel="batched")
        default = cache.key("cell", params)
        assert default != under_batched
        assert cache.key("cell", params, kernel="bitmask") == default


class TestStorage:
    def test_roundtrip(self, cache):
        key = cache.key("cell", dict(seed=0))
        cache.put(key, (12, [3, 4], {"a": 1}))
        assert cache.lookup(key) == (True, (12, [3, 4], {"a": 1}))
        assert key in cache
        assert len(cache) == 1

    def test_cached_none_is_a_hit(self, cache):
        """A stored None (e.g. 'adversary found no witness') is not a miss."""
        key = cache.key("adversary", dict(seed=7))
        cache.put(key, None)
        hit, value = cache.lookup(key)
        assert hit and value is None

    def test_miss(self, cache):
        hit, value = cache.lookup(cache.key("cell", dict(seed=99)))
        assert not hit and value is None
        assert cache.stats.misses == 1

    def test_corrupted_entry_recovered(self, cache):
        key = cache.key("cell", dict(seed=0))
        cache.put(key, "good")
        path = cache._path(key)
        path.write_bytes(b"\x80garbage that will not unpickle")
        hit, _ = cache.lookup(key)
        assert not hit
        assert cache.stats.corrupt == 1
        assert not path.exists()  # discarded, ready for a clean rewrite
        cache.put(key, "rewritten")
        assert cache.lookup(key) == (True, "rewritten")

    def test_truncated_entry_recovered(self, cache):
        key = cache.key("cell", dict(seed=0))
        cache.put(key, list(range(1000)))
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:10])
        hit, _ = cache.lookup(key)
        assert not hit and cache.stats.corrupt == 1

    def test_atomic_writes_leave_no_temp_files(self, cache):
        for seed in range(5):
            cache.put(cache.key("cell", dict(seed=seed)), seed)
        leftovers = [
            p for p in cache.directory.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert len(cache) == 5

    def test_clear(self, cache):
        for seed in range(3):
            cache.put(cache.key("cell", dict(seed=seed)), seed)
        assert cache.clear() == 3
        assert len(cache) == 0


class TestConcurrentWriters:
    def test_concurrent_bounded_writers_roundtrip(self, tmp_path):
        """Many processes share one cache without corruption.

        Every lookup that hits must return exactly the payload some
        writer stored -- torn writes or half-published entries would
        surface as a wrong value or an unpickling error.
        """
        directory = str(tmp_path / "shared")
        workers, writes = 4, 40
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _hammer,
                    [directory] * workers,
                    range(workers),
                    [writes] * workers,
                )
            )
        assert [bad for bad, _ in results] == [0] * workers
        # The directory is still a healthy cache afterwards.
        survivor = ResultCache(directory)
        leftovers = [
            p for p in survivor.directory.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        for i in range(writes // 2):
            hit, value = survivor.lookup(
                survivor.key("concurrent", dict(cell=i))
            )
            if hit:  # wrong values are never legal
                assert value == ("payload", i)

    def test_put_recreates_removed_directory(self, tmp_path):
        """A peer wiping the cache directory costs a recompute, not a crash."""
        cache = ResultCache(tmp_path / "wiped")
        key = cache.key("cell", dict(seed=0))
        cache.put(key, "before")
        shutil.rmtree(cache.directory)
        cache.put(key, "after")  # must recreate the directory and succeed
        assert cache.lookup(key) == (True, "after")


class TestSweepIntegration:
    TRAFFIC = api.UniformConfig(steps=120, seeds=(0, 1))

    @staticmethod
    def _cached(cache, jobs=1):
        return api.ExecConfig(jobs=jobs, cache_dir=str(cache.directory))

    def test_blocking_probability_warm_equals_cold(self, cache):
        def run(execution):
            return api.blocking(
                2, 2, 2, 1, traffic=self.TRAFFIC, execution=execution
            )

        cold, cold_counts = _counted(lambda: run(self._cached(cache)))
        warm, warm_counts = _counted(lambda: run(self._cached(cache)))
        nocache = run(api.ExecConfig())
        assert warm == cold == nocache
        seeds = len(self.TRAFFIC.seeds)
        assert cold_counts["cache.stores"] == seeds
        assert warm_counts["cache.hits"] == seeds

    def test_blocking_vs_m_resumed_sweep(self, cache):
        m_values = [1, 2, 3]

        def run(execution):
            return api.sweep(
                2, 2, 1, m_values, traffic=self.TRAFFIC, execution=execution
            )

        full = run(self._cached(cache))
        # Simulate an interrupted sweep: drop a third of the entries.
        entries = sorted(cache.directory.glob("*.pkl"))
        for path in entries[:: 3]:
            path.unlink()
        resumed = run(self._cached(cache))
        nocache = run(api.ExecConfig())
        assert resumed == full == nocache

    def test_adversarial_curve_cached(self, cache):
        def run():
            return scan_witnesses(
                2, 2, 1, [2, 3, 4], construction=Construction.MSW_DOMINANT,
                model=MulticastModel.MSW, x=1, restarts=3, cache=cache,
            )

        cold = run()
        warm, warm_counts = _counted(run)
        assert warm == cold
        assert warm_counts.get("cache.misses", 0) == 0

    def test_exact_minimal_m_cached(self, cache):
        def run():
            return api.exact_m(
                2, 2, 1, x=1, m_max=6, execution=self._cached(cache)
            )

        cold, cold_counts = _counted(run)
        warm = run()
        # m = 1, 2, 3 -- the scan stops at the threshold
        assert cold_counts["cache.stores"] == 3
        assert warm.m_exact == cold.m_exact == 3
        assert [p.blockable for p in warm.per_m] == [
            p.blockable for p in cold.per_m
        ]

    def test_parallel_sweep_shares_the_cache(self, cache):
        def run(jobs):
            return api.sweep(
                2, 2, 1, [1, 2], traffic=self.TRAFFIC,
                execution=self._cached(cache, jobs),
            )

        serial = run(1)
        parallel, counts = _counted(lambda: run(2))
        assert parallel == serial
        # Every cell of the second run came from the cache.
        assert counts["cache.hits"] == 2 * len(self.TRAFFIC.seeds)
