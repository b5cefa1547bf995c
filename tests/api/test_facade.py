"""The typed facade reproduces the legacy kwargs entry points.

The pinned ``(m, attempts, blocked)`` triples and exact-search verdicts
below are the numbers the pre-facade kwargs calls
(``blocking_probability``, ``blocking_vs_m``, ``exact_minimal_m``)
returned for the same parameters; the facade must keep them bit for
bit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.core.models import Construction, MulticastModel


def strip_meta(estimate):
    return (estimate.m, estimate.attempts, estimate.blocked)


class TestFrozenConfigs:
    @pytest.mark.parametrize("config", [
        api.UniformConfig(), api.ExecConfig(), api.SearchConfig()])
    def test_configs_are_frozen(self, config):
        field = dataclasses.fields(config)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, None)

    def test_exec_config_cache(self, tmp_path):
        assert api.ExecConfig().cache() is None
        cache = api.ExecConfig(cache_dir=str(tmp_path)).cache()
        assert cache is not None

    @pytest.mark.parametrize("verb", [
        lambda traffic: api.blocking(2, 2, 2, 1, traffic=traffic),
        lambda traffic: api.sweep(2, 2, 1, [2], traffic=traffic),
    ])
    def test_traffic_must_be_a_workload_config(self, verb):
        with pytest.raises(TypeError, match="got dict"):
            verb({"steps": 10})

    def test_exec_config_rejects_unknown_backend(self):
        """There is no backend option: every batch runs on PythonState."""
        names = [field.name for field in dataclasses.fields(api.ExecConfig)]
        assert names == ["jobs", "cache_dir", "precision"]
        with pytest.raises(TypeError, match="backend"):
            api.ExecConfig(backend="bogus")

    @pytest.mark.parametrize("jobs", ["many", 2.5, True, False, None, "4"])
    def test_exec_config_rejects_jobs_that_are_not_auto_or_int(self, jobs):
        with pytest.raises(ValueError) as err:
            api.ExecConfig(jobs=jobs)
        message = str(err.value)
        assert message.startswith("jobs must be 'auto' or an int")
        assert repr(jobs) in message
        assert "\n" not in message

    @pytest.mark.parametrize("jobs", ["auto", 1, 3, 0, -1])
    def test_exec_config_accepts_auto_and_ints(self, jobs):
        assert api.ExecConfig(jobs=jobs).jobs == jobs

    @pytest.mark.parametrize("kernel", ["bitmask", "batched"])
    def test_ports_per_module_below_one_refused(self, kernel):
        # One message under both kernels, from the geometry guard,
        # before any stream is drawn.
        search = api.SearchConfig(kernel=kernel)
        for n in (0, -1):
            with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
                api.blocking(n, 3, 2, 2, search=search)


class TestBlockingEquivalence:
    def test_matches_legacy_call_bit_for_bit(self):
        new = api.blocking(3, 3, 2, 1, x=1,
                           traffic=api.UniformConfig(steps=200, seeds=(0, 1)))
        assert strip_meta(new) == (2, 205, 54)

    def test_default_steps_match_legacy_default(self):
        new = api.blocking(2, 2, 2, 1, x=1,
                           traffic=api.UniformConfig(seeds=(0,)))
        assert strip_meta(new) == (2, 1001, 47)


class TestSweepEquivalence:
    def test_random_traffic_curve_matches_legacy(self):
        traffic = api.UniformConfig(steps=150, seeds=(0, 1))
        new = api.sweep(3, 3, 1, [1, 2, 3], x=1, traffic=traffic)
        assert [strip_meta(e) for e in new] == [
            (1, 154, 89), (2, 154, 37), (3, 154, 7)]

    def test_max_fanout_is_honored(self):
        capped = api.sweep(2, 2, 1, [2], x=1,
                           traffic=api.UniformConfig(
                               steps=150, seeds=(0,), max_fanout=1))
        assert strip_meta(capped[0]) == (2, 76, 4)

    def test_alternate_construction_and_model(self):
        traffic = api.UniformConfig(steps=100, seeds=(0,))
        new = api.sweep(2, 2, 2, [1, 2], construction=Construction.MAW_DOMINANT,
                        model=MulticastModel.MAW, x=1, traffic=traffic)
        assert [strip_meta(e) for e in new] == [(1, 50, 15), (2, 50, 0)]


class TestExactEquivalence:
    def test_verdicts_match_legacy(self):
        new = api.exact_m(2, 2, 1, x=1, m_max=5)
        assert new.m_exact == 3
        assert [(p.m, p.blockable, p.states_explored) for p in new.per_m] == [
            (1, True, 2), (2, True, 11), (3, False, 356)]

    def test_uncanonicalized_search_config(self):
        reference = api.exact_m(2, 2, 1, x=1, m_max=4,
                                search=api.SearchConfig(canonicalize=False))
        canonical = api.exact_m(2, 2, 1, x=1, m_max=4)
        assert reference.m_exact == canonical.m_exact

    def test_cache_round_trip(self, tmp_path):
        execution = api.ExecConfig(cache_dir=str(tmp_path))
        first = api.exact_m(2, 2, 1, x=1, m_max=4, execution=execution)
        second = api.exact_m(2, 2, 1, x=1, m_max=4, execution=execution)
        assert first.m_exact == second.m_exact
        assert list(tmp_path.iterdir())  # entries were stored
