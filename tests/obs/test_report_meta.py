"""The shared ResultMeta envelope."""

from __future__ import annotations

import pytest

from repro import api, obs
from repro.obs.meta import ResultMeta
from repro.perf.cache import CODE_VERSION
from repro.perf.sweeper import ExecutionPlan


def make_plan(**overrides):
    defaults = dict(requested_jobs=1, resolved_jobs=1, executor="serial",
                    units=3, dispatched=3, cache_hits=0, reason="")
    defaults.update(overrides)
    return ExecutionPlan(**defaults)


class TestResultMeta:
    def test_capture_records_version_and_kernel(self):
        meta = ResultMeta.capture()
        assert meta.code_version == CODE_VERSION
        assert meta.kernel in ("bitmask", "batched")
        assert meta.plan is None and meta.obs is None

    def test_capture_embeds_plan_and_obs_summary(self):
        with obs.capture():
            obs.inc("meta.demo")
            meta = ResultMeta.capture(make_plan(units=7))
        assert meta.plan["units"] == 7
        assert meta.obs["metrics"]["counters"] == {"meta.demo": 1}

    def test_json_round_trip(self):
        meta = ResultMeta.capture(make_plan())
        assert ResultMeta.from_json(meta.to_json()) == meta

    def test_envelope_is_hashable(self):
        meta = ResultMeta.capture(make_plan())
        assert isinstance(hash(meta), int)


class TestSharedEnvelopeOnResults:
    def test_blocking_carries_and_round_trips_meta(self):
        estimate = api.blocking(
            2, 2, 2, 1, x=1, traffic=api.UniformConfig(steps=60, seeds=(0,)))
        meta = estimate.meta
        assert isinstance(meta, ResultMeta)
        assert meta.plan["units"] == 1
        rebuilt = type(estimate).from_json(estimate.to_json())
        assert rebuilt == estimate
        assert rebuilt.meta == meta

    def test_sweep_estimates_share_one_plan_envelope(self):
        estimates = api.sweep(
            2, 2, 1, [1, 2], x=1,
            traffic=api.UniformConfig(steps=60, seeds=(0,)))
        plans = {e.meta.plan_json for e in estimates}
        assert len(plans) == 1
        assert estimates[0].meta.plan["units"] == 1

    @pytest.mark.parametrize("m_values,steps,seeds,restarts", [
        # Every cell blocks, so no adversary runs.
        ([1, 2], 200, (0, 1), 5),
        # Cells at m = 2, 3 see no blocking, so the adversary runs there.
        ([1, 2, 3], 20, (0,), 20),
    ])
    def test_adversarial_sweep_reports_the_traffic_plan(
        self, m_values, steps, seeds, restarts
    ):
        def plan(adversarial):
            estimates = api.sweep(
                3, 3, 1, m_values, x=1,
                traffic=api.UniformConfig(
                    steps=steps, seeds=seeds, adversarial=adversarial,
                    adversary_seeds=restarts,
                ),
                execution=api.ExecConfig(jobs=2),
            )
            return estimates[0].meta.plan

        assert plan(True) == plan(False)
        assert plan(True)["units"] == len(seeds)
