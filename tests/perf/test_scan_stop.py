"""Ordered scans stop at their first hit whenever the sweeper runs serially.

The exact-threshold scan stops at the first nonblocking ``m`` and the
adversary stage at the first witness.  An explicit ``jobs`` above the
unit count falls back to serial execution on any host, so these runs
must do the same work as ``jobs=1``, not run every unit and discard the
tail.
"""

from __future__ import annotations

import repro.analysis.montecarlo as montecarlo
from repro import api, obs


def _states(jobs):
    with obs.capture() as run:
        result = api.exact_m(
            2, 2, 1, x=1, m_max=6, execution=api.ExecConfig(jobs=jobs)
        )
    return result, run.metrics.snapshot()["counters"]["exhaustive.states"]


class TestExactScan:
    def test_serial_fallback_explores_what_jobs_1_explores(self):
        serial, serial_states = _states(1)
        # jobs=8 exceeds the 6 candidates: the sweeper runs them serially.
        fallback, fallback_states = _states(8)
        assert fallback == serial
        assert fallback_states == serial_states == 369


class TestAdversaryStage:
    TRAFFIC = api.UniformConfig(
        steps=20, seeds=(0,), adversarial=True, adversary_seeds=20
    )

    def _searches(self, monkeypatch, jobs):
        calls = []
        search = montecarlo.search_blocking_state

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "search_blocking_state", counting)
        estimates = api.sweep(
            3, 3, 1, [1, 2, 3], x=1, traffic=self.TRAFFIC,
            execution=api.ExecConfig(jobs=jobs),
        )
        return [(e.attempts, e.blocked) for e in estimates], len(calls)

    def test_serial_fallback_searches_what_jobs_1_searches(self, monkeypatch):
        serial, serial_calls = self._searches(monkeypatch, 1)
        # jobs=64 exceeds the 20 restarts per m: a serial fallback.
        fallback, fallback_calls = self._searches(monkeypatch, 64)
        assert fallback == serial
        assert fallback_calls == serial_calls == 2
