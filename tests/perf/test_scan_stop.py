"""Ordered scans stop at their first hit whenever the sweeper runs serially.

The exact-threshold scan stops at the first nonblocking ``m`` and each
``m`` of the adversary's scan at its first witness.  An explicit
``jobs`` above the unit count falls back to serial execution on any
host, so these runs must do the same work as ``jobs=1``, not run every
unit and discard the tail.
"""

from __future__ import annotations

import repro.multistage.adversary as adversary
from repro import api, obs
from repro.core.models import Construction, MulticastModel
from repro.multistage import scan_witnesses


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
    TRAFFIC = api.UniformConfig(steps=20, seeds=(0,))

    def _searches(self, monkeypatch, jobs):
        calls = []
        search = adversary.search_blocking_state

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(adversary, "search_blocking_state", counting)
        execution = api.ExecConfig(jobs=jobs)
        estimates = api.sweep(
            3, 3, 1, [1, 2, 3], x=1, traffic=self.TRAFFIC, execution=execution
        )
        witnesses = scan_witnesses(
            3, 3, 1, [e.m for e in estimates if not e.blocked],
            construction=Construction.MSW_DOMINANT, model=MulticastModel.MSW,
            x=1, jobs=jobs,
        )
        return [(e.attempts, e.blocked) for e in estimates], witnesses, len(calls)

    def test_serial_fallback_searches_what_jobs_1_searches(self, monkeypatch):
        serial, serial_witnesses, serial_calls = self._searches(monkeypatch, 1)
        # jobs=64 exceeds the 20 restarts per m: a serial fallback.
        fallback, fallback_witnesses, fallback_calls = self._searches(
            monkeypatch, 64
        )
        assert fallback == serial
        assert fallback_witnesses == serial_witnesses
        assert fallback_calls == serial_calls == 2
