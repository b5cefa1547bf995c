"""A capture observes its own block only: not other threads, not outer captures."""

from __future__ import annotations

import threading

from repro import api, obs

TRAFFIC = api.UniformConfig(steps=300, seeds=(0, 1))
TRIALS = 20


def run_blocking():
    return api.blocking(3, 3, 2, 1, x=1, traffic=TRAFFIC)


def captured_counters():
    with obs.capture() as run:
        run_blocking()
    return run.metrics.snapshot()["counters"]


class TestThreads:
    def test_capture_ignores_an_uncaptured_thread(self):
        """A capture records exactly a solo capture's counters while a
        second thread makes the same call uncaptured, and the uncaptured
        call's estimate carries no obs summary."""
        solo = captured_counters()
        assert solo["net.admit.attempts"] > 0
        for trial in range(TRIALS):
            gate = threading.Barrier(2, timeout=60)
            results: dict[str, object] = {}
            errors: list[BaseException] = []

            def captured() -> None:
                try:
                    gate.wait()
                    results["captured"] = captured_counters()
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            def uncaptured() -> None:
                try:
                    gate.wait()
                    results["uncaptured"] = run_blocking()
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=captured),
                threading.Thread(target=uncaptured),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert not errors
            assert results["captured"] == solo, trial
            assert results["uncaptured"].meta.obs is None, trial


class TestNesting:
    def test_inner_capture_keeps_the_outer_counts(self):
        with obs.capture() as outer:
            obs.inc("outer.before", 3)
            with obs.capture() as inner:
                obs.inc("inner.only")
            obs.inc("outer.after")
        assert inner.metrics.snapshot()["counters"] == {"inner.only": 1}
        assert outer.metrics.snapshot()["counters"] == {
            "outer.before": 3,
            "outer.after": 1,
        }

    def test_nested_runs_record_separately(self):
        solo = captured_counters()
        with obs.capture() as outer:
            run_blocking()
            obs.inc("outer.marker")
            before = dict(outer.metrics.snapshot()["counters"])
            inner = captured_counters()
            assert outer.metrics.snapshot()["counters"] == before
        assert before == {**solo, "outer.marker": 1}
        assert inner == solo
