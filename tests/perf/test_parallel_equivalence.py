"""Parallel sweeps must be bit-identical to their serial counterparts.

The sweep engine's contract is that ``jobs`` only changes wall time,
never results: every cell owns its RNG stream and the merge is keyed,
so the assertions here compare full result structures for equality.
"""

from __future__ import annotations

from repro import api
from repro.core.models import Construction, MulticastModel
from repro.multistage import scan_witnesses

SERIAL = api.ExecConfig(jobs=1)
PARALLEL = api.ExecConfig(jobs=2)


def _key(estimates):
    return [(e.m, e.attempts, e.blocked) for e in estimates]


def _traffic(**fields):
    return api.UniformConfig(**fields)


class TestBlockingProbabilityDeterminism:
    def test_jobs_do_not_change_the_estimate(self):
        traffic = _traffic(steps=300, seeds=(0, 1, 2))
        serial = api.blocking(3, 3, 2, 1, x=1, traffic=traffic, execution=SERIAL)
        parallel = api.blocking(
            3, 3, 2, 1, x=1, traffic=traffic, execution=PARALLEL
        )
        assert (serial.attempts, serial.blocked) == (
            parallel.attempts,
            parallel.blocked,
        )

    def test_each_seed_owns_one_stream(self):
        """Pooled totals equal the sum of single-seed runs: the per-seed
        streams are independent, so pooling is pure addition."""
        pooled = api.blocking(
            3, 3, 2, 1, x=1, traffic=_traffic(steps=300, seeds=(4, 5))
        )
        singles = [
            api.blocking(3, 3, 2, 1, x=1, traffic=_traffic(steps=300, seeds=(s,)))
            for s in (4, 5)
        ]
        assert pooled.attempts == sum(e.attempts for e in singles)
        assert pooled.blocked == sum(e.blocked for e in singles)


class TestBlockingVsMEquivalence:
    def test_serial_vs_parallel_curve(self):
        args = (3, 3, 1, [1, 2, 3, 4])
        traffic = _traffic(steps=300, seeds=(0, 1))
        assert _key(api.sweep(*args, x=1, traffic=traffic, execution=SERIAL)) == _key(
            api.sweep(*args, x=1, traffic=traffic, execution=PARALLEL)
        )

    def test_serial_vs_parallel_adversarial_curve(self):
        def scan(jobs):
            return scan_witnesses(
                3, 3, 1, [2, 4], construction=Construction.MSW_DOMINANT,
                model=MulticastModel.MSW, x=1, restarts=6, jobs=jobs,
            )

        assert scan(SERIAL.jobs) == scan(PARALLEL.jobs)


class TestExactMinimalMEquivalence:
    def test_serial_vs_parallel_scan(self):
        serial = api.exact_m(2, 2, 1, x=1, m_max=6, execution=SERIAL)
        parallel = api.exact_m(2, 2, 1, x=1, m_max=6, execution=PARALLEL)
        assert serial == parallel
