"""Cross-kernel equivalence for every registered workload.

The workload seam sits *above* the admission engine: a workload only
changes which events are drawn, never how they are routed.  So the
bit-identity contract of the kernels must hold per replication for
every registered model -- the serial reference network and the
batched replay must agree on counts *and* on the ``explain_block``
cause dicts.

The second contract is key hygiene: a workload's identity must enter
every cache key, so a warm uniform cache can never answer for
non-uniform traffic (cross-workload cache poisoning).
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import _traffic_key
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import valid_x_range
from repro.multistage.network import ThreeStageNetwork
from repro.perf.batch import replay_cell
from repro.perf.cache import ResultCache
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    UniformConfig,
)
from repro.workloads.keys import stream_rng

STEPS = 120

WORKLOADS = [
    UniformConfig(),
    HotspotConfig(zipf_s=1.5),
    HeavyTailFanoutConfig(alpha=0.9),
    PoissonErlangConfig(offered_erlangs=6.0),
]


def serial_cell(n, r, m, k, construction, model, x, seed, workload):
    """The serial reference: counts plus explain_block cause dicts."""
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x
    )
    attempts = blocked = 0
    live: dict[int, int] = {}
    dropped: set[int] = set()
    causes = []
    events = workload.events(
        model, n * r, k, steps=STEPS, rng=stream_rng(seed), max_fanout=None
    )
    for event in events:
        if event.kind == "setup":
            attempts += 1
            connection_id = net.try_connect(event.connection)
            if connection_id is None:
                blocked += 1
                causes.append(net.explain_block(event.connection))
                dropped.add(event.connection_id)
            else:
                live[event.connection_id] = connection_id
        else:
            if event.connection_id in dropped:
                dropped.discard(event.connection_id)
                continue
            net.disconnect(live.pop(event.connection_id))
    return attempts, blocked, causes


@st.composite
def configs(draw):
    n = draw(st.integers(2, 3))
    r = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2))
    x = draw(st.integers(1, 2))
    assume(x in valid_x_range(n, r))
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10_000))
    construction = draw(st.sampled_from(list(Construction)))
    model = draw(st.sampled_from(list(MulticastModel)))
    return n, r, k, x, m, seed, construction, model


class TestEveryWorkloadAgreesAcrossKernels:
    @settings(max_examples=20, deadline=None)
    @given(
        config=configs(),
        workload=st.sampled_from(WORKLOADS),
    )
    def test_serial_and_batched_match(self, config, workload):
        n, r, k, x, m, seed, construction, model = config
        attempts, blocked, causes = serial_cell(
            n, r, m, k, construction, model, x, seed, workload
        )
        batched = replay_cell(
            n, r, m, k, construction=construction, model=model, x=x,
            steps=STEPS, seed=seed, record_causes=True, workload=workload,
        )
        assert (batched.attempts, batched.blocked) == (attempts, blocked)
        assert list(batched.causes) == causes


class TestCacheKeyHygiene:
    @staticmethod
    def key(tmp_path, workload):
        return _traffic_key(
            ResultCache(tmp_path / "cache"), 3, 3, 2, 1,
            Construction.MSW_DOMINANT, MulticastModel.MSW, 1,
            100, 0, None, workload,
        )

    def test_uniform_preserves_the_legacy_address(self, tmp_path):
        # Both spellings of "no workload" hit the same warm entries.
        assert self.key(tmp_path, None) == self.key(tmp_path, UniformConfig())

    def test_every_non_uniform_workload_gets_its_own_address(self, tmp_path):
        keys = {self.key(tmp_path, w) for w in WORKLOADS}
        keys.add(self.key(tmp_path, None))
        # uniform + None collapse to one; the other three are distinct.
        assert len(keys) == len(WORKLOADS)

    def test_shape_parameters_are_part_of_the_address(self, tmp_path):
        assert self.key(tmp_path, HotspotConfig(zipf_s=1.5)) != self.key(
            tmp_path, HotspotConfig(zipf_s=1.6)
        )

    def test_warm_uniform_cache_is_never_served_for_hotspot(self, tmp_path):
        from repro import api

        execution = api.ExecConfig(cache_dir=str(tmp_path))
        uniform = api.blocking(
            3, 3, 1, 1, traffic=api.UniformConfig(steps=200, seeds=(0,)),
            execution=execution,
        )
        skewed = api.blocking(
            3, 3, 1, 1,
            traffic=api.HotspotConfig(steps=200, seeds=(0,), zipf_s=2.0),
            execution=execution,
        )
        assert (uniform.attempts, uniform.blocked) != (
            skewed.attempts, skewed.blocked,
        )
        # Re-running warm must reproduce each result exactly.
        assert api.blocking(
            3, 3, 1, 1, traffic=api.UniformConfig(steps=200, seeds=(0,)),
            execution=execution,
        ) == uniform
        assert api.blocking(
            3, 3, 1, 1,
            traffic=api.HotspotConfig(steps=200, seeds=(0,), zipf_s=2.0),
            execution=execution,
        ) == skewed


class TestAdaptiveStreamKeys:
    def test_workload_extends_the_stream_key(self):
        from repro.perf.adaptive import stream_key

        base = stream_key(
            3, 3, 1, Construction.MSW_DOMINANT, MulticastModel.MSW,
            1, 100, None,
        )
        uniform = stream_key(
            3, 3, 1, Construction.MSW_DOMINANT, MulticastModel.MSW,
            1, 100, None, workload=UniformConfig(),
        )
        skewed = stream_key(
            3, 3, 1, Construction.MSW_DOMINANT, MulticastModel.MSW,
            1, 100, None, workload=HotspotConfig(zipf_s=1.5),
        )
        assert uniform == base
        assert skewed != base and "hotspot" in skewed

    def test_adaptive_results_differ_by_workload_but_replay_warm(
        self, tmp_path
    ):
        from repro import api

        def run(traffic):
            return api.blocking(
                3, 3, 2, 1, traffic=traffic,
                execution=api.ExecConfig(
                    cache_dir=str(tmp_path),
                    precision=api.PrecisionConfig(
                        half_width=0.05, max_rounds=3
                    ),
                ),
            )

        uniform = run(api.UniformConfig(steps=150))
        skewed = run(api.HotspotConfig(steps=150, zipf_s=2.0))
        assert run(api.UniformConfig(steps=150)) == uniform
        assert run(api.HotspotConfig(steps=150, zipf_s=2.0)) == skewed
        assert (uniform.attempts, uniform.blocked) != (
            skewed.attempts, skewed.blocked,
        )
