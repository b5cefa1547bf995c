"""Equivalence and property tests for the lockstep batch engine.

The ``batched`` kernel's whole contract is *bit-identity*: every
``(m, seed)`` cell it produces -- counts, causes, end planes, cache
entries, obs counters -- must equal the serial bitmask simulator's and
a one-lane replay's.  These tests pin that contract on randomized
configurations.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import api, obs
from repro.analysis.montecarlo import _traffic_cell
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import min_middle_switches, valid_x_range
from repro.engine.backends import resolve_backend
from repro.engine.geometry import FabricGeometry
from repro.engine.state import PythonState
from repro.multistage.network import ThreeStageNetwork
from repro.perf import batch as batch_module
from repro.perf.batch import (
    _replay,
    _simulate,
    compile_stream,
    replay_cell,
    simulate_batch,
)
from repro.perf.cache import ResultCache
from repro.switching.generators import dynamic_traffic
from repro.switching.requests import MulticastConnection
from repro.workloads import TraceConfig, generate_trace
from repro.workloads.keys import stream_rng
from tests.curves import curve
from tests.workloads.test_stream_pins import CONFIGS as PIN_CONFIGS
from tests.workloads.test_stream_pins import SHAPES as PIN_SHAPES

STEPS = 150


def serial_cell_with_causes(
    n, r, m, k, construction, model, x, steps, seed, with_net=False
):
    """The serial simulator's ``(attempts, blocked, causes)`` ground truth.

    With ``with_net`` the network itself follows, for its end state.
    """
    rng = random.Random(seed)
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x
    )
    attempts = blocked = 0
    live: dict[int, int] = {}
    dropped: set[int] = set()
    causes = []
    for event in dynamic_traffic(model, n * r, k, steps=steps, seed=rng):
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
    if with_net:
        return attempts, blocked, causes, net
    return attempts, blocked, causes


@st.composite
def configs(draw):
    n = draw(st.integers(2, 4))
    r = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    x = draw(st.integers(1, 3))
    assume(x in valid_x_range(n, r))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    construction = draw(st.sampled_from(list(Construction)))
    model = draw(st.sampled_from(list(MulticastModel)))
    return n, r, k, x, m, seed, construction, model


class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(config=configs())
    def test_counts_and_causes_equal_serial(self, config):
        n, r, k, x, m, seed, construction, model = config
        attempts, blocked, causes = serial_cell_with_causes(
            n, r, m, k, construction, model, x, STEPS, seed
        )
        outcome = replay_cell(
            curve(n, r, k, construction=construction, model=model, x=x,
                  steps=STEPS),
            m, seed, record_causes=True,
        )
        assert (outcome.attempts, outcome.blocked) == (attempts, blocked)
        assert list(outcome.causes) == causes

    def test_whole_batch_equals_per_cell_serial(self):
        """One lockstep batch covers the m column bit for bit."""
        n, r, k, x, seed = 3, 3, 2, 1, 0
        m_values = list(range(1, 9))
        for construction in Construction:
            for model in MulticastModel:
                spec = curve(
                    n, r, k, construction=construction, model=model, x=x,
                    steps=300,
                )
                batch = dict(simulate_batch(spec, seed, m_values))
                for m in m_values:
                    assert batch[m] == _traffic_cell(spec, m, seed)

    def test_max_fanout_respected(self):
        n, r, k, x, seed = 3, 4, 2, 2, 1
        spec = curve(n, r, k, x=x, steps=200, max_fanout=2)
        for m in (2, 3):
            assert replay_cell(spec, m, seed).blocked == _traffic_cell(
                spec, m, seed
            )[1]


@st.composite
def lane_batches(draw):
    """A fabric family, a stream and 2-6 distinct ``m`` in shuffled order."""
    n = draw(st.integers(2, 4))
    r = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    x = draw(st.sampled_from(list(valid_x_range(n, r))))
    construction = draw(st.sampled_from(list(Construction)))
    model = draw(st.sampled_from(list(MulticastModel)))
    seed = draw(st.integers(0, 10_000))
    m_values = draw(
        st.lists(st.integers(1, 10), min_size=2, max_size=6, unique=True)
        .flatmap(st.permutations)
    )
    return n, r, k, x, construction, model, seed, m_values


def settle(state, unforked):
    """Give each lane that never forked the lead's end planes.

    ``_replay`` leaves those planes in the lead's slot alone; the
    end-plane checks read every lane's own slot.
    """
    for b in unforked[1:]:
        state.copy_lane(unforked[0], b)


def lane_results(ops, geometries):
    """Per lane: attempts, blocked, releases, kinds, causes, end planes."""
    state = PythonState(geometries)
    attempts, replications, unforked = _replay(ops, state, True, True)
    settle(state, unforked)
    return [
        (
            attempts, rep.blocked, rep.releases, rep.kind_counts, rep.causes,
            state.busy_planes(b),
        )
        for b, rep in enumerate(replications)
    ]


class TestSharedTrajectories:
    """Lanes replay one shared trajectory until their routing can diverge."""

    def test_nonblocking_lanes_probe_once_per_setup(self, monkeypatch):
        # At x = 1 a cover is one middle, so only a block forks a lane,
        # and Theorem 1 rules blocks out at every m in the batch.
        n, r, k, x, seed, steps = 2, 2, 1, 1, 5, 400
        construction, model = Construction.MSW_DOMINANT, MulticastModel.MSW
        m_values = [7, 4, 5, 11]
        assert min(m_values) >= min_middle_switches(n, r, k, construction, x)
        spec = curve(
            n, r, k, construction=construction, model=model, x=x, steps=steps
        )
        setups = sum(tag for tag, *_ in compile_stream(spec, seed))
        assert setups == 202
        probes: list[int] = []
        allocates: list[int] = []
        copies: list[int] = []
        probe_cover = batch_module.probe_cover
        allocate = PythonState.allocate
        copy_lane = PythonState.copy_lane

        def counting_probe(*args):
            probes.append(1)
            return probe_cover(*args)

        def counting_allocate(self, *args, **kwargs):
            allocates.append(1)
            return allocate(self, *args, **kwargs)

        def counting_copy_lane(self, *args):
            copies.append(1)
            return copy_lane(self, *args)

        monkeypatch.setattr(batch_module, "probe_cover", counting_probe)
        monkeypatch.setattr(PythonState, "allocate", counting_allocate)
        monkeypatch.setattr(PythonState, "copy_lane", counting_copy_lane)
        cells = simulate_batch(spec, seed, m_values)
        assert cells == [(m, (setups, 0)) for m in m_values]
        assert len(probes) == setups
        assert len(allocates) == setups
        # no lane forks, and the counts need no end planes: nothing is
        # copied, not even at the end of the stream
        assert copies == []

    @settings(max_examples=60, deadline=None)
    @given(config=lane_batches())
    # Streams where a multi-middle cover of the group's smallest lane
    # differs from a larger lane's decision, visibly at the end.
    @example(config=(
        3, 4, 2, 2, Construction.MSW_DOMINANT, MulticastModel.MSDW,
        9774, [2, 4, 6, 1],
    ))
    @example(config=(
        4, 4, 1, 3, Construction.MSW_DOMINANT, MulticastModel.MSW,
        6507, [9, 2, 4, 7, 8, 10],
    ))
    def test_every_lane_equals_its_one_lane_replay(self, config):
        n, r, k, x, construction, model, seed, m_values = config
        ops = compile_stream(curve(n, r, k, model=model, steps=STEPS), seed)
        geometries = tuple(
            FabricGeometry(
                n=n, r=r, k=k, m=m, construction=construction, model=model,
                x=x,
            )
            for m in m_values
        )
        assert lane_results(ops, geometries) == [
            lane_results(ops, (geometry,))[0] for geometry in geometries
        ]


class TestThreeWayIdentity:
    """The serial network, one-lane replays and whole batches agree."""

    @settings(max_examples=20, deadline=None)
    @given(
        config=configs(),
        others=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    )
    def test_counts_and_causes_agree(self, config, others):
        n, r, k, x, m, seed, construction, model = config
        m_values = list(dict.fromkeys([m, *others]))
        spec = curve(
            n, r, k, construction=construction, model=model, x=x, steps=STEPS
        )
        attempts, replications = _simulate(spec, seed, m_values, True)
        for lane_m, rep in zip(m_values, replications):
            serial = serial_cell_with_causes(
                n, r, lane_m, k, construction, model, x, STEPS, seed
            )
            one_lane = replay_cell(spec, lane_m, seed, record_causes=True)
            assert (attempts, rep.blocked, rep.causes) == tuple(serial)
            assert (
                one_lane.attempts, one_lane.blocked, list(one_lane.causes)
            ) == tuple(serial)

    @pytest.mark.parametrize("construction", list(Construction))
    @pytest.mark.parametrize("model", list(MulticastModel))
    def test_batch_equals_one_lane_runs(self, construction, model):
        n, r, k, x, seed = 3, 3, 2, 1, 0
        m_values = tuple(range(1, 9))
        spec = curve(
            n, r, k, construction=construction, model=model, x=x, steps=300
        )
        whole = simulate_batch(spec, seed, m_values)
        assert whole == [
            simulate_batch(spec, seed, (m,))[0] for m in m_values
        ]


class TestEndStateIdentity:
    @pytest.mark.parametrize("construction", list(Construction))
    @pytest.mark.parametrize("model", list(MulticastModel))
    def test_lanes_end_in_serial_planes(self, construction, model):
        """After a batched replay each lane's planes equal the serial net's.

        Stronger than count identity: every admit/release must have
        set and cleared the same bits, so both replays end in the same
        fabric state.
        """
        m_values = (1, 2, 3)
        geometries = tuple(
            FabricGeometry(
                n=3, r=3, k=2, m=m, construction=construction, model=model,
                x=1,
            )
            for m in m_values
        )
        state = PythonState(geometries)
        ops = compile_stream(curve(3, 3, 2, model=model, steps=200), 1)
        attempts, replications, unforked = _replay(ops, state, True, False)
        settle(state, unforked)
        for b, (m, rep) in enumerate(zip(m_values, replications)):
            serial_attempts, blocked, _, net = serial_cell_with_causes(
                3, 3, m, 2, construction, model, 1, 200, 1, with_net=True
            )
            assert (attempts, rep.blocked) == (serial_attempts, blocked)
            assert state.busy_planes(b) == net._state.busy_planes()

    def test_unforked_lanes_settle_to_serial_planes(self):
        """Lanes that never fork end in the lead's planes once settled.

        At x = 1 above Theorem 1's bound no lane forks, so the replay
        leaves every lane but the lead on its start planes; settling
        gives each the serial net's end planes on its own middles.
        """
        n, r, k, x, seed, steps = 2, 2, 1, 1, 5, 400
        construction, model = Construction.MSW_DOMINANT, MulticastModel.MSW
        m_values = (7, 4, 5, 11)
        geometries = tuple(
            FabricGeometry(
                n=n, r=r, k=k, m=m, construction=construction, model=model,
                x=x,
            )
            for m in m_values
        )
        state = PythonState(geometries)
        ops = compile_stream(curve(n, r, k, model=model, steps=steps), seed)
        attempts, replications, unforked = _replay(ops, state, False, False)
        assert unforked == [3, 0, 2, 1]
        assert state.busy_planes(1) == PythonState(geometries).busy_planes(1)
        settle(state, unforked)
        for b, m in enumerate(m_values):
            serial_attempts, blocked, _, net = serial_cell_with_causes(
                n, r, m, k, construction, model, x, steps, seed, with_net=True
            )
            assert (attempts, replications[b].blocked) == (
                serial_attempts, blocked,
            )
            assert state.busy_planes(b) == net._state.busy_planes()


class TestStreamCompilation:
    def test_stream_is_m_independent(self):
        """The compiled ops depend on the traffic config, never on m."""
        spec = curve(3, 3, 2, model=MulticastModel.MSDW, steps=200)
        ops = compile_stream(spec, seed=4)
        again = compile_stream(spec, seed=4)
        assert ops == again
        assert any(tag == 1 for tag, *_ in ops)
        assert any(tag == 0 for tag, *_ in ops)

    def test_ops_mirror_generator_events(self, tmp_path):
        """Every workload's compiled ops against its own event stream.

        Each registered workload, the uniform generator
        (``dynamic_traffic``) and a trace recorded with ``generate_trace``, on
        every stream-pin shape, model and antithetic side: the op is
        ``(tag, id, source module, source wavelength, dest mask)`` of
        the event the serial simulator replays.
        """
        cases = 0
        for shape, (n, r) in MIRROR_SPLITS.items():
            n_ports, k, max_fanout, steps, seeds = PIN_SHAPES[shape]
            assert n * r == n_ports
            for model in MulticastModel:
                for seed in seeds:
                    trace = str(tmp_path / f"{shape}-{model.value}-{seed}.jsonl")
                    recorded = replace(
                        PIN_CONFIGS["hotspot"],
                        steps=steps, max_fanout=max_fanout,
                    )
                    generate_trace(recorded, trace, model, n_ports, k, seed=seed)
                    workloads = [None, *PIN_CONFIGS.values(),
                                 TraceConfig(path=trace)]
                    for workload in workloads:
                        for antithetic in (False, True):
                            rng = stream_rng(seed, antithetic)
                            if workload is None:
                                events = dynamic_traffic(
                                    model, n_ports, k, steps=steps, seed=rng,
                                    max_fanout=max_fanout,
                                )
                            else:
                                events = workload.events(
                                    model, n_ports, k, steps=steps, rng=rng,
                                    max_fanout=max_fanout,
                                )
                            spec = curve(
                                n, r, k, model=model, steps=steps,
                                workload=workload, max_fanout=max_fanout,
                            )
                            ops = compile_stream(spec, seed, antithetic)
                            assert ops == list(ops_of(events, n))
                            cases += 1
        assert cases == 2 * 3 * 6 * sum(
            len(PIN_SHAPES[shape][4]) for shape in MIRROR_SPLITS
        )

    @pytest.mark.parametrize("workload", list(PIN_CONFIGS))
    def test_compiles_without_connection_objects(self, workload, monkeypatch):
        """The batched path reads ints: no MulticastConnection is built."""
        built = []
        init = MulticastConnection.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MulticastConnection, "__init__", counting)
        for model in MulticastModel:
            ops = compile_stream(
                curve(
                    3, 3, 2, model=model, steps=300,
                    workload=PIN_CONFIGS[workload],
                ),
                1,
            )
            assert any(tag == 1 for tag, *_ in ops)
        assert built == []


def ops_of(events, n):
    """The replay op of each event, read back from its connection."""
    for event in events:
        source = event.connection.source
        dest_mask = 0
        if event.kind == "setup":
            for destination in event.connection.destinations:
                dest_mask |= 1 << (destination.port // n)
        yield (
            1 if event.kind == "setup" else 0,
            event.connection_id,
            source.port // n,
            source.wavelength,
            dest_mask,
        )


#: stream-pin shape -> the (n, r) split compiled for it
MIRROR_SPLITS = {"9x2": (3, 3), "16x2": (4, 4), "12x3-fanout2": (4, 3),
                 "210x63": (3, 70)}


class TestBackendResolution:
    def test_auto_resolves_to_python(self):
        assert resolve_backend("auto", m_max=8, r=4, k=2) == "python"

    def test_env_override(self):
        """Explicit requests resolve to themselves: the argument is the
        only way to pick a backend."""
        assert resolve_backend("python", m_max=8, r=4, k=2) == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown batch backend"):
            resolve_backend("fortran", m_max=8, r=4, k=2)

    def test_illegal_x_rejected_like_the_network(self):
        with pytest.raises(ValueError, match="outside the legal range"):
            replay_cell(curve(2, 2, 1, x=5, steps=50), 3, 0)


class TestApiIntegration:
    TRAFFIC = api.UniformConfig(steps=200, seeds=(0, 1, 2))

    def sweep(self, kernel, **kwargs):
        return api.sweep(
            3, 3, 2, [1, 2, 3, 4],
            traffic=self.TRAFFIC,
            search=api.SearchConfig(kernel=kernel),
            **kwargs,
        )

    def test_sweep_matches_bitmask(self):
        bitmask = self.sweep("bitmask")
        batched = self.sweep("batched")
        assert [
            (e.m, e.attempts, e.blocked) for e in bitmask
        ] == [(e.m, e.attempts, e.blocked) for e in batched]

    def test_blocking_matches_bitmask(self):
        bitmask = api.blocking(
            3, 4, 3, 2, x=2, traffic=self.TRAFFIC,
            search=api.SearchConfig(kernel="bitmask"),
        )
        batched = api.blocking(
            3, 4, 3, 2, x=2, traffic=self.TRAFFIC,
            search=api.SearchConfig(kernel="batched"),
        )
        assert (bitmask.attempts, bitmask.blocked) == (
            batched.attempts, batched.blocked,
        )
        assert batched.meta is not None and batched.meta.kernel == "batched"

    def test_adversarial_sweep_matches_bitmask(self):
        traffic = api.UniformConfig(steps=150, seeds=(0, 1), adversarial=True)
        bitmask = api.sweep(
            2, 2, 1, [2, 3, 4], traffic=traffic,
            search=api.SearchConfig(kernel="bitmask"),
        )
        batched = api.sweep(
            2, 2, 1, [2, 3, 4], traffic=traffic,
            search=api.SearchConfig(kernel="batched"),
        )
        assert [(e.attempts, e.blocked) for e in bitmask] == [
            (e.attempts, e.blocked) for e in batched
        ]

    def test_obs_counters_merge_to_serial_totals(self):
        """The acceptance contract: batched counters == serial bitmask's.

        Compared over the simulation namespaces (``mc.*``, ``net.*``);
        the orchestration counters (``sweep.*``) legitimately differ --
        a batch is one work unit where serial runs one per cell.
        """

        def counters(kernel):
            with obs.capture() as run:
                self.sweep(kernel)
            return {
                name: value
                for name, value in run.metrics.snapshot()["counters"].items()
                if name.startswith(("mc.", "net."))
            }

        serial = counters("bitmask")
        batched = counters("batched")
        assert batched == serial
        assert batched["mc.cells"] == 12  # 4 m-values x 3 seeds
        assert batched["net.admit.blocked"] > 0
        assert any(name.startswith("net.block.cause.") for name in batched)


class TestCacheIntegration:
    CONFIG = dict(steps=150, seeds=(0, 1))

    def sweep(self, kernel, cache_dir):
        return api.sweep(
            2, 2, 1, [1, 2, 3],
            traffic=api.UniformConfig(**self.CONFIG),
            execution=api.ExecConfig(cache_dir=str(cache_dir)),
            search=api.SearchConfig(kernel=kernel),
        )

    def test_batched_sweep_is_cached_per_cell(self, tmp_path):
        cold = self.sweep("batched", tmp_path)
        cache = ResultCache(tmp_path)
        assert len(cache) == 6  # 3 m-values x 2 seeds, one entry each
        warm = self.sweep("batched", tmp_path)
        assert warm == cold

    def test_kernel_tag_keeps_pipelines_separate(self, tmp_path):
        self.sweep("bitmask", tmp_path)
        entries_after_bitmask = len(ResultCache(tmp_path))
        self.sweep("batched", tmp_path)
        # The batched run cannot alias the bitmask entries (kernel is
        # part of every key), so it stores its own.
        assert len(ResultCache(tmp_path)) == 2 * entries_after_bitmask

    def test_partially_warm_batched_sweep(self, tmp_path):
        full = self.sweep("batched", tmp_path)
        cache = ResultCache(tmp_path)
        victims = sorted(cache.directory.glob("*.pkl"))[::2]
        for path in victims:
            path.unlink()
        resumed = self.sweep("batched", tmp_path)
        assert resumed == full


class TestObsGuard:
    def test_engine_records_nothing_while_disabled(self, monkeypatch):
        assert not obs.enabled()
        recorded = []
        monkeypatch.setattr(
            obs.MetricsRegistry, "inc",
            lambda self, name, value=1: recorded.append(name),
        )
        simulate_batch(curve(2, 2, 1, steps=100), 0, (1, 2))
        assert recorded == []
