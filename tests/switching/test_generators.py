"""Tests for the random assignment and dynamic traffic generators."""

from __future__ import annotations

import random

import pytest

from repro.core.models import MulticastModel
from repro.switching import generators
from repro.switching.generators import (
    AssignmentGenerator,
    FreeEndpoints,
    draw_connection,
    dynamic_traffic,
)
from repro.switching.requests import Endpoint, MulticastAssignment
from repro.switching.validity import is_valid_assignment, is_valid_connection
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    UniformConfig,
    erlang,
)
from repro.workloads.keys import stream_rng


class TestAssignmentGenerator:
    def test_deterministic_given_seed(self, model):
        a = AssignmentGenerator(model, 4, 2, rng=123).random_assignment()
        b = AssignmentGenerator(model, 4, 2, rng=123).random_assignment()
        assert a == b

    def test_different_seeds_differ(self, model):
        a = AssignmentGenerator(model, 4, 2, rng=1).random_assignment(0.0)
        b = AssignmentGenerator(model, 4, 2, rng=2).random_assignment(0.0)
        assert a != b  # overwhelmingly likely; fixed seeds make it certain

    @pytest.mark.parametrize("idle", [0.0, 0.3, 0.9])
    def test_outputs_always_valid(self, model, idle):
        generator = AssignmentGenerator(model, 4, 3, rng=7)
        for _ in range(20):
            assignment = generator.random_assignment(idle)
            assert is_valid_assignment(assignment, model, 4, 3)

    def test_full_assignment_is_full(self, model):
        generator = AssignmentGenerator(model, 3, 2, rng=5)
        for _ in range(10):
            assert generator.random_full_assignment().is_full(3, 2)

    def test_invalid_dimensions_rejected(self, model):
        with pytest.raises(ValueError):
            AssignmentGenerator(model, 0, 1)


class TestDynamicTraffic:
    def test_deterministic_given_seed(self, model):
        a = list(dynamic_traffic(model, 4, 2, steps=50, seed=9))
        b = list(dynamic_traffic(model, 4, 2, steps=50, seed=9))
        assert a == b

    def test_every_prefix_is_a_legal_assignment(self, model):
        live = {}
        for event in dynamic_traffic(model, 4, 2, steps=200, seed=3):
            if event.kind == "setup":
                assert event.connection_id not in live
                live[event.connection_id] = event.connection
            else:
                assert live.pop(event.connection_id) == event.connection
            # The live set must always be a valid assignment.
            assignment = MulticastAssignment(live.values())
            assert is_valid_assignment(assignment, model, 4, 2)

    def test_connections_respect_model(self, model):
        for event in dynamic_traffic(model, 5, 3, steps=150, seed=11):
            if event.kind == "setup":
                assert is_valid_connection(event.connection, model, 5, 3)

    def test_max_fanout_respected(self, model):
        for event in dynamic_traffic(
            model, 6, 2, steps=100, seed=2, max_fanout=2
        ):
            if event.kind == "setup":
                assert event.connection.fanout <= 2

    def test_teardowns_reference_live_connections(self, model):
        live = set()
        for event in dynamic_traffic(model, 3, 2, steps=150, seed=4):
            if event.kind == "setup":
                live.add(event.connection_id)
            else:
                assert event.connection_id in live
                live.discard(event.connection_id)

    def test_bad_fanout_cap_rejected(self, model):
        with pytest.raises(ValueError):
            list(dynamic_traffic(model, 3, 1, steps=1, seed=0, max_fanout=0))

    def test_msw_connections_single_wavelength(self):
        for event in dynamic_traffic(
            MulticastModel.MSW, 4, 3, steps=80, seed=6
        ):
            if event.kind == "setup":
                wavelengths = {
                    d.wavelength for d in event.connection.destinations
                }
                assert wavelengths == {event.connection.source.wavelength}

    def test_msdw_destinations_uniform(self):
        for event in dynamic_traffic(
            MulticastModel.MSDW, 4, 3, steps=80, seed=6
        ):
            if event.kind == "setup":
                wavelengths = {
                    d.wavelength for d in event.connection.destinations
                }
                assert len(wavelengths) == 1

    def test_source_endpoint_exclusive_while_live(self, model):
        live_sources: dict[int, Endpoint] = {}
        for event in dynamic_traffic(model, 4, 2, steps=200, seed=8):
            if event.kind == "setup":
                assert event.connection.source not in live_sources.values()
                live_sources[event.connection_id] = event.connection.source
            else:
                del live_sources[event.connection_id]


#: the index lists each model's draws read; the others are never built
OWN_LISTS = {
    MulticastModel.MSW: ("inputs", "ports_on"),
    MulticastModel.MSDW: ("inputs", "ports_on"),
    MulticastModel.MAW: ("inputs", "waves_at", "ports_any"),
}
ALL_LISTS = ("inputs", "ports_on", "waves_at", "ports_any")


def _absent(free, model):
    """Whether the index keeps none of the lists ``model`` does not read."""
    return not any(
        hasattr(free, name)
        for name in ALL_LISTS
        if name not in OWN_LISTS[model]
    )


class TestFreeEndpoints:
    """Endpoints go in as ints: the source code ``port * k + wavelength``
    and the destination ports with one wavelength each."""

    def test_starts_all_free(self):
        for model in (MulticastModel.MSW, MulticastModel.MSDW):
            free = FreeEndpoints(3, 2, model)
            assert free.model is model
            assert free.inputs == list(range(6))
            assert free.ports_on == [[0, 1, 2], [0, 1, 2]]
            assert _absent(free, model)
        free = FreeEndpoints(3, 2, MulticastModel.MAW)
        assert free.inputs == list(range(6))
        assert free.waves_at == [[0, 1], [0, 1], [0, 1]]
        assert free.ports_any == [0, 1, 2]
        assert _absent(free, MulticastModel.MAW)

    def test_take_then_release_restores_every_list(self):
        for model in MulticastModel:
            free = FreeEndpoints(3, 2, model)
            fresh = FreeEndpoints(3, 2, model)
            if model is MulticastModel.MAW:
                # source (1, 1) -> destinations (0, 1) and (2, 0)
                free.take(3, [0, 2], [1, 0])
                assert free.waves_at == [[0], [0, 1], [1]]
                free.take(0, [0], [0])
                assert free.ports_any == [1, 2]
                free.release(0, [0], [0])
                free.release(3, [0, 2], [1, 0])
            else:
                # source (1, 1) -> destinations (0, 1) and (2, 1)
                free.take(3, [2, 0], [1, 1])
                assert free.ports_on == [[0, 1, 2], [1]]
                free.take(0, [0], [0])
                assert free.ports_on == [[1, 2], [1]]
                free.release(0, [0], [0])
                free.release(3, [2, 0], [1, 1])
            assert free.inputs == fresh.inputs
            for name in OWN_LISTS[model]:
                assert getattr(free, name) == getattr(fresh, name)

    def test_double_take_and_double_release_are_rejected(self):
        for model in MulticastModel:
            free = FreeEndpoints(3, 2, model)
            with pytest.raises(ValueError, match="already free"):
                free.release(3, [0], [1])
            free.take(3, [0], [1])
            with pytest.raises(ValueError, match="not free"):
                free.take(3, [0], [1])
            with pytest.raises(ValueError, match="not free"):
                free.take(2, [0], [1])
            with pytest.raises(ValueError, match="already free"):
                free.release(2, [1], [1])

    def test_one_pass_update_rejects_what_port_by_port_does(self):
        """A connection's ports past a seventh of its wavelength's list
        update it in one pass; a busy, free or repeated port still
        raises the port-by-port error naming that endpoint."""
        model = MulticastModel.MSW
        free = FreeEndpoints(8, 1, model)
        free.take(0, [5, 1, 3, 2, 4], [0] * 5)
        assert free.ports_on == [[0, 6, 7]]
        with pytest.raises(ValueError, match=r"\(1, 0\) is not free"):
            FreeEndpoints(8, 1, model).take(0, [1, 2, 3, 1, 4], [0] * 5)
        with pytest.raises(ValueError, match=r"\(3, 0\) is not free"):
            free.take(1, [0, 6, 3, 7], [0] * 4)
        free = FreeEndpoints(8, 1, model)
        free.take(0, [5, 1, 3, 2, 4], [0] * 5)
        with pytest.raises(ValueError, match=r"\(0, 0\) is already free"):
            free.release(0, [5, 1, 0, 2, 4], [0] * 5)
        free = FreeEndpoints(8, 1, model)
        free.take(0, [5, 1, 3, 2, 4], [0] * 5)
        free.release(0, [4, 2, 3, 1, 5], [0] * 5)
        assert free.ports_on == [list(range(8))]


class TestPortPickerContract:
    """A ``pick_ports`` hook must return ``fanout`` distinct eligible ports.

    ``draw_connection`` checks the hook's list before it touches the
    index, so a hook that breaks the contract fails with one error that
    states it, instead of a connection with fewer destinations than the
    drawn fanout or an ``IndexError`` from deep in the index.
    """

    @staticmethod
    def run(pick_ports, model=MulticastModel.MSW):
        return list(
            dynamic_traffic(
                model, 6, 2, steps=20, seed=1, pick_ports=pick_ports
            )
        )

    @pytest.mark.parametrize(
        "pick_ports",
        [
            lambda rng, eligible, fanout: [eligible[0]] * fanout,
            lambda rng, eligible, fanout: list(eligible[: max(1, fanout - 1)]),
            lambda rng, eligible, fanout: [99] * fanout,
        ],
        ids=["repeated", "short", "out-of-range"],
    )
    def test_broken_hook_rejected(self, model, pick_ports):
        with pytest.raises(ValueError, match="pick_ports must return"):
            self.run(pick_ports, model)

    def test_busy_port_rejected(self):
        """An in-range port whose wavelength is taken is not eligible."""
        free = FreeEndpoints(3, 1, MulticastModel.MSW)
        free.take(0, [1], [0])
        with pytest.raises(ValueError, match="pick_ports must return"):
            draw_connection(
                random.Random(0), free, 1,
                pick_ports=lambda rng, eligible, fanout: [1],
            )

    def test_sampling_hook_matches_the_default_draw(self, model):
        """The check draws no random bits: a hook that samples like the
        default gives the default stream."""
        assert self.run(
            lambda rng, eligible, fanout: rng.sample(eligible, fanout), model
        ) == self.run(None, model)

    @pytest.mark.parametrize(
        "config",
        [HotspotConfig(zipf_s=1.5), HeavyTailFanoutConfig(alpha=0.9)],
        ids=lambda c: c.workload,
    )
    def test_built_in_hooks_pass(self, model, config):
        events = config.events(
            model, 9, 2, steps=400, rng=stream_rng(2), max_fanout=None
        )
        assert sum(1 for _ in events) == 400


def _recorded_indexes(monkeypatch):
    """Every FreeEndpoints the generators build from now on."""
    made = []

    class Recording(FreeEndpoints):
        __slots__ = ()

        def __init__(self, n_ports, k, model):
            super().__init__(n_ports, k, model)
            made.append(self)

    monkeypatch.setattr(generators, "FreeEndpoints", Recording)
    monkeypatch.setattr(erlang, "FreeEndpoints", Recording)
    return made


class TestIndexMatchesPlainSets:
    """The index's lists against sets the test updates from the events.

    Long streams reach saturated and draining states the pinned
    digests never see, and a ``pick_ports`` hook that mutates the live
    list it is handed shows up as a list that no longer matches.  The
    v(3,70,m,63) endpoint space runs at full fanout, where most setups
    and teardowns rebuild their wavelength's port list in one pass,
    and at ``max_fanout=2``, where every one updates port by port.
    """

    @pytest.mark.parametrize(
        "config",
        [UniformConfig(), HotspotConfig(zipf_s=1.5),
         PoissonErlangConfig(offered_erlangs=6.0)],
        ids=lambda c: c.workload,
    )
    @pytest.mark.parametrize(
        "shape",
        [(9, 2, None, 2000), (12, 3, 2, 2000), (16, 1, None, 2000),
         (210, 63, None, 80), (210, 63, 2, 80)],
    )
    def test_lists_equal_sorted_sets_after_every_event(
        self, model, config, shape, monkeypatch
    ):
        n_ports, k, max_fanout, steps = shape
        made = _recorded_indexes(monkeypatch)
        free_inputs = set(range(n_ports * k))
        # the free output endpoints (port, wavelength), by each key
        ports_on = [set(range(n_ports)) for _ in range(k)]
        waves_at = [set(range(k)) for _ in range(n_ports)]
        events = 0
        for event in config.events(
            model, n_ports, k,
            steps=steps, rng=stream_rng(5), max_fanout=max_fanout,
        ):
            connection = event.connection
            source = connection.source.port * k + connection.source.wavelength
            if event.kind == "setup":
                free_inputs.remove(source)
                for d in connection.destinations:
                    ports_on[d.wavelength].remove(d.port)
                    waves_at[d.port].remove(d.wavelength)
            else:
                free_inputs.add(source)
                for d in connection.destinations:
                    ports_on[d.wavelength].add(d.port)
                    waves_at[d.port].add(d.wavelength)
            (free,) = made
            assert free.inputs == sorted(free_inputs)
            if model is MulticastModel.MAW:
                assert free.waves_at == [sorted(w) for w in waves_at]
                assert free.ports_any == [
                    p for p, waves in enumerate(waves_at) if waves
                ]
            else:
                assert free.ports_on == [sorted(p) for p in ports_on]
            assert _absent(free, model)
            events += 1
        assert events == steps


class TestBelow:
    """``_below`` is ``Random._randbelow``: the value ``randrange``
    returns, and the same bits consumed."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 13230])
    def test_matches_randrange_and_leaves_the_same_state(self, n, antithetic):
        rng, twin = stream_rng(11, antithetic), stream_rng(11, antithetic)
        for _ in range(200):
            assert generators._below(rng.getrandbits, n) == twin.randrange(n)
        assert rng.getstate() == twin.getstate()


class TestSample:
    """``_sample`` is ``Random.sample``: the same list, the same bits spent.

    Every ``k`` from 0 to ``n`` crosses both of the stdlib's branches
    where ``n`` allows: ``n = 22`` samples by rejection at ``k = 5``
    and from a pool at ``k = 6``, where the set's table size jumps;
    ``n = 63`` and ``64`` switch at the same ``k``, and ``n = 210`` at
    ``k = 22``.
    """

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n", [1, 21, 22, 63, 64, 210])
    def test_matches_random_sample_and_leaves_the_same_state(
        self, n, antithetic
    ):
        population = list(range(5, 3 * n + 5, 3))
        for k in range(n + 1):
            rng, twin = stream_rng(k, antithetic), stream_rng(k, antithetic)
            for _ in range(3):
                assert generators._sample(
                    rng.getrandbits, population, k
                ) == twin.sample(population, k)
            assert rng.getstate() == twin.getstate()

    def test_rejects_what_random_sample_rejects(self):
        for k in (-1, 4):
            with pytest.raises(ValueError, match="Sample larger"):
                generators._sample(random.Random(0).getrandbits, [1, 2, 3], k)


class TestBelowOne:
    """``_below_one`` spends the bits of ``count`` ``choice`` calls on a
    one-element list, however many words each call reads."""

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_leaves_the_state_a_per_bit_loop_leaves(self, antithetic):
        top = generators._TOP_WORDS
        for count in [*range(257), top, top + 1, 2 * top + 7]:
            rng = stream_rng(count, antithetic)
            twin = stream_rng(count, antithetic)
            generators._below_one(rng.getrandbits, count)
            for _ in range(count):
                twin.choice((0,))
            assert rng.getstate() == twin.getstate()
