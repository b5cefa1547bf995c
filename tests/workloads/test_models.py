"""The shipped workload models: determinism, feasibility and shape.

Every workload must produce a well-formed traffic stream (the same
contract ``compile_stream`` assumes: unique setup ids, teardowns of
live connections, feasible endpoints) and must be a pure function of
its RNG stream.  ``uniform`` additionally carries the compatibility
contract of the whole redesign: bit-identical events to the
historical generator for golden seeds.  The non-uniform models get
distribution-shape assertions -- the point of shipping them is that
they are *not* uniform.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core.models import MulticastModel
from repro.switching.generators import dynamic_traffic
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    UniformConfig,
    make_workload,
    workload_class,
    workload_names,
)
from repro.workloads.keys import stream_rng
from tests.workloads.test_stream_pins import stream_digest

GOLDEN_SEEDS = (0, 7, 12345)
STEPS = 250

#: sha256 stream digests (see test_stream_pins) of the historical
#: uniform generator at N=9, k=2, STEPS events, per (model, seed,
#: antithetic); computed once and written in, so the uniform contract
#: is checked against fixed values, not against itself
LEGACY_DIGESTS = {
    ("MSW", 0, False): "287689cc701b0b1562585025e2d2f384dbb589062033b6e334ae158a0800eaf8",
    ("MSW", 0, True): "615f9e11706fc2d874bd6dc1c93aeec7c5867e97bd5d9230e328c907ab2d0ee5",
    ("MSW", 7, False): "95dd2c7e4da7ddb3ef955756fba2593a479da51556b59042f3cdad16feaa3d9b",
    ("MSW", 7, True): "db5009531d17c78211d43b13321a0a393aa5c49ead7eddf2ad9bac668e71aebc",
    ("MSW", 12345, False): "4b5c3edb5d32b2c4ad74a57e52fd4bac5e590d25a4febd0fea2c6d4061c0507b",
    ("MSW", 12345, True): "6cf0408cce577a78020e7c081fd36d9232308e7a9bebd0553b6ed5374da3412d",
    ("MSDW", 0, False): "e33e6f70671a94d641465b981ff872f0172c9d92cb523e0ffa05a2e3cadca889",
    ("MSDW", 0, True): "8ee4efab3cf6ca516461ffedbcaa0b543a609a83466fb08c26241f42a3f53c10",
    ("MSDW", 7, False): "3d7459a9f775eded84530513204c8b548444893a99ef9d0e0cb6f05c101e0ad6",
    ("MSDW", 7, True): "ffec242aa7e008ef59677b487f2f14c90fac6ee584b5c647e9e0580ef2dcdfd9",
    ("MSDW", 12345, False): "ca836f2364561b3c6c80ce0b9e23e08c14cd470c82e1f35e7b475ff6000a8268",
    ("MSDW", 12345, True): "6a0c46c1604772ede02de268279ca3b39cbcf42ac9ccc8ccfad123e711fa8eb2",
    ("MAW", 0, False): "76eb32a8207468e7df0c2ef8b903815abf302d8ceb1f468e657cc3b94ee2d91b",
    ("MAW", 0, True): "a6701336507b794c7dcac3af37960f6cfeb11946e59201cac7363edf1a1ef0ee",
    ("MAW", 7, False): "fc18a9373cba825e8164741fe6a026be9beceb194014df523a48cd4ea046539a",
    ("MAW", 7, True): "b97f28a0d4fd396dfab2b0bb917ec365bf2254154c20dfb39309b07f641265b6",
    ("MAW", 12345, False): "1e3471c78d5a84b181c05076aea8f64ec2fb8def9213529c2d5afe2fc8e0f9eb",
    ("MAW", 12345, True): "e36d3454a1937b065e45f346efd27eb0e362856f202d0d8e2eaa1b1da79bc207",
}

GENERATIVE = [
    UniformConfig(),
    HotspotConfig(zipf_s=1.5),
    HeavyTailFanoutConfig(alpha=0.9),
    PoissonErlangConfig(offered_erlangs=6.0),
]


def draw(config, model, n_ports=9, k=2, seed=0, steps=STEPS, max_fanout=None):
    return list(
        config.events(
            model, n_ports, k,
            steps=steps, rng=stream_rng(seed), max_fanout=max_fanout,
        )
    )


def assert_well_formed(events, model, n_ports, k, max_fanout=None):
    """The stream contract compile_stream and the serial cell assume.

    Input and output endpoints are distinct spaces (a port code names
    an input endpoint on the source side and an output endpoint on the
    destination side), so freedom is tracked per side.
    """
    free_inputs = {code for code in range(n_ports * k)}
    free_outputs = {code for code in range(n_ports * k)}
    live: dict[int, tuple[int, list[int]]] = {}
    for event in events:
        if event.kind == "setup":
            assert event.connection_id not in live
            connection = event.connection
            source = connection.source.port * k + connection.source.wavelength
            ports = [d.port for d in connection.destinations]
            assert len(ports) == len(set(ports)), "duplicate destination port"
            if max_fanout is not None:
                assert len(ports) <= max_fanout
            if model is MulticastModel.MSW:
                assert all(
                    d.wavelength == connection.source.wavelength
                    for d in connection.destinations
                )
            elif model is MulticastModel.MSDW:
                assert len({d.wavelength for d in connection.destinations}) == 1
            outputs = [
                d.port * k + d.wavelength for d in connection.destinations
            ]
            assert source in free_inputs, "input endpoint not free at setup"
            free_inputs.discard(source)
            for code in outputs:
                assert code in free_outputs, "output endpoint not free at setup"
                free_outputs.discard(code)
            live[event.connection_id] = (source, outputs)
        else:
            source, outputs = live.pop(event.connection_id)
            free_inputs.add(source)
            free_outputs.update(outputs)
    assert len(events) > 0


class TestUniformBitIdentity:
    @pytest.mark.parametrize("model", list(MulticastModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_events_equal_the_legacy_generator(self, model, seed, antithetic):
        legacy = list(
            dynamic_traffic(
                model, 9, 2, steps=STEPS, seed=stream_rng(seed, antithetic)
            )
        )
        fresh = list(
            UniformConfig().events(
                model, 9, 2,
                steps=STEPS, rng=stream_rng(seed, antithetic), max_fanout=None,
            )
        )
        assert fresh == legacy
        pin = LEGACY_DIGESTS[(model.value, seed, antithetic)]
        assert stream_digest(fresh) == pin

    def test_max_fanout_passes_through(self):
        legacy = list(
            dynamic_traffic(
                MulticastModel.MAW, 9, 1,
                steps=STEPS, seed=stream_rng(3), max_fanout=2,
            )
        )
        fresh = draw(UniformConfig(), MulticastModel.MAW, 9, 1, seed=3,
                     max_fanout=2)
        assert fresh == legacy


class TestEveryModel:
    @pytest.mark.parametrize("config", GENERATIVE, ids=lambda c: c.workload)
    @pytest.mark.parametrize("model", list(MulticastModel), ids=lambda m: m.value)
    def test_streams_are_well_formed(self, config, model):
        events = draw(config, model)
        assert_well_formed(events, model, 9, 2)

    @pytest.mark.parametrize("config", GENERATIVE, ids=lambda c: c.workload)
    def test_streams_are_deterministic(self, config):
        assert draw(config, MulticastModel.MAW) == draw(
            config, MulticastModel.MAW
        )

    @pytest.mark.parametrize("config", GENERATIVE, ids=lambda c: c.workload)
    def test_max_fanout_is_respected(self, config):
        events = draw(config, MulticastModel.MAW, 12, 1, max_fanout=2)
        assert_well_formed(events, MulticastModel.MAW, 12, 1, max_fanout=2)

    def test_every_registered_generative_model_is_covered(self):
        covered = {config.workload for config in GENERATIVE}
        assert covered == set(workload_names()) - {"trace"}
        for name in covered:
            assert workload_class(name) in {type(c) for c in GENERATIVE}


def setup_events(events):
    return [e for e in events if e.kind == "setup"]


class TestHotspotShape:
    @staticmethod
    def _hot_preference(config, n_ports=12, hot=3, steps=800):
        """P(setup touches a hot port | >=1 hot and >=1 cold port free).

        Conditioning on availability matters: in steady state the hot
        output endpoints are saturated (they are popular!), so the
        *carried* destination mix converges toward uniform -- the skew
        lives in what gets picked when there is a choice.
        """
        events = list(
            config.events(
                MulticastModel.MAW, n_ports, 1,
                steps=steps, rng=stream_rng(0), max_fanout=1,
            )
        )
        free = set(range(n_ports))
        live = {}
        trials = hits = 0
        for event in events:
            if event.kind == "setup":
                ports = [d.port for d in event.connection.destinations]
                hot_free = any(p < hot for p in free)
                cold_free = any(p >= hot for p in free)
                if hot_free and cold_free:
                    trials += 1
                    hits += any(p < hot for p in ports)
                free -= set(ports)
                live[event.connection_id] = ports
            else:
                free.update(live.pop(event.connection_id))
        assert trials > 50
        return hits / trials

    def test_hot_ports_preferred_when_available(self):
        skewed = self._hot_preference(HotspotConfig(zipf_s=2.0,
                                                    hot_fraction=0.25))
        flat = self._hot_preference(UniformConfig())
        assert skewed > flat + 0.1

    def test_differs_from_uniform_with_the_same_stream(self):
        uniform = draw(UniformConfig(), MulticastModel.MAW, 12, 1)
        skewed = draw(HotspotConfig(zipf_s=2.0), MulticastModel.MAW, 12, 1)
        assert uniform != skewed


class TestHeavyTailShape:
    def test_unicast_dominates_unlike_uniform(self):
        # P(F=1) = 1 - 2^-alpha for the truncated Pareto, ~0.5 at
        # alpha=1.1; the uniform draw spreads mass evenly over 1..cap.
        heavy = draw(HeavyTailFanoutConfig(alpha=1.1),
                     MulticastModel.MAW, 16, 1, steps=600)
        flat = draw(UniformConfig(), MulticastModel.MAW, 16, 1, steps=600)

        def unicast_share(events):
            setups = setup_events(events)
            ones = sum(
                1 for e in setups if len(e.connection.destinations) == 1
            )
            return ones / len(setups)

        assert unicast_share(heavy) > unicast_share(flat) + 0.15

    def test_tiny_alpha_clamps_overflowing_draws_to_the_cap(self):
        # At alpha=0.01 most Pareto powers leave float range; such a
        # draw is far above any cap, so it reads as the cap instead of
        # raising OverflowError.
        for seed in range(40):
            events = draw(HeavyTailFanoutConfig(alpha=0.01),
                          MulticastModel.MSW, 9, 2, seed=seed, steps=3000)
            assert len(events) == 3000
            assert all(
                len(e.connection.destinations) <= 9
                for e in setup_events(events)
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            HeavyTailFanoutConfig(alpha=0.0)


class TestPoissonErlangShape:
    def test_arrivals_are_capped_at_steps(self):
        events = draw(PoissonErlangConfig(offered_erlangs=4.0),
                      MulticastModel.MAW, 9, 1, steps=100)
        setups = setup_events(events)
        assert 0 < len(setups) <= 100

    def test_offered_load_drives_concurrency(self):
        def mean_active(erlangs):
            events = draw(PoissonErlangConfig(offered_erlangs=erlangs),
                          MulticastModel.MAW, 12, 2, steps=400)
            active = 0
            samples = []
            for event in events:
                active += 1 if event.kind == "setup" else -1
                samples.append(active)
            return sum(samples) / len(samples)

        assert mean_active(12.0) > mean_active(1.0) + 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="offered_erlangs"):
            PoissonErlangConfig(offered_erlangs=0.0)
        with pytest.raises(ValueError, match="mean_holding"):
            PoissonErlangConfig(mean_holding=-1.0)


class TestHotspotValidation:
    def test_bounds(self):
        with pytest.raises(ValueError, match="zipf_s"):
            HotspotConfig(zipf_s=0.0)
        with pytest.raises(ValueError, match="hot_fraction"):
            HotspotConfig(hot_fraction=0.0)
        with pytest.raises(ValueError, match="hot_fraction"):
            HotspotConfig(hot_fraction=1.5)


class TestStepBudget:
    """A budget of no events is refused, not run as an empty curve."""

    @pytest.mark.parametrize("steps", [0, -3])
    @pytest.mark.parametrize("name", workload_names())
    def test_non_positive_steps_rejected(self, name, steps, tmp_path):
        params = {"path": str(tmp_path / "t.jsonl")} if name == "trace" else {}
        with pytest.raises(ValueError, match="steps must be >= 1"):
            make_workload(name, steps=steps, **params)
        with pytest.raises(ValueError, match="None keeps"):
            make_workload(name, steps=str(steps), **params)

    def test_unset_and_positive_budgets_accepted(self):
        assert UniformConfig().steps is None
        assert UniformConfig(steps=1).steps == 1
        assert PoissonErlangConfig(steps=None).resolved_steps(1500) == 1500

    @pytest.mark.parametrize(
        "traffic",
        [
            lambda: UniformConfig(steps=0, seeds=(0,)),
            lambda: UniformConfig(steps=-3, seeds=(0,)),
            lambda: PoissonErlangConfig(steps=-1, seeds=(0,)),
        ],
        ids=["uniform-0", "uniform-neg3", "erlang-neg1"],
    )
    def test_batched_sweep_never_returns_a_silent_curve(self, traffic):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            api.sweep(
                2, 2, 1, [1, 2], traffic=traffic(),
                search=api.SearchConfig(kernel="batched"),
            )
