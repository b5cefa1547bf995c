"""The workload registry: discovery, construction, keys and identity.

The registry is the CLI's and facade's single source of truth for
what traffic models exist; these tests pin its error messages (the
CLI surfaces them verbatim), the coercion rules of ``make_workload``,
the tagged-dict round-trip, and -- most load-bearing -- the key
contract: uniform traffic contributes *nothing* to cache/stream keys
(warm caches stay warm), every other workload contributes a token
that can never collide with it.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    TraceConfig,
    UniformConfig,
    WorkloadConfig,
    make_workload,
    workload_class,
    workload_from_dict,
    workload_names,
)
from repro.workloads.base import register_workload
from repro.workloads.keys import key_fragment, schedule_rng, workload_fragment


class TestRegistry:
    def test_the_shipped_models_are_registered(self):
        assert workload_names() == [
            "heavytail_fanout",
            "hotspot",
            "poisson_erlang",
            "trace",
            "uniform",
        ]

    def test_workload_class_resolves_each_name(self):
        for name in workload_names():
            cls = workload_class(name)
            assert issubclass(cls, WorkloadConfig)
            assert cls.workload == name

    def test_unknown_workload_lists_the_registry(self):
        with pytest.raises(ValueError, match="unknown workload 'fractal'"):
            workload_class("fractal")
        with pytest.raises(ValueError, match="heavytail_fanout, hotspot"):
            make_workload("fractal")

    def test_duplicate_tag_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_workload
            class Clash(UniformConfig):
                pass

    def test_configs_are_frozen(self):
        config = HotspotConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.zipf_s = 2.0

    def test_the_adversary_is_no_traffic_field(self):
        """The worst case is a search
        (:func:`repro.multistage.adversary.scan_witnesses`), not a
        workload: no config takes the adversary's settings."""
        with pytest.raises(TypeError):
            UniformConfig(adversarial=True)
        for name in workload_names():
            fields = {f.name for f in dataclasses.fields(workload_class(name))}
            assert not fields & {"adversarial", "adversary_seeds"}


class TestMakeWorkload:
    def test_coerces_cli_strings(self):
        config = make_workload(
            "hotspot", zipf_s="1.5", hot_fraction="0.5", steps="300",
            seeds="0,2,4",
        )
        assert config == HotspotConfig(
            zipf_s=1.5, hot_fraction=0.5, steps=300, seeds=(0, 2, 4)
        )

    def test_typed_values_pass_through(self):
        config = make_workload("heavytail_fanout", alpha=0.9, steps=100)
        assert config == HeavyTailFanoutConfig(alpha=0.9, steps=100)

    def test_unknown_parameter_lists_the_fields(self):
        with pytest.raises(ValueError, match="no parameter 'gamma'"):
            make_workload("hotspot", gamma="3")
        with pytest.raises(ValueError, match="zipf_s"):
            make_workload("hotspot", gamma="3")


class TestTaggedDictRoundTrip:
    CONFIGS = [
        UniformConfig(steps=77, seeds=(1, 2)),
        HotspotConfig(zipf_s=1.7, hot_fraction=0.5, max_fanout=2),
        HeavyTailFanoutConfig(alpha=0.8),
        PoissonErlangConfig(offered_erlangs=9.5, mean_holding=0.5),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.workload)
    def test_as_dict_json_round_trips(self, config):
        payload = json.dumps(config.as_dict())
        assert workload_from_dict(json.loads(payload)) == config

    def test_trace_round_trips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        config = TraceConfig(path=str(path))
        assert workload_from_dict(config.as_dict()) == config

    def test_payload_from_before_the_adversary_split_rebuilds(self):
        """A ``BlockingEstimate.to_json()`` saved while ``adversarial``
        and ``adversary_seeds`` were workload fields (this literal is
        ``api.blocking(2, 2, 2, 1, traffic=HotspotConfig(steps=20,
        seeds=(0,)))`` at that version) still names its traffic."""
        from repro.analysis.montecarlo import BlockingEstimate

        payload = (
            '{"adaptive":null,"attempts":11,"blocked":1,"ci95":'
            '[0.016232172885884827,0.3773584364515956],"construction":'
            '"MSW_DOMINANT","half_width95":0.18056313178285538,"k":1,"m":2,'
            '"meta":"{\\"code_version\\":\\"2\\",\\"kernel\\":\\"bitmask\\",'
            '\\"obs_json\\":null,\\"plan_json\\":\\"{\\\\\\"cache_hits\\\\\\":0,'
            '\\\\\\"dispatched\\\\\\":1,\\\\\\"executor\\\\\\":\\\\\\"serial\\\\\\",'
            '\\\\\\"reason\\\\\\":\\\\\\"\\\\\\",\\\\\\"requested_jobs\\\\\\":1,'
            '\\\\\\"resolved_jobs\\\\\\":1,\\\\\\"units\\\\\\":1}\\",'
            '\\"workload_json\\":\\"{\\\\\\"adversarial\\\\\\":false,'
            '\\\\\\"adversary_seeds\\\\\\":20,\\\\\\"hot_fraction\\\\\\":0.25,'
            '\\\\\\"max_fanout\\\\\\":null,\\\\\\"seeds\\\\\\":[0],'
            '\\\\\\"steps\\\\\\":20,\\\\\\"workload\\\\\\":\\\\\\"hotspot\\\\\\",'
            '\\\\\\"zipf_s\\\\\\":1.2}\\"}","model":"MSW","n":2,"r":2,'
            '"stderr":0.08667841720414475,"x":1}'
        )
        record = BlockingEstimate.from_json(payload).meta.workload
        assert "adversarial" in record
        assert workload_from_dict(record) == HotspotConfig(steps=20, seeds=(0,))

    def test_dict_without_tag_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            workload_from_dict({"steps": 10})


class TestTokens:
    def test_uniform_token_is_none(self):
        # The compatibility anchor: uniform joins no key anywhere, so
        # every pre-workload cache entry and adaptive schedule is
        # still addressed identically.
        assert UniformConfig().token() is None
        assert UniformConfig(steps=123, seeds=(5,)).token() is None

    def test_non_uniform_tokens_carry_tag_and_shape(self):
        assert HotspotConfig(zipf_s=1.5).token() == {
            "workload": "hotspot", "zipf_s": 1.5, "hot_fraction": 0.25,
        }
        assert HeavyTailFanoutConfig().token() == {
            "workload": "heavytail_fanout", "alpha": 1.1,
        }

    def test_tokens_exclude_sampling_surface(self):
        # seeds/steps address the *sample*, not the model;
        # they are already in every key, so the token must not repeat
        # them (identical shapes share warm cache cells across budgets).
        token = HotspotConfig(steps=999, seeds=(7, 8), zipf_s=1.5).token()
        assert token == HotspotConfig(zipf_s=1.5).token()


class TestKeyHelpers:
    def test_key_fragment_matches_the_historical_format(self):
        fragment = key_fragment(dict(n=2, r=3, max_fanout=None))
        assert fragment == "n=2|r=3|max_fanout=None"

    def test_key_fragment_uses_enum_names(self):
        from repro.core.models import Construction, MulticastModel

        fragment = key_fragment(
            dict(construction=Construction.MAW_DOMINANT,
                 model=MulticastModel.MSDW)
        )
        assert fragment == "construction=MAW_DOMINANT|model=MSDW"

    def test_workload_fragment_empty_for_uniform(self):
        assert workload_fragment(None) == ""
        assert workload_fragment(UniformConfig().token()) == ""

    def test_workload_fragment_is_canonical_json(self):
        fragment = workload_fragment({"workload": "hotspot", "zipf_s": 1.5})
        assert fragment.startswith("|workload=")
        assert json.loads(fragment.split("=", 1)[1]) == {
            "workload": "hotspot", "zipf_s": 1.5,
        }

    def test_schedule_rng_is_deterministic(self):
        a = schedule_rng("key", 3, 1).random()
        b = schedule_rng("key", 3, 1).random()
        c = schedule_rng("key", 3, 2).random()
        assert a == b != c
