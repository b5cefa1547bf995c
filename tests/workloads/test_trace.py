"""Trace recording and replay: the round-trip and its guard rails.

``trace-gen`` writes a stream, ``TraceConfig`` replays it; the
round-trip must be event-for-event identical to running the recorded
workload live.  The loader is the trust boundary -- trace files come
from outside the seed machinery -- so malformed files, infeasible
events and length mismatches must fail loudly with the file position,
and a trace can never satisfy a precision target (one recording has
no fresh replication streams).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import api
from repro.core.models import MulticastModel
from repro.workloads import (
    HotspotConfig,
    TraceConfig,
    UniformConfig,
    generate_trace,
    load_trace,
    write_trace,
)
from repro.workloads.keys import stream_rng

N_PORTS, K, STEPS = 9, 2, 150


def record(tmp_path, name, workload=UniformConfig(), seed=0,
           model=MulticastModel.MAW):
    path = str(tmp_path / name)
    count = generate_trace(
        replace(workload, steps=STEPS), path, model, N_PORTS, K, seed=seed
    )
    return path, count


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["t.jsonl", "t.csv"])
    def test_replay_equals_live_generation(self, tmp_path, name):
        workload = HotspotConfig(zipf_s=1.5)
        path, count = record(tmp_path, name, workload=workload, seed=3)
        live = list(
            workload.events(
                MulticastModel.MAW, N_PORTS, K,
                steps=STEPS, rng=stream_rng(3), max_fanout=None,
            )
        )
        replayed = list(
            TraceConfig(path=path).events(
                MulticastModel.MAW, N_PORTS, K,
                steps=count, rng=stream_rng(99), max_fanout=None,
            )
        )
        assert replayed == live

    def test_write_then_load_is_identity(self, tmp_path):
        path, _ = record(tmp_path, "t.jsonl")
        events = load_trace(path)
        other = str(tmp_path / "copy.csv")
        write_trace(other, events)
        assert load_trace(other) == events

    @pytest.mark.parametrize("name", ["t.jsonl", "t.csv"])
    def test_failed_write_leaves_no_file(self, tmp_path, name):
        path, _ = record(tmp_path, "source.jsonl")
        events = load_trace(path)

        def dies_midway():
            yield from events[:10]
            raise RuntimeError("generation failed")

        target = tmp_path / name
        with pytest.raises(RuntimeError, match="generation failed"):
            write_trace(str(target), dies_midway())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["source.jsonl"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path, _ = record(tmp_path, "t.jsonl")
        events = load_trace(path)

        def dies_at_once():
            raise RuntimeError("generation failed")
            yield

        with pytest.raises(RuntimeError):
            write_trace(path, dies_at_once())
        assert load_trace(path) == events

    @pytest.mark.parametrize("name", ["t.jsonl", "t.csv"])
    def test_rerecording_onto_the_source_path(self, tmp_path, name):
        path, count = record(tmp_path, name, seed=2)
        events = load_trace(path)
        assert generate_trace(
            TraceConfig(path=path), path, MulticastModel.MAW, N_PORTS, K,
            seed=0,
        ) == count
        assert load_trace(path) == events

    def test_resolved_steps_defaults_to_the_trace_length(self, tmp_path):
        path, count = record(tmp_path, "t.jsonl")
        config = TraceConfig(path=path)
        assert config.resolved_steps(10_000) == count


class TestGuardRails:
    def test_requires_a_path(self):
        with pytest.raises(ValueError, match="path"):
            TraceConfig()

    def test_recording_needs_the_config_steps(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(ValueError, match="set steps on its config"):
            generate_trace(
                UniformConfig(), str(path), MulticastModel.MAW, N_PORTS, K,
                seed=0,
            )
        assert not path.exists()

    def test_overlong_steps_reports_both_counts(self, tmp_path):
        path, count = record(tmp_path, "t.jsonl")
        config = TraceConfig(path=path)
        with pytest.raises(ValueError, match=f"{count} events"):
            list(
                config.events(
                    MulticastModel.MAW, N_PORTS, K,
                    steps=count + 50, rng=stream_rng(0), max_fanout=None,
                )
            )

    def test_malformed_line_reports_the_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "setup"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:"):
            load_trace(str(path))

    def test_teardown_of_unknown_connection_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "teardown", "id": 7}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:1"):
            load_trace(str(path))

    def test_infeasible_event_rejected_at_replay(self, tmp_path):
        # A legal 9-port recording replayed on a 2-port fabric.
        path, count = record(tmp_path, "t.jsonl")
        config = TraceConfig(path=path)
        with pytest.raises(ValueError):
            list(
                config.events(
                    MulticastModel.MAW, 2, 1,
                    steps=count, rng=stream_rng(0), max_fanout=None,
                )
            )


@pytest.mark.parametrize("kernel", ["bitmask", "batched"])
class TestEmptyRecording:
    """An empty trace is refused, not run as a curve of 0-attempt cells."""

    def empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        return api.TraceConfig(path=str(path))

    def test_sweep_refused(self, tmp_path, kernel):
        with pytest.raises(ValueError, match=r"empty\.jsonl: the trace has no"):
            api.sweep(
                2, 2, 1, [1, 2], traffic=self.empty(tmp_path),
                search=api.SearchConfig(kernel=kernel),
            )

    def test_blocking_refused(self, tmp_path, kernel):
        with pytest.raises(ValueError, match=r"empty\.jsonl: the trace has no"):
            api.blocking(
                2, 2, 1, 1, traffic=self.empty(tmp_path),
                search=api.SearchConfig(kernel=kernel),
            )


class TestPrecisionRejection:
    def test_validate_precision_names_the_event_count(self, tmp_path):
        path, count = record(tmp_path, "t.jsonl")
        config = TraceConfig(path=path)
        with pytest.raises(ValueError, match=f"{count} events"):
            config.validate_precision(api.PrecisionConfig(), count)

    def test_api_blocking_rejects_precision_plus_trace(self, tmp_path):
        path, count = record(tmp_path, "t.jsonl")
        with pytest.raises(ValueError, match=f"{count} events"):
            api.blocking(
                3, 3, 2, K,
                model=MulticastModel.MAW,
                traffic=TraceConfig(path=path),
                execution=api.ExecConfig(precision=api.PrecisionConfig()),
            )


class TestIdentity:
    def test_token_is_content_addressed(self, tmp_path):
        path_a, _ = record(tmp_path, "a.jsonl", seed=0)
        path_b, _ = record(tmp_path, "b.jsonl", seed=0)
        path_c, _ = record(tmp_path, "c.jsonl", seed=1)
        token = TraceConfig(path=path_a).token()
        assert token is not None and token["workload"] == "trace"
        # Same content, different path: same digest (the cache key
        # follows the recording, not where it happens to live).
        assert token["digest"] == TraceConfig(path=path_b).token()["digest"]
        assert token["digest"] != TraceConfig(path=path_c).token()["digest"]

    def test_replay_through_the_api_matches_the_recorded_workload(
        self, tmp_path
    ):
        workload = HotspotConfig(zipf_s=1.5, steps=STEPS, seeds=(5,))
        path = str(tmp_path / "t.jsonl")
        generate_trace(workload, path, MulticastModel.MAW, 9, 1, seed=5)
        live = api.blocking(
            3, 3, 2, 1, model=MulticastModel.MAW,
            traffic=HotspotConfig(zipf_s=1.5, steps=STEPS, seeds=(5,)),
        )
        replayed = api.blocking(
            3, 3, 2, 1, model=MulticastModel.MAW,
            traffic=TraceConfig(path=path),
        )
        assert (replayed.attempts, replayed.blocked) == (
            live.attempts, live.blocked,
        )
