"""Tests for the CI benchmark-regression guard."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    Path(__file__).resolve().parent.parent
    / "tools"
    / "check_bench_regression.py",
)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)


def report(quick=True, **speedups):
    out = {"meta": {"quick": quick}}
    for name, speedup in speedups.items():
        out[name] = {"speedup": speedup, "identical": True}
    return out


GUARDED = dict(
    engine=2.5,
    wide=9.0,
    workloads=10.0,
    topology=1.0,
    adaptive=2.5,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run(tmp_path, baseline, fresh):
    argv = [
        "--baseline", str(write(tmp_path, "baseline.json", baseline)),
        "--fresh", str(write(tmp_path, "fresh.json", fresh)),
        "--output", str(tmp_path / "diff.json"),
    ]
    code = check.main(argv)
    return code, json.loads((tmp_path / "diff.json").read_text())


class TestVerdicts:
    def test_identical_reports_pass(self, tmp_path):
        code, diff = run(tmp_path, report(**GUARDED), report(**GUARDED))
        assert code == 0 and diff["ok"]

    def test_small_drop_tolerated(self, tmp_path):
        fresh = report(**dict(GUARDED, engine=2.5 * 0.9))
        code, diff = run(tmp_path, report(**GUARDED), fresh)
        assert code == 0
        assert diff["sections"]["engine"]["regressed"] is False

    def test_large_drop_fails(self, tmp_path):
        fresh = report(**dict(GUARDED, workloads=10.0 * 0.8))
        code, diff = run(tmp_path, report(**GUARDED), fresh)
        assert code == 1
        assert diff["regressions"] == ["workloads"]

    def test_unguarded_drop_ignored(self, tmp_path):
        baseline = report(cache=500.0, **GUARDED)
        fresh = report(cache=5.0, **GUARDED)
        code, diff = run(tmp_path, baseline, fresh)
        assert code == 0
        assert diff["sections"]["cache"]["guarded"] is False

    def test_missing_guarded_section_fails(self, tmp_path):
        fresh = report(**{k: v for k, v in GUARDED.items() if k != "wide"})
        code, diff = run(tmp_path, report(**GUARDED), fresh)
        assert code == 1
        assert diff["missing_guarded_sections"] == ["wide"]

    def test_new_section_without_baseline_passes(self, tmp_path):
        fresh = report(batched=18.0, **GUARDED)
        code, diff = run(tmp_path, report(**GUARDED), fresh)
        assert code == 0
        assert diff["sections"]["batched"]["baseline_speedup"] is None

    def test_diff_shows_both_sides_when_the_slow_side_got_faster(
        self, tmp_path, capsys
    ):
        """A ratio that fell because its reference side sped up: the
        verdict is unchanged, and the diff names which side moved."""
        baseline = report(**GUARDED)
        baseline["workloads"].update(serial_s=2.078, batched_s=0.155)
        fresh = report(**dict(GUARDED, workloads=5.76))
        fresh["workloads"].update(serial_s=0.892, batched_s=0.155, note_s="x")
        code, diff = run(tmp_path, baseline, fresh)
        assert code == 1 and diff["regressions"] == ["workloads"]
        entry = diff["sections"]["workloads"]
        assert entry["baseline_s"] == {"serial_s": 2.078, "batched_s": 0.155}
        assert entry["fresh_s"] == {"serial_s": 0.892, "batched_s": 0.155}
        assert diff["sections"]["engine"]["fresh_s"] == {}
        out = capsys.readouterr().out
        assert "serial_s 2.078 -> 0.892s  batched_s 0.155 -> 0.155s" in out

    def test_mode_mismatch_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="mode mismatch"):
            run(tmp_path, report(quick=True, **GUARDED),
                report(quick=False, **GUARDED))


class TestSpeedupFloor:
    """The ``min_speedup`` absolute floor (the adaptive event-ratio gate)."""

    def test_meeting_the_floor_passes(self, tmp_path):
        fresh = report(**GUARDED)
        fresh["adaptive"]["min_speedup"] = 2.0
        code, diff = run(tmp_path, report(**GUARDED), fresh)
        assert code == 0
        assert diff["floor_failures"] == []

    def test_below_the_floor_fails_even_without_baseline_drop(self, tmp_path):
        # Baseline also at 1.5: no relative regression, but the declared
        # floor is not met -- the absolute contract gates regardless.
        baseline = report(**dict(GUARDED, adaptive=1.5))
        fresh = report(**dict(GUARDED, adaptive=1.5))
        fresh["adaptive"]["min_speedup"] = 2.0
        code, diff = run(tmp_path, baseline, fresh)
        assert code == 1
        assert diff["floor_failures"] == ["adaptive"]
        assert diff["sections"]["adaptive"]["below_floor"] is True

    def test_floor_ignored_on_unguarded_sections(self, tmp_path):
        fresh = report(cache=1.0, **GUARDED)
        fresh["cache"]["min_speedup"] = 5.0
        code, diff = run(tmp_path, report(**GUARDED), fresh)
        assert code == 0
        assert diff["floor_failures"] == []


class TestCommittedBaseline:
    def test_baseline_is_a_quick_report_with_guarded_sections(self):
        baseline = json.loads(
            (
                Path(__file__).resolve().parent.parent
                / "benchmarks"
                / "BENCH_baseline_quick.json"
            ).read_text()
        )
        assert baseline["meta"]["quick"] is True
        for name in check.GUARDED_SECTIONS:
            assert baseline[name]["identical"] is True
            # Identity-only sections (topology) pin their speedup at
            # exactly 1.0 by construction.
            assert baseline[name]["speedup"] >= 1.0
