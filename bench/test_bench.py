"""Tests of the benchmark harness: ``PYTHONPATH=src python -m pytest bench -q``.

They drive the harness functions in-process on tiny shapes.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import compare
import ledger
import run
import suite
import worker

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = suite.Sweep(
    "tiny", n=2, r=2, k=1, x=1, m_values=(1, 2, 3, 4, 5), steps=40,
    seeds_per_call=1, kernel="batched", reference_kernel="bitmask", spot_m=(1, 2),
)


@pytest.fixture(scope="module")
def api():
    import repro.api

    return repro.api


@pytest.fixture(scope="module")
def tiny_golden(api):
    return {"seeded": {"tiny": {"0": TINY.reference(api, 0)}}, "seedless": {}}


@pytest.fixture(scope="module")
def traced_report(tmp_path_factory, tiny_golden):
    out = tmp_path_factory.mktemp("out")
    return worker.measure(TINY, 0, 0.05, 1, out, tiny_golden), out


def test_names_are_well_formed_and_unique():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [entry["name"] for group in groups for entry in group]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_workloads_match_the_suite():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)


def test_run_output_maps_one_to_one(traced_report):
    report, out = traced_report
    setup = [0.4, 0.5, 0.6]
    produced = run.select(SPEC["end_to_end"], run.end_to_end(report, setup))
    assert list(produced) == [m["name"] for m in SPEC["end_to_end"]]
    layers = run.select(SPEC["per_layer"], report["per_layer"])
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert (out / "trace-tiny.json").is_file()
    with pytest.raises(run.BenchError, match="undeclared"):
        run.select(SPEC["end_to_end"], dict(run.end_to_end(report, setup), extra=1.0))


def test_correct_run_has_no_failures(traced_report):
    report, _ = traced_report
    assert report["attempted"] >= 5 * 5 and report["failed"] == 0
    assert report["checked_against"] == "golden"


def test_self_time_subtracts_children_on_a_synthetic_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 7.0, 7.5, 9.0, 10.0])
    rec = ledger.Recorder(clock=lambda: next(ticks))
    rec.begin_call()
    root = rec.enter("root", ledger.SPAN)          # 0 .. 10
    a = rec.enter("a", ledger.SPAN)                # 1 .. 4
    t = rec.enter("t", ledger.TIMER)               # 2 .. 3
    rec.exit(t)
    rec.exit(a)
    for _ in range(2):                             # 5 .. 6, 6.5 .. 7
        u = rec.enter("u", ledger.TIMER)
        rec.exit(u, ok=True)
    b = rec.enter("b", ledger.SPAN)                # 7.5 .. 9
    rec.exit(b)
    rec.exit(root)
    totals = rec.totals()
    assert totals["root"]["self_s"] == pytest.approx(10 - 3 - 1.5 - 1.5)
    assert totals["a"]["self_s"] == pytest.approx(2.0)
    assert totals["t"]["self_s"] == pytest.approx(1.0)
    assert totals["u"]["calls"] == 2 and totals["u"]["ok"] == 2
    assert totals["u"]["self_s"] == pytest.approx(1.5)
    assert sum(e["self_s"] for e in totals.values()) == pytest.approx(10.0)
    parents = {s["name"]: s["parent"] for s in rec.spans}
    ids = {s["name"]: s["id"] for s in rec.spans}
    assert parents == {"a": ids["root"], "b": ids["root"], "root": None}


def test_tampered_golden_point_fails(tmp_path, tiny_golden):
    pins = [list(p) for p in tiny_golden["seeded"]["tiny"]["0"]]
    pins[1][2] += 1
    golden = {"seeded": {"tiny": {"0": pins}}, "seedless": {}}
    report = worker.measure(TINY, 0, 0.01, 0, tmp_path, golden)
    assert report["failed"] > 0 and report["failed"] < report["attempted"]


def test_blocking_at_the_theorem_bound_fails():
    assert suite.theorem1_bound(2, 2, 1, 1) == 4
    clean = [[3, 30, 2], [4, 30, 0]]
    assert suite.check(TINY, clean, clean, full=True) == 0
    blocked = [[3, 30, 2], [4, 30, 1]]
    assert suite.check(TINY, blocked, blocked, full=True) == 1


def test_repeated_call_must_match_the_first():
    first = [[1, 30, 5], [2, 30, 1]]
    drifted = [[1, 30, 5], [2, 30, 2]]
    assert suite.check(TINY, drifted, [], full=False, baseline=first) == 1


def test_unicast_threshold_must_be_2n_minus_1():
    exact = suite.WORKLOADS["exact_threshold"]
    assert not exact.oracle(["unicast", "m_exact", 3, None])
    assert exact.oracle(["unicast", "m_exact", 4, None])


def test_unpinned_seed_checks_against_the_reference(tmp_path):
    report = worker.measure(TINY, 7, 0.01, 0, tmp_path, {"seeded": {}, "seedless": {}})
    assert report["failed"] == 0 and report["checked_against"] == "reference"


def test_missing_wrapped_attribute_raises_naming_it():
    gone = ledger.Target("api.gone", "repro.api", "no_such_entry_point", ledger.SPAN)
    with pytest.raises(LookupError, match=r"repro\.api\.no_such_entry_point"):
        ledger.install(ledger.Recorder(), ledger.TARGETS + (gone,))
    import repro.api

    assert not hasattr(repro.api.sweep, "__wrapped__")


class Mislabeled(suite.Sweep):
    """Claims the batched layers but runs the serial kernel."""

    layers = suite.BATCHED_LAYERS


def test_silent_participating_layer_raises_naming_it(tmp_path, tiny_golden):
    mislabeled = Mislabeled(**{**vars(TINY), "kernel": "bitmask"})
    with pytest.raises(LookupError, match="perf.batch.compile_stream"):
        worker.measure(mislabeled, 0, 0.01, 1, tmp_path, tiny_golden)


def test_compare_verdicts():
    def entry(value, spread=0.0):
        return {"value": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2)}

    assert compare.verdict(entry(1.0), entry(1.05), "lower", 0.1)[0] == "same"
    assert compare.verdict(entry(1.0), entry(1.2), "lower", 0.1)[0] == "worse"
    assert compare.verdict(entry(1.0), entry(1.2), "higher", 0.1)[0] == "better"
    assert compare.verdict(entry(1.0, 0.3), entry(1.0), "lower", 0.1)[0] == "unresolved"


def test_compare_pools_runs_and_flags_new_failures():
    def run(value, failed=0.0):
        # Each run's own quartiles are wide; across runs the medians agree.
        e2e = {"run_s": {"value": value, "q1": value * 0.5, "q3": value * 1.5}}
        return {"workloads": {"w": {"failed_share": failed, "end_to_end": e2e}}}

    a = [run(1.0), run(1.02), run(0.98), run(1.01)]
    b = [run(1.5), run(1.52), run(1.48), run(1.51, failed=0.01)]
    metrics = [{"name": "run_s", "better": "lower", "bound": 0.25}]
    rows, regressed = compare.compare(a, b, metrics)
    assert regressed and [row[-1] for row in rows] == ["worse", "worse"]
    rows, regressed = compare.compare(a, a, metrics)
    assert not regressed and [row[-1] for row in rows] == ["same"]
