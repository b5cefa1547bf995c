"""The repo benchmark: every workload, end to end and layer by layer.

Run from the repository root::

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T]
                         [--trace 0|1] [--out DIR]

Each workload runs in its own fresh interpreter (``bench/worker.py``),
single-threaded through ``repro.api`` with ``jobs=1``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ledger of
a separate traced run, and leaving ``--trace`` out reports both.  The
metric names, units and bounds are those of ``BENCHMARK.json``.

Prints every metric by name with its unit, writes ``DIR/results.json``
(``bench/compare.py`` compares two of them) and, when tracing, one
``DIR/trace-<workload>.json`` per workload, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when
any checked output point failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402

#: fresh interpreters timed for ``setup_s``
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _python(args: list[str], timeout: float) -> str:
    # A fixed hash seed gives every worker the same dict and set layouts.
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    if done.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:3])} exited {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(name: str, seed: int, out: Path, probes: int = SETUP_PROBES) -> list[float]:
    """Start -> first result of the 1-cell call, in ``probes`` fresh interpreters.

    Every probe starts with an empty scratch directory.  Each time is
    in reference seconds: scaled by the probe's ``HostClock`` factor.
    """
    base = out / "tmp" / f"setup-{name}"
    shutil.rmtree(base, ignore_errors=True)
    args = ["setup", "--workload", name, "--seed", str(seed), "--scratch"]
    try:
        times = []
        for probe in range(probes):
            start = time.monotonic()
            done, scale = json.loads(_python(args + [str(base / str(probe))], PROBE_TIMEOUT_S))
            times.append((done - start) * scale)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return times


def summary(values: list[float]) -> dict:
    """Median and quartiles with the sample count (at least 2 values)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(child: dict, setup: list[float]) -> dict:
    run = summary(child["samples"])
    events = child["events"]
    return {
        "run_s": dict(run, samples=child["samples"]),
        "events_per_s": {
            "value": events / run["value"],
            "q1": events / run["q3"],
            "q3": events / run["q1"],
            "n": run["n"],
        },
        "setup_s": summary(setup),
        "peak_rss_mib": {"value": child["peak_rss_mib"], "q1": child["peak_rss_mib"],
                         "q3": child["peak_rss_mib"], "n": 1},
    }


def select(declared: list[dict], produced: dict) -> dict:
    """The declared metrics, with units; refuses a missing or extra name."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(produced):
        raise BenchError(
            "metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(names) - set(produced))}, undeclared "
            f"{sorted(set(produced) - set(names))}"
        )
    out = {}
    for metric in declared:
        value = produced[metric["name"]]
        entry = dict(value) if isinstance(value, dict) else {"value": value}
        entry["unit"] = metric["unit"]
        out[metric["name"]] = entry
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int | None, out: Path) -> dict:
    declared = spec()
    child = json.loads(_python(
        ["measure", "--workload", name, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0" if trace == 0 else "1", "--out", str(out)],
        CHILD_TIMEOUT_S,
    ))
    record = {
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failed_share": child["failed"] / child["attempted"],
        "checked_against": child["checked_against"],
        # wall seconds per reference second: how slow the host ran
        "host_slowdown": statistics.median(child["wall_samples"])
        / statistics.median(child["samples"]),
        "meta": child["meta"],
    }
    if trace != 1:
        setup = setup_seconds(name, seed, out)
        record["end_to_end"] = select(declared["end_to_end"], end_to_end(child, setup))
    if trace != 0:
        record["per_layer"] = select(declared["per_layer"], child["per_layer"])
    return record


def commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, read from ``.git``."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS),
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only (default: both)")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(suite.WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.out)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    meta = dict(results[names[0]]["meta"], commit=commit())
    for record in results.values():
        del record["meta"]
    (args.out / "results.json").write_text(json.dumps({
        "meta": meta, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workloads": results,
    }, indent=1))

    metrics = {}
    for name, record in results.items():
        for group in ("end_to_end", "per_layer"):
            for metric, entry in record.get(group, {}).items():
                spread = f"  q1 {entry['q1']:.6g} q3 {entry['q3']:.6g} n={entry['n']}" if "n" in entry else ""
                print(f"{name:16} {metric:46} {entry['value']:>14.6g} {entry['unit']}{spread}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
        print(f"{name:16} {'failed_share':46} {record['failed_share']:>14.6g} ratio"
              f"  ({record['failed']}/{record['attempted']} points, vs {record['checked_against']})")
        print(f"{name:16} {'host_slowdown':46} {record['host_slowdown']:>14.6g} ratio"
              f"  (wall s per reference s)")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
