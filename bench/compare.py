"""Compare two sets of ``bench/run.py`` results.

    python3 bench/compare.py A B

``A`` and ``B`` are each a ``results.json`` or a directory searched for
them.  With several runs on a side, its value is the median of the
runs' medians and its spread their interquartile range; with one run,
the spread is that run's own quartiles.  One row per (end-to-end
metric, workload), B against A, judged with ``BENCHMARK.json`` bounds:

* ``unresolved`` -- either side's spread, as a share of its median,
  exceeds the bound, so these runs cannot tell;
* ``worse`` / ``better`` -- B's median moved the wrong / right way by
  more than the bound;
* ``same`` -- otherwise.

Exits 1 on any ``worse`` row, or when B's failed share is higher than
A's on any workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no results.json under {path}")
    return [json.loads(f.read_text()) for f in files]


def pooled(runs: list[dict], workload: str, metric: str) -> dict | None:
    """One side's ``{"value", "q1", "q3"}`` for a metric, or None."""
    entries = [
        run["workloads"][workload]["end_to_end"][metric]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("end_to_end", {})
    ]
    if len(entries) < 2:
        return entries[0] if entries else None
    values = [entry["value"] for entry in entries]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3}


def spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, relative change of B's median against A's)``."""
    change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    if spread(a) > bound or spread(b) > bound:
        return "unresolved", change
    worse = change if better == "lower" else -change
    if worse > bound:
        return "worse", change
    if worse < -bound:
        return "better", change
    return "same", change


def failed_share(runs: list[dict], workload: str) -> float:
    return max(
        (run["workloads"][workload]["failed_share"]
         for run in runs if workload in run["workloads"]),
        default=0.0,
    )


def compare(a: list[dict], b: list[dict], metrics: list[dict]) -> tuple[list[tuple], bool]:
    """The table rows, and whether B regressed."""
    rows = []
    regressed = False
    workloads = dict.fromkeys(w for run in a for w in run["workloads"])
    for name in workloads:
        for metric in metrics:
            ea = pooled(a, name, metric["name"])
            eb = pooled(b, name, metric["name"])
            if ea is None or eb is None:
                continue
            call, change = verdict(ea, eb, metric["better"], metric["bound"])
            regressed |= call == "worse"
            rows.append((name, metric["name"], ea["value"], eb["value"], change, call))
        fa, fb = failed_share(a, name), failed_share(b, name)
        if fb > fa:
            regressed = True
            rows.append((name, "failed_share", fa, fb, fb - fa, "worse"))
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows, regressed = compare(load(args.a), load(args.b), metrics)
    print(f"{'workload':16} {'metric':14} {'A':>12} {'B':>12} {'change':>8}  verdict")
    for name, metric, va, vb, change, call in rows:
        print(f"{name:16} {metric:14} {va:>12.6g} {vb:>12.6g} {change:>+8.1%}  {call}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
