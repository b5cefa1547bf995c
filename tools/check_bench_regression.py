#!/usr/bin/env python
"""Guard benchmark speedups against regressions.

Compares a freshly generated ``BENCH_perf.json`` against a committed
baseline and fails (exit 1) when any guarded section's *speedup ratio*
fell by more than the threshold (default 15%).

The guarded metric is each section's ``speedup`` -- the ratio of the
slow path's time to the fast path's time *measured in the same process
on the same host*.  Unlike raw seconds, that ratio is largely
machine-independent, so a baseline recorded on one box is meaningful on
a CI runner: if the batch engine used to beat the serial sweep 8x and
now only manages 4x, something in the fast path got slower regardless
of the hardware.  (Absolute end-to-end timings of user workloads are
the job of ``bench/run.py``.)

Writes a ``BENCH_diff.json`` report with per-section baseline/fresh
speedups and relative deltas (all sections, guarded or not), suitable
for uploading as a CI artifact.  Each entry also carries both reports'
top-level ``*_s`` timings of its section (``baseline_s``/``fresh_s``),
which the summary prints beside the ratio: a ratio that fell because
its reference side got faster reads differently from one whose fast
path got slower.

Usage::

    python tools/check_bench_regression.py \
        --fresh BENCH_perf.json \
        --baseline benchmarks/BENCH_baseline_quick.json \
        --output BENCH_diff.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Sections whose speedup regressions fail the build.  The remaining
#: sections (cache, parallel, obs, exact_search, batched over-guard)
#: are reported in the diff but only the kernel-critical paths gate:
#: a slow cache disk or an adaptive-executor fallback is environmental,
#: an admission-kernel slowdown is a code regression.  Sections may
#: also declare an absolute ``min_speedup`` floor enforced regardless
#: of the baseline: ``engine`` floors at 1.0 (the probe_cover shortcut
#: must never lose to the composition it short-circuits), ``wide`` at
#: 3.0 (the batched replay over the serial path wide fabrics were once
#: gated onto) and ``adaptive`` at 2.0 (the matched-precision event
#: ratio).
GUARDED_SECTIONS = (
    "engine",
    "wide",
    "workloads",
    "topology",
    "adaptive",
)

DEFAULT_THRESHOLD = 0.15


def load_report(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: benchmark report not found: {path}")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def section_timings(result: dict) -> dict[str, float]:
    """A section's top-level ``*_s`` timings (its two sides, and any total)."""
    return {
        name: value
        for name, value in result.items()
        if name.endswith("_s") and isinstance(value, (int, float))
    }


def diff_reports(
    baseline: dict, fresh: dict, guarded: tuple[str, ...], threshold: float
) -> dict:
    """Per-section speedup comparison plus the overall verdict."""
    sections = {}
    regressions = []
    floor_failures = []
    for name, result in fresh.items():
        if name == "meta" or not isinstance(result, dict):
            continue
        if "speedup" not in result:
            continue
        entry = {
            "fresh_speedup": result["speedup"],
            "identical": result.get("identical"),
            "guarded": name in guarded,
            "fresh_s": section_timings(result),
        }
        # A section may declare an absolute floor its speedup must meet
        # regardless of the baseline (the ``adaptive`` section floors
        # its matched-precision event ratio at 2x).
        floor = result.get("min_speedup")
        if floor is not None:
            entry["min_speedup"] = floor
            if name in guarded and result["speedup"] < floor:
                entry["below_floor"] = True
                floor_failures.append(name)
        base = baseline.get(name)
        if isinstance(base, dict) and "speedup" in base:
            entry["baseline_speedup"] = base["speedup"]
            entry["baseline_s"] = section_timings(base)
            entry["relative_change"] = (
                result["speedup"] / base["speedup"] - 1.0
            )
            entry["regressed"] = (
                name in guarded and entry["relative_change"] < -threshold
            )
        else:
            # A section the baseline predates cannot regress; record it
            # so the baseline refresh is visible in the artifact.
            entry["baseline_speedup"] = None
            entry["baseline_s"] = None
            entry["relative_change"] = None
            entry["regressed"] = False
        if entry["regressed"]:
            regressions.append(name)
        sections[name] = entry
    missing = [
        name
        for name in guarded
        if name not in sections
    ]
    return {
        "threshold": threshold,
        "guarded_sections": list(guarded),
        "missing_guarded_sections": missing,
        "sections": sections,
        "regressions": regressions,
        "floor_failures": floor_failures,
        "ok": not regressions and not missing and not floor_failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        type=Path,
        default=Path("BENCH_perf.json"),
        help="freshly generated benchmark report",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/BENCH_baseline_quick.json"),
        help="committed baseline report",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_diff.json"),
        help="where to write the diff report",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="maximum tolerated relative speedup drop (default 0.15)",
    )
    parser.add_argument(
        "--sections",
        type=lambda v: tuple(v.split(",")),
        default=GUARDED_SECTIONS,
        help="comma-separated guarded sections",
    )
    args = parser.parse_args(argv)

    baseline = load_report(args.baseline)
    fresh = load_report(args.fresh)
    base_quick = baseline.get("meta", {}).get("quick")
    fresh_quick = fresh.get("meta", {}).get("quick")
    if base_quick != fresh_quick:
        # Quick and full mode size their workloads differently, which
        # shifts the speedup ratios; comparing across modes reports
        # workload mismatch as a fake regression.
        sys.exit(
            "error: benchmark mode mismatch -- baseline quick="
            f"{base_quick}, fresh quick={fresh_quick}; regenerate the "
            "fresh report in the baseline's mode"
        )
    diff = diff_reports(baseline, fresh, args.sections, args.threshold)
    args.output.write_text(json.dumps(diff, indent=2) + "\n")

    for name, entry in diff["sections"].items():
        base = entry["baseline_speedup"]
        change = entry["relative_change"]
        mark = "GUARD" if entry["guarded"] else "     "
        base_s = entry["baseline_s"] or {}
        sides = "".join(
            f"  {side} {base_s[side]:.4g} -> {fresh:.4g}s" if side in base_s
            else f"  {side} {fresh:.4g}s"
            for side, fresh in entry["fresh_s"].items()
        )
        if base is None:
            print(
                f"{mark} {name:15s} {entry['fresh_speedup']:6.2f}x "
                f"(no baseline){sides}"
            )
        else:
            flag = "REGRESSED" if entry["regressed"] else "ok"
            print(
                f"{mark} {name:15s} {base:6.2f}x -> "
                f"{entry['fresh_speedup']:6.2f}x "
                f"({change:+.1%})  [{flag}]{sides}"
            )
    print(f"wrote {args.output}")
    if diff["missing_guarded_sections"]:
        print(
            "FAIL: guarded sections missing from the fresh report: "
            + ", ".join(diff["missing_guarded_sections"])
        )
        return 1
    if diff["regressions"]:
        print(
            f"FAIL: speedup dropped more than {args.threshold:.0%} in: "
            + ", ".join(diff["regressions"])
        )
        return 1
    if diff["floor_failures"]:
        print(
            "FAIL: speedup below the section's declared min_speedup floor "
            "in: " + ", ".join(diff["floor_failures"])
        )
        return 1
    print("all guarded benchmark speedups within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
