"""Pin the benchmark's expected outputs in ``bench/golden.json``.

Run from the repository root::

    python3 bench/make_golden.py [--seeds 0 1 ...] [--workloads NAME ...]

Every pin comes from the *reference* path, not the path under test:
the serial ``bitmask`` kernel for the batched workloads, the
``batched`` kernel for ``serial_hotspot``, and the uncanonicalized
search for ``exact_threshold``.  The path under test runs too and must
agree with it, and with the oracle, before anything is written.  The
exact search's state counts are the one pin taken from the path under
test: the reference search counts raw states and the canonical one
symmetry classes, so only verdicts compare; the canonical counts are
pinned because the canonicalization must keep them.

Seeded pins are merged into the existing file (other seeds are kept);
seedless pins are replaced.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import suite  # noqa: E402


def pin(api, workload, seed: int, scratch: Path) -> list[list]:
    reference = workload.reference(api, seed)
    points = workload.points(workload.call(api, seed, workload.begin(scratch)))
    # The exact reference blanks its state counts: compare the verdicts.
    width = 3 if isinstance(workload, suite.Exact) else None
    agree = [p[:width] for p in points] == [p[:width] for p in reference]
    if not agree or any(workload.oracle(p) for p in points):
        raise SystemExit(
            f"{workload.name} seed {seed}: path under test disagrees with the "
            f"reference or the oracle\n  tested:    {points}\n  reference: {reference}"
        )
    return points


def dump(golden: dict) -> str:
    """Indented JSON with each point on one line."""
    text = json.dumps(golden, indent=1)
    return re.sub(
        r"\[\s+([^\[\]]*?)\s+\]",
        lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]",
        text,
    ) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--workloads", nargs="+", choices=sorted(suite.WORKLOADS),
                        default=list(suite.WORKLOADS))
    args = parser.parse_args(argv)
    import repro.api as api

    golden = (
        json.loads(suite.GOLDEN.read_text())
        if suite.GOLDEN.exists()
        else {"seeded": {}, "seedless": {}}
    )
    with tempfile.TemporaryDirectory(dir=suite.GOLDEN.parent) as tmp:
        for name in args.workloads:
            workload = suite.WORKLOADS[name]
            if workload.seeded:
                pins = golden["seeded"].setdefault(name, {})
                for seed in args.seeds:
                    pins[str(seed)] = pin(api, workload, seed, Path(tmp) / f"{name}-{seed}")
                    print(f"{name} seed {seed}: {len(pins[str(seed)])} points", flush=True)
                golden["seeded"][name] = dict(sorted(pins.items(), key=lambda kv: int(kv[0])))
            else:
                golden["seedless"][name] = pin(api, workload, 0, Path(tmp) / name)
                print(f"{name}: {len(golden['seedless'][name])} points", flush=True)
    suite.GOLDEN.write_text(dump(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
