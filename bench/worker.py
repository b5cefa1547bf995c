"""One workload in one fresh interpreter (started by ``bench/run.py``).

``measure`` mode: import the library (timed), make one warm-up call,
then timed calls until ``--seconds`` have passed -- ``gc.collect()``
before each, the collector disabled during it.  With ``--trace 1``
the timed calls take the first half of ``--seconds`` and traced
calls the second half.  Every time is taken with a :class:`HostClock`.
Every call's points are checked against ``golden.json`` (or, on a
seed it does not pin, against the reference path at the workload's
spot points) and against the first call.  Prints one JSON line.

``setup`` mode: the fresh-interpreter set-up probe.  Imports the
library, makes the workload's 1-cell, 20-step call and prints
``[time.monotonic(), scale]`` as soon as the result is back; the
parent read the same clock just before starting this process, and
``scale`` is the :class:`HostClock` factor of this process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ledger  # noqa: E402
import suite  # noqa: E402

#: fewest timed / traced calls a run makes, however long each takes
MIN_TIMED = 3
MIN_TRACED = 1

#: SIGALRM period while a HostClock runs, and the probe loop's time in
#: that handler on the quiet reference host (a 2-vCPU Xeon VM, Python
#: 3.11), so that reference seconds read close to wall seconds there
PROBE_EVERY_S = 0.005
PROBE_REF_S = 28e-6


def _probe() -> int:
    """A fixed pure-Python loop, the yardstick of host speed."""
    table = {}
    acc = 0
    for i in range(200):
        table[i & 31] = acc
        acc ^= (i * 2654435761) & 0xFFFF
    return acc


class HostClock:
    """Times work in seconds at the reference host's speed.

    The host is a shared VM.  Its speed swings by up to 2x within
    seconds (a busy hyperthread sibling) and drifts over minutes, so a
    raw wall time moves far more between runs than a code change
    would.  While the clock runs, SIGALRM times ``_probe`` every
    ``PROBE_EVERY_S``.  The wall time scaled by the probe's mean speed
    relative to ``PROBE_REF_S`` is the time the same work takes on the
    quiet reference host.  One clock per process: it owns SIGALRM.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.began = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe()
        self.ticks.append(time.perf_counter() - start)

    def start(self) -> None:
        self.ticks.clear()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.began = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """``(wall seconds, reference seconds per wall second)`` since start."""
        wall = time.perf_counter() - self.began
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()  # one probe even when the work was shorter than a period
        return wall, statistics.fmean(PROBE_REF_S / t for t in self.ticks)


def run_calls(workload, api, seed, ctx, clock, seconds, minimum, on_result, before=None):
    """Call the workload until ``seconds`` have passed.

    Returns per-call reference seconds and per-call wall seconds.
    ``before`` runs untimed ahead of each call (the tracer opens a new
    call id there).
    """
    samples, walls = [], []
    deadline = time.perf_counter() + seconds
    while len(samples) < minimum or time.perf_counter() < deadline:
        if before is not None:
            before()
        gc.collect()
        gc.disable()
        try:
            clock.start()
            result = workload.call(api, seed, ctx)
        finally:
            wall, scale = clock.stop()
            gc.enable()
        samples.append(wall * scale)
        walls.append(wall)
        workload.between(ctx)
        on_result(result)
    return samples, walls


def traced_calls(workload, api, seed, ctx, clock, seconds, on_result):
    """Traced calls; returns ``(per-call reference seconds, recorder)``.

    Raises :class:`LookupError` naming the symbol when a wrapped call
    site is gone or a layer the workload takes part in stayed silent.
    """
    recorder = ledger.Recorder()
    undo = ledger.install(recorder)
    try:
        samples, _ = run_calls(
            workload, api, seed, ctx, clock, seconds, MIN_TRACED, on_result,
            before=recorder.begin_call,
        )
    finally:
        undo()
    ledger.check_participation(recorder.totals(), workload.layers)
    return samples, recorder


def measure(workload, seed, seconds, trace, out, golden):
    """Time, trace and check ``workload``; the report as a dict."""
    clock = HostClock()
    clock.start()
    import repro.api as api

    wall, scale = clock.stop()
    import_s = wall * scale
    expected = suite.pinned(golden, workload, seed)
    scratch = out / "tmp" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    seen = Counter()

    def on_result(result):
        seen[json.dumps(workload.points(result))] += 1

    try:
        ctx = workload.begin(scratch)
        first = workload.call(api, seed, ctx)
        on_result(first)
        if workload.cached:
            on_result(workload.call(api, seed, ctx))  # warm: served by the cache
        workload.between(ctx)
        timed_s = seconds / 2 if trace else seconds
        samples, walls = run_calls(
            workload, api, seed, ctx, clock, timed_s, MIN_TIMED, on_result
        )
        report = {
            "workload": workload.name,
            "seed": seed,
            "samples": samples,
            "wall_samples": walls,
            "events": workload.events(first),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if trace:
            traced, recorder = traced_calls(
                workload, api, seed, ctx, clock, seconds - timed_s, on_result
            )
            layers = ledger.layer_metrics(recorder, len(traced))
            adaptive = [e.adaptive for e in first if getattr(e, "adaptive", None)]
            layers["perf.adaptive.rounds"] = sum(a.rounds for a in adaptive)
            layers["perf.adaptive.events"] = sum(a.events for a in adaptive)
            layers["repro.import_s"] = import_s
            layers["trace.run_s"] = statistics.median(traced)
            layers["trace.overhead"] = (
                statistics.median(traced) / statistics.median(samples) - 1.0
            )
            report["per_layer"] = layers
            (out / f"trace-{workload.name}.json").write_text(json.dumps({
                "workload": workload.name, "seed": seed, "calls": len(traced),
                **recorder.dump(),
            }))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    full = expected is not None
    if not full:
        print(
            f"{workload.name}: seed {seed} has no golden pins; checking m in "
            f"{list(workload.spot_m)} against the {workload.reference_kernel} "
            f"reference (pin it with: python3 bench/make_golden.py --seeds {seed})",
            file=sys.stderr,
        )
        expected = workload.reference(api, seed, workload.spot_m)
    baseline = workload.points(first)
    attempted = failed = 0
    for encoded, count in seen.items():
        points = json.loads(encoded)
        attempted += count * len(points)
        failed += count * suite.check(workload, points, expected, full, baseline)
    report.update(
        attempted=attempted,
        failed=failed,
        checked_against="golden" if full else "reference",
        meta=_meta(),
    )
    return report


def setup_probe(workload, seed, scratch):
    """``[monotonic time of the first result, HostClock scale]``."""
    clock = HostClock()
    clock.start()
    import repro.api as api

    tiny = workload.tiny()
    tiny.call(api, seed, tiny.begin(scratch))
    done = time.monotonic()
    return [done, clock.stop()[1]]


def _meta():
    import importlib.util

    from repro.engine.backends import resolve_backend

    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__ if numpy is not None else None,
        "numba": importlib.util.find_spec("numba") is not None,
        "auto_backend": resolve_backend("auto", m_max=1, r=1, k=1),
        "effective_cpus": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--scratch", type=Path)
    args = parser.parse_args(argv)
    workload = suite.WORKLOADS[args.workload]
    if args.mode == "setup":
        print(json.dumps(setup_probe(workload, args.seed, args.scratch)))
    else:
        golden = json.loads(suite.GOLDEN.read_text())
        report = measure(workload, args.seed, args.seconds, args.trace, args.out, golden)
        print(json.dumps(report))


if __name__ == "__main__":
    main()
