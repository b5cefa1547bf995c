#!/usr/bin/env python3
"""Regenerate docs/API.md from the package's public surface.

Walks every subpackage's ``__all__``, pulls the first docstring line of
each exported item, and writes a compact API reference.  Run after
changing public APIs::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

PACKAGES = [
    "repro",
    "repro.combinatorics",
    "repro.core",
    "repro.engine",
    "repro.switching",
    "repro.fabric",
    "repro.multistage",
    "repro.analysis",
    "repro.scheduling",
    "repro.perf",
    "repro.perf.adaptive",
    "repro.workloads",
    "repro.api",
    "repro.obs",
]

#: hand-written notes appended after a package's export table (markdown)
NOTES = {
    "repro.engine": """\
### One admission kernel, many consumers

`repro.engine` is the bottom layer of the simulator stack (see
`docs/ARCHITECTURE.md`): the serial `ThreeStageNetwork`, the lockstep
batch engine, the exhaustive model checker and the adversary all route
their wavelength-availability, converter-budget and Lemma-4 cover
decisions through these kernels, so MSW/MSDW/MAW semantics and the
blocking-cause taxonomy are stated exactly once. There is one API
level: the mask-level functions (`free_middles`, `reach_map`,
`probe_cover`, `classify_kind`, `block_cause`) take plain ints and
blocker rows, the views `PythonState.setup_views` hands out. The serial
network's occupancy is itself a B = 1 `PythonState`, so its
`explain_block` is `block_cause` on that state's views, the same call
the lockstep replay makes.

### One state

Every batched replay runs on the int-bitplane `PythonState`, the same
state the serial network runs on. Python's big ints hold masks of any
width, so wide fabrics need no packing, and the package imports no
numpy.
`repro.engine.backends` is not re-exported: it keeps `make_state`,
which `repro.perf.batch` calls once per work unit so the benchmark
ledger can time it, and `resolve_backend`, which always answers
`"python"` for the benchmark's run metadata. The package ships
`py.typed` and is kept fully typed (`mypy src/repro/engine` in CI).
""",
    "repro.multistage": """\
### Debug checks

`ThreeStageNetwork(..., debug_checks=True)` re-runs
`check_invariants()` after every `connect`/`disconnect`, so any state
leak surfaces at the exact event that caused it. Off by default: the
scan is O(state) per event, far too slow for the Monte-Carlo hot
paths. A run asks for it with `SearchConfig(debug_checks=True)` (or
`--debug-checks` on `blocking`/`sweep`), which is refused with the
batched kernel or a non-Clos fabric, since neither builds the checked
network. Explicit `check_invariants()` calls always run regardless of
the flag; the fuzz tests enable it, the hot paths leave it off.

### Canonicalized exhaustive search

`is_blockable` and `repro.api.exact_m` default to canonicalization
(`SearchConfig(canonicalize=True)`): the
DFS transposition table keys on
`ThreeStageNetwork.canonical_signature()` (invariant under
middle-switch permutation, plus global wavelength relabeling for the
MSW model) and a monotone victim probe replaces the exhaustive
per-request scan. Verdicts are identical to `canonicalize=False` (the
reference search, kept for the property tests); `states_explored`
counts symmetry classes and witnesses may differ but still `replay()`.
`exact_m` also takes `ExecConfig(jobs=...)` (parallel m-candidates) and
`ExecConfig(cache_dir=...)` (a `repro.perf.ResultCache`).

### Routing kernels

The kernel is a per-run argument, `SearchConfig(kernel=...)` on the
`repro.api` facade (`--kernel` on the CLI): `"bitmask"` (the default;
one network per replication) or `"batched"` (the lockstep engine of
`repro.perf.batch`); both use the bitmask cover search and give the
same numbers. Cache addresses and each result's `meta.kernel` record
which one ran; there is no process-wide kernel setting. The
frozenset cover search the bitmask kernel is pinned against lives in the
test suite as an oracle (`tests/multistage/cover_oracle.py`), not in
the runtime.
""",
    "repro.perf": """\
### Executor selection

`ParallelSweeper(jobs)` accepts `jobs=1` (inline, the default), an
explicit worker count, or `"auto"`/`None`/`<= 0` for the effective
CPU count; parallel runs use a process pool. (`ExecConfig` takes
`"auto"` or an int only.) Whatever was requested, the engine falls
back to inline serial execution whenever a pool cannot win -- a
single effective CPU,
a single pending unit, or an explicit `jobs` exceeding the unit count
-- and records what actually ran (executor, resolved worker count,
dispatched units, cache hits, fallback reason) in the `ExecutionPlan`
available as `sweeper.last_plan` (and as each estimate's
`meta.plan`). Pools persist across
one sweeper's `run` calls; `close()` or the context-manager form shuts
them down.

`run(units, cache=..., until=...)` is the one way every sweep stage
runs. `until` is the stop rule of an ordered scan: the results end at
the first unit, in input order, whose value satisfies it. The exact
threshold stops at the first `m` that is not blockable, and each
`m`'s adversary restarts at the first witness. A serial plan --
`jobs=1` or any fallback, a refused pool included -- runs nothing
after the stopping unit; a pool runs every unit and keeps the same
prefix, so every `jobs` value returns the same list. An adversarial
curve's `meta.plan` is its traffic stage's plan.

A fixed-budget curve's unit is one seed's `m` column, which has one
cache entry per cell, so the curve looks its cells up itself, stores a
column's cells through `run(..., on_result=...)` as it finishes, and
passes the seeds whose cells were all cached as
`run(..., cache_hits=n)`: its plan counts one unit per seed, a fully
cached seed as a cache hit.

### Result caching

`ResultCache(directory)` content-addresses each sweep cell by a
SHA-256 digest of (namespace, `CODE_VERSION`, routing-kernel id,
canonical-JSON parameters). `repro.api` verbs take
`ExecConfig(cache_dir=...)`; work units carrying a
`cache_key` are looked up before execution and stored after, so
interrupted or repeated sweeps recompute only missing cells. Writes
are atomic (temp file + `os.replace`); entries that fail to unpickle
are deleted and recomputed. The CLI flags are `--cache` / `--no-cache`
and `--cache-dir DIR` on `blocking` and `exact`. The cache has no
size bound: clear it with `ResultCache.clear()` or by deleting the
directory.

### One spec per curve

`CurveSpec(n, r, k, construction, model, x, steps, workload,
fabric="clos")` names the configuration every cell of one
blocking-vs-m curve shares; a cell is a spec plus `(m, seed)`. It is
frozen and picklable, refuses `steps < 1` and everything
`FabricGeometry` refuses except a bad `m` when it is built, and reads
the fanout cap from `workload.max_fanout`. `compile_stream`,
`simulate_batch`, `replay_cell` and the estimators behind `repro.api`
take one; `geometry(m)` is a cell's `FabricGeometry` and
`key_params(**cell)` its cache-key parameters (the workload and
fabric tokens join only when they are not None).

### Lockstep batch Monte Carlo

`repro.perf.batch` is the engine behind the `"batched"` routing
kernel. A blocking-vs-m sweep replays the *same* traffic per `(m,
seed)` cell, so `compile_stream` compiles each seed's stream once
(traffic is m-independent -- common random numbers) and the engine
replays it through B structure-of-arrays fabric states in lockstep.
`simulate_batch` is the picklable sweeper work unit; `replay_cell`
exposes one replication with `explain_block`-identical causes. The
replay is one event loop over the shared admission kernels of
`repro.engine` on a `PythonState`, where replications that have not
diverged share one state slot and one cover probe per setup, and each
forks onto its own slot at its first block or multi-middle cover. It
is bit-identical to the serial simulator per replication, blocking
causes included.
""",
    "repro.perf.adaptive": """\
### Sequential stopping instead of fixed budgets

`adaptive_sweep` replaces fixed replication counts with a precision
target (a single point is a one-element `m_values`): each
`(m, traffic)` cell runs rounds
of replications until the Wilson score interval on its
`BlockingEstimate` is narrower than `PrecisionConfig.half_width`
(absolute, or relative to the point estimate with
`relative=True`; `zero_half_width` keeps the relative mode's stopping
rule meaningful at p = 0, where a relative target can never be met).
Cheap cells (deep in the nonblocking regime) stop after `min_rounds`;
hard cells keep going to `max_rounds` and report
`converged=False` rather than run forever.  The estimate's
`.adaptive` field records rounds, schedule shape and convergence.

### Variance reduction, deterministically

Each round draws `pairs_per_round` antithetic seed pairs
(`AntitheticRandom` replays the mirrored uniform stream) from
stratified slices of the seed space, keyed by a `stream_key` that
covers the full traffic configuration *except* `m` -- common random
numbers across the whole curve, so neighboring cells share traffic
schedules and their difference is low-variance.  The schedule is a
pure function of (key, round); nothing depends on wall clock,
iteration order or worker count.

### Resumable by construction

With a `ResultCache`, every completed round is stored under a key
covering the cell and the schedule shape -- but *not* the precision
target -- so an interrupted sweep replays warm rounds bit-identically
(`wdm-repro sweep --resume`), and tightening the target reuses every
round already paid for.  `tools/check_resume.py` (CI) SIGKILLs a
sweep under each kernel as soon as its first round entry is published,
and asserts that the resume replayed at least one warm round and that
the resumed table equals an uninterrupted run's byte for byte.

### One round loop

`adaptive_sweep` is one loop over the rounds: look up the active
cells' round keys, run the missing cells in one `ParallelSweeper.run`
call, store each computed round total, and retire the cells that
converged. Every unit replays one round spec's stream against a column
of `m` values and returns `[(m, (attempts, blocked)), ...]`: one unit
per spec covers every pending `m`, replayed in lockstep by
`simulate_batch` under `kernel="batched"` or on one serial network per
`m` by `_traffic_column` under `"bitmask"`.
""",
    "repro.workloads": """\
### The traffic seam

A workload is a frozen config dataclass plus a pure generator: given a
fabric (`model`, `n_ports`, `k`), a `random.Random` stream and an
optional fanout cap, `ops()` yields the guaranteed-legal int-level op
stream `(tag, connection_id, source_code, ports, waves)`.
`compile_stream` folds those ops straight into replay ops without
building a connection object, and `events()`, shared by every model,
yields the same stream as `TrafficEvent` objects for the serial
simulator and the trace writer -- so every registered model runs
unchanged through the serial simulator and the lockstep batch engine,
bit-identically per replication.
`register_workload` adds a model to the registry; the tag becomes a
`--workload` name, a `wdm-repro workloads` row and a
`workload_from_dict` tag with no consumer changes.

### Identity and caching

`token()` is a workload's cache/stream-key identity. `uniform` returns
None -- it joins no key, so every pre-workload cache entry and adaptive
schedule keeps its address (the compatibility anchor). Every other
model returns `{"workload": tag, **shape_params}`, which joins every
traffic-cell cache key, adaptive stream key and round key -- a warm
uniform cache can never answer for skewed traffic. `TraceConfig`'s
token is content-addressed (a digest of the file), so the same
recording at two paths shares cache entries and an edited recording
never aliases the old one.

### Shipped models

`uniform` (the historical generator, bit-identical), `hotspot`
(Zipf-skewed destination popularity over a configurable hot set),
`heavytail_fanout` (truncated-Pareto multicast group sizes),
`poisson_erlang` (continuous-time Poisson arrivals with exponential
holding, offered load in Erlangs) and `trace` (JSONL/CSV replay of a
recorded stream; `wdm-repro trace-gen` writes one, `generate_trace` /
`write_trace` / `load_trace` are the library surface). Traces are one
fixed recording, so combining them with a precision target raises.
""",
    "repro.api": """\
### Typed configs over kwargs sprawl

The three verbs take frozen config dataclasses grouped by concern:
a `repro.workloads.WorkloadConfig` as `traffic=` (steps, seeds, fanout
cap, adversarial probing on the base surface, model shape on each
subclass), `ExecConfig` (jobs, cache directory, precision) and
`SearchConfig` (routing kernel, canonicalization, debug checks).
Results carry a `repro.obs.meta.ResultMeta` provenance envelope
(code version, kernel id, execution plan, obs summary, workload
identity) on `.meta`; the envelope and `BlockingEstimate` both
round-trip through `to_json()`/`from_json()`.

`blocking` and `sweep` accept any registered workload config --
`UniformConfig` (the default), `HotspotConfig`,
`HeavyTailFanoutConfig`, `PoissonErlangConfig`, `TraceConfig` -- and
the estimators, kernels, caches and the adaptive driver treat them
uniformly.

`SearchConfig(kernel="batched")` routes the Monte-Carlo estimators
through the lockstep batch engine (`repro.perf.batch`) -- same numbers,
one compiled-stream replay per seed instead of one serial network per
`(m, seed)` cell. Under either kernel a work unit is one seed's whole
pending `m` column, and the seed's stream is drawn once.
`blocking` is the one-point `sweep`: at that `m` it returns the same
estimate, cache addresses and `meta`.

Configs check their values when they are built: an unknown kernel,
a precision target that is not a positive number (NaN included) or a
repeated seed raises `ValueError` naming the value, and
`sweep` refuses a repeated `m`.

`ExecConfig(precision=PrecisionConfig(...))` switches `blocking` and
`sweep` from the fixed seed list to the adaptive sequential-stopping
driver (`repro.perf.adaptive`): replication rounds continue until the
Wilson interval meets the requested half-width.  Adversarial traffic
has no precision-targeted mode and is rejected with a `ValueError`.

With adversarial traffic, `sweep` derives adversary seeds from the
whole traffic configuration as well as `m`, so two sweeps sharing an
`m` value never replay identical adversary streams.
""",
    "repro.obs": """\
### Zero cost when off

Every hot-path hook guards on `obs.enabled()` -- the bound getter of
a boolean context variable that `capture()` sets and resets beside the
capture, so a guard read is one C call -- and the disabled hooks
return before allocating anything. `tests/obs/test_overhead.py`
asserts zero allocations and counts the guard reads: one per setup and
one per admitted teardown in a serial cell, two per batched work unit.

### One capture per block

`obs.capture()` (or `obs.capture(tracer=obs.Tracer(stream))`) yields a
`Capture`: a fresh metrics registry plus the optional tracer, held in
a context variable for the `with` block. A nested capture records into
its own registry and leaves the outer one intact; a capture in one
thread sees nothing another thread does. `obs.active()` returns the
active capture or None; `ResultMeta` records its summary.

### Tracing blocking causes

With a tracer active, every `connect`/`disconnect` emits one JSONL
record; blocked requests carry the cause `ThreeStageNetwork.explain_block`
reads off the network's engine state (`block_cause`):
`saturated_wavelength`, `converter_exhaustion`, `full_middles` or
`no_cover`, plus the evidence masks. The `summary` record's per-cause
counts always sum to the blocked total -- the blocking-probability
numerator. CLI: `wdm-repro trace fig10 --trace-out -` and
`wdm-repro trace blocking ...`.

### Cross-process metrics

While a capture is active, `ParallelSweeper` worker processes run
each chunk inside their own metrics-only capture and ship its snapshot
back, merged into the caller's capture, so counters from `jobs=N`
process pools equal the serial run's.
""",
}


def first_line(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.strip().splitlines()[0] if doc.strip() else ""
    return line


def describe_package(name: str) -> list[str]:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    summary = first_line(module)
    if summary:
        lines += [summary, ""]
    lines.append("| export | kind | summary |")
    lines.append("|---|---|---|")
    for export in sorted(getattr(module, "__all__", [])):
        member = getattr(module, export)
        if inspect.isclass(member):
            kind = "class"
        elif inspect.isfunction(member):
            kind = "function"
        elif callable(member):
            kind = "callable"
        else:
            kind = type(member).__name__
        lines.append(f"| `{export}` | {kind} | {first_line(member)} |")
    lines.append("")
    if name in NOTES:
        lines += [NOTES[name].rstrip(), ""]
    return lines


def main() -> None:
    out = [
        "# API reference",
        "",
        "_Generated by `tools/gen_api_docs.py`; do not edit by hand._",
        "",
    ]
    for package in PACKAGES:
        out.extend(describe_package(package))
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
