"""Outside-in layer ledger: spans recorded around the repo's entry points.

Nothing under ``src/`` knows it is being traced.  :func:`install`
replaces each target with a recording wrapper, with ``setattr``, at the
module or class attribute its caller actually looks up at call time,
and the returned undo callable puts the originals back.

Two kinds of record keep the tracing cheap enough to trust:

* **spans** -- one record per call (name, start, end, parent span,
  traced-call id) for the coarse boundaries: the ``api`` root, sweeper
  waves, work units, ``compile_stream`` and ``make_state``;
* **timers** -- per-event calls (``draw_connection``, ``try_connect``,
  cache ``lookup``/``put``, ...) are summed per parent span into
  ``[calls, inclusive seconds, self seconds, successes, work]`` instead
  of kept one by one.

Per-lane calls (``probe_cover``, ``allocate``, ``free``) are never
wrapped: at ~190k calls per sweep the wrapper cost would swamp the
replay it is meant to measure.  Their counts are derived from unit
results instead (see :func:`layer_metrics`).

A frame's self time is its duration minus the durations of the frames
opened directly inside it, spans and timers alike, so the self times
of one traced call add up to its wall time.
"""

from __future__ import annotations

import importlib
import pickle
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

SPAN = "span"
TIMER = "timer"


class Recorder:
    """In-memory spans and per-parent timers of the traced calls.

    ``clock`` is injectable so the self-time arithmetic can be tested
    on a synthetic tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.call = -1
        #: coarse records, in the order they closed
        self.spans: list[dict[str, Any]] = []
        #: (name, parent span id) -> [calls, total_s, self_s, ok, work]
        self.timers: dict[tuple[str, int | None], list] = {}
        # open frames: [name, start, child seconds, span id or None]
        self._stack: list[list] = []
        self._span_ids: list[int] = []
        self._next_id = 0

    def begin_call(self) -> None:
        """Start a new traced call; its spans share the new call id."""
        self.call += 1

    def enter(self, name: str, kind: str) -> list:
        span_id = None
        if kind == SPAN:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        if span_id is not None:
            self._span_ids.append(span_id)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list, ok: bool = False, work: dict | None = None) -> None:
        end = self.clock()
        name, start, child_s, span_id = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self._span_ids.pop()
            self.spans.append({
                "id": span_id,
                "name": name,
                "parent": self._span_ids[-1] if self._span_ids else None,
                "call": self.call,
                "start": start,
                "end": end,
                "self_s": duration - child_s,
                "work": work or {},
            })
            return
        key = (name, self._span_ids[-1] if self._span_ids else None)
        slot = self.timers.get(key)
        if slot is None:
            slot = self.timers[key] = [0, 0.0, 0.0, 0, {}]
        slot[0] += 1
        slot[1] += duration
        slot[2] += duration - child_s
        if ok:
            slot[3] += 1
        if work:
            for field, value in work.items():
                slot[4][field] = slot[4].get(field, 0) + value

    def totals(self) -> defaultdict[str, dict[str, Any]]:
        """Per layer name: calls, inclusive and self seconds, ok, work.

        A layer that recorded nothing reads as all zeros.
        """
        out: defaultdict[str, dict[str, Any]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ok": 0, "work": {}}
        )

        def add_work(into: dict, work: dict) -> None:
            for field, value in work.items():
                into[field] = into.get(field, 0) + value

        for span in self.spans:
            entry = out[span["name"]]
            entry["calls"] += 1
            entry["total_s"] += span["end"] - span["start"]
            entry["self_s"] += span["self_s"]
            add_work(entry["work"], span["work"])
        for (name, _), (calls, total_s, self_s, ok, work) in self.timers.items():
            entry = out[name]
            entry["calls"] += calls
            entry["total_s"] += total_s
            entry["self_s"] += self_s
            entry["ok"] += ok
            add_work(entry["work"], work)
        return out

    def dump(self) -> dict[str, Any]:
        """The trace as JSON-ready data."""
        return {
            "spans": self.spans,
            "timers": [
                {
                    "name": name, "parent": parent, "calls": calls,
                    "total_s": total_s, "self_s": self_s, "ok": ok,
                    "work": work,
                }
                for (name, parent), (calls, total_s, self_s, ok, work)
                in self.timers.items()
            ],
        }


# -- what gets wrapped -------------------------------------------------------


def _not_none(args: tuple, result: Any) -> tuple[bool, None]:
    return result is not None, None


def _cache_hit(args: tuple, result: Any) -> tuple[bool, None]:
    return bool(result[0]), None


def _stored_bytes(args: tuple, result: Any) -> tuple[bool, dict]:
    # ResultCache.put(self, key, value) writes exactly this pickle.
    size = len(pickle.dumps(args[2], protocol=pickle.HIGHEST_PROTOCOL))
    return True, {"bytes": size}


def _stream_events(args: tuple, result: Any) -> tuple[bool, dict]:
    return True, {"events": len(result)}


def _unit_lanes(args: tuple, result: Any) -> tuple[bool, dict]:
    # One (m, (attempts, blocked)) row per lockstep lane: every lane
    # probes a cover for every setup and allocates for every admit.
    setups = sum(attempts for _, (attempts, _) in result)
    blocked = sum(b for _, (_, b) in result)
    return True, {"lanes": len(result), "setups": setups, "admits": setups - blocked}


def _states(args: tuple, result: Any) -> tuple[bool, dict]:
    return True, {"states": result.states_explored}


@dataclass(frozen=True)
class Target:
    """One wrapped symbol: ``layer`` is recorded for ``module.attribute``."""

    layer: str
    module: str
    attribute: str
    kind: str
    note: Callable[[tuple, Any], tuple[bool, dict | None]] | None = None

    @property
    def symbol(self) -> str:
        return f"{self.module}.{self.attribute}"


#: Every call site the ledger hooks, at the name the caller looks up.
TARGETS: tuple[Target, ...] = (
    Target("api.sweep", "repro.api", "sweep", SPAN),
    Target("api.exact_m", "repro.api", "exact_m", SPAN),
    Target("perf.sweeper.run", "repro.perf.sweeper", "ParallelSweeper.run", SPAN),
    Target("perf.batch.simulate_batch", "repro.analysis.montecarlo",
           "simulate_batch", SPAN, _unit_lanes),
    Target("perf.batch.simulate_batch", "repro.perf.adaptive",
           "simulate_batch", SPAN, _unit_lanes),
    Target("analysis.montecarlo.cell", "repro.analysis.montecarlo",
           "_traffic_cell", SPAN),
    Target("multistage.exhaustive.is_blockable", "repro.multistage.exhaustive",
           "is_blockable", SPAN, _states),
    Target("perf.batch.compile_stream", "repro.perf.batch", "compile_stream",
           SPAN, _stream_events),
    Target("engine.backends.make_state", "repro.perf.batch", "make_state", SPAN),
    Target("switching.generators.draw_connection", "repro.switching.generators",
           "draw_connection", TIMER, _not_none),
    Target("multistage.network.try_connect", "repro.multistage.network",
           "ThreeStageNetwork.try_connect", TIMER, _not_none),
    Target("multistage.network.disconnect", "repro.multistage.network",
           "ThreeStageNetwork.disconnect", TIMER),
    Target("multistage.network.connect", "repro.multistage.network",
           "ThreeStageNetwork.connect", TIMER),
    Target("multistage.network.canonical_signature", "repro.multistage.network",
           "ThreeStageNetwork.canonical_signature", TIMER),
    Target("perf.cache.lookup", "repro.perf.cache", "ResultCache.lookup",
           TIMER, _cache_hit),
    Target("perf.cache.put", "repro.perf.cache", "ResultCache.put",
           TIMER, _stored_bytes),
)


def _wrapper(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    name, kind, note = target.layer, target.kind, target.note
    enter, exit_ = recorder.enter, recorder.exit

    def traced(*args: Any, **kwargs: Any) -> Any:
        frame = enter(name, kind)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            exit_(frame)
            raise
        if note is None:
            exit_(frame, True)
        else:
            ok, work = note(args, result)
            exit_(frame, ok, work)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def _resolve(target: Target) -> tuple[Any, str]:
    """The object owning ``target``'s attribute, and the attribute name."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError as exc:
        raise LookupError(
            f"ledger target {target.symbol} (layer {target.layer}): "
            f"module {target.module} cannot be imported: {exc}"
        ) from None
    *path, attribute = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attribute):
        raise LookupError(
            f"ledger target {target.symbol} (layer {target.layer}) no longer "
            "exists; update bench/ledger.py TARGETS to the new call site"
        )
    return owner, attribute


def install(recorder: Recorder, targets: Iterable[Target] = TARGETS) -> Callable[[], None]:
    """Wrap every target; returns the undo callable.

    Raises :class:`LookupError` naming the symbol if any target is
    gone, before anything is wrapped.
    """
    resolved = [(target, *_resolve(target)) for target in targets]
    originals = []
    for target, owner, attribute in resolved:
        original = getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, _wrapper(recorder, target, original))

    def undo() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return undo


def check_participation(totals: dict[str, dict], layers: Sequence[str]) -> None:
    """Raise naming every layer expected to run that recorded no calls."""
    silent = [layer for layer in layers if not totals.get(layer, {}).get("calls")]
    if silent:
        symbols = sorted({t.symbol for t in TARGETS if t.layer in silent})
        raise LookupError(
            "ledger layers recorded zero calls on a workload they take part "
            f"in: {', '.join(silent)} (wrapped at {', '.join(symbols)}); the "
            "call path moved -- update bench/ledger.py TARGETS"
        )


# -- layer metrics -------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: layers reported as calls per traced call and as a share of wall time
COUNTED = (
    "switching.generators.draw_connection",
    "perf.batch.compile_stream",
    "engine.backends.make_state",
    "multistage.network.try_connect",
    "multistage.network.connect",
    "multistage.network.disconnect",
    "multistage.network.canonical_signature",
    "perf.cache.lookup",
    "perf.cache.put",
    "perf.sweeper.run",
)
#: layers reported as a share only
SHARED = (
    "analysis.montecarlo.cell",
    "multistage.exhaustive.is_blockable",
    "api.sweep",
    "api.exact_m",
)


def layer_metrics(recorder: Recorder, calls: int) -> dict[str, float]:
    """The per-layer metrics of ``calls`` traced calls.

    Counts are per traced call.  A ``share`` is the layer's self time
    over the traced wall time (the root spans' summed durations); the
    replay's share is the work units' self time, i.e. ``simulate_batch``
    minus its ``compile_stream`` and ``make_state`` children.  Rates
    divide work by time: inclusive time for ``compile_stream`` events
    and exhaustive states, the units' self time for lane events.
    """
    totals = recorder.totals()
    wall = sum(s["end"] - s["start"] for s in recorder.spans if s["parent"] is None)
    metrics = {f"{layer}.calls": totals[layer]["calls"] / calls for layer in COUNTED}
    metrics.update(
        {f"{layer}.share": _ratio(totals[layer]["self_s"], wall) for layer in COUNTED + SHARED}
    )

    # Lane events: each unit replays its compiled stream once per lane.
    events_of: dict[int, int] = {}
    for span in recorder.spans:
        if span["name"] == "perf.batch.compile_stream":
            events_of[span["parent"]] = events_of.get(span["parent"], 0) + span["work"]["events"]
    lane_events = sum(
        span["work"]["lanes"] * events_of.get(span["id"], 0)
        for span in recorder.spans
        if span["name"] == "perf.batch.simulate_batch"
    )
    unit = totals["perf.batch.simulate_batch"]
    setups = unit["work"].get("setups", 0)
    admits = unit["work"].get("admits", 0)
    compile_ = totals["perf.batch.compile_stream"]
    blockable = totals["multistage.exhaustive.is_blockable"]
    states = blockable["work"].get("states", 0)
    draw = totals["switching.generators.draw_connection"]
    try_connect = totals["multistage.network.try_connect"]
    lookup = totals["perf.cache.lookup"]
    metrics.update({
        "switching.generators.draw_connection.yield": _ratio(draw["ok"], draw["calls"]),
        "perf.batch.compile_stream.events_per_s": _ratio(
            compile_["work"].get("events", 0), compile_["total_s"]
        ),
        "perf.batch.replay.share": _ratio(unit["self_s"], wall),
        "perf.batch.replay.lane_events_per_s": _ratio(lane_events, unit["self_s"]),
        "engine.kernel.probe_cover.calls": setups / calls,
        "engine.kernel.probe_cover.cover_ratio": _ratio(admits, setups),
        "engine.state.allocate.calls": admits / calls,
        "multistage.network.try_connect.admit_ratio": _ratio(
            try_connect["ok"], try_connect["calls"]
        ),
        "multistage.exhaustive.states": states / calls,
        "multistage.exhaustive.states_per_s": _ratio(states, blockable["total_s"]),
        "perf.cache.lookup.hit_ratio": _ratio(lookup["ok"], lookup["calls"]),
        "perf.cache.put.bytes": totals["perf.cache.put"]["work"].get("bytes", 0) / calls,
    })
    return metrics
