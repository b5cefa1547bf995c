"""Trace replay: a recorded event stream drives every kernel identically.

Traces are flat files -- JSONL (one event object per line) or CSV,
chosen by extension -- produced by ``wdm-repro trace-gen`` (or any
external tool speaking the schema):

JSONL::

    {"kind": "setup", "id": 0, "source": [2, 0],
     "destinations": [[5, 0], [7, 0]]}
    {"kind": "teardown", "id": 0}

CSV (header required; destinations are ``port:wavelength`` pairs
joined by ``;``; teardown rows leave source/destinations empty)::

    kind,id,source_port,source_wavelength,destinations
    setup,0,2,0,5:0;7:0
    teardown,0,,,

Loading validates the guaranteed-legality contract the batched replay
depends on -- endpoints free at setup, ids live at teardown -- and
:meth:`TraceConfig.ops` additionally checks every setup against the
requested fabric and multicast model before converting it to an
int-level op, so a trace can never silently drive a kernel outside its
admission semantics.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, ClassVar

from repro.core.models import MulticastModel
from repro.switching.generators import SETUP, TEARDOWN, TrafficEvent, TrafficOp
from repro.switching.requests import Endpoint, MulticastConnection
from repro.workloads.base import WorkloadConfig, register_workload

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.perf.adaptive import PrecisionConfig

__all__ = [
    "TraceConfig",
    "generate_trace",
    "load_trace",
    "write_trace",
]


def _parse_jsonl(path: str) -> Iterator[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_no}: not a JSON object ({error})"
                ) from None
            record["_line"] = line_no
            yield record


def _parse_csv(path: str) -> Iterator[dict[str, Any]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for line_no, row in enumerate(reader, start=2):
            record: dict[str, Any] = {
                "kind": (row.get("kind") or "").strip(),
                "id": int(row["id"]),
                "_line": line_no,
            }
            if record["kind"] == "setup":
                record["source"] = [
                    int(row["source_port"]), int(row["source_wavelength"])
                ]
                record["destinations"] = [
                    [int(part) for part in pair.split(":")]
                    for pair in (row.get("destinations") or "").split(";")
                    if pair.strip()
                ]
            yield record


@lru_cache(maxsize=8)
def _load_trace_cached(
    path: str, _mtime_ns: int, _size: int
) -> tuple[TrafficEvent, ...]:
    """Parse + validate one trace file (cached by path/mtime/size)."""
    records = _parse_csv(path) if path.endswith(".csv") else _parse_jsonl(path)
    events: list[TrafficEvent] = []
    live: dict[int, MulticastConnection] = {}
    busy_inputs: set[Endpoint] = set()
    busy_outputs: set[Endpoint] = set()
    for record in records:
        line_no = record.get("_line", "?")
        kind = record.get("kind")
        connection_id = record.get("id")
        if kind not in ("setup", "teardown") or not isinstance(
            connection_id, int
        ):
            raise ValueError(
                f"{path}:{line_no}: expected a setup/teardown record "
                f"with an integer id, got {kind!r}/{connection_id!r}"
            )
        if kind == "teardown":
            if connection_id not in live:
                raise ValueError(
                    f"{path}:{line_no}: teardown of connection "
                    f"{connection_id}, which is not live at this point"
                )
            connection = live.pop(connection_id)
            busy_inputs.discard(connection.source)
            busy_outputs.difference_update(connection.destinations)
            events.append(TrafficEvent("teardown", connection, connection_id))
            continue
        if connection_id in live:
            raise ValueError(
                f"{path}:{line_no}: connection id {connection_id} set up "
                "twice without an intervening teardown"
            )
        try:
            source = Endpoint(*record["source"])
            destinations = [
                Endpoint(*pair) for pair in record["destinations"]
            ]
        except (KeyError, TypeError) as error:
            raise ValueError(
                f"{path}:{line_no}: malformed setup record ({error})"
            ) from None
        if not destinations:
            raise ValueError(
                f"{path}:{line_no}: setup with no destinations"
            )
        if source in busy_inputs:
            raise ValueError(
                f"{path}:{line_no}: source endpoint {source} is already "
                "in use -- the trace is not a feasible event sequence"
            )
        clashes = busy_outputs.intersection(destinations)
        if clashes or len(set(destinations)) != len(destinations):
            raise ValueError(
                f"{path}:{line_no}: destination endpoint(s) "
                f"{sorted(clashes) or destinations} already in use -- "
                "the trace is not a feasible event sequence"
            )
        connection = MulticastConnection(source, destinations)
        live[connection_id] = connection
        busy_inputs.add(source)
        busy_outputs.update(destinations)
        events.append(TrafficEvent("setup", connection, connection_id))
    return tuple(events)


def load_trace(path: str) -> tuple[TrafficEvent, ...]:
    """Parse and feasibility-validate a JSONL/CSV trace file."""
    stat = os.stat(path)
    return _load_trace_cached(os.fspath(path), stat.st_mtime_ns, stat.st_size)


@lru_cache(maxsize=8)
def _digest_cached(path: str, _mtime_ns: int, _size: int) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()[:16]


def _digest(path: str) -> str:
    """Content digest of the trace file (its cache-key identity)."""
    stat = os.stat(path)
    return _digest_cached(os.fspath(path), stat.st_mtime_ns, stat.st_size)


@register_workload
@dataclass(frozen=True)
class TraceConfig(WorkloadConfig):
    """Replay of a recorded JSONL/CSV trace file.

    The same fixed event sequence drives every kernel and fabric, so a
    single recorded stream (from ``wdm-repro trace-gen`` or an external
    source) is a cross-kernel regression vector.  The replication
    ``rng`` is deliberately unused -- a trace has no randomness left --
    which is why ``seeds`` defaults to a single replication and
    precision-targeted (adaptive) runs are rejected: every round would
    re-walk the identical recording and the Wilson interval would
    silently collapse around a single sample.

    :meth:`ops` converts each event of the loaded, validated
    recording to an int-level op, after checking every setup against
    the requested fabric and model.  The cache/stream-key token is the
    file's *content digest*, not its path: editing a trace invalidates
    cached results, moving it does not.

    Attributes:
        path: the trace file (``.csv`` parses as CSV, anything else as
            JSONL).
        steps: optional prefix length; None replays the whole trace,
            and values beyond the recording raise with the event count.
    """

    path: str = ""
    seeds: tuple[int, ...] = (0,)

    workload: ClassVar[str] = "trace"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.path:
            raise ValueError(
                "trace workload needs a path "
                "(e.g. --workload-param path=trace.jsonl)"
            )

    def ops(
        self,
        model: MulticastModel,
        n_ports: int,
        k: int,
        *,
        steps: int,
        rng: random.Random,
        max_fanout: int | None,
    ) -> Iterator[TrafficOp]:
        del rng  # a recording has no randomness left to draw
        events = load_trace(self.path)
        if steps > len(events):
            raise ValueError(
                f"trace {self.path} has {len(events)} events, "
                f"but {steps} were requested; shorten steps or record a "
                "longer trace"
            )
        cap = n_ports if max_fanout is None else min(max_fanout, n_ports)
        for index, event in enumerate(events[:steps]):
            connection = event.connection
            if event.kind == "setup":
                self._check_event(event, model, n_ports, k, cap, index)
                tag = SETUP
            else:
                tag = TEARDOWN
            source = connection.source
            destinations = sorted(connection.destinations)
            yield (
                tag,
                event.connection_id,
                source.port * k + source.wavelength,
                [destination.port for destination in destinations],
                [destination.wavelength for destination in destinations],
            )

    def _check_event(
        self,
        event: TrafficEvent,
        model: MulticastModel,
        n_ports: int,
        k: int,
        cap: int,
        index: int,
    ) -> None:
        connection = event.connection
        endpoints = [connection.source, *connection.destinations]
        for endpoint in endpoints:
            if not (0 <= endpoint.port < n_ports and 0 <= endpoint.wavelength < k):
                raise ValueError(
                    f"trace {self.path} event {index}: endpoint {endpoint} "
                    f"outside the fabric (N={n_ports}, k={k})"
                )
        if len(connection.destinations) > cap:
            raise ValueError(
                f"trace {self.path} event {index}: fanout "
                f"{len(connection.destinations)} exceeds max_fanout={cap}"
            )
        wavelengths = {d.wavelength for d in connection.destinations}
        if model is MulticastModel.MSW:
            if wavelengths != {connection.source.wavelength}:
                raise ValueError(
                    f"trace {self.path} event {index}: MSW requires all "
                    "endpoints on the source wavelength, got "
                    f"{sorted(wavelengths)} vs {connection.source.wavelength}"
                )
        elif model is MulticastModel.MSDW and len(wavelengths) > 1:
            raise ValueError(
                f"trace {self.path} event {index}: MSDW requires one "
                f"destination wavelength, got {sorted(wavelengths)}"
            )

    def token(self) -> dict[str, Any] | None:
        return {"workload": self.workload, "digest": _digest(self.path)}

    def resolved_steps(self, default: int) -> int:
        if self.steps is not None:
            return self.steps
        return len(load_trace(self.path))

    def validate_precision(
        self, precision: "PrecisionConfig", steps: int
    ) -> None:
        count = len(load_trace(self.path))
        raise ValueError(
            "precision-targeted (adaptive) runs need fresh replication "
            f"streams every round, but trace {self.path} is one fixed "
            f"recording of {count} events -- every round would re-walk "
            "the same stream. Use a fixed seeds budget instead, or "
            "switch to a generative workload."
        )


def write_trace(path: str, events: Iterable[TrafficEvent]) -> int:
    """Write events as a trace file (CSV by extension, else JSONL)."""
    count = 0
    if path.endswith(".csv"):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["kind", "id", "source_port", "source_wavelength",
                 "destinations"]
            )
            for event in events:
                if event.kind == "setup":
                    source = event.connection.source
                    destinations = ";".join(
                        f"{d.port}:{d.wavelength}"
                        for d in event.connection.destinations
                    )
                    writer.writerow(
                        [event.kind, event.connection_id, source.port,
                         source.wavelength, destinations]
                    )
                else:
                    writer.writerow(
                        [event.kind, event.connection_id, "", "", ""]
                    )
                count += 1
    else:
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                if event.kind == "setup":
                    source = event.connection.source
                    record: dict[str, Any] = {
                        "kind": "setup",
                        "id": event.connection_id,
                        "source": [source.port, source.wavelength],
                        "destinations": [
                            [d.port, d.wavelength]
                            for d in event.connection.destinations
                        ],
                    }
                else:
                    record = {"kind": "teardown", "id": event.connection_id}
                handle.write(
                    json.dumps(record, separators=(",", ":")) + "\n"
                )
                count += 1
    return count


def generate_trace(
    workload: WorkloadConfig,
    path: str,
    model: MulticastModel,
    n_ports: int,
    k: int,
    *,
    steps: int,
    seed: int,
    max_fanout: int | None = None,
) -> int:
    """Record one replication of ``workload`` as a trace file.

    The ``wdm-repro trace-gen`` companion: the stream written here,
    replayed through :class:`TraceConfig`, is event-for-event identical
    to running ``workload`` live with the same seed -- which is the
    round-trip property the trace tests assert.  Returns the event
    count.
    """
    from repro.workloads.keys import stream_rng

    events = workload.events(
        model, n_ports, k,
        steps=steps, rng=stream_rng(seed), max_fanout=max_fanout,
    )
    return write_trace(path, events)
