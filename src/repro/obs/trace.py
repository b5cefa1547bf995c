"""Structured event tracing: JSONL records for admit / block / release.

While observability is enabled with an active :class:`Tracer`
(see :func:`repro.obs.capture`), every
:meth:`repro.multistage.network.ThreeStageNetwork.connect` /
``disconnect`` emits one record.  Records are flat JSON objects, one
per line (JSONL), so traces stream to disk or a pipe and are grep- and
``jq``-friendly:

* ``admit`` -- the request plus the middle switches and wavelengths it
  was routed onto;
* ``block`` -- the request plus its **cause**, read off the network's
  engine state by
  :meth:`~repro.multistage.network.ThreeStageNetwork.explain_block`:
  which middle switches the request could not enter
  (``first_stage_blocked_mask``), which destination modules no
  available middle could reach, and the classification ``kind`` --
  ``saturated_wavelength`` (MSW-dominant: the source wavelength is busy
  on every first-stage fiber), ``converter_exhaustion`` (MAW-dominant:
  every wavelength on every first-stage fiber is busy, so no converter
  assignment can help), ``full_middles`` (some destination module's
  fibers are saturated on every available middle), or ``no_cover``
  (every module is individually reachable but no <= x middle switches
  cover them all -- the Lemma-4 bound binding);
* ``release`` -- a teardown;
* ``summary`` -- aggregate counts appended by
  :meth:`Tracer.summary_record`; per-cause block counts always sum to
  the blocked total, which is the blocking-probability numerator.

The schema is exported as :data:`TRACE_SCHEMA` and enforced by
:func:`validate_record` (used by the tests and the ``repro trace``
CLI).  Dependency-free by design -- the hot paths import this module
transitively via :mod:`repro.obs`, so it pulls in nothing beyond the
stdlib and the (equally dependency-free) :mod:`repro.engine.kernel`
taxonomy.
"""

from __future__ import annotations

import json
from typing import Any, IO

from repro.engine.kernel import BLOCK_KINDS

__all__ = ["TRACE_SCHEMA", "Tracer", "validate_record"]


#: required fields (and their types) per trace-record event kind
TRACE_SCHEMA: dict[str, dict[str, type | tuple[type, ...]]] = {
    "admit": {
        "event": str,
        "seq": int,
        "connection_id": int,
        "source": list,
        "destinations": list,
        "middles": list,
        "branches": list,
    },
    "block": {
        "event": str,
        "seq": int,
        "source": list,
        "destinations": list,
        "cause": dict,
    },
    "release": {
        "event": str,
        "seq": int,
        "connection_id": int,
    },
    "summary": {
        "event": str,
        "seq": int,
        "attempts": int,
        "admitted": int,
        "blocked": int,
        "released": int,
        "causes": dict,
    },
}

#: required fields of a ``block`` record's ``cause`` object
CAUSE_SCHEMA: dict[str, type | tuple[type, ...]] = {
    "kind": str,
    "x": int,
    "input_module": int,
    "source_wavelength": int,
    "failed_middles_mask": int,
    "first_stage_blocked_mask": int,
    "available_middles_mask": int,
    "destination_modules": list,
    "unreachable_modules": list,
    "per_destination": list,
}

#: the closed set of blocking-cause classifications, defined once by the
#: admission engine (:data:`repro.engine.kernel.BLOCK_KINDS`) so the
#: trace schema can never drift from what the kernels actually emit
CAUSE_KINDS = BLOCK_KINDS


def validate_record(record: Any) -> None:
    """Raise ``ValueError`` unless ``record`` matches :data:`TRACE_SCHEMA`."""
    if not isinstance(record, dict):
        raise ValueError(f"trace record must be an object, got {type(record).__name__}")
    event = record.get("event")
    if event not in TRACE_SCHEMA:
        raise ValueError(f"unknown trace event {event!r}")
    for name, expected in TRACE_SCHEMA[event].items():
        if name not in record:
            raise ValueError(f"{event} record missing field {name!r}")
        if not isinstance(record[name], expected):
            raise ValueError(
                f"{event} record field {name!r} has type "
                f"{type(record[name]).__name__}, expected {expected}"
            )
    if event == "block":
        cause = record["cause"]
        for name, expected in CAUSE_SCHEMA.items():
            if name not in cause:
                raise ValueError(f"block cause missing field {name!r}")
            if not isinstance(cause[name], expected):
                raise ValueError(
                    f"block cause field {name!r} has type "
                    f"{type(cause[name]).__name__}, expected {expected}"
                )
        if cause["kind"] not in CAUSE_KINDS:
            raise ValueError(f"unknown blocking-cause kind {cause['kind']!r}")
    if event == "summary":
        if sum(record["causes"].values()) != record["blocked"]:
            raise ValueError(
                "summary per-cause counts do not sum to the blocked total"
            )


class Tracer:
    """Collects trace records in memory and/or streams them as JSONL.

    Args:
        sink: a writable text stream receiving one JSON object per
            line, or None to only accumulate records in memory.
        keep_records: retain records on :attr:`records` (default True
            when ``sink`` is None, else False -- long traces should
            stream, not accumulate).
    """

    def __init__(
        self, sink: IO[str] | None = None, *, keep_records: bool | None = None
    ):
        self.sink = sink
        self.keep = keep_records if keep_records is not None else sink is None
        self.records: list[dict[str, Any]] = []
        self.seq = 0
        self.admitted = 0
        self.blocked = 0
        self.released = 0
        #: block count per cause ``kind``
        self.cause_counts: dict[str, int] = {}

    def emit(self, record: dict[str, Any]) -> None:
        """Stamp ``record`` with a sequence number and record/stream it."""
        record["seq"] = self.seq
        self.seq += 1
        event = record.get("event")
        if event == "admit":
            self.admitted += 1
        elif event == "block":
            self.blocked += 1
            kind = record["cause"]["kind"]
            self.cause_counts[kind] = self.cause_counts.get(kind, 0) + 1
        elif event == "release":
            self.released += 1
        if self.keep:
            self.records.append(record)
        if self.sink is not None:
            self.sink.write(json.dumps(record, separators=(",", ":")) + "\n")

    def summary_record(self) -> dict[str, Any]:
        """The aggregate ``summary`` record for everything emitted so far.

        Per-cause block counts sum to ``blocked`` by construction --
        the invariant the ``repro trace`` acceptance check relies on.
        """
        return {
            "event": "summary",
            "attempts": self.admitted + self.blocked,
            "admitted": self.admitted,
            "blocked": self.blocked,
            "released": self.released,
            "causes": dict(sorted(self.cause_counts.items())),
        }

    def close(self, *, summary: bool = True) -> None:
        """Emit the summary record (optional) and flush the sink."""
        if summary:
            self.emit(self.summary_record())
        if self.sink is not None and hasattr(self.sink, "flush"):
            self.sink.flush()
