"""The single home of seed/stream-key derivation.

Before the workload library, three modules each grew their own copy of
the same idiom: ``perf/adaptive.py`` formatted the round-schedule
stream key by hand, ``analysis/montecarlo.py`` formatted the
adversary-seed fingerprint by hand, and ``switching/generators.py``
owned the per-replication RNG constructor.  Every workload config needs
all three (its identity must enter the keys, its generator must consume
the replication stream), so the derivation now lives here and the
consumers delegate:

* :func:`key_fragment` -- the canonical ``a=1|b=2`` fingerprint of a
  parameter mapping (enums render by ``.name``, exactly the historical
  format, so existing schedule keys and golden adaptive rounds are
  unchanged);
* :func:`workload_fragment` -- the suffix a workload token appends to a
  stream key (empty for uniform traffic: the compatibility anchor);
* :func:`schedule_rng` -- the deterministic per-(key, round, stratum)
  RNG behind :func:`repro.perf.adaptive.round_specs`;
* :func:`require_distinct` -- the check that no ``m`` or seed is
  listed twice (cells are addressed by them);
* :func:`stream_rng` -- re-exported from
  :mod:`repro.switching.generators`: the one constructor that maps a
  ``(seed, antithetic)`` pair to its replication stream.

This module deliberately imports nothing above the generator layer, so
any module (including :mod:`repro.perf.adaptive` and the workload
registry itself) can use it without import cycles.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Iterable
from enum import Enum
from typing import Any, Mapping

from repro.switching.generators import stream_rng

__all__ = [
    "fabric_fragment",
    "key_fragment",
    "require_distinct",
    "schedule_rng",
    "stream_rng",
    "workload_fragment",
]


def require_distinct(name: str, values: Iterable[Any]) -> None:
    """Raise naming every value listed more than once in ``values``.

    Cells are addressed by ``(m, seed)``, so a repeated ``m`` or seed
    names one cell twice; depending on the kernel the sweep would merge
    it, count it twice or refuse it with an internal error.
    """
    repeated = sorted(v for v, count in Counter(values).items() if count > 1)
    if repeated:
        raise ValueError(
            f"{name} repeats {', '.join(map(repr, repeated))}; "
            "list each value once"
        )


def _render(value: Any) -> str:
    """One parameter value in key form (enums by name, else ``str``)."""
    if isinstance(value, Enum):
        return value.name
    return str(value)


def key_fragment(params: Mapping[str, Any]) -> str:
    """Canonical ``name=value|...`` fingerprint of ``params``.

    Iterates in the mapping's own order (callers list parameters in
    their stable, documented order), so a given call site always
    produces the same string -- the property schedule keys and cache
    fingerprints depend on.
    """
    return "|".join(f"{name}={_render(value)}" for name, value in params.items())


def workload_fragment(token: Mapping[str, Any] | None) -> str:
    """The stream-key suffix of a workload token.

    ``None`` (uniform traffic) contributes nothing -- legacy keys, warm
    caches and golden adaptive schedules stay valid verbatim.  Any
    other token is serialized canonically, so two workloads differing
    in any shape parameter get disjoint schedules and cache entries.
    """
    if token is None:
        return ""
    body = json.dumps(dict(token), sort_keys=True, separators=(",", ":"))
    return f"|workload={body}"


def fabric_fragment(token: str | None) -> str:
    """The stream-key suffix of a fabric-model token.

    The same anchor rule as :func:`workload_fragment`: the Clos fabric's
    token is ``None`` (:meth:`repro.engine.fabrics.FabricSpec.token`)
    and contributes nothing, so every pre-seam stream key, warm cache
    and golden adaptive schedule stays valid verbatim; any other fabric
    appends its name, so its schedules and cache entries are disjoint.
    """
    if token is None:
        return ""
    return f"|fabric={token}"


def schedule_rng(key: str, round_index: int, stratum: int) -> random.Random:
    """The deterministic RNG of one (stream key, round, stratum) draw.

    A pure function of its arguments: resume and kill-and-restart
    bit-identity of the adaptive driver rest on exactly this string
    format, so it is stated once, here.
    """
    return random.Random(f"{key}|round={round_index}|stratum={stratum}")
