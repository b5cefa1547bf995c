"""Content-addressed result cache for sweep cells.

Every expensive computation in the repo decomposes into cells that are
pure functions of their arguments -- (seed, m, config) Monte-Carlo
replications, adversary seeds, the exact model checker's m-candidates.
:class:`ResultCache` persists those cell results to disk keyed by a
SHA-256 digest of

* a **namespace** (the cell function's identity),
* the **code version** (:data:`CODE_VERSION`, bumped whenever cell
  semantics change -- a bump invalidates every prior entry),
* the **routing kernel** id the cell ran under (bitmask and batched
  results are bit-identical today, but keying them separately means a
  kernel whose semantics drift can never serve stale entries), and
* the canonical JSON of the cell **parameters** (enums and tuples
  normalized, keys sorted).

so repeated and interrupted sweeps become incremental: re-running a
sweep touches only the cells that were never computed.

Robustness contract:

* **atomic writes** -- entries are written to a temp file in the cache
  directory and published with ``os.replace``, so a crashed or killed
  sweep never leaves a half-written entry under a live key;
* **corrupted-entry recovery** -- an entry that fails to unpickle (torn
  bytes, truncation, version skew) is deleted and treated as a miss,
  never propagated;
* **concurrent writers** -- one cache directory may be shared by many
  processes at once (the adaptive sweep's resume contract depends on
  it): entry publication is atomic, and :meth:`put` recreates the
  cache directory if a peer removed it mid-run;
* values are stored with :mod:`pickle`, so any picklable cell result
  round-trips exactly (the warm path returns bit-identical objects).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from repro import obs as _obs

__all__ = ["CODE_VERSION", "CacheStats", "ResultCache"]

#: bump whenever the semantics of any cached cell change; every prior
#: entry is invalidated (its key can no longer be reproduced)
CODE_VERSION = "2"


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache`'s traffic."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


def _canonical_json(value: Any) -> str:
    """Deterministic JSON for key material (enums/tuples normalized)."""

    def default(obj: Any) -> Any:
        if isinstance(obj, Enum):
            return f"{type(obj).__name__}.{obj.name}"
        if isinstance(obj, (set, frozenset)):
            return sorted(obj)
        raise TypeError(
            f"{type(obj).__name__} is not a stable cache-key component"
        )

    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=default)


class ResultCache:
    """Disk-backed content-addressed cache of sweep-cell results.

    Args:
        directory: cache root; created on demand.  One directory can be
            shared by every sweep -- the namespace and parameter hash
            keep cells apart.
        code_version: override of :data:`CODE_VERSION` (tests use this
            to prove that a version bump invalidates old entries).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        code_version: str = CODE_VERSION,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_version = code_version
        self.stats = CacheStats()

    # -- keys ---------------------------------------------------------------

    def key(
        self,
        namespace: str,
        params: Mapping[str, Any],
        *,
        kernel: str = "bitmask",
    ) -> str:
        """Content address of one cell: sha256 over namespace/version/kernel/params.

        ``kernel`` is the routing kernel the cell runs under, so results
        computed under different kernels never alias.
        """
        payload = _canonical_json(
            {
                "namespace": namespace,
                "code_version": self.code_version,
                "kernel": kernel,
                "params": dict(params),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # -- access -------------------------------------------------------------

    def lookup(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)`` for ``key``; corrupted entries count as misses.

        A corrupted or truncated entry (unpicklable bytes) is removed so
        the next :meth:`put` rewrites it cleanly.
        """
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            _obs.inc("cache.misses")
            return False, None
        except Exception:
            # Torn write survivor, truncation, or pickle-format skew:
            # recover by discarding the entry.
            self.stats.corrupt += 1
            self.stats.misses += 1
            _obs.inc("cache.corrupt")
            _obs.inc("cache.misses")
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone / perms
                pass
            return False, None
        self.stats.hits += 1
        _obs.inc("cache.hits")
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically (write-temp + rename).

        Safe under concurrent writers: publication is a single
        ``os.replace``, and if a peer process removed the cache
        directory between writes the directory is recreated and the
        write retried once.
        """
        path = self._path(key)
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".pkl"
            )
        except FileNotFoundError:
            # A peer cleared the whole directory under us; recreate it.
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".pkl"
            )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        _obs.inc("cache.stores")

    # -- maintenance --------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent removal
                pass
        return removed
