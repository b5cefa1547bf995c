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
* **bounded growth** -- with ``max_bytes`` set, every write prunes
  least-recently-used entries (hits refresh recency) until the cache
  fits; a pruned entry is simply a future miss, recomputed and stored
  again on demand;
* **concurrent writers** -- one cache directory may be shared by many
  processes at once (the adaptive sweep's resume contract depends on
  it).  Entry publication is already atomic; the LRU prune
  additionally serializes through an advisory ``flock`` on a lock file
  so concurrent writers never double-count sizes or stampede-evict
  each other's fresh entries (a writer that finds the lock held simply
  skips its prune -- the holder is already enforcing the budget), and
  :meth:`put` recreates the cache directory if a peer removed it
  mid-run;
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

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

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
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
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
        max_bytes: disk budget for the entry files; None (default)
            keeps the cache unbounded.  Enforced on every
            :meth:`put` by deleting least-recently-*used* entries
            (mtime order; :meth:`lookup` hits refresh it) until the
            cache fits, newest write always kept.  Pruned entries just
            become future misses -- correctness is untouched.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        code_version: str = CODE_VERSION,
        max_bytes: int | None = None,
    ):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_version = code_version
        self.max_bytes = max_bytes
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
        if self.max_bytes is not None:
            # Refresh recency so the LRU prune spares hot entries.
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - concurrent removal
                pass
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
        if self.max_bytes is not None:
            self._prune(keep=path)

    # -- maintenance --------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes currently occupied by entry files."""
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - concurrent removal
                pass
        return total

    def _prune(self, keep: Path) -> None:
        """Delete LRU entries until the cache fits ``max_bytes``.

        ``keep`` (the entry just written) survives even if it alone
        exceeds the budget -- pruning the value the caller is about to
        rely on would turn every over-budget store into a guaranteed
        miss loop.

        Serialized across processes by an advisory lock: concurrent
        prunes would each total the directory, then each delete "down
        to budget" against a snapshot the other is invalidating --
        together evicting far more than the budget requires.  A writer
        that finds the lock held skips pruning; the lock holder is
        already enforcing the budget, and the skipper's own next store
        will prune again if needed.
        """
        lock_handle = None
        if fcntl is not None:
            try:
                lock_handle = open(self.directory / ".prune.lock", "ab")
                fcntl.flock(lock_handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                # Lock held by a pruning peer (or unavailable): skip.
                if lock_handle is not None:
                    lock_handle.close()
                return
        try:
            self._prune_locked(keep)
        finally:
            if lock_handle is not None:
                try:
                    fcntl.flock(lock_handle, fcntl.LOCK_UN)
                finally:
                    lock_handle.close()

    def _prune_locked(self, keep: Path) -> None:
        entries = []
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        entries.sort()
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            total -= size
            self.stats.evictions += 1
            _obs.inc("cache.evictions")

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
