"""The disk-backed profile-cache tier.

Persists fingerprint-keyed quality profiles under a directory so that
*separate runs* amortize estimation work: repeated benchmark invocations,
re-plans in new processes, and parallel sessions pointed at one
``cache_dir`` all share profiles.  Design points:

* **One file per entry.**  The file name is the key itself -- a
  64-character lowercase hex SHA-256 (see
  ``QualityEstimator.cache_key``) -- so lookups are a single
  ``stat``/read and concurrent writers never contend on a shared index.
  Any other key is refused before it can name a file: ``put`` raises
  :class:`ValueError`, ``get`` and ``in`` report a miss.
* **Atomic writes.**  Entries are written to a unique temporary file in
  the same directory and published with :func:`os.replace`, so readers
  (including readers in other processes) see either the old entry or the
  new one, never a torn write.
* **Versioned, self-verifying payloads.**  Each payload records the
  cache schema version and the key it was stored under; reads verify
  both, so a file renamed or copied under another key, or written by
  an incompatible schema, is treated as a miss and deleted instead of
  served stale.  The *key* already folds in the schema version, the
  estimator settings and the measure-registry fingerprint, so changing
  simulation settings can never hit an entry computed under different
  ones.
* **Corruption tolerance.**  A truncated, garbled or unreadable entry is
  counted in ``stats.invalid``, removed best-effort, and reported as a
  miss -- a damaged cache directory degrades to a cold cache, it never
  raises into a planning run.
* **Size-capped LRU eviction.**  With ``max_bytes`` set, every publish
  sweeps the directory and deletes least-recently-*used* entries (hits
  refresh the file mtime) until the total size fits.  Long-running
  *servers* can move that sweep off the write path entirely:
  :meth:`start_background_eviction` runs it on an opt-in daemon thread
  at a fixed interval instead (the in-line sweep stays the default for
  library use, where the process may exit at any time).
* **Optional write batching.**  With :attr:`batch_writes` enabled, puts
  accumulate in memory and :meth:`flush` publishes them in one pass with
  a single eviction sweep -- the evaluator turns this on for the
  duration of an evaluation stream and flushes when the stream ends.
"""

from __future__ import annotations

import os
import pickle
import re
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.cache.backend import CacheStats, observe_get_many

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.quality.composite import QualityProfile

#: Version of the cache key and entry layout.  Hashed into every key by
#: ``QualityEstimator.cache_key`` *and* recorded inside every payload:
#: bumping it makes every existing entry invisible (new keys, so new
#: file names) and unreadable-as-stale (version check), so schema
#: changes can never serve stale profiles.  Version 2: the key is a
#: 64-hex digest instead of a nested tuple.  Version 3: the flow part of
#: the key is the byte encoding of ``ETLGraph.fingerprint``.
CACHE_SCHEMA_VERSION = 3

_ENTRY_SUFFIX = ".profile.pkl"

#: The shape of a cache key.  Checked before a key names a file or is
#: accepted from the network, so a caller-supplied key containing ``/``
#: or ``..`` (e.g. from an unauthenticated cache-service client) can
#: never name a file outside ``cache_dir``.
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def is_cache_key(key: object) -> bool:
    """Whether ``key`` has the shape of a cache key (64 lowercase hex)."""
    return isinstance(key, str) and _DIGEST_RE.fullmatch(key) is not None


class DiskProfileCache:
    """A persistent, process-shared profile cache rooted at a directory.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries; created (with parents) on first
        use.  Point several planners/processes at the same directory to
        share profiles between them.
    max_bytes:
        Optional cap on the total size of the entry files; exceeding it
        evicts least-recently-used entries.  ``None`` means unbounded.
    batch_writes:
        When true, :meth:`put` buffers entries in memory and only
        :meth:`flush` publishes them to disk.  Buffered entries are
        still served by :meth:`get` / ``in`` of this instance.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        max_bytes: int | None = None,
        batch_writes: bool = False,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 (or None for unbounded)")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.batch_writes = batch_writes
        self.stats = CacheStats()
        # Observability only.
        self.metrics_registry = registry
        self._pending: dict[str, QualityProfile] = {}
        self._lock = threading.Lock()
        # Write-batch refcount (begin/end_write_batch): how many streams
        # currently own a batching scope, and what to restore at zero.
        self._batch_depth = 0
        self._configured_batch_writes = batch_writes
        # In-line eviction is the default; start_background_eviction()
        # hands the sweep to a daemon thread instead (server mode).
        self._sweep_inline = True
        self._sweeper: threading.Thread | None = None
        self._sweeper_stop: threading.Event | None = None

    # ------------------------------------------------------------------
    # Key -> file mapping
    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}{_ENTRY_SUFFIX}"

    def _entry_files(self) -> list[Path]:
        try:
            return [p for p in self.cache_dir.iterdir() if p.name.endswith(_ENTRY_SUFFIX)]
        except OSError:
            return []

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, key: str) -> QualityProfile | None:
        """Look up a profile, counting the hit or miss.

        A hit refreshes the entry's mtime so size-capped eviction is
        least-recently-*used*, not least-recently-written.
        """
        with self._lock:
            pending = self._pending.get(key)
            if pending is not None:
                self.stats.hits += 1
                return pending
            profile = self._read(key)
            if profile is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return profile

    def _count_invalid(self) -> None:
        """One damaged entry: counted in stats and mirrored to metrics."""
        self.stats.invalid += 1
        if self.metrics_registry is not None:
            self.metrics_registry.counter("cache.disk.invalid").inc()

    def _read(self, key: str) -> QualityProfile | None:
        """Read and verify one entry; invalid entries are dropped, not raised."""
        if not is_cache_key(key):
            return None  # a malformed key names no file: a plain miss
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None  # absent (or unreadable, which amounts to the same)
        try:
            payload = pickle.loads(raw)
            version = payload["version"]
            stored_key = payload["key"]
            profile = payload["profile"]
        except Exception:
            # Truncated write, garbage bytes, unpicklable class, wrong
            # payload shape: degrade to a miss and drop the entry.
            self._count_invalid()
            self._discard(path)
            return None
        if version != CACHE_SCHEMA_VERSION or stored_key != key:
            self._count_invalid()
            self._discard(path)
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # a concurrent eviction won the race; the hit still counts
        return profile

    def get_many(self, keys: Sequence[str]) -> list["QualityProfile | None"]:
        """Batched lookup: one locked pass over pending buffer and files."""
        start = time.perf_counter()
        with self._lock:
            results: list[QualityProfile | None] = []
            for key in keys:
                pending = self._pending.get(key)
                if pending is not None:
                    self.stats.hits += 1
                    results.append(pending)
                    continue
                profile = self._read(key)
                if profile is None:
                    self.stats.misses += 1
                else:
                    self.stats.hits += 1
                results.append(profile)
        observe_get_many(
            self.metrics_registry, "disk", time.perf_counter() - start, results
        )
        return results

    def put(self, key: str, profile: QualityProfile) -> None:
        """Insert (or refresh) a profile; does not affect hit/miss counts.

        Raises :class:`ValueError` for a key that is not 64 lowercase hex.
        """
        if not is_cache_key(key):
            raise ValueError(f"cache keys must be 64-character lowercase hex, got {key!r}")
        with self._lock:
            if self.batch_writes:
                self._pending[key] = profile
                return
            self._write(key, profile)
            if self._sweep_inline:
                self._evict_to_cap()

    def flush(self) -> None:
        """Publish buffered entries in one pass (single eviction sweep)."""
        with self._lock:
            if not self._pending:
                return
            for key, profile in self._pending.items():
                self._write(key, profile)
            self._pending.clear()
            if self._sweep_inline:
                self._evict_to_cap()

    def begin_write_batch(self) -> None:
        """Enter a batching scope (refcounted; see :meth:`end_write_batch`).

        The evaluator brackets each evaluation stream with
        begin/end instead of toggling :attr:`batch_writes` directly, so
        *concurrent* streams over one shared cache (the redesign
        service's worker pool) compose: writes stay buffered until the
        last stream ends its scope, rather than whichever stream
        finishes first silently switching everyone back to inline
        publishing.
        """
        with self._lock:
            self._batch_depth += 1
            self.batch_writes = True

    def end_write_batch(self) -> None:
        """Leave a batching scope, restoring the configured mode at zero."""
        with self._lock:
            self._batch_depth = max(0, self._batch_depth - 1)
            if self._batch_depth == 0:
                self.batch_writes = self._configured_batch_writes

    def _write(self, key: str, profile: QualityProfile) -> None:
        payload = {"version": CACHE_SCHEMA_VERSION, "key": key, "profile": profile}
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_bytes(pickle.dumps(payload))
            os.replace(tmp, path)
        except OSError:
            # A full/read-only disk degrades the cache to write-through
            # failure, never a planning failure.
            self._discard(tmp)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Size-capped eviction
    # ------------------------------------------------------------------

    def _evict_to_cap(self) -> None:
        if self.max_bytes is None:
            return
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort()  # oldest mtime first == least recently used
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            self._discard(path)
            self.stats.evictions += 1
            total -= size

    # ------------------------------------------------------------------
    # Background eviction (server mode)
    # ------------------------------------------------------------------

    def start_background_eviction(self, interval: float = 30.0) -> None:
        """Move the size-cap sweep off the write path onto a daemon thread.

        Opt-in, meant for long-running cache *servers* fronting a large
        store: with the sweeper running, ``put``/``flush`` publish
        without scanning the directory, and the sweep runs every
        ``interval`` seconds instead.  The store may transiently exceed
        ``max_bytes`` between sweeps -- that is the trade.  In-line
        eviction (the default) is restored by
        :meth:`stop_background_eviction`.
        """
        if interval <= 0:
            raise ValueError("interval must be positive (seconds)")
        with self._lock:
            if self._sweeper is not None:
                raise RuntimeError("background eviction is already running")
            self._sweep_inline = False
            self._sweeper_stop = threading.Event()
            self._sweeper = threading.Thread(
                target=self._sweep_loop,
                args=(interval, self._sweeper_stop),
                name="repro-cache-sweeper",
                daemon=True,
            )
            self._sweeper.start()

    def stop_background_eviction(self, final_sweep: bool = True) -> None:
        """Stop the sweeper thread and restore in-line eviction.

        ``final_sweep`` (the default) runs one last sweep so the store
        is back under ``max_bytes`` when the method returns.  A no-op if
        the sweeper is not running.
        """
        with self._lock:
            thread, stop = self._sweeper, self._sweeper_stop
            self._sweeper = None
            self._sweeper_stop = None
            self._sweep_inline = True
        if thread is not None and stop is not None:
            stop.set()
            thread.join(timeout=5.0)
        if final_sweep:
            with self._lock:
                self._evict_to_cap()

    def _sweep_loop(self, interval: float, stop: threading.Event) -> None:
        while not stop.wait(interval):
            with self._lock:
                self._evict_to_cap()

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (pending and on disk) and reset the statistics."""
        with self._lock:
            self._pending.clear()
            for path in self._entry_files():
                self._discard(path)
            self.stats = CacheStats()

    def size_bytes(self) -> int:
        """Total size of the on-disk entries (excludes the pending buffer)."""
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def tier_stats(self) -> dict[str, dict[str, float]]:
        """Per-tier statistics (a single ``"disk"`` tier)."""
        return {"disk": self.stats.as_dict()}

    def __len__(self) -> int:
        with self._lock:
            on_disk = self._entry_files()
            extra = sum(1 for key in self._pending if not self._path(key).exists())
            return len(on_disk) + extra

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._pending or (is_cache_key(key) and self._path(key).exists())
