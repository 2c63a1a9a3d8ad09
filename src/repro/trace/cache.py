"""Content-addressed on-disk trace cache.

Workload trace generation is deterministic, so traces can be cached on
disk keyed by their generation parameters. The experiment drivers, the
parallel ``--jobs`` runner, and the benchmark harness use this to avoid
regenerating multi-hundred-thousand-access traces: a trace is written
once and every subsequent run — including concurrent worker processes —
memory-maps the stored arrays instead of rebuilding or re-pickling
them.

An entry is one ``<key>.meta.json`` commit record plus one
``<key>.<array>.npy`` file per named array. Plain ``.npy`` payloads
are memory-mappable (``np.load(mmap_mode="r")``), which is what lets a
pool of worker processes share one on-disk trace without each holding
a private copy.

Keys are content hashes over ``(name, params, generator version)``.
The generator version is baked into every key, so bumping
:data:`TRACE_GENERATOR_VERSION` after changing any trace generator
invalidates the whole cache without touching the files.

Writers are crash- and concurrency-safe: every file is written to a
unique temporary name in the cache directory and published with an
atomic ``os.replace``; the ``meta.json`` commit record is always
renamed last, so a reader either sees a complete entry or no entry.

Reads are **self-healing**. Every array payload's SHA-256 is recorded
in the commit record and verified on :meth:`TraceCache.get_entry`
(disable with ``REPRO_CACHE_VERIFY=off``); an entry that fails its
checksum, is torn, or does not parse is moved into a ``quarantine/``
subdirectory — never deleted blind, never allowed to crash the worker
— and reported as a miss so the caller rebuilds it. Concurrent workers
racing to quarantine or rebuild the same entry are safe: the loser of
each rename simply finds the file gone, and last-writer-wins publishes
are sound because generation is deterministic.
:meth:`TraceCache.recover_stale` sweeps tmp files orphaned by crashed
or killed writers.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs.log import get_logger, log_event
from repro.obs.tracer import span
from repro.resilience import bus
from repro.resilience.faults import fault_point

_LOG = get_logger("trace.cache")

#: Environment variable overriding the cache directory. The values
#: ``0``, ``off``, and ``none`` disable the cache entirely.
CACHE_DIR_ENV = "REPRO_TRACE_CACHE"

#: Environment variable disabling checksum verification on reads
#: (``off``/``0``/``none``). Verification is on by default.
CACHE_VERIFY_ENV = "REPRO_CACHE_VERIFY"

#: Subdirectory corrupt entries are moved into for post-mortem.
QUARANTINE_DIR = "quarantine"

#: Bump when any trace generator changes behaviour: every cache key
#: embeds this, so old entries become unreachable (not merely stale).
TRACE_GENERATOR_VERSION = 2


def default_cache_dir() -> Path:
    """Cache directory: $REPRO_TRACE_CACHE or ~/.cache/repro-traces."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-traces"


def cache_dir_from_env() -> Path | None:
    """Cache directory per the environment, ``None`` when disabled.

    Unset selects the default directory; ``0``/``off``/``none``
    disable caching; anything else is the directory to use.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override is not None and override.strip().lower() in ("", "0", "off", "none"):
        return None
    return default_cache_dir()


def cache_key(
    name: str,
    params: dict,
    generator_version: int = TRACE_GENERATOR_VERSION,
) -> str:
    """Stable content key for one (generator, parameters) pair."""
    body = json.dumps(
        {"name": name, "params": params, "generator": generator_version},
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()[:24]


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`TraceCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    purged: int = 0
    #: entries that failed checksum/format verification at read time
    corrupted: int = 0
    #: corrupt entries moved into the quarantine subdirectory
    quarantined: int = 0
    #: corrupt entries that were rebuilt and re-committed
    repaired: int = 0
    #: orphaned tmp files removed by :meth:`TraceCache.recover_stale`
    stale_removed: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-safe snapshot (for benchmark/CI artifacts)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "purged": self.purged,
            "corrupted": self.corrupted,
            "quarantined": self.quarantined,
            "repaired": self.repaired,
            "stale_removed": self.stale_removed,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class CacheEntry:
    """One decoded array entry: commit metadata plus named arrays."""

    key: str
    meta: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


class TraceCache:
    """Directory-backed, content-addressed cache of generated traces."""

    def __init__(
        self,
        directory: Path | str | None = None,
        generator_version: int = TRACE_GENERATOR_VERSION,
        verify: bool | None = None,
    ) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.generator_version = generator_version
        self.verify = _verify_from_env() if verify is None else verify
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # keys and paths

    def key(self, name: str, params: dict) -> str:
        """Content key including this cache's generator version."""
        return cache_key(name, params, self.generator_version)

    def _meta_path(self, key: str) -> Path:
        return self.directory / f"{key}.meta.json"

    def _array_path(self, key: str, array: str) -> Path:
        return self.directory / f"{key}.{array}.npy"

    # ------------------------------------------------------------------
    # atomic publication

    def _publish(self, path: Path, write_fn):
        """Write via ``write_fn(tmp_path)``, atomically rename, and
        return ``write_fn``'s result (e.g. the payload digest).

        The temporary name embeds the pid so concurrent writers never
        collide; ``os.replace`` is atomic within one directory, so a
        racing reader sees either the old file, the new file, or no
        file — never a torn write. Last writer wins, which is safe
        because generation is deterministic: both writers produced
        identical content.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            written = write_fn(tmp)
            fault_point("cache.publish", detail=path.name, paths=[tmp])
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return written

    # ------------------------------------------------------------------
    # array entries (the mmap-friendly format)

    def get_entry(self, name: str, params: dict, mmap: bool = True) -> CacheEntry | None:
        """Load a committed array entry, or ``None`` on miss.

        With ``mmap=True`` the arrays are memory-mapped read-only, so
        several processes replaying the same trace share one set of
        physical pages. Each payload's SHA-256 is verified against the
        commit record before it is loaded (unless verification is
        disabled); torn or corrupt entries are quarantined and count
        as misses — the caller regenerates.
        """
        key = self.key(name, params)
        meta_path = self._meta_path(key)
        if not meta_path.exists():
            self.stats.misses += 1
            return None
        try:
            with span("cache.read", cat="cache", entry=name, key=key):
                meta = json.loads(meta_path.read_text())
                array_names = meta["__arrays__"]
                paths = [self._array_path(key, array_name) for array_name in array_names]
                fault_point("trace.cache.read", detail=f"{name}:{key}", paths=paths)
                if self.verify:
                    checksums = meta.get("__checksums__") or {}
                    for array_name, path in zip(array_names, paths):
                        expected = checksums.get(array_name)
                        if expected is not None and _file_digest(path) != expected:
                            raise CorruptEntryError(
                                f"checksum mismatch for {path.name}"
                            )
                arrays = {}
                for array_name, path in zip(array_names, paths):
                    arrays[array_name] = np.load(
                        path,
                        mmap_mode="r" if mmap else None,
                        allow_pickle=False,
                    )
        except (ValueError, OSError, KeyError, TypeError, EOFError) as exc:
            # A torn or corrupt entry (e.g. a crashed writer published
            # meta for a deleted array, truncated bytes, or a failed
            # checksum) is quarantined and reported as a miss; the
            # caller regenerates. CorruptEntryError is a ValueError.
            moved = self._quarantine_entry(key)
            self.stats.corrupted += 1
            self.stats.misses += 1
            bus.counter("cache.corrupted").add()
            log_event(
                _LOG,
                "corrupt cache entry quarantined",
                level=logging.WARNING,
                entry=name,
                key=key,
                error=f"{type(exc).__name__}: {exc}",
                files_moved=moved,
            )
            return None
        self.stats.hits += 1
        user_meta = {
            k: v for k, v in meta.items() if k not in ("__arrays__", "__checksums__")
        }
        return CacheEntry(key=key, meta=user_meta, arrays=arrays)

    def put_entry(
        self, name: str, params: dict, arrays: dict[str, np.ndarray], meta: dict | None = None
    ) -> str:
        """Atomically store named arrays plus a JSON metadata record.

        Array files are published first and the ``meta.json`` commit
        record last, so a concurrent reader never observes a committed
        entry with missing payloads. The commit record carries each
        payload's SHA-256 so reads can verify content integrity.
        """
        key = self.key(name, params)
        with span("cache.publish", cat="cache", entry=name, key=key, arrays=len(arrays)):
            checksums = {}
            for array_name, array in arrays.items():
                checksums[array_name] = self._publish(
                    self._array_path(key, array_name),
                    lambda tmp, a=array: _save_npy(tmp, a),
                )
            record = dict(meta or {})
            record["__arrays__"] = sorted(arrays)
            record["__checksums__"] = checksums
            self._publish(
                self._meta_path(key),
                lambda tmp: tmp.write_text(json.dumps(record, sort_keys=True)),
            )
        self.stats.writes += 1
        return key

    def get_or_build_entry(self, name: str, params: dict, builder, mmap: bool = True) -> CacheEntry:
        """Cached entry, or build/store/reload one.

        ``builder()`` returns ``(arrays, meta)``. The entry is re-read
        after the store so the caller always gets the mmap-backed view.
        Rebuilding over a corrupted entry counts as a repair.
        """
        corrupted_before = self.stats.corrupted
        cached = self.get_entry(name, params, mmap=mmap)
        if cached is not None:
            return cached
        arrays, meta = builder()
        self.put_entry(name, params, arrays, meta)
        if self.stats.corrupted > corrupted_before:
            self.stats.repaired += 1
            bus.counter("cache.repaired").add()
        entry = self.get_entry(name, params, mmap=mmap)
        if entry is None:  # pragma: no cover - disk raced/vanished
            return CacheEntry(key=self.key(name, params), meta=dict(meta), arrays=dict(arrays))
        return entry

    def _quarantine_entry(self, key: str) -> int:
        """Move every file of one corrupt entry into ``quarantine/``.

        The meta commit record goes first so no concurrent reader can
        observe the entry as committed while its payloads vanish.
        Concurrent workers racing to quarantine the same entry are
        safe: each rename's loser finds the file already gone
        (``FileNotFoundError`` is tolerated), so recovery never
        deadlocks or double-deletes. Returns the number of files moved.
        """
        quarantine = self.directory / QUARANTINE_DIR
        moved = 0
        paths = [self._meta_path(key), *self.directory.glob(f"{key}.*.npy")]
        for path in paths:
            target = quarantine / f"{path.name}.{os.getpid()}"
            try:
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(path, target)
            except FileNotFoundError:
                continue  # another worker got here first
            except OSError:
                path.unlink(missing_ok=True)
            moved += 1
        if moved:
            self.stats.quarantined += 1
        self.stats.purged += 1
        return moved

    # ------------------------------------------------------------------
    # maintenance

    def clear(self) -> int:
        """Delete every cache entry (quarantine included); returns the
        number of files removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for pattern in ("*.npy", "*.meta.json", f"{QUARANTINE_DIR}/*"):
            for path in self.directory.glob(pattern):
                path.unlink()
                removed += 1
        return removed

    def size_bytes(self) -> int:
        """Total bytes stored in the cache (quarantine included)."""
        if not self.directory.exists():
            return 0
        return sum(
            p.stat().st_size
            for pattern in ("*.npy", "*.meta.json", f"{QUARANTINE_DIR}/*")
            for p in self.directory.glob(pattern)
        )

    def recover_stale(self, max_age_seconds: float = 3600.0) -> int:
        """Remove tmp files orphaned by crashed or killed writers.

        Every writer publishes through ``<target>.tmp.<pid>``; a tmp
        file whose writer is dead (or that has outlived
        ``max_age_seconds`` regardless) is debris from a crash between
        write and rename, and is deleted. Live writers' fresh tmp files
        are left alone. Returns the number of files removed.
        """
        if not self.directory.exists():
            return 0
        removed = 0
        now = time.time()
        for path in self.directory.glob("*.tmp.*"):
            pid = _writer_pid(path)
            if pid is not None and _pid_alive(pid):
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age <= max_age_seconds:
                    continue
            try:
                path.unlink(missing_ok=True)
            except OSError:
                continue
            removed += 1
        if removed:
            self.stats.stale_removed += removed
            bus.counter("cache.stale_tmp_removed").add(removed)
            log_event(
                _LOG,
                "stale tmp files from dead writers removed",
                level=logging.WARNING,
                removed=removed,
                directory=str(self.directory),
            )
        return removed


class CorruptEntryError(ValueError):
    """An entry's payload bytes do not match its committed checksum."""


def _verify_from_env() -> bool:
    """Checksum verification default: on unless the env disables it."""
    value = os.environ.get(CACHE_VERIFY_ENV, "").strip().lower()
    return value not in ("0", "off", "none", "false")


def _file_digest(path: Path) -> str:
    """SHA-256 hex digest of one file's bytes (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _writer_pid(tmp_path: Path) -> int | None:
    """Writer pid encoded in a ``<target>.tmp.<pid>`` filename."""
    suffix = tmp_path.name.rsplit(".tmp.", 1)[-1]
    try:
        return int(suffix)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _save_npy(path: Path, array: np.ndarray) -> str:
    """``np.save`` keeping our exact tmp filename; returns the digest.

    ``np.save`` appends ``.npy`` to bare paths; saving through an open
    handle avoids that, so the atomic-rename bookkeeping stays simple.
    """
    with open(path, "wb") as handle:
        np.save(handle, np.ascontiguousarray(array))
    return _file_digest(path)
