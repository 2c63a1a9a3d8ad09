"""Tests for the on-disk trace cache."""

import multiprocessing

import numpy as np
import pytest

from repro.trace.cache import (
    TRACE_GENERATOR_VERSION,
    TraceCache,
    cache_dir_from_env,
    cache_key,
    default_cache_dir,
)


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "cache")


def make_arrays(values=(1, 2, 3)):
    return {"vpns": np.array(values, dtype=np.uint64)}


class TestKey:
    def test_stable(self):
        assert cache_key("bfs", {"scale": 13}) == cache_key("bfs", {"scale": 13})

    def test_order_insensitive(self):
        assert cache_key("x", {"a": 1, "b": 2}) == cache_key("x", {"b": 2, "a": 1})

    def test_distinguishes_params(self):
        assert cache_key("bfs", {"scale": 13}) != cache_key("bfs", {"scale": 14})

    def test_distinguishes_names(self):
        assert cache_key("bfs", {}) != cache_key("sssp", {})


class TestCache:
    def test_miss_returns_none(self, cache):
        assert cache.get_entry("bfs", {"scale": 1}) is None
        assert cache.stats.misses == 1

    def test_clear_and_size(self, cache):
        assert cache.size_bytes() == 0
        cache.put_entry("a", {}, make_arrays())
        cache.put_entry("b", {}, make_arrays())
        assert cache.size_bytes() > 0
        # per entry: one .npy payload plus its meta.json commit record
        assert cache.clear() == 4
        assert cache.size_bytes() == 0

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_env_disables_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert cache_dir_from_env() is None
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "d"))
        assert cache_dir_from_env() == tmp_path / "d"


class TestGeneratorVersion:
    """Bumping the generator version must invalidate every old key."""

    def test_version_baked_into_key(self):
        old = cache_key("bfs", {"scale": 13}, generator_version=1)
        new = cache_key("bfs", {"scale": 13}, generator_version=2)
        assert old != new

    def test_old_entries_unreachable_after_bump(self, tmp_path):
        old_cache = TraceCache(tmp_path, generator_version=1)
        old_cache.put_entry("bfs", {"scale": 1}, make_arrays())
        assert old_cache.get_entry("bfs", {"scale": 1}) is not None

        new_cache = TraceCache(tmp_path, generator_version=2)
        assert new_cache.get_entry("bfs", {"scale": 1}) is None

    def test_default_version_is_current(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.generator_version == TRACE_GENERATOR_VERSION


class TestArrayEntries:
    """The mmap-friendly multi-array entry format."""

    def test_round_trip_with_meta(self, cache):
        arrays = {
            "vpns": np.arange(16, dtype=np.uint64),
            "counts": np.ones(16, dtype=np.int64),
        }
        cache.put_entry("bfs", {"s": 1}, arrays, meta={"footprint": 4096})
        entry = cache.get_entry("bfs", {"s": 1})
        assert entry is not None
        assert entry.meta == {"footprint": 4096}
        assert np.array_equal(entry.arrays["vpns"], arrays["vpns"])
        assert np.array_equal(entry.arrays["counts"], arrays["counts"])

    def test_mmap_entries_are_read_only_views(self, cache):
        cache.put_entry("bfs", {"s": 2}, {"vpns": np.arange(8, dtype=np.uint64)})
        entry = cache.get_entry("bfs", {"s": 2}, mmap=True)
        assert isinstance(entry.arrays["vpns"], np.memmap)
        with pytest.raises((ValueError, OSError)):
            entry.arrays["vpns"][0] = 99

    def test_torn_entry_missing_array_is_purged(self, cache):
        """Commit record present, payload gone: purge + miss."""
        cache.put_entry("bfs", {"s": 3}, {"vpns": np.arange(4, dtype=np.uint64)})
        key = cache.key("bfs", {"s": 3})
        cache._array_path(key, "vpns").unlink()
        assert cache.get_entry("bfs", {"s": 3}) is None
        assert not cache._meta_path(key).exists()
        assert cache.stats.purged == 1

    def test_truncated_array_is_purged(self, cache):
        cache.put_entry("bfs", {"s": 4}, {"vpns": np.arange(64, dtype=np.uint64)})
        key = cache.key("bfs", {"s": 4})
        path = cache._array_path(key, "vpns")
        path.write_bytes(path.read_bytes()[:40])
        assert cache.get_entry("bfs", {"s": 4}) is None
        assert not path.exists()

    def test_corrupt_meta_json_is_purged(self, cache):
        cache.put_entry("bfs", {"s": 5}, {"vpns": np.arange(4, dtype=np.uint64)})
        key = cache.key("bfs", {"s": 5})
        cache._meta_path(key).write_text("{not json")
        assert cache.get_entry("bfs", {"s": 5}) is None
        assert not cache._meta_path(key).exists()

    def test_get_or_build_entry_builds_once(self, cache):
        calls = []

        def builder():
            calls.append(1)
            return {"vpns": np.arange(4, dtype=np.uint64)}, {"n": 4}

        first = cache.get_or_build_entry("bfs", {"s": 6}, builder)
        second = cache.get_or_build_entry("bfs", {"s": 6}, builder)
        assert len(calls) == 1
        assert first.meta == second.meta == {"n": 4}

    def test_stats_track_hits_misses_writes(self, cache):
        cache.get_entry("bfs", {"s": 7})
        cache.put_entry("bfs", {"s": 7}, {"vpns": np.arange(2, dtype=np.uint64)})
        cache.get_entry("bfs", {"s": 7})
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5
        snapshot = cache.stats.as_dict()
        assert snapshot["hits"] == 1 and snapshot["hit_rate"] == 0.5


def _racing_writer(directory: str, worker: int) -> bool:
    """Write the same entry from a worker process, then read it back."""
    cache = TraceCache(directory)
    arrays = {"vpns": np.arange(256, dtype=np.uint64)}
    cache.put_entry("race", {"seed": 1}, arrays, meta={"n": 256})
    entry = cache.get_entry("race", {"seed": 1}, mmap=False)
    return entry is not None and np.array_equal(entry.arrays["vpns"], arrays["vpns"])


class TestConcurrentWriters:
    def test_parallel_writers_publish_atomically(self, tmp_path):
        """N processes racing to write one key must leave an intact entry.

        Deterministic generation means every writer produces identical
        bytes; atomic rename means last-writer-wins is indistinguishable
        from any-writer-wins, and no reader ever sees a torn file.
        """
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            ok = pool.starmap(
                _racing_writer, [(str(tmp_path), i) for i in range(8)]
            )
        assert all(ok)
        cache = TraceCache(tmp_path)
        entry = cache.get_entry("race", {"seed": 1})
        assert entry is not None
        # no stray temporaries left behind
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_publish_cleans_up_on_writer_crash(self, cache, tmp_path):
        """A writer that dies mid-write leaves no visible entry."""

        def explode(tmp):
            tmp.write_bytes(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            cache._publish(cache._meta_path("deadbeef"), explode)
        assert not cache._meta_path("deadbeef").exists()
        assert not list(cache.directory.glob("*.tmp.*"))

    def test_meta_is_committed_last(self, cache, monkeypatch):
        """put_entry publishes payloads before the commit record."""
        order = []
        original = TraceCache._publish

        def recording(self, path, write_fn):
            order.append(path.name.split(".", 1)[1])
            return original(self, path, write_fn)

        monkeypatch.setattr(TraceCache, "_publish", recording)
        cache.put_entry(
            "bfs", {"s": 8},
            {"a": np.arange(2, dtype=np.uint64),
             "b": np.arange(2, dtype=np.uint64)},
        )
        assert order[-1] == "meta.json"
        assert set(order[:-1]) == {"a.npy", "b.npy"}
