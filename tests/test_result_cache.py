"""Tests for the content-addressed result cache and its sweep integration."""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import CacheKeyError
from repro.experiments.common import default_experiment_config, run_parallel
from repro.experiments.run_all import run_all
from repro.metrics.errors import mean
from repro.sim.result_cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    canonical_key,
    code_epoch,
    get_result_cache,
    is_cacheable_function,
    task_digest,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the cache at a fresh per-test directory."""
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    return directory


def _cache_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("??/*.pkl")) if directory.is_dir() else []


def _not_in_repro(value):
    return value


# --------------------------------------------------------------------- keying


class TestCanonicalKeys:
    def test_dict_ordering_is_normalised(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})

    def test_distinguishes_bool_from_int(self):
        assert canonical_key(True) != canonical_key(1)

    def test_dataclasses_keyed_by_type_and_fields(self):
        base = default_experiment_config(4)
        assert canonical_key(base) == canonical_key(default_experiment_config(4))
        assert canonical_key(base) != canonical_key(base.with_prb_entries(8))

    def test_lambda_rejected(self):
        with pytest.raises(CacheKeyError):
            canonical_key(lambda: None)

    def test_unknown_type_rejected(self):
        class Opaque:
            pass

        with pytest.raises(CacheKeyError):
            canonical_key([Opaque()])

    def test_digest_depends_on_arguments_and_extra(self):
        base = task_digest(mean, ([1.0, 2.0],))
        assert task_digest(mean, ([1.0, 2.5],)) != base
        assert task_digest(mean, ([1.0, 2.0],), extra=("knob", "1")) != base

    def test_only_repro_functions_are_cacheable(self):
        assert is_cacheable_function(mean)
        assert is_cacheable_function(default_experiment_config)
        assert not is_cacheable_function(_not_in_repro)
        assert not is_cacheable_function(len)

    def test_digest_stable_across_processes(self):
        expected = task_digest(default_experiment_config, (4,))
        script = (
            "from repro.experiments.common import default_experiment_config\n"
            "from repro.sim.result_cache import task_digest\n"
            "print(task_digest(default_experiment_config, (4,)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONHASHSEED"] = "random"
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env, cwd=REPO_ROOT,
        ).stdout.strip()
        assert output == expected

    def test_code_epoch_is_memoised_and_hex(self):
        assert code_epoch() == code_epoch()
        assert len(code_epoch()) == 64
        int(code_epoch(), 16)


# -------------------------------------------------------------------- storage


class TestResultCacheStore:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = task_digest(mean, ([2.0, 4.0],))
        assert cache.get(digest) == (False, None)
        assert cache.put(digest, 3.0)
        assert cache.get(digest) == (True, 3.0)
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "stores": 1,
                                         "evictions": 0, "errors": 0,
                                         "quarantined": 0}

    def test_corrupted_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = task_digest(mean, ([1.0],))
        cache.put(digest, 1.0)
        cache.entry_path(digest).write_bytes(b"\x80garbage-not-a-pickle")
        hit, _ = cache.get(digest)
        assert hit is False
        assert cache.stats.errors == 1
        assert cache.stats.quarantined == 1
        assert not cache.entry_path(digest).exists()
        # The bad entry is evidence, not garbage: moved aside, not deleted.
        specimen = cache.quarantine_dir() / cache.entry_path(digest).name
        assert specimen.read_bytes() == b"\x80garbage-not-a-pickle"

    def test_requarantined_digest_keeps_one_specimen(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = task_digest(mean, ([1.0],))
        for marker in (b"\x80bad-one", b"\x80bad-two"):
            cache.put(digest, 1.0)
            cache.entry_path(digest).write_bytes(marker)
            assert cache.get(digest)[0] is False
        assert cache.stats.quarantined == 2
        specimens = list(cache.quarantine_dir().iterdir())
        assert len(specimens) == 1
        assert specimens[0].read_bytes() == b"\x80bad-two"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = task_digest(mean, ([1.0, 5.0],))
        cache.put(digest, 3.0)
        path = cache.entry_path(digest)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(digest)[0] is False

    def test_version_mismatch_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = task_digest(mean, ([9.0],))
        path = cache.entry_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(
            {"version": CACHE_FORMAT_VERSION + 1, "digest": digest, "result": "stale"}
        ))
        hit, _ = cache.get(digest)
        assert hit is False
        assert cache.stats.errors == 1
        assert cache.stats.quarantined == 1
        assert not path.exists()
        assert (cache.quarantine_dir() / path.name).exists()

    def test_digest_guard_rejects_renamed_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        original = task_digest(mean, ([1.0],))
        cache.put(original, 1.0)
        other = task_digest(mean, ([2.0],))
        other_path = cache.entry_path(other)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        cache.entry_path(original).rename(other_path)
        assert cache.get(other)[0] is False

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in range(3):
            cache.put(task_digest(mean, ([float(value)],)), float(value))
        assert cache.clear() == 3
        assert _cache_files(tmp_path) == []

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        digest = task_digest(mean, ([1.0],))
        assert not cache.put(digest, 1.0)
        assert cache.get(digest) == (False, None)
        assert _cache_files(tmp_path) == []
        assert cache.stats.as_dict() == {"hits": 0, "misses": 0, "stores": 0,
                                         "evictions": 0, "errors": 0,
                                         "quarantined": 0}


class TestEnvironmentKnobs:
    def test_cache_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert not get_result_cache().enabled

    @pytest.mark.parametrize("value", ["0", "false", "no", "OFF"])
    def test_falsey_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert not get_result_cache().enabled

    def test_cache_enabled_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cache = get_result_cache()
        assert cache.enabled
        assert cache.directory == tmp_path / "cache"

    def test_instances_memoised_per_directory(self, cache_dir):
        assert get_result_cache() is get_result_cache()


# ---------------------------------------------------------------- integration


class TestRunParallelIntegration:
    def test_miss_then_hit(self, cache_dir):
        tasks = [([1.0, 2.0],), ([3.0, 5.0],)]
        first = run_parallel(mean, tasks, jobs=1)
        assert first == [1.5, 4.0]
        stats = get_result_cache().stats
        assert (stats.misses, stats.stores, stats.hits) == (2, 2, 0)
        assert len(_cache_files(cache_dir)) == 2
        second = run_parallel(mean, tasks, jobs=1)
        assert second == first
        assert get_result_cache().stats.hits == 2

    def test_partial_hits_only_compute_misses(self, cache_dir):
        run_parallel(mean, [([1.0],)], jobs=1)
        results = run_parallel(mean, [([1.0],), ([2.0],)], jobs=1)
        assert results == [1.0, 2.0]
        stats = get_result_cache().stats
        assert stats.hits == 1
        assert stats.stores == 2

    def test_cache_false_bypasses(self, cache_dir):
        run_parallel(mean, [([1.0],)], jobs=1, cache=False)
        assert _cache_files(cache_dir) == []

    def test_env_zero_disables(self, tmp_path, monkeypatch):
        directory = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
        assert run_parallel(mean, [([4.0, 6.0],)], jobs=1) == [5.0]
        assert _cache_files(directory) == []

    def test_non_repro_functions_not_cached(self, cache_dir):
        assert run_parallel(_not_in_repro, [(7,)], jobs=1) == [7]
        assert _cache_files(cache_dir) == []

    def test_corrupted_entry_recomputed_transparently(self, cache_dir):
        tasks = [([10.0, 20.0],)]
        run_parallel(mean, tasks, jobs=1)
        entry = _cache_files(cache_dir)[0]
        entry.write_bytes(b"truncated")
        assert run_parallel(mean, tasks, jobs=1) == [15.0]
        assert get_result_cache().stats.errors == 1
        # The recompute healed the entry.
        assert run_parallel(mean, tasks, jobs=1) == [15.0]
        assert get_result_cache().stats.hits == 1


class TestWarmRunAll:
    def test_warm_run_all_is_faster_and_bit_identical(self, cache_dir, capsys):
        """Acceptance: cold run_all(small) populates the cache; a warm rerun
        is >= 5x faster with bit-identical figure data."""
        start = time.perf_counter()
        cold = run_all("small", jobs=1)
        cold_elapsed = time.perf_counter() - start
        after_cold = get_result_cache().stats.as_dict()

        start = time.perf_counter()
        warm = run_all("small", jobs=1)
        warm_elapsed = time.perf_counter() - start
        after_warm = get_result_cache().stats.as_dict()
        capsys.readouterr()

        cold.pop("elapsed_seconds")
        warm.pop("elapsed_seconds")
        assert warm == cold
        assert _cache_files(cache_dir), "cold run must populate the cache"
        # The warm run must be pure cache replay: no new misses, no stores.
        assert after_cold["stores"] > 0
        assert after_warm["misses"] == after_cold["misses"]
        assert after_warm["stores"] == after_cold["stores"]
        assert after_warm["hits"] > after_cold["hits"]
        assert cold_elapsed >= 5.0 * warm_elapsed, (
            f"warm run not fast enough: cold {cold_elapsed:.2f}s, warm {warm_elapsed:.2f}s"
        )
