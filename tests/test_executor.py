"""Tests for the hardened jobs knob and the persistent parallel executor."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import common
from repro.experiments.common import (
    get_executor,
    resolve_jobs,
    run_parallel,
    shutdown_executor,
)


def _double(value):
    return 2 * value


def _log_then_raise(marker_path):
    with open(marker_path, "a") as handle:
        handle.write("ran\n")
    raise RuntimeError("evaluator exploded")


def _task_cost(args):
    return args[0]


class TestResolveJobs:
    def test_explicit_jobs_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_env_tolerates_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  4 ")
        assert resolve_jobs() == 4

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() >= 1

    def test_empty_env_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        assert resolve_jobs() >= 1

    @pytest.mark.parametrize("value", ["all", "2.5", "1e3", "four", "0x4"])
    def test_non_integer_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            resolve_jobs()

    @pytest.mark.parametrize("value", ["0", "-1", "-16"])
    def test_non_positive_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ConfigurationError, match="positive"):
            resolve_jobs()

    def test_invalid_env_surfaces_even_when_fully_cached(self, tmp_path, monkeypatch):
        # Validation is eager in run_parallel: a warm cache (no pool ever
        # built) must not mask a broken REPRO_JOBS value.
        from repro.metrics.errors import mean

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_parallel(mean, [([1.0, 3.0],)], jobs=1)
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            run_parallel(mean, [([1.0, 3.0],)])

    def test_explicit_non_positive_argument_clamped(self):
        # The programmatic argument keeps its historical clamping behaviour
        # (callers like `--jobs 0` mean "serial"); only the environment
        # variable is validated strictly.
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-5) == 1


def _log_then_double(marker_path, value):
    with open(marker_path, "a") as handle:
        handle.write("ran\n")
    return 2 * value


class TestRetiredVecBatchKnob:
    @pytest.mark.parametrize("value, accepted", [
        (None, True), ("", True), ("0", True), ("4", False), ("on", False),
    ])
    def test_only_off_is_accepted(self, tmp_path, monkeypatch, value, accepted):
        from repro.cache.batch import resolve_vec_batch

        if value is None:
            monkeypatch.delenv("REPRO_VEC_BATCH", raising=False)
        else:
            monkeypatch.setenv("REPRO_VEC_BATCH", value)
        marker = tmp_path / "runs.log"
        tasks = [(str(marker), 1), (str(marker), 2)]
        if accepted:
            assert resolve_vec_batch() == 0
            assert run_parallel(_log_then_double, tasks, jobs=1, cache=False) == [2, 4]
        else:
            with pytest.raises(ConfigurationError, match="REPRO_VEC_BATCH.*removed"):
                run_parallel(_log_then_double, tasks, jobs=1, cache=False)
            assert not marker.exists()


class TestBatchCyclesKnob:
    def test_default_when_unset(self, monkeypatch):
        from repro.sim.system import DEFAULT_BATCH_CYCLES, resolved_batch_cycles

        monkeypatch.delenv("REPRO_BATCH_CYCLES", raising=False)
        assert resolved_batch_cycles() == DEFAULT_BATCH_CYCLES

    def test_env_override(self, monkeypatch):
        from repro.sim.system import resolved_batch_cycles

        monkeypatch.setenv("REPRO_BATCH_CYCLES", "0")
        assert resolved_batch_cycles() == 0.0

    @pytest.mark.parametrize("value", ["1k", "fast", "nan", "NaN"])
    def test_invalid_values_rejected(self, monkeypatch, value):
        from repro.sim.system import resolved_batch_cycles

        monkeypatch.setenv("REPRO_BATCH_CYCLES", value)
        with pytest.raises(ConfigurationError, match="REPRO_BATCH_CYCLES"):
            resolved_batch_cycles()


class TestPersistentExecutor:
    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_executor()
        yield
        shutdown_executor()

    def test_pool_is_reused_for_same_worker_count(self):
        first = get_executor(2)
        assert get_executor(2) is first

    def test_pool_recreated_when_worker_count_changes(self):
        first = get_executor(2)
        second = get_executor(3)
        assert second is not first

    def test_pool_recreated_when_batching_knob_changes(self, monkeypatch):
        # Workers snapshot REPRO_BATCH_CYCLES when the pool starts; cache
        # digests use the parent's current value.  A pool surviving an env
        # change would compute with the old knob under the new knob's digest.
        monkeypatch.delenv("REPRO_BATCH_CYCLES", raising=False)
        first = get_executor(2)
        monkeypatch.setenv("REPRO_BATCH_CYCLES", "0")
        second = get_executor(2)
        assert second is not first
        assert get_executor(2) is second

    def test_rejects_non_positive_worker_count(self):
        with pytest.raises(ConfigurationError):
            get_executor(0)

    def test_shutdown_then_lazy_recreation(self):
        first = get_executor(2)
        shutdown_executor()
        assert common._EXECUTOR is None
        assert get_executor(2) is not first

    def test_run_parallel_reuses_one_pool_across_calls(self):
        run_parallel(_double, [(i,) for i in range(4)], jobs=2, cache=False)
        pool = common._EXECUTOR
        assert pool is not None
        run_parallel(_double, [(i,) for i in range(4)], jobs=2, cache=False)
        assert common._EXECUTOR is pool

    def test_results_in_submission_order_with_cost_key(self):
        tasks = [(i,) for i in range(11)]
        results = run_parallel(_double, tasks, jobs=3, cost_key=_task_cost, cache=False)
        assert results == [2 * i for i in range(11)]

    def test_parallel_identical_to_serial(self):
        tasks = [(i,) for i in range(9)]
        serial = run_parallel(_double, tasks, jobs=1, cache=False)
        parallel = run_parallel(_double, tasks, jobs=4, cost_key=_task_cost, cache=False)
        assert serial == parallel

    def test_empty_task_list(self):
        assert run_parallel(_double, [], jobs=4, cache=False) == []

    def test_single_task_uses_serial_fallback(self):
        assert run_parallel(_double, [(21,)], jobs=4, cache=False) == [42]
        assert common._EXECUTOR is None

    def test_shutdown_is_idempotent(self):
        get_executor(2)
        shutdown_executor()
        shutdown_executor()  # second call must be a harmless no-op
        assert common._EXECUTOR is None

    def test_repeated_run_all_style_cycles(self):
        """A long-lived service interleaves sweeps with explicit shutdowns
        (run_all does one per job); every cycle must get a working pool."""
        for _cycle in range(3):
            results = run_parallel(_double, [(i,) for i in range(4)], jobs=2,
                                   cache=False)
            assert results == [0, 2, 4, 6]
            shutdown_executor()

    def test_map_survives_pool_closed_by_concurrent_shutdown(self):
        """Simulate the race where another thread shuts the shared pool down
        between our executor lookup and the map submission: the stale pool
        raises RuntimeError, and run_parallel must rebuild and retry."""
        pool = get_executor(2)
        pool.shutdown()  # close the underlying pool; module state still points at it
        results = run_parallel(_double, [(i,) for i in range(4)], jobs=2,
                               cache=False)
        assert results == [0, 2, 4, 6]

    def test_evaluator_runtime_error_is_not_retried(self, tmp_path):
        """Only the closed-pool race retries; a RuntimeError raised by the
        evaluated function itself must surface immediately, not silently
        re-run the whole sweep."""
        marker = tmp_path / "executions.log"
        with pytest.raises(RuntimeError, match="evaluator exploded"):
            run_parallel(_log_then_raise, [(str(marker),), (str(marker),)],
                         jobs=2, cache=False)
        # Each task ran at most once: a blanket RuntimeError retry would have
        # resubmitted the whole batch and doubled the count.
        executions = marker.read_text().count("ran\n")
        assert executions <= 2


class TestProgressReporting:
    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_executor()
        yield
        shutdown_executor()

    def test_serial_progress_counts_every_task(self):
        seen = []
        run_parallel(_double, [(i,) for i in range(3)], jobs=1, cache=False,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen == [(0, 3), (1, 3), (2, 3), (3, 3)]

    def test_parallel_progress_reaches_total(self):
        seen = []
        run_parallel(_double, [(i,) for i in range(5)], jobs=2, cache=False,
                     cost_key=_task_cost,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen[0] == (0, 5)
        assert seen[-1] == (5, 5)
        assert [done for done, _total in seen] == sorted(done for done, _ in seen)

    def test_cache_hits_count_as_completed(self, tmp_path, monkeypatch):
        from repro.metrics.errors import mean

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_parallel(mean, [([1.0, 3.0],)], jobs=1)
        seen = []
        run_parallel(mean, [([1.0, 3.0],)], jobs=1,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 1)]

    def test_empty_task_list_reports_zero(self):
        seen = []
        run_parallel(_double, [], jobs=1, cache=False,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen == [(0, 0)]
