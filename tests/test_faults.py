"""Chaos tests: scripted faults through the supervised execution stack.

Every test here drives the retry/timeout/journal machinery with a
*deterministic* :class:`~repro.faults.FaultPlan` — worker crashes, transient
evaluator failures, slow cells, corrupted cache shards — and asserts the
headline robustness property: a faulted run converges on a payload
bit-identical to the fault-free run, without recomputing cells the cache
already answers.
"""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.errors import (
    CellTimeoutError,
    ConfigurationError,
    InjectedFaultError,
    JobCancelledError,
    ServiceError,
    TransientFaultError,
)
from repro.experiments.common import run_parallel, shutdown_executor
from repro.experiments.supervisor import (
    DEFAULT_CELL_RETRIES,
    CancelToken,
    RetryPolicy,
    cell_timeout_from_env,
    is_transient,
    reset_supervisor_stats,
    retry_policy_from_env,
    supervisor_stats,
)
from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec, plan_from_env
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.composite import CompositeSpec
from repro.scenarios.runner import expand_cells
from repro.service import (
    ArtifactStore,
    JobJournal,
    JobManager,
    JobState,
    ServiceClient,
    create_server,
    journal_path_from_env,
)
from repro.service.http import drain_seconds_from_env
from repro.sim.result_cache import get_result_cache

# Two sweep cells (one group, two workloads) so a worker crash at cell 0 and
# transient failures at cell 1 both genuinely fire on the parallel path.
CHAOS_SPEC = {
    "name": "chaos-tiny",
    "kind": "accuracy",
    "machine": {"core_counts": [2], "llc_kilobytes": 64},
    "workloads": {"groups": ["H"], "per_group": 2},
    "techniques": ["GDP"],
    "instructions_per_core": 4000,
    "interval_instructions": 2000,
}

# One injected worker crash plus two transient cell failures — the seeded
# plan named by the acceptance criteria.
CHAOS_PLAN = {
    "seed": 7,
    "faults": [
        {"kind": "worker_crash", "cell": 0, "attempts": 1},
        {"kind": "transient_error", "cell": 1, "attempts": 2},
    ],
}


def _double(value):
    return 2 * value


def _record_cell(index, marker_path):
    """Evaluator that logs which cell actually executed (recompute tracking)."""
    with open(marker_path, "a") as handle:
        handle.write(f"{index}\n")
    return index * 7


# Set by the cooperative-cancel test; the evaluator fires it mid-sweep so the
# next cell boundary observes a cancellation that arrived "while running".
_BOUNDARY_TOKEN = None


def _cancel_midway(index, marker_path):
    with open(marker_path, "a") as handle:
        handle.write(f"{index}\n")
    if _BOUNDARY_TOKEN is not None:
        _BOUNDARY_TOKEN.cancel()
    return index


def _marker_counts(path) -> dict[int, int]:
    counts: dict[int, int] = {}
    if not path.exists():
        return counts
    for line in path.read_text().splitlines():
        counts[int(line)] = counts.get(int(line), 0) + 1
    return counts


@pytest.fixture(autouse=True)
def _fresh_supervisor():
    reset_supervisor_stats()
    yield
    shutdown_executor()


# ---------------------------------------------------------------- fault plans


class TestFaultPlan:
    def test_round_trips_through_json(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="worker_crash", cell=3),
                FaultSpec(kind="slow_cell", cell=1, attempts=2, delay_seconds=0.5),
            ),
            seed=42,
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike", cell=0).validate()

    @pytest.mark.parametrize("field,value", [
        ("cell", -1), ("cell", "zero"), ("cell", True),
        ("attempts", 0), ("attempts", -2),
        ("delay_seconds", -0.1),
    ])
    def test_bad_field_values_rejected(self, field, value):
        data = {"kind": "transient_error", "cell": 0}
        data[field] = value
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict(data)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault field"):
            FaultSpec.from_dict({"kind": "slow_cell", "cell": 0, "delay": 1})
        with pytest.raises(ConfigurationError, match="unknown fault plan field"):
            FaultPlan.from_dict({"seed": 1, "fault": []})

    def test_fault_for_respects_attempt_window_and_kind_filter(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient_error", cell=2, attempts=2),
            FaultSpec(kind="corrupt_cache_entry", cell=2),
        ))
        assert plan.fault_for(2, 0).kind == "transient_error"
        assert plan.fault_for(2, 1).kind == "transient_error"
        # Past the window, the transient fault stops firing...
        assert plan.fault_for(2, 2) is None
        # ...and the kind filter can skip over it.
        assert plan.fault_for(2, 0, kinds=("corrupt_cache_entry",)).kind == \
            "corrupt_cache_entry"
        assert plan.fault_for(5, 0) is None

    def test_inject_degrades_worker_crash_in_process(self):
        # In the serial fallback the adapter runs in the caller's process —
        # a scripted crash must become a retryable error, not kill the test.
        plan = FaultPlan(faults=(FaultSpec(kind="worker_crash", cell=0),))
        with pytest.raises(InjectedFaultError):
            plan.inject(0, 0, in_worker=False)
        plan.inject(0, 1, in_worker=False)  # outside the window: no-op

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_every_kind_is_constructible(self):
        for kind in FAULT_KINDS:
            FaultSpec(kind=kind, cell=0).validate()


class TestPlanFromEnv:
    def test_unset_means_no_injection(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert plan_from_env() is None

    def test_inline_json(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(CHAOS_PLAN))
        plan = plan_from_env()
        assert plan.seed == 7
        assert [fault.kind for fault in plan.faults] == \
            ["worker_crash", "transient_error"]

    @pytest.mark.parametrize("prefix", ["", "@"])
    def test_plan_file(self, tmp_path, monkeypatch, prefix):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(CHAOS_PLAN))
        monkeypatch.setenv("REPRO_FAULT_PLAN", prefix + str(path))
        assert plan_from_env().seed == 7

    def test_missing_file_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(tmp_path / "absent.json"))
        with pytest.raises(ConfigurationError, match="cannot read"):
            plan_from_env()

    def test_bad_inline_json_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"seed": "tuesday"}')
        with pytest.raises(ConfigurationError):
            plan_from_env()

    def test_parse_is_cached_per_raw_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(CHAOS_PLAN))
        assert plan_from_env() is plan_from_env()


# ----------------------------------------------------------------- supervisor


class TestRetryPolicy:
    def test_attempt_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.max_attempts == 3
        assert policy.allows_retry(0) and policy.allows_retry(1)
        assert not policy.allows_retry(2)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy()
        assert policy.backoff_seconds(4, 1) == policy.backoff_seconds(4, 1)
        # Exponential growth up to the cap, jitter bounded at +25%.
        for attempt in range(12):
            delay = policy.backoff_seconds(0, attempt)
            assert delay <= policy.backoff_cap_seconds * 1.25
        assert policy.backoff_seconds(0, 3) > policy.backoff_seconds(0, 0)

    def test_jitter_spreads_cells(self):
        policy = RetryPolicy()
        assert policy.backoff_seconds(0, 0) != policy.backoff_seconds(1, 0)

    def test_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_RETRIES", raising=False)
        assert retry_policy_from_env().max_retries == DEFAULT_CELL_RETRIES
        monkeypatch.setenv("REPRO_CELL_RETRIES", "0")
        assert retry_policy_from_env().max_retries == 0
        monkeypatch.setenv("REPRO_CELL_RETRIES", "-1")
        with pytest.raises(ConfigurationError, match="REPRO_CELL_RETRIES"):
            retry_policy_from_env()
        monkeypatch.setenv("REPRO_CELL_RETRIES", "lots")
        with pytest.raises(ConfigurationError, match="REPRO_CELL_RETRIES"):
            retry_policy_from_env()

    def test_timeout_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        assert cell_timeout_from_env() is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert cell_timeout_from_env() == 2.5
        for bad in ("0", "-3", "soon"):
            monkeypatch.setenv("REPRO_CELL_TIMEOUT", bad)
            with pytest.raises(ConfigurationError, match="REPRO_CELL_TIMEOUT"):
                cell_timeout_from_env()

    def test_transient_taxonomy(self):
        from concurrent.futures.process import BrokenProcessPool

        assert is_transient(InjectedFaultError("x"))
        assert is_transient(CellTimeoutError("x"))
        assert is_transient(TransientFaultError("x"))
        assert is_transient(BrokenProcessPool("x"))
        assert not is_transient(ValueError("x"))
        assert not is_transient(JobCancelledError("x"))

    def test_cancel_token(self):
        token = CancelToken()
        token.raise_if_cancelled()  # not cancelled: no-op
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        with pytest.raises(JobCancelledError):
            token.raise_if_cancelled()


# ------------------------------------------------------- supervised run_parallel


class TestSupervisedRunParallel:
    def test_transient_faults_retry_to_the_fault_free_result(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient_error", cell=0, attempts=2),
            FaultSpec(kind="transient_error", cell=2, attempts=1),
        ))
        tasks = [(i,) for i in range(4)]
        results = run_parallel(_double, tasks, jobs=1, cache=False,
                               fault_plan=plan)
        assert results == [2 * i for i in range(4)]
        assert supervisor_stats().retries == 3

    def test_exhausted_retry_budget_surfaces_the_fault(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient_error", cell=0,
                      attempts=DEFAULT_CELL_RETRIES + 1),
        ))
        with pytest.raises(InjectedFaultError):
            run_parallel(_double, [(1,)], jobs=1, cache=False, fault_plan=plan)

    def test_zero_retries_disables_retry(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "0")
        plan = FaultPlan(faults=(FaultSpec(kind="transient_error", cell=0),))
        with pytest.raises(InjectedFaultError):
            run_parallel(_double, [(1,)], jobs=1, cache=False, fault_plan=plan)

    def test_worker_crash_rebuilds_the_pool_and_converges(self):
        plan = FaultPlan(faults=(FaultSpec(kind="worker_crash", cell=1),))
        tasks = [(i,) for i in range(5)]
        results = run_parallel(_double, tasks, jobs=2, cache=False,
                               fault_plan=plan)
        assert results == [2 * i for i in range(5)]
        assert supervisor_stats().pool_rebuilds >= 1
        assert supervisor_stats().retries >= 1

    def test_worker_crash_degrades_to_retry_on_the_serial_path(self):
        plan = FaultPlan(faults=(FaultSpec(kind="worker_crash", cell=0),))
        results = run_parallel(_double, [(3,), (4,)], jobs=1, cache=False,
                               fault_plan=plan)
        assert results == [6, 8]
        assert supervisor_stats().pool_rebuilds == 0
        assert supervisor_stats().retries == 1

    def test_env_plan_activates_injection(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps({
            "faults": [{"kind": "transient_error", "cell": 0}],
        }))
        assert run_parallel(_double, [(5,), (6,)], jobs=1, cache=False) == [10, 12]
        assert supervisor_stats().retries == 1

    def test_permanent_failures_are_not_retried(self, tmp_path):
        marker = tmp_path / "runs.log"
        plan = FaultPlan(faults=(FaultSpec(kind="transient_error", cell=9),))

        with pytest.raises(ZeroDivisionError):
            run_parallel(_crash_permanently, [(0, str(marker))], jobs=1,
                         cache=False, fault_plan=plan)
        assert _marker_counts(marker) == {0: 1}
        assert supervisor_stats().permanent_failures == 1

    def test_timeout_kills_the_hung_cell_and_recovers(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0.4")
        plan = FaultPlan(faults=(
            FaultSpec(kind="slow_cell", cell=0, delay_seconds=5.0),
        ))
        tasks = [(i,) for i in range(3)]
        results = run_parallel(_double, tasks, jobs=2, cache=False,
                               fault_plan=plan)
        assert results == [0, 2, 4]
        assert supervisor_stats().timeouts >= 1
        assert supervisor_stats().pool_rebuilds >= 1

    def test_cache_answered_cells_are_never_recomputed(self, tmp_path, monkeypatch):
        """The acceptance property: recovery resubmits only cells the cache
        cannot answer — warmed cells never execute again, faults or not."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
        monkeypatch.setattr("repro.experiments.common.is_cacheable_function",
                            lambda function: True)
        marker = tmp_path / "runs.log"
        tasks = [(i, str(marker)) for i in range(6)]

        warm = run_parallel(_record_cell, tasks[:2], jobs=1)
        assert warm == [0, 7]
        marker.write_text("")

        plan = FaultPlan(faults=(
            FaultSpec(kind="worker_crash", cell=3),
            FaultSpec(kind="transient_error", cell=4, attempts=2),
        ), seed=7)
        results = run_parallel(_record_cell, tasks, jobs=2, fault_plan=plan)
        assert results == [i * 7 for i in range(6)]

        counts = _marker_counts(marker)
        # Zero recomputation of the cache-answered cells...
        assert 0 not in counts and 1 not in counts
        # ...while every cold cell genuinely executed.
        assert all(counts.get(cell, 0) >= 1 for cell in range(2, 6))

    def test_cancel_mid_sweep_stops_at_the_next_cell_boundary(self, tmp_path):
        global _BOUNDARY_TOKEN
        marker = tmp_path / "runs.log"
        token = CancelToken()
        _BOUNDARY_TOKEN = token
        try:
            with pytest.raises(JobCancelledError):
                run_parallel(_cancel_midway, [(i, str(marker)) for i in range(3)],
                             jobs=1, cache=False, cancel=token)
        finally:
            _BOUNDARY_TOKEN = None
        # Cell 0 ran (and fired the cancellation); cells 1 and 2 never did.
        assert _marker_counts(marker) == {0: 1}
        assert supervisor_stats().cancelled == 1

    def test_pre_cancelled_token_prevents_any_execution(self, tmp_path):
        marker = tmp_path / "runs.log"
        token = CancelToken()
        token.cancel()
        with pytest.raises(JobCancelledError):
            run_parallel(_record_cell, [(0, str(marker))], jobs=1, cache=False,
                         cancel=token)
        assert _marker_counts(marker) == {}

    def test_corrupted_cache_entry_is_quarantined_and_recomputed(
            self, tmp_path, monkeypatch):
        from repro.metrics.errors import mean

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
        plan = FaultPlan(faults=(
            FaultSpec(kind="corrupt_cache_entry", cell=0),
        ), seed=3)
        tasks = [([1.0, 3.0],), ([2.0, 4.0],)]

        first = run_parallel(mean, tasks, jobs=1, fault_plan=plan)
        # The corrupted shard reads back as a miss: quarantined, recomputed,
        # re-stored — and the payload never changes.
        second = run_parallel(mean, tasks, jobs=1)
        assert first == second == [2.0, 3.0]

        cache = get_result_cache()
        assert cache.stats.quarantined == 1
        specimens = list(cache.quarantine_dir().glob("*.pkl"))
        assert len(specimens) == 1
        assert specimens[0].read_bytes().startswith(b"\x80repro-injected-corruption:")
        # Third run: the re-stored entry is a clean hit.
        hits_before = cache.stats.hits
        assert run_parallel(mean, tasks, jobs=1) == [2.0, 3.0]
        assert cache.stats.hits == hits_before + 2


def _crash_permanently(index, marker_path):
    with open(marker_path, "a") as handle:
        handle.write(f"{index}\n")
    return index // 0


# -------------------------------------------------------------------- journal


class TestJournal:
    def test_path_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
        monkeypatch.delenv("REPRO_JOB_JOURNAL", raising=False)
        assert journal_path_from_env() == tmp_path / "artifacts" / "jobs.journal"
        for value in ("0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_JOB_JOURNAL", value)
            assert journal_path_from_env() is None
        monkeypatch.setenv("REPRO_JOB_JOURNAL", str(tmp_path / "my.journal"))
        assert journal_path_from_env() == tmp_path / "my.journal"

    def test_pending_is_submits_minus_terminals(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.record_submit("aaa", "scenario", {"name": "a"})
        journal.record_submit("bbb", "scenario", {"name": "b"}, priority=2)
        journal.record_terminal("aaa", "done")
        pending = journal.pending()
        assert [record["job"] for record in pending] == ["bbb"]
        assert pending[0]["priority"] == 2

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.record_submit("aaa", "scenario", {"name": "a"})
        with open(journal.path, "a") as handle:
            handle.write('{"type": "submit", "job": "bbb", "sp')  # killed mid-write
        assert [record["job"] for record in journal.pending()] == ["aaa"]

    def test_compact_drops_dead_records(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.record_submit("aaa", "scenario", {"name": "a"})
        journal.record_terminal("aaa", "done")
        journal.record_submit("bbb", "scenario", {"name": "b"})
        assert journal.compact() == 1
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 1 and '"bbb"' in lines[0]

    def test_append_errors_never_raise(self, tmp_path):
        journal = JobJournal(tmp_path)  # a directory: every append fails
        journal.record_submit("aaa", "scenario", {})
        assert journal.append_errors == 1
        assert journal.records() == []

    def test_stats_shape(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.record_submit("aaa", "scenario", {"name": "a"})
        stats = journal.stats()
        assert stats["appends"] == 1 and stats["pending"] == 1
        assert stats["path"].endswith("jobs.journal")


def _instant_runner(spec, jobs, progress, cancel=None):
    progress(1, 1)
    return {"scenario": spec.to_dict(), "tables": {"t": {"c": {"v": 1.0}}}}


def _make_manager(tmp_path, **kwargs):
    kwargs.setdefault("artifacts",
                      ArtifactStore(tmp_path / "artifacts", max_bytes=1 << 20))
    kwargs.setdefault("scenario_cache", False)
    return JobManager(**kwargs)


class _Gate:
    """Runner that blocks mid-job until released; optionally honours cancel."""

    def __init__(self, honour_cancel=True):
        self.started = threading.Semaphore(0)
        self.release = threading.Semaphore(0)
        self.honour_cancel = honour_cancel

    def __call__(self, spec, jobs, progress, cancel=None):
        self.started.release()
        if not self.release.acquire(timeout=30):
            raise RuntimeError("runner was never released")
        if self.honour_cancel and cancel is not None:
            cancel.raise_if_cancelled()
        progress(1, 1)
        return {"scenario": spec.to_dict(), "tables": {}}


class TestJournalReplayAndDrain:
    def test_submit_journals_before_running_and_terminal_clears_it(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        gate = _Gate()
        manager = _make_manager(tmp_path, runner=gate, journal=journal)
        try:
            job = manager.submit(ScenarioSpec.from_dict(CHAOS_SPEC))
            assert gate.started.acquire(timeout=10)
            # Journalled while in flight: a kill here would replay it.
            assert [record["job"] for record in journal.pending()] == [job.id]
            gate.release.release()
            assert manager.wait(job.id, timeout=10).state == JobState.DONE
            assert journal.pending() == []
        finally:
            manager.shutdown()

    def test_replay_resubmits_unfinished_jobs_with_original_ids(self, tmp_path):
        """A SIGKILLed server's journal: one job finished, one submitted but
        never terminal.  The next life replays exactly the unfinished one."""
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.record_submit("deadbeef0001", "scenario", CHAOS_SPEC)
        journal.record_terminal("deadbeef0001", "done")
        journal.record_submit("deadbeef0002", "scenario",
                              dict(CHAOS_SPEC, name="chaos-replayed"), priority=3)
        journal.record_submit("notaspec0003", "scenario", {"kind": "bogus"})

        manager = _make_manager(tmp_path, runner=_instant_runner, journal=journal)
        try:
            replayed = manager.replay_journal()
            # The finished job is skipped, the unparseable record tolerated.
            assert [job.id for job in replayed] == ["deadbeef0002"]
            done = manager.wait("deadbeef0002", timeout=10)
            assert done.state == JobState.DONE
            assert done.result["scenario"]["name"] == "chaos-replayed"
            assert journal.pending() == []
        finally:
            manager.shutdown()

    def test_replay_resubmits_composites(self, tmp_path):
        composite = CompositeSpec.from_dict({
            "name": "chaos-dag",
            "nodes": [
                {"name": "a", "spec": dict(CHAOS_SPEC, name="chaos-dag-a")},
                {"name": "b", "spec": dict(CHAOS_SPEC, name="chaos-dag-b"),
                 "depends_on": ["a"]},
            ],
        })
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.record_submit("cafecafe0001", "composite", composite.to_dict())
        manager = _make_manager(tmp_path, runner=_instant_runner, journal=journal)
        try:
            replayed = manager.replay_journal()
            assert [job.id for job in replayed] == ["cafecafe0001"]
            done = manager.wait("cafecafe0001", timeout=20)
            assert done.state == JobState.DONE
            assert set(done.children) == {"a", "b"}
            assert journal.pending() == []
        finally:
            manager.shutdown()

    def test_drain_parks_the_running_job_for_the_next_life(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        gate = _Gate(honour_cancel=True)
        manager = _make_manager(tmp_path, runner=gate, journal=journal)
        job = manager.submit(ScenarioSpec.from_dict(CHAOS_SPEC))
        assert gate.started.acquire(timeout=10)

        drained = threading.Thread(target=manager.drain, kwargs={"timeout": 0.2})
        drained.start()
        # While draining, new submissions are refused.
        deadline = time.monotonic() + 5.0
        while not manager._draining and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ServiceError, match="draining"):
            manager.submit(ScenarioSpec.from_dict(
                dict(CHAOS_SPEC, name="chaos-latecomer")))
        # ...and once the grace period parks the job, its token fires and the
        # runner unwinds at its cell boundary.
        time.sleep(0.5)
        gate.release.release()
        drained.join(timeout=15)
        assert not drained.is_alive()

        assert manager.get(job.id).state == JobState.CANCELLED
        # Parked: the terminal record was withheld, so the next life replays.
        assert [record["job"] for record in journal.pending()] == [job.id]

        second = _make_manager(tmp_path, runner=_instant_runner, journal=journal)
        try:
            assert [j.id for j in second.replay_journal()] == [job.id]
            assert second.wait(job.id, timeout=10).state == JobState.DONE
        finally:
            second.shutdown()

    def test_stats_reports_journal_and_supervisor(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        manager = _make_manager(tmp_path, runner=_instant_runner, journal=journal)
        try:
            stats = manager.stats()
            assert stats["journal"]["path"] == str(journal.path)
            assert set(stats["supervisor"]) == {
                "retries", "timeouts", "pool_rebuilds", "permanent_failures",
                "cancelled",
            }
        finally:
            manager.shutdown()

    def test_drain_seconds_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_DRAIN_SECONDS", raising=False)
        assert drain_seconds_from_env() == 30.0
        monkeypatch.setenv("REPRO_DRAIN_SECONDS", "5.5")
        assert drain_seconds_from_env() == 5.5
        for bad in ("-1", "soonish"):
            monkeypatch.setenv("REPRO_DRAIN_SECONDS", bad)
            with pytest.raises(ConfigurationError, match="REPRO_DRAIN_SECONDS"):
                drain_seconds_from_env()


# ------------------------------------------------------------------ SSE resume


class TestEventResume:
    def test_iter_events_resumes_from_start_index(self, tmp_path):
        manager = _make_manager(tmp_path, runner=_instant_runner)
        try:
            job = manager.submit(ScenarioSpec.from_dict(CHAOS_SPEC))
            manager.wait(job.id, timeout=10)
            events = list(manager.iter_events(job.id))
            seqs = [event["seq"] for event in events]
            assert seqs == list(range(len(events)))
            resumed = list(manager.iter_events(job.id, start_index=2))
            assert [event["seq"] for event in resumed] == seqs[2:]
            assert resumed == events[2:]
        finally:
            manager.shutdown()

    def test_http_last_event_id_skips_replayed_events(self, tmp_path):
        manager = _make_manager(tmp_path, runner=_instant_runner)
        server = create_server(port=0, manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            job = client.submit(CHAOS_SPEC)
            client.wait(job["id"], timeout=30)
            full = list(client.iter_events(job["id"]))
            request = urllib.request.Request(
                f"{client.base_url}/scenarios/{job['id']}/events",
                headers={"Accept": "text/event-stream", "Last-Event-ID": "1"},
            )
            seen_ids = []
            with urllib.request.urlopen(request, timeout=30) as response:
                for raw_line in response:
                    line = raw_line.decode("utf-8").strip()
                    if line.startswith("id:"):
                        seen_ids.append(int(line[3:].strip()))
            # Everything at or before the acknowledged id was skipped; the
            # rest arrived exactly once, in order.
            assert seen_ids == list(range(2, len(full)))
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown()


class _ScriptedStream:
    """A fake SSE response: canned lines, then EOF."""

    def __init__(self, lines):
        self._lines = [line.encode("utf-8") for line in lines]

    def readline(self):
        return self._lines.pop(0) if self._lines else b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _sse_frame(name, payload):
    return [f"event: {name}\n", f"id: {payload['seq']}\n",
            f"data: {json.dumps(payload)}\n", "\n"]


class TestClientReconnect:
    def test_iter_events_reconnects_once_with_last_event_id(self, monkeypatch):
        client = ServiceClient("http://service.invalid")
        first = _ScriptedStream(
            _sse_frame("queued", {"event": "queued", "seq": 0})
            + _sse_frame("running", {"event": "running", "seq": 1})
        )  # then EOF mid-job: the connection was cut
        second = _ScriptedStream(
            _sse_frame("done", {"event": "done", "seq": 2})
        )
        opened = []

        def scripted_open(method, path, request, timeout=None):
            opened.append(request.get_header("Last-event-id"))
            return first if len(opened) == 1 else second

        monkeypatch.setattr(client, "_open", scripted_open)
        monkeypatch.setattr("repro.service.client.time.sleep", lambda _s: None)
        events = list(client.iter_events("j1"))
        assert [event["event"] for event in events] == ["queued", "running", "done"]
        # First connect carries no cursor; the reconnect acknowledges seq 1.
        assert opened == [None, "1"]

    def test_second_cut_surfaces_the_failure(self, monkeypatch):
        client = ServiceClient("http://service.invalid")
        monkeypatch.setattr(
            client, "_open",
            lambda method, path, request, timeout=None: _ScriptedStream([]))
        monkeypatch.setattr("repro.service.client.time.sleep", lambda _s: None)
        with pytest.raises(ServiceError, match="without a terminal event"):
            list(client.iter_events("j1"))


class _JSONResponse:
    def __init__(self, payload):
        self._body = json.dumps(payload).encode("utf-8")

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestClientRetry:
    def test_transient_get_failures_retry_then_succeed(self, monkeypatch):
        client = ServiceClient("http://service.invalid")
        calls = []

        def flaky_open(method, path, request, timeout=None):
            calls.append(method)
            if len(calls) < 3:
                failure = ServiceError("cannot reach scenario service")
                failure.transient = True
                raise failure
            return _JSONResponse({"status": "ok"})

        sleeps = []
        monkeypatch.setattr(client, "_open", flaky_open)
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        assert client.healthz() == {"status": "ok"}
        assert calls == ["GET", "GET", "GET"]
        # Capped exponential backoff between attempts, deterministic jitter.
        assert len(sleeps) == 2 and sleeps[1] > sleeps[0]

    def test_http_errors_are_authoritative_not_retried(self, monkeypatch):
        client = ServiceClient("http://service.invalid")
        calls = []

        def denied_open(method, path, request, timeout=None):
            calls.append(method)
            raise ServiceError("GET /stats failed with HTTP 404")

        monkeypatch.setattr(client, "_open", denied_open)
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.stats()
        assert calls == ["GET"]

    def test_posts_are_never_retried(self, monkeypatch):
        client = ServiceClient("http://service.invalid")
        calls = []

        def flaky_open(method, path, request, timeout=None):
            calls.append(method)
            failure = ServiceError("cannot reach scenario service")
            failure.transient = True
            raise failure

        monkeypatch.setattr(client, "_open", flaky_open)
        with pytest.raises(ServiceError):
            client.submit(CHAOS_SPEC)
        assert calls == ["POST"]

    def test_connection_refused_is_marked_transient(self, monkeypatch):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{dead_port}", timeout=2)
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        with pytest.raises(ServiceError, match="cannot reach") as caught:
            client.healthz()
        assert getattr(caught.value, "transient", False) is True
        from repro.service.client import GET_RETRIES

        assert len(sleeps) == GET_RETRIES

    def test_wait_poll_interval_grows_and_caps(self, monkeypatch):
        client = ServiceClient("http://service.invalid")
        states = ["queued"] + ["running"] * 11 + ["done"]
        monkeypatch.setattr(
            client, "status",
            lambda job_id: {"state": states.pop(0), "id": job_id})
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        status = client.wait("j1", timeout=600, poll_seconds=0.1)
        assert status["state"] == "done"
        assert len(sleeps) == 12
        assert sleeps[1] > sleeps[0]
        assert all(pause <= 2.0 * 1.25 for pause in sleeps)
        # The growth saturates: the tail polls sit at the cap (plus jitter).
        assert min(sleeps[-3:]) >= 2.0


# -------------------------------------------------------------- service chaos


@pytest.fixture
def chaos_service(tmp_path, monkeypatch):
    """A live server with two sweep workers so worker crashes really crash."""
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
    server = create_server(
        port=0, sweep_jobs=2,
        artifacts=ArtifactStore(tmp_path / "artifacts", max_bytes=1 << 22),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.port}")
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        shutdown_executor()


class TestServiceChaos:
    def test_chaos_spec_has_the_cells_the_plan_targets(self):
        assert len(expand_cells(ScenarioSpec.from_dict(CHAOS_SPEC))) == 2

    def test_faulted_scenario_job_is_bit_identical_to_fault_free(
            self, chaos_service):
        """The acceptance flow: one worker crash plus two transient failures,
        and the job's payload still matches the fault-free run exactly."""
        job = chaos_service.submit(dict(CHAOS_SPEC, fault_plan=CHAOS_PLAN))
        status = chaos_service.wait(job["id"], timeout=180)
        assert status["state"] == JobState.DONE
        result = chaos_service.result(job["id"])

        direct = run_scenario(ScenarioSpec.from_dict(CHAOS_SPEC), jobs=1).to_dict()
        assert json.dumps(result, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)
        # The recovery really happened: the supervisor retried and rebuilt.
        supervisor = chaos_service.stats()["supervisor"]
        assert supervisor["retries"] >= 3
        assert supervisor["pool_rebuilds"] >= 1

    def test_faulted_composite_job_is_bit_identical_to_fault_free(
            self, chaos_service):
        composite = {
            "name": "chaos-composite",
            "nodes": [
                {"name": "a",
                 "spec": dict(CHAOS_SPEC, name="chaos-member-a",
                              fault_plan=CHAOS_PLAN)},
                {"name": "b",
                 "spec": dict(CHAOS_SPEC, name="chaos-member-b",
                              fault_plan=CHAOS_PLAN),
                 "depends_on": ["a"]},
            ],
        }
        job = chaos_service.submit_composite(composite)
        status = chaos_service.wait(job["id"], timeout=300)
        assert status["state"] == JobState.DONE
        for node, member in (("a", "chaos-member-a"), ("b", "chaos-member-b")):
            child_id = status["children"][node]
            direct = run_scenario(
                ScenarioSpec.from_dict(dict(CHAOS_SPEC, name=member)), jobs=1
            ).to_dict()
            assert json.dumps(chaos_service.result(child_id), sort_keys=True) \
                == json.dumps(direct, sort_keys=True)

    def test_delete_cancels_a_running_job_within_one_cell_boundary(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        server = create_server(
            port=0, sweep_jobs=1,
            artifacts=ArtifactStore(tmp_path / "cancel-artifacts",
                                    max_bytes=1 << 22),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            # Three cells, the first held open long enough to cancel into.
            spec = dict(CHAOS_SPEC, name="chaos-cancel",
                        workloads={"groups": ["H"], "per_group": 3},
                        fault_plan={"faults": [
                            {"kind": "slow_cell", "cell": 0,
                             "delay_seconds": 3.0},
                        ]})
            job = client.submit(spec)
            # Wait until the sweep is genuinely inside its first (slow) cell
            # — the boundary checks before it would cancel "too cleanly".
            deadline = time.monotonic() + 30
            while True:
                status = client.status(job["id"])
                assert status["state"] not in JobState.TERMINAL
                if (status["state"] == JobState.RUNNING
                        and status["progress"]["total"] > 0):
                    break
                assert time.monotonic() < deadline
                time.sleep(0.01)
            accepted = client.cancel(job["id"])
            assert accepted["state"] in (JobState.CANCELLING, JobState.CANCELLED)
            final = client.wait(job["id"], timeout=60)
            assert final["state"] == JobState.CANCELLED
            # The sweep stopped at the first boundary: later cells never ran.
            assert final["progress"]["done"] < final["progress"]["total"]
        finally:
            server.shutdown()
            server.server_close()
            server.manager.shutdown()
            shutdown_executor()
