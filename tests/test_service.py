"""Tests for the scenario service: job manager, HTTP API, end-to-end runs."""

import json
import threading
import time

import pytest

from repro.errors import ConfigurationError, JobConflictError, ServiceError
from repro.scenarios import CompositeSpec, ScenarioSpec, run_scenario
from repro.service import (
    ArtifactStore,
    JobManager,
    JobState,
    ServiceClient,
    create_server,
    scenario_digest,
)
from repro.service.http import service_port_from_env

TINY_SPEC = {
    "name": "service-tiny",
    "kind": "accuracy",
    "machine": {"core_counts": [2], "llc_kilobytes": 64},
    "workloads": {"groups": ["H"], "per_group": 1},
    "techniques": ["GDP"],
    "instructions_per_core": 4000,
    "interval_instructions": 2000,
}


def tiny_spec(**overrides) -> ScenarioSpec:
    return ScenarioSpec.from_dict(dict(TINY_SPEC, **overrides))


def tiny_composite(*chain_names: str, name: str = "svc-composite",
                   member_prefix: str | None = None) -> CompositeSpec:
    """A linear composite whose members are tiny accuracy specs.

    ``member_prefix`` names the member specs independently of the composite
    name, so two differently-named composites can share identical members.
    """
    prefix = member_prefix if member_prefix is not None else name
    nodes = []
    for index, node_name in enumerate(chain_names):
        nodes.append({
            "name": node_name,
            "spec": dict(TINY_SPEC, name=f"{prefix}-{node_name}"),
            "depends_on": [chain_names[index - 1]] if index else [],
        })
    return CompositeSpec.from_dict({"name": name, "nodes": nodes})


class GatedRunner:
    """A fake spec runner the tests can hold mid-flight and release."""

    def __init__(self):
        self.started = threading.Semaphore(0)
        self.release = threading.Semaphore(0)
        self.calls = []

    def __call__(self, spec, jobs, progress, cancel=None):
        # Deliberately ignores the cancel token: models an engine run that
        # drains to completion despite a cancellation request.
        self.calls.append(spec.name)
        self.started.release()
        if not self.release.acquire(timeout=30):
            raise RuntimeError("runner was never released")
        progress(1, 1)
        return {"scenario": spec.to_dict(), "tables": {"fake": {"cell": {"v": 1.0}}}}


class CancellableRunner(GatedRunner):
    """A gated runner that honours the cancel token at its one cell boundary."""

    def __call__(self, spec, jobs, progress, cancel=None):
        self.calls.append(spec.name)
        self.started.release()
        if not self.release.acquire(timeout=30):
            raise RuntimeError("runner was never released")
        if cancel is not None:
            cancel.raise_if_cancelled()
        progress(1, 1)
        return {"scenario": spec.to_dict(), "tables": {"fake": {"cell": {"v": 1.0}}}}


@pytest.fixture
def manager(tmp_path):
    managers = []

    def build(**kwargs):
        kwargs.setdefault(
            "artifacts", ArtifactStore(tmp_path / "artifacts", max_bytes=1 << 20)
        )
        built = JobManager(**kwargs)
        managers.append(built)
        return built

    yield build
    for built in managers:
        built.shutdown()


class TestScenarioDigest:
    def test_digest_is_stable_for_equal_specs(self):
        assert scenario_digest(tiny_spec()) == scenario_digest(tiny_spec())

    def test_digest_changes_with_the_spec(self):
        assert scenario_digest(tiny_spec()) != scenario_digest(
            tiny_spec(instructions_per_core=8000)
        )

    def test_digest_changes_with_batching_knob(self, monkeypatch):
        baseline = scenario_digest(tiny_spec())
        monkeypatch.setenv("REPRO_BATCH_CYCLES", "0")
        assert scenario_digest(tiny_spec()) != baseline


class TestJobManager:
    def test_submit_validates_spec(self, manager):
        jobs = manager(runner=GatedRunner())
        with pytest.raises(ConfigurationError, match="unknown accounting technique"):
            jobs.submit(tiny_spec(techniques=("Nope",)))

    def test_job_runs_to_done(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        job = jobs.submit(tiny_spec())
        assert job.state == JobState.QUEUED
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        done = jobs.wait(job.id, timeout=10)
        assert done.state == JobState.DONE
        assert done.result["tables"] == {"fake": {"cell": {"v": 1.0}}}
        assert done.cells_done == 1 and done.cells_total == 1

    def test_cancel_queued_job(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        blocker = jobs.submit(tiny_spec(name="blocker"))
        assert runner.started.acquire(timeout=10)  # blocker is now running
        queued = jobs.submit(tiny_spec(name="victim"))
        cancelled = jobs.cancel(queued.id)
        assert cancelled.state == JobState.CANCELLED
        runner.release.release()
        assert jobs.wait(blocker.id, timeout=10).state == JobState.DONE
        # The cancelled job must never have executed.
        assert "victim" not in runner.calls

    def test_cancel_running_job_drains_cooperatively(self, manager):
        """Cancelling a running job enters 'cancelling'; the engine honours
        the token at the next cell boundary and the job lands 'cancelled'."""
        runner = CancellableRunner()
        jobs = manager(runner=runner)
        job = jobs.submit(tiny_spec())
        assert runner.started.acquire(timeout=10)  # queued -> running happened
        cancelling = jobs.cancel(job.id)
        assert cancelling.state == JobState.CANCELLING
        assert job.cancel is not None and job.cancel.cancelled
        # Cancelling again is idempotent, not a conflict.
        assert jobs.cancel(job.id).state == JobState.CANCELLING
        runner.release.release()
        done = jobs.wait(job.id, timeout=10)
        assert done.state == JobState.CANCELLED
        kinds = [event["event"] for event in jobs.iter_events(job.id)]
        assert kinds[-2:] == ["cancelling", "cancelled"]
        # The runner was entered (the work had started) exactly once.
        assert runner.calls == ["service-tiny"]

    def test_cancel_running_job_that_completes_anyway_is_done(self, manager):
        """A run that finishes before noticing the token still lands 'done' —
        the work was already paid for and the result is valid."""
        runner = GatedRunner()  # ignores the token
        jobs = manager(runner=runner)
        job = jobs.submit(tiny_spec())
        assert runner.started.acquire(timeout=10)
        assert jobs.cancel(job.id).state == JobState.CANCELLING
        runner.release.release()
        assert jobs.wait(job.id, timeout=10).state == JobState.DONE

    def test_cancel_finished_job_conflicts(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        job = jobs.submit(tiny_spec())
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        jobs.wait(job.id, timeout=10)
        with pytest.raises(JobConflictError, match="is done"):
            jobs.cancel(job.id)

    def test_cancel_unknown_job(self, manager):
        jobs = manager(runner=GatedRunner())
        with pytest.raises(ServiceError, match="unknown job"):
            jobs.cancel("bogus")

    def test_priority_orders_the_queue(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        blocker = jobs.submit(tiny_spec(name="blocker"))
        assert runner.started.acquire(timeout=10)
        low = jobs.submit(tiny_spec(name="low"), priority=-1)
        high = jobs.submit(tiny_spec(name="high"), priority=5)
        for _ in range(3):
            runner.release.release()
        jobs.wait(low.id, timeout=10)
        jobs.wait(high.id, timeout=10)
        assert runner.calls == ["blocker", "high", "low"]

    def test_failed_job_records_error_and_dispatcher_survives(self, manager):
        def exploding(spec, jobs, progress, cancel=None):
            if spec.name == "bad":
                raise ValueError("boom")
            return {"scenario": spec.to_dict(), "tables": {}}

        jobs = manager(runner=exploding, scenario_cache=False)
        failed = jobs.wait(jobs.submit(tiny_spec(name="bad")).id, timeout=10)
        assert failed.state == JobState.FAILED
        assert "ValueError: boom" in failed.error
        # The dispatcher survives a failing job and runs the next one.
        ok = jobs.wait(jobs.submit(tiny_spec(name="good")).id, timeout=10)
        assert ok.state == JobState.DONE

    def test_scenario_cache_serves_repeat_submission(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        first = jobs.submit(tiny_spec())
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        jobs.wait(first.id, timeout=10)
        second = jobs.submit(tiny_spec())
        assert second.state == JobState.DONE
        assert second.cached is True
        assert second.result == first.result
        assert runner.calls == ["service-tiny"]  # engine ran exactly once
        assert jobs.scenario_hits == 1 and jobs.scenario_misses == 1

    def test_torn_artifact_is_quarantined_and_recomputed(self, manager,
                                                         tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
        jobs = manager(sweep_jobs=1)
        first = jobs.wait(jobs.submit(tiny_spec()).id, timeout=120)
        assert first.state == JobState.DONE
        path = jobs.artifacts.entry_path(first.digest)
        path.write_text('{"tables": {')  # a torn write
        assert jobs.artifacts.get(first.digest) is None
        assert not path.exists()
        specimen = jobs.artifacts.quarantine_dir() / path.name
        assert specimen.read_text() == '{"tables": {'
        assert jobs.artifacts.stats.quarantined == 1
        second = jobs.wait(jobs.submit(tiny_spec()).id, timeout=120)
        assert second.state == JobState.DONE and second.cached is False
        assert second.result == first.result
        assert json.loads(path.read_text()) == first.result

    def test_finished_jobs_are_pruned_beyond_the_bound(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner, scenario_cache=False, max_finished_jobs=2)
        ids = []
        for index in range(4):
            job = jobs.submit(tiny_spec(name=f"pruned-{index}"))
            assert runner.started.acquire(timeout=10)
            runner.release.release()
            jobs.wait(job.id, timeout=10)
            ids.append(job.id)
        remaining = {job.id for job in jobs.jobs()}
        assert remaining == set(ids[-2:])
        with pytest.raises(ServiceError, match="unknown job"):
            jobs.get(ids[0])

    def test_pruning_never_touches_queued_or_running_jobs(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner, scenario_cache=False, max_finished_jobs=1)
        running = jobs.submit(tiny_spec(name="running"))
        assert runner.started.acquire(timeout=10)
        queued = jobs.submit(tiny_spec(name="queued"))
        # Finish two more... they cannot run until released, so finish the
        # first two instead and check the live ones survive the pruning.
        runner.release.release()
        jobs.wait(running.id, timeout=10)
        assert runner.started.acquire(timeout=10)  # "queued" is now running
        runner.release.release()
        jobs.wait(queued.id, timeout=10)
        assert queued.id in {job.id for job in jobs.jobs()}

    def test_stats_shape(self, manager):
        jobs = manager(runner=GatedRunner())
        stats = jobs.stats()
        assert stats["queue_depth"] == 0
        assert stats["jobs_total"] == 0
        assert set(stats["scenario_cache"]) >= {"hits", "misses", "stores"}
        assert set(stats["cell_cache"]) >= {"enabled", "hits", "misses"}
        assert 0.0 <= stats["worker_utilisation"] <= 1.0
        assert set(stats["supervisor"]) >= {"retries", "timeouts",
                                            "pool_rebuilds", "cancelled"}
        assert stats["journal"] is None  # no journal configured here


class TestJobEvents:
    def test_event_log_records_the_full_lifecycle(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        job = jobs.submit(tiny_spec())
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        jobs.wait(job.id, timeout=10)
        kinds = [event["event"] for event in jobs.iter_events(job.id)]
        assert kinds[0] == "queued"
        assert "running" in kinds
        assert {"done": 1, "total": 1} == next(
            {"done": e["done"], "total": e["total"]}
            for e in jobs.iter_events(job.id) if e["event"] == "progress"
        )
        assert kinds[-1] == "done"

    def test_iter_events_streams_live_and_ends_on_terminal(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        job = jobs.submit(tiny_spec())
        seen = []
        done = threading.Event()

        def consume():
            for event in jobs.iter_events(job.id, heartbeat_seconds=0.05):
                if event["event"] != "heartbeat":
                    seen.append(event["event"])
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        assert done.wait(timeout=10), "event stream never reached the terminal event"
        assert seen[0] == "queued" and seen[-1] == "done"

    def test_heartbeats_are_emitted_while_idle(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        job = jobs.submit(tiny_spec())
        assert runner.started.acquire(timeout=10)
        stream = jobs.iter_events(job.id, heartbeat_seconds=0.05)
        kinds = [next(stream)["event"] for _ in range(4)]
        assert "heartbeat" in kinds
        runner.release.release()
        jobs.wait(job.id, timeout=10)

    def test_unknown_job_raises(self, manager):
        jobs = manager(runner=GatedRunner())
        with pytest.raises(ServiceError, match="unknown job"):
            next(jobs.iter_events("bogus"))

    def test_stream_survives_job_pruning_mid_stream(self, manager):
        """Regression: a subscriber must receive the terminal event even if
        retention prunes the job while the stream is open."""
        runner = GatedRunner()
        jobs = manager(runner=runner, scenario_cache=False, max_finished_jobs=1)
        job = jobs.submit(tiny_spec(name="pruned"))
        stream = jobs.iter_events(job.id, heartbeat_seconds=0.05)
        assert next(stream)["event"] == "queued"
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        jobs.wait(job.id, timeout=10)
        # Evict the finished job while the subscriber is mid-stream.
        evictor = jobs.submit(tiny_spec(name="evictor"))
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        jobs.wait(evictor.id, timeout=10)
        with pytest.raises(ServiceError, match="unknown job"):
            jobs.get(job.id)
        kinds = [event["event"] for event in stream
                 if event["event"] != "heartbeat"]
        assert kinds[-1] == "done"

    def test_cached_job_stream_is_immediately_terminal(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        first = jobs.submit(tiny_spec())
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        jobs.wait(first.id, timeout=10)
        second = jobs.submit(tiny_spec())
        kinds = [event["event"] for event in jobs.iter_events(second.id)]
        assert kinds == ["done"]


class TestCompositeJobs:
    def test_composite_fans_out_children_in_dependency_order(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner, scenario_cache=False)
        parent = jobs.submit_composite(tiny_composite("a", "b"))
        assert parent.kind == "composite"
        assert runner.started.acquire(timeout=10)
        # Only the root has been submitted; b waits for a.
        assert set(parent.children) == {"a"}
        runner.release.release()
        assert runner.started.acquire(timeout=10)
        assert set(parent.children) == {"a", "b"}
        runner.release.release()
        finished = jobs.wait(parent.id, timeout=10)
        assert finished.state == JobState.DONE
        assert finished.node_states == {"a": "done", "b": "done"}
        assert runner.calls == ["svc-composite-a", "svc-composite-b"]
        assert list(finished.result["nodes"]) == ["a", "b"]
        child = jobs.get(parent.children["a"])
        assert child.parent_id == parent.id and child.node == "a"
        assert finished.result["nodes"]["a"] == child.result

    def test_composite_member_failure_fails_parent_with_partial_results(
            self, manager):
        def exploding(spec, jobs, progress, cancel=None):
            if spec.name.endswith("-b"):
                raise ValueError("boom")
            return {"scenario": spec.to_dict(), "tables": {"fake": {}}}

        jobs = manager(runner=exploding, scenario_cache=False)
        parent = jobs.submit_composite(tiny_composite("a", "b", "c"))
        finished = jobs.wait(parent.id, timeout=10)
        assert finished.state == JobState.FAILED
        assert "node 'b' failed" in finished.error
        assert finished.node_states == {"a": "done", "b": "failed", "c": "skipped"}
        # Partial results keep the finished member and mirror the CLI path's
        # failure shape: node_states plus per-node node_errors.
        assert list(finished.result["nodes"]) == ["a"]
        assert finished.result["node_states"]["c"] == "skipped"
        assert "ValueError: boom" in finished.result["node_errors"]["b"]

    def test_cancel_composite_propagates_to_descendants(self, manager):
        runner = CancellableRunner()
        jobs = manager(runner=runner, scenario_cache=False)
        parent = jobs.submit_composite(tiny_composite("a", "b", "c"))
        assert runner.started.acquire(timeout=10)  # a is running
        cancelling = jobs.cancel(parent.id)
        # The running member drains cooperatively; the parent waits for it.
        assert cancelling.state == JobState.CANCELLING
        assert cancelling.node_states["b"] == "skipped"
        assert cancelling.node_states["c"] == "skipped"
        # Cancelling again while draining is idempotent.
        assert jobs.cancel(parent.id).state == JobState.CANCELLING
        runner.release.release()  # let a hit its cell boundary
        cancelled = jobs.wait(parent.id, timeout=10)
        assert cancelled.state == JobState.CANCELLED
        # The drained member must not have spawned its dependents.
        assert set(parent.children) == {"a"}
        assert runner.calls == ["svc-composite-a"]
        child = jobs.get(parent.children["a"])
        assert child.state == JobState.CANCELLED
        with pytest.raises(JobConflictError, match="finished composite"):
            jobs.cancel(parent.id)

    def test_composite_resubmission_is_a_cache_hit(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        parent = jobs.submit_composite(tiny_composite("a", "b"))
        for _ in range(2):
            assert runner.started.acquire(timeout=10)
            runner.release.release()
        first = jobs.wait(parent.id, timeout=10)
        assert first.state == JobState.DONE
        second = jobs.submit_composite(tiny_composite("a", "b"))
        assert second.state == JobState.DONE
        assert second.cached is True
        assert second.result == first.result
        assert second.children == {}  # no members ran
        assert len(runner.calls) == 2

    def test_member_level_cache_short_circuits_nodes(self, manager):
        """A composite sharing a member with an earlier plain job reuses it."""
        runner = GatedRunner()
        jobs = manager(runner=runner)
        plain = jobs.submit(tiny_spec(name="svc-composite-a"))
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        jobs.wait(plain.id, timeout=10)
        parent = jobs.submit_composite(tiny_composite("a", "b"))
        assert runner.started.acquire(timeout=10)  # only b simulates
        runner.release.release()
        finished = jobs.wait(parent.id, timeout=10)
        assert finished.state == JobState.DONE
        assert finished.result["node_cached"] == {"a": True, "b": False}
        assert runner.calls == ["svc-composite-a", "svc-composite-b"]

    def test_deep_all_cached_chain_fans_out_iteratively(self, manager):
        """Regression: a long chain of artifact-cached members must cascade
        through the worklist loop, not the call stack — the old recursive
        fan-out blew the recursion limit around ~250 nodes and stranded the
        parent job in 'running'."""
        def instant(spec, jobs, progress, cancel=None):
            return {"scenario": spec.to_dict(), "tables": {}}

        jobs = manager(runner=instant, max_finished_jobs=10_000)
        names = [f"n{index}" for index in range(300)]
        first = jobs.submit_composite(
            tiny_composite(*names, name="deep-1", member_prefix="deep"))
        assert jobs.wait(first.id, timeout=120).state == JobState.DONE
        # Identical members under a different composite name: every node is
        # an artifact hit, so the entire 300-node fan-out happens inside this
        # one submit_composite call.
        second = jobs.submit_composite(
            tiny_composite(*names, name="deep-2", member_prefix="deep"))
        assert second.state == JobState.DONE
        assert second.cached is False  # composite-level digest differs
        assert all(state == "done" for state in second.node_states.values())
        assert second.result["node_cached"] == {name: True for name in names}

    def test_drained_member_outcome_is_mirrored_after_parent_cancel(
            self, manager):
        """Regression: a member still running when its parent is cancelled
        must have its real outcome mirrored into the parent's node table once
        it drains (not stay 'running' forever), without appending events
        after the parent's terminal event."""
        runner = GatedRunner()
        jobs = manager(runner=runner, scenario_cache=False)
        parent = jobs.submit_composite(tiny_composite("a", "b"))
        assert runner.started.acquire(timeout=10)  # a is running
        jobs.cancel(parent.id)
        runner.release.release()
        child = jobs.get(parent.children["a"])
        assert jobs.wait(child.id, timeout=10).state == JobState.DONE
        assert parent.node_states["a"] == "done"
        assert parent.node_states["b"] == "skipped"
        events = list(jobs.iter_events(parent.id))
        assert events[-1]["event"] == "cancelled"

    def test_composite_events_carry_node_lifecycle(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner, scenario_cache=False)
        parent = jobs.submit_composite(tiny_composite("a", "b"))
        for _ in range(2):
            assert runner.started.acquire(timeout=10)
            runner.release.release()
        jobs.wait(parent.id, timeout=10)
        events = list(jobs.iter_events(parent.id))
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "done"
        node_starts = [e["node"] for e in events if e["event"] == "node_start"]
        node_dones = [e["node"] for e in events if e["event"] == "node_done"]
        assert node_starts == ["a", "b"]
        assert node_dones == ["a", "b"]
        assert any(e["event"] == "node_progress" for e in events)


class TestTerminalRetention:
    def test_children_with_live_parent_are_never_evicted(self, manager):
        """Regression: retention must evict only parentless terminal jobs.

        The composite's children finish first, making them the oldest
        terminal records; a flood of later singleton jobs must evict those
        singletons, never the children a live parent still references.
        """
        runner = GatedRunner()
        jobs = manager(runner=runner, scenario_cache=False, max_finished_jobs=3)
        parent = jobs.submit_composite(tiny_composite("a", "b"))
        for _ in range(2):
            assert runner.started.acquire(timeout=10)
            runner.release.release()
        assert jobs.wait(parent.id, timeout=10).state == JobState.DONE
        child_ids = set(parent.children.values())
        flood_ids = []
        for index in range(2):
            job = jobs.submit(tiny_spec(name=f"flood-{index}"))
            assert runner.started.acquire(timeout=10)
            runner.release.release()
            jobs.wait(job.id, timeout=10)
            flood_ids.append(job.id)
        remaining = {job.id for job in jobs.jobs()}
        # Only 3 parentless terminal jobs exist (parent + 2 flood), exactly
        # the bound: nothing may be evicted.  Insertion-order eviction would
        # have counted the 2 children too (5 > 3) and dropped the oldest
        # records — the still-referenced children — first.
        assert parent.id in remaining
        assert child_ids <= remaining
        assert set(flood_ids) <= remaining
        for child_id in child_ids:
            assert jobs.get(child_id).state == JobState.DONE

    def test_evicting_a_parent_evicts_its_children(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner, scenario_cache=False, max_finished_jobs=1)
        parent = jobs.submit_composite(tiny_composite("a"))
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        assert jobs.wait(parent.id, timeout=10).state == JobState.DONE
        child_ids = set(parent.children.values())
        later = jobs.submit(tiny_spec(name="later"))
        assert runner.started.acquire(timeout=10)
        runner.release.release()
        jobs.wait(later.id, timeout=10)
        remaining = {job.id for job in jobs.jobs()}
        assert parent.id not in remaining
        assert not (child_ids & remaining)
        assert later.id in remaining


class TestJobManagerStress:
    def test_submitters_and_canceller_race_the_dispatcher(self, manager):
        """Concurrency stress: no job lost, no illegal transition, 409 intact.

        Eight submitter threads race a canceller against the dispatcher; the
        event log of every job must afterwards describe a legal path through
        the state machine, every cancelled job must never have executed, and
        every JobConflictError must correspond to a job that had left the
        queued state.
        """
        executed = []
        executed_lock = threading.Lock()

        def runner(spec, jobs, progress, cancel=None):
            with executed_lock:
                executed.append(spec.name)
            progress(1, 1)
            return {"scenario": spec.to_dict(), "tables": {}}

        jobs = manager(runner=runner, scenario_cache=False,
                       max_finished_jobs=10_000)
        submitted: dict[str, str] = {}
        submitted_lock = threading.Lock()
        conflicts: list[str] = []
        stop_cancelling = threading.Event()

        def submitter(worker: int) -> None:
            for index in range(10):
                job = jobs.submit(tiny_spec(name=f"stress-{worker}-{index}"),
                                  priority=index % 3)
                with submitted_lock:
                    submitted[job.id] = job.spec.name

        cancelled_by_us: set[str] = set()

        def canceller() -> None:
            while not stop_cancelling.is_set():
                with submitted_lock:
                    ids = list(submitted)
                for job_id in ids[-5:]:
                    if job_id in cancelled_by_us:
                        continue
                    try:
                        jobs.cancel(job_id)
                        cancelled_by_us.add(job_id)
                    except JobConflictError:
                        conflicts.append(job_id)
                    except ServiceError:
                        pass
                time.sleep(0.001)

        threads = [threading.Thread(target=submitter, args=(worker,))
                   for worker in range(8)]
        cancel_thread = threading.Thread(target=canceller, daemon=True)
        cancel_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for job_id in list(submitted):
            assert jobs.wait(job_id, timeout=60).finished
        stop_cancelling.set()
        cancel_thread.join(timeout=10)

        assert len(submitted) == 80  # no submission lost
        valid_paths = (
            ("queued", "running", "done"),
            ("queued", "cancelled"),
        )
        cancelled_names = set()
        for job_id, name in submitted.items():
            job = jobs.get(job_id)
            assert job.finished
            transitions = tuple(
                event["event"] for event in jobs.iter_events(job_id)
                if event["event"] in ("queued", "running", "done", "failed",
                                      "cancelled")
            )
            assert transitions in valid_paths, (name, transitions)
            if job.state == JobState.CANCELLED:
                cancelled_names.add(name)
        # Cancelled jobs never reached the runner; completed jobs all did.
        with executed_lock:
            executed_names = set(executed)
        assert not (cancelled_names & executed_names)
        assert executed_names == set(submitted.values()) - cancelled_names
        # Every 409 was raised for a job that had genuinely left the queue:
        # the canceller never retries its own cancellations, so a conflicted
        # job must have been running (and by now completed) at cancel time.
        for job_id in conflicts:
            assert jobs.get(job_id).state == JobState.DONE


@pytest.fixture
def service(tmp_path, monkeypatch):
    """A live server on an ephemeral port, with isolated caches."""
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
    server = create_server(
        port=0, sweep_jobs=1,
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


class TestServiceEndToEnd:
    def test_healthz(self, service):
        assert service.healthz() == {"status": "ok"}

    def test_submit_poll_result_and_scenario_cache_hit(self, service):
        """The headline acceptance flow: HTTP result == direct engine result,
        bit-identically, and an identical resubmission is a cache hit."""
        job = service.submit(TINY_SPEC)
        assert job["state"] in (JobState.QUEUED, JobState.RUNNING, JobState.DONE)
        status = service.wait(job["id"], timeout=120)
        assert status["state"] == JobState.DONE
        assert status["cached"] is False
        result = service.result(job["id"])
        direct = run_scenario(ScenarioSpec.from_dict(TINY_SPEC), jobs=1).to_dict()
        assert result == direct
        assert json.dumps(result, sort_keys=True) == json.dumps(direct, sort_keys=True)
        # Second submission: served from the scenario-level artifact cache.
        second = service.submit(TINY_SPEC)
        assert second["state"] == JobState.DONE
        assert second["cached"] is True
        assert service.result(second["id"]) == result
        stats = service.stats()
        assert stats["scenario_cache"]["hits"] == 1

    def test_concurrent_submissions_all_complete(self, service):
        specs = [dict(TINY_SPEC, name=f"concurrent-{index}") for index in range(4)]
        ids = []
        threads = []
        lock = threading.Lock()

        def submit(payload):
            job = service.submit(payload)
            with lock:
                ids.append(job["id"])

        for payload in specs:
            thread = threading.Thread(target=submit, args=(payload,))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=30)
        assert len(ids) == 4
        for job_id in ids:
            assert service.wait(job_id, timeout=180)["state"] == JobState.DONE

    def test_new_scenario_kinds_run_over_http(self, service):
        attribution = {
            "name": "svc-attribution", "kind": "interference_attribution",
            "machine": {"core_counts": [2], "llc_kilobytes": 64},
            "workloads": {"groups": ["H"], "per_group": 1},
            "instructions_per_core": 4000, "interval_instructions": 2000,
        }
        switching = {
            "name": "svc-switching", "kind": "policy_switching",
            "machine": {"core_counts": [2], "llc_kilobytes": 64},
            "workloads": {"groups": ["H"], "per_group": 1},
            "techniques": ["GDP-O"], "policies": ["LRU", "MCP"],
            "instructions_per_core": 6000, "interval_instructions": 2000,
            "repartition_interval_cycles": 4000.0,
        }
        jobs = [service.submit(attribution), service.submit(switching)]
        for job in jobs:
            assert service.wait(job["id"], timeout=180)["state"] == JobState.DONE
        attribution_result = service.result(jobs[0]["id"])
        assert "interference_attribution" in attribution_result["tables"]
        switching_result = service.result(jobs[1]["id"])
        assert "mean_estimated_ipc" in switching_result["tables"]
        assert switching_result["details"]["2c-H"][0]["samples"]

    def test_invalid_spec_rejected_with_400(self, service):
        with pytest.raises(ServiceError, match="HTTP 400"):
            service.submit(dict(TINY_SPEC, kind="acuracy"))
        with pytest.raises(ServiceError, match="did you mean 'accuracy'"):
            service.submit(dict(TINY_SPEC, kind="acuracy"))

    def test_unknown_job_and_route_are_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            service.status("missing")
        with pytest.raises(ServiceError, match="HTTP 404"):
            service._request("GET", "/nope")

    def test_result_of_pending_job_is_202(self, tmp_path):
        runner = GatedRunner()
        manager = JobManager(
            runner=runner,
            artifacts=ArtifactStore(tmp_path / "gated-artifacts", max_bytes=1 << 20),
        )
        server = create_server(port=0, manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            job = client.submit(TINY_SPEC)
            assert runner.started.acquire(timeout=10)
            # 202 responses carry the status payload, not an error.
            pending = client.result(job["id"])
            assert pending["state"] == JobState.RUNNING
            # DELETE on a running job answers 202 with the draining status.
            cancelling = client.cancel(job["id"])
            assert cancelling["state"] == JobState.CANCELLING
            runner.release.release()
            # This runner ignores the token, so the drain completes the job.
            assert client.wait(job["id"], timeout=10)["state"] == JobState.DONE
            with pytest.raises(ServiceError, match="HTTP 409"):
                client.cancel(job["id"])
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown()

    def test_listing_reports_all_jobs(self, service):
        job = service.submit(dict(TINY_SPEC, name="listed"))
        service.wait(job["id"], timeout=120)
        names = [entry["name"] for entry in service.list_jobs()]
        assert "listed" in names


class TestCompositeOverHTTP:
    def test_composite_end_to_end_with_cache_hit(self, service):
        """The acceptance flow: POST /composites runs the DAG, member results
        are bit-identical to direct engine runs, and resubmission is served
        from the scenario-level cache."""
        composite = tiny_composite("first", "second", name="http-chain")
        job = service.submit_composite(composite)
        assert job["kind"] == "composite"
        status = service.wait(job["id"], timeout=180)
        assert status["state"] == JobState.DONE, status
        assert status["nodes"] == {"first": "done", "second": "done"}
        result = service.result(job["id"])
        assert list(result["nodes"]) == ["first", "second"]
        for node in ("first", "second"):
            resolved = ScenarioSpec.from_dict(result["resolved_specs"][node])
            direct = run_scenario(resolved, jobs=1).to_dict()
            assert result["nodes"][node] == direct
            assert json.dumps(result["nodes"][node], sort_keys=True) == \
                json.dumps(direct, sort_keys=True)
        # Member jobs are addressable through the parent summary.
        for child_id in status["children"].values():
            assert service.status(child_id)["parent"] == job["id"]
        second = service.submit_composite(composite)
        assert second["state"] == JobState.DONE
        assert second["cached"] is True
        assert service.result(second["id"]) == result

    def test_invalid_composite_rejected_with_400(self, service):
        bad = tiny_composite("a", "b").to_dict()
        bad["nodes"][1]["depends_on"] = ["missing"]
        with pytest.raises(ServiceError, match="HTTP 400.*unknown node"):
            service.submit_composite(bad)


class TestEventStreamOverHTTP:
    def test_sse_stream_reports_progress_and_closes_on_terminal(self, service):
        job = service.submit(dict(TINY_SPEC, name="sse-plain"))
        events = list(service.iter_events(job["id"]))
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "done"
        assert any(kind == "progress" for kind in kinds)
        # The stream replays history, so the terminal state is also queryable.
        assert service.status(job["id"])["state"] == JobState.DONE

    def test_sse_stream_for_composite_carries_node_events(self, service):
        job = service.submit_composite(tiny_composite("x", "y", name="sse-chain"))
        events = list(service.iter_events(job["id"]))
        kinds = {event["event"] for event in events}
        assert {"node_start", "node_done", "node_progress"} <= kinds
        assert events[-1]["event"] == "done"
        nodes_started = [e["node"] for e in events if e["event"] == "node_start"]
        assert nodes_started == ["x", "y"]

    def test_sse_stream_of_finished_job_replays_and_closes(self, service):
        job = service.submit(dict(TINY_SPEC, name="sse-replay"))
        service.wait(job["id"], timeout=120)
        events = list(service.iter_events(job["id"]))
        assert events and events[-1]["event"] == "done"

    def test_sse_stream_for_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            list(service.iter_events("missing"))

    def test_sse_stream_cut_off_midjob_raises_not_completes(self, tmp_path):
        """Regression: a stream ending without a terminal event (server shut
        down mid-job) must raise ServiceError, not read as completion."""
        runner = GatedRunner()
        manager = JobManager(
            runner=runner,
            artifacts=ArtifactStore(tmp_path / "cut-artifacts", max_bytes=1 << 20),
        )
        server = create_server(port=0, manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            job = client.submit(TINY_SPEC)
            assert runner.started.acquire(timeout=10)
            stream = client.iter_events(job["id"])
            assert next(stream)["event"] == "queued"
            # Shut the manager down while the member still runs: the server
            # side ends the stream without a terminal event.
            manager.shutdown()
            with pytest.raises(ServiceError, match="without a terminal event"):
                for _ in stream:
                    pass
        finally:
            runner.release.release()
            server.shutdown()
            server.server_close()
            manager.shutdown()

    def test_sse_heartbeats_keep_an_idle_stream_alive(self, tmp_path):
        runner = GatedRunner()
        manager = JobManager(
            runner=runner,
            artifacts=ArtifactStore(tmp_path / "sse-artifacts", max_bytes=1 << 20),
        )
        server = create_server(port=0, manager=manager)
        # Shrink the heartbeat so the test observes one quickly.
        import repro.service.http as http_module
        original = http_module.EVENT_HEARTBEAT_SECONDS
        http_module.EVENT_HEARTBEAT_SECONDS = 0.05
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            job = client.submit(TINY_SPEC)
            assert runner.started.acquire(timeout=10)
            stream = client.iter_events(job["id"])
            seen = [next(stream)["event"] for _ in range(4)]
            assert "heartbeat" in seen
            runner.release.release()
            remaining = [event["event"] for event in stream]
            assert remaining[-1] == "done"
        finally:
            http_module.EVENT_HEARTBEAT_SECONDS = original
            server.shutdown()
            server.server_close()
            manager.shutdown()


class TestEphemeralPortBinding:
    """The service tests must never race over a fixed port: port=0 binding
    exposes the kernel-chosen port on the server object, and two servers can
    coexist in one process (as parallel test runs effectively do)."""

    def test_port_zero_binds_an_ephemeral_port(self, tmp_path):
        runner = GatedRunner()
        manager = JobManager(
            runner=runner,
            artifacts=ArtifactStore(tmp_path / "a", max_bytes=1 << 20),
        )
        server = create_server(port=0, manager=manager)
        try:
            assert server.port != 0
            assert server.server_address[1] == server.port
        finally:
            server.server_close()
            manager.shutdown()

    def test_two_servers_bind_distinct_ports_concurrently(self, tmp_path):
        managers, servers = [], []
        try:
            for index in range(2):
                manager = JobManager(
                    runner=GatedRunner(),
                    artifacts=ArtifactStore(tmp_path / str(index), max_bytes=1 << 20),
                )
                managers.append(manager)
                server = create_server(port=0, manager=manager)
                servers.append(server)
                threading.Thread(target=server.serve_forever, daemon=True).start()
            assert servers[0].port != servers[1].port
            for server in servers:
                client = ServiceClient(f"http://127.0.0.1:{server.port}")
                assert client.healthz() == {"status": "ok"}
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()
            for manager in managers:
                manager.shutdown()


class TestServicePortKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_PORT", raising=False)
        assert service_port_from_env() == 8642

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "9000")
        assert service_port_from_env() == 9000

    @pytest.mark.parametrize("value", ["http", "-1", "70000"])
    def test_invalid_values_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SERVICE_PORT", value)
        with pytest.raises(ConfigurationError, match="REPRO_SERVICE_PORT"):
            service_port_from_env()


class TestRepeatedRunAllStyleJobs:
    def test_explicit_pool_shutdown_between_jobs_is_survivable(self, tmp_path):
        """A long-lived manager must tolerate specs that shut the shared pool
        down when they finish (run_all does), job after job."""
        from repro.experiments.common import run_parallel, shutdown_executor

        def run_all_style(spec, jobs, progress, cancel=None):
            try:
                values = run_parallel(
                    _scale, [(index,) for index in range(4)], jobs=2, cache=False,
                    progress=progress,
                )
            finally:
                shutdown_executor()
            return {"scenario": spec.to_dict(), "tables": {}, "values": values}

        manager = JobManager(
            runner=run_all_style,
            artifacts=ArtifactStore(tmp_path / "artifacts", max_bytes=1 << 20),
            scenario_cache=False,
        )
        try:
            for index in range(3):
                job = manager.submit(tiny_spec(name=f"run-all-{index}"))
                finished = manager.wait(job.id, timeout=60)
                assert finished.state == JobState.DONE, finished.error
                assert finished.result["values"] == [0, 2, 4, 6]
        finally:
            manager.shutdown()


def _scale(value):
    return 2 * value


class TestWaitSemantics:
    def test_wait_times_out_without_terminal_state(self, manager):
        runner = GatedRunner()
        jobs = manager(runner=runner)
        job = jobs.submit(tiny_spec())
        assert runner.started.acquire(timeout=10)
        start = time.monotonic()
        still_running = jobs.wait(job.id, timeout=0.2)
        assert time.monotonic() - start < 5
        assert still_running.state == JobState.RUNNING
        runner.release.release()
        assert jobs.wait(job.id, timeout=10).state == JobState.DONE
