"""The in-process worker pool: lease-driven threads sharing the broker's lock.

``LocalPool`` is what makes the lease broker backwards compatible: a
:class:`~repro.service.jobs.JobManager` with ``local_workers=1`` (the
default) behaves exactly like the old dispatcher-thread design — one worker,
pulling one job at a time, taking *all* of its pending cells in a single
lease and running them through :func:`~repro.experiments.common.
run_parallel` with the shared process pool, supervised retries, per-cell
timeouts and fault injection unchanged.  More local
workers (or remote workers attaching over HTTP) simply mean more lease
holders draining the same queue.

The pool deliberately *duck-types* the manager — it calls only the public
lease API (``acquire_lease`` / ``heartbeat_lease`` / ``complete_lease``) and
imports nothing from :mod:`repro.service.jobs`, so the broker can construct
its pool while that module is still initialising.

Local leases are exempt from TTL expiry (an in-process thread cannot outlive
the broker) and are the only ones eligible for *whole-job* grants, which
carry an injected test runner — a process-local callable no remote worker
could execute.
"""

from __future__ import annotations

import threading

from repro.errors import JobCancelledError, ServiceError
from repro.experiments.common import run_parallel
from repro.faults import FaultPlan, plan_from_env
from repro.scenarios.runner import EVALUATORS

__all__ = ["LocalPool"]


class LocalPool:
    """``count`` daemon threads pulling leases from ``manager``.

    ``sweep_jobs`` is forwarded to the engine as the process-pool worker
    count, exactly as the manager's old dispatcher forwarded it.  The pool
    takes unbounded leases (``max_cells=None``): one local worker holds one
    whole job at a time, so cell scheduling (largest first, across the whole
    sweep) is identical to a single-node run.
    """

    def __init__(self, manager, count: int = 1, sweep_jobs: int | None = None,
                 name_prefix: str = "local"):
        self.manager = manager
        self.count = max(1, count)
        self.sweep_jobs = sweep_jobs
        self.name_prefix = name_prefix
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        if self._threads:
            return
        for index in range(self.count):
            name = f"{self.name_prefix}-{index}"
            thread = threading.Thread(target=self._run, args=(name,),
                                      name=f"worker-{name}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------ loop

    def _run(self, worker: str) -> None:
        while not self._stop.is_set():
            try:
                grant = self.manager.acquire_lease(
                    worker=worker, max_cells=None, wait=0.5, remote=False
                )
            except ServiceError:
                return  # manager shut down
            if grant is None:
                continue
            if grant.kind == "job":
                self._execute_job(grant)
            else:
                self._execute_cells(grant)

    # ------------------------------------------------------------- execution

    def _execute_job(self, grant) -> None:
        """Run a whole-job lease through the injected runner."""

        def progress(done: int, total: int) -> None:
            self._heartbeat(grant, done=done, total=total)

        try:
            payload = grant.runner(grant.spec, self.sweep_jobs, progress,
                                   grant.token)
        except JobCancelledError:
            self._complete(grant, cancelled=True)
        except Exception as error:  # noqa: BLE001 — a job must never kill the worker
            self._complete(grant, error=f"{type(error).__name__}: {error}")
        else:
            self._complete(grant, outcomes=payload)

    def _execute_cells(self, grant) -> None:
        """Run a cell lease through the supervised parallel path.

        The fault plan (spec-level winning over ``REPRO_FAULT_PLAN``, exactly
        as :func:`~repro.scenarios.runner.run_scenario` resolves it) is
        remapped to the lease's cell slice — plan indices address positions
        in the full expansion order, while ``run_parallel`` sees only the
        leased tasks.  An explicit empty plan is passed when there is none,
        so ``run_parallel`` never falls back to the environment with
        unremapped indices.
        """
        spec = grant.spec
        evaluator, cost_key = EVALUATORS[spec.kind]

        def progress(done: int, total: int) -> None:
            self._heartbeat(grant, done=done)

        try:
            plan = spec.fault_plan if spec.fault_plan is not None else plan_from_env()
            plan = (plan if plan is not None else FaultPlan()).for_cells(grant.cells)
            outcomes = run_parallel(
                evaluator, grant.tasks, jobs=self.sweep_jobs,
                cost_key=cost_key, cache=True, progress=progress,
                cancel=grant.token, fault_plan=plan,
            )
        except JobCancelledError:
            self._complete(grant, cancelled=True)
        except Exception as error:  # noqa: BLE001 — a job must never kill the worker
            self._complete(grant, error=f"{type(error).__name__}: {error}")
        else:
            self._complete(grant, outcomes=dict(zip(grant.cells, outcomes)))

    # ----------------------------------------------------------- broker calls

    def _heartbeat(self, grant, done: int | None = None,
                   total: int | None = None) -> None:
        try:
            self.manager.heartbeat_lease(grant.lease_id, done=done, total=total)
        except ServiceError:
            # Lease revoked (job failed or was cancelled elsewhere): the
            # shared token is already set, run_parallel unwinds at the next
            # cell boundary.
            pass

    def _complete(self, grant, outcomes=None, error: str | None = None,
                  cancelled: bool = False) -> None:
        try:
            self.manager.complete_lease(grant.lease_id, outcomes=outcomes,
                                        error=error, cancelled=cancelled)
        except ServiceError:
            pass  # lease already resolved; the broker decided without us
