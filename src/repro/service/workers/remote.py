"""The remote worker: ``python -m repro worker`` leasing cells over HTTP.

A :class:`RemoteWorker` long-polls a broker's ``POST /leases`` endpoint for
a chunk of sweep cells, re-expands the job's spec locally (the grant ships
the spec JSON plus cell *indices* —
:func:`~repro.scenarios.runner.expand_cells` is deterministic, so indices
are a complete, compact description of the work), executes the slice through
the exact same supervised :func:`~repro.experiments.common.run_parallel`
path a local run uses — retries, per-cell timeouts, fault injection — and
posts the pickled outcomes back.

A background heartbeat thread refreshes the lease within its TTL and relays
progress; the broker's reply doubles as the cancellation channel (a remote
worker cannot share the broker's in-process
:class:`~repro.experiments.supervisor.CancelToken`, so the worker keeps a
local token and sets it when the broker says ``cancel`` — or answers 410,
meaning the lease was lost and the work is now someone else's).  A worker
that dies mid-lease simply stops heartbeating: the broker expires the lease
and requeues its unanswered cells.

Pointing ``REPRO_ARTIFACT_URL`` at the broker (the CLI's default) makes the
worker read and write the *broker's* cell cache, so no cell is ever computed
twice across the fleet.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.errors import JobCancelledError, ServiceError
from repro.experiments.common import resolve_jobs, run_parallel
from repro.experiments.supervisor import CancelToken
from repro.faults import FaultPlan, plan_from_env
from repro.scenarios.runner import EVALUATORS, expand_cells
from repro.scenarios.spec import ScenarioSpec
from repro.service.client import ServiceClient
from repro.service.workers.config import DEFAULT_LEASE_TTL, worker_poll_from_env

__all__ = ["RemoteWorker", "default_worker_id"]

# Floor between heartbeat posts: progress events must not turn into a
# request-per-cell flood on fine-grained sweeps.
_HEARTBEAT_FLOOR_SECONDS = 0.2


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique per process, readable in ``/stats``."""
    host = socket.gethostname() or "worker"
    return f"{host}-{os.getpid()}"


class RemoteWorker:
    """One worker process's lease loop against a broker URL.

    ``jobs`` sizes the worker's local process pool (``None`` resolves
    ``REPRO_JOBS`` / CPU count as usual); ``lease_cells`` caps how many cells
    one lease claims (default: the worker's pool width, so a worker leases
    about as much as it can run at once and two workers interleave on one
    job); ``poll`` is the long-poll wait per acquisition round
    (``REPRO_WORKER_POLL`` by default).  ``client`` is injectable for tests.
    """

    def __init__(self, broker_url: str, worker_id: str | None = None,
                 jobs: int | None = None, lease_cells: int | None = None,
                 poll: float | str | None = None,
                 client: ServiceClient | None = None):
        self.client = client if client is not None else ServiceClient(broker_url)
        self.worker_id = worker_id or default_worker_id()
        self.jobs = jobs
        self.lease_cells = (lease_cells if lease_cells is not None
                            else resolve_jobs(jobs))
        self.poll = worker_poll_from_env(poll)
        self.leases_run = 0
        self.cells_run = 0
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after the current lease (thread-safe)."""
        self._stop.set()

    def run(self, max_leases: int | None = None) -> int:
        """Lease and execute until stopped (or ``max_leases`` leases ran).

        Returns the number of leases executed.  Broker connection failures
        back off one poll interval and retry — a worker outliving a broker
        restart simply re-attaches.
        """
        while not self._stop.is_set():
            if max_leases is not None and self.leases_run >= max_leases:
                break
            try:
                grant = self.client.acquire_lease(
                    self.worker_id, max_cells=self.lease_cells, wait=self.poll
                )
            except ServiceError:
                self._stop.wait(self.poll)
                continue
            if grant is None:
                continue
            self._execute(grant)
            self.leases_run += 1
        return self.leases_run

    # ------------------------------------------------------------- execution

    def _execute(self, grant: dict) -> None:
        lease_id = grant["lease"]
        try:
            spec = ScenarioSpec.from_dict(grant["spec"])
            cells = [int(index) for index in grant["cells"]]
            ttl = float(grant.get("ttl") or DEFAULT_LEASE_TTL)
            expanded = expand_cells(spec)
            tasks = [expanded[index].task for index in cells]
            evaluator, cost_key = EVALUATORS[spec.kind]
            plan = (spec.fault_plan if spec.fault_plan is not None
                    else plan_from_env())
            plan = (plan if plan is not None else FaultPlan()).for_cells(cells)
        except Exception as error:  # noqa: BLE001 — a bad grant must fail the job, not the worker
            self._post(lease_id,
                       error=f"{type(error).__name__}: {error}")
            return

        token = CancelToken()
        state = {"done": 0, "lost": False}
        finished = threading.Event()
        wake = threading.Event()

        def progress(done: int, total: int) -> None:
            state["done"] = done
            wake.set()

        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease_id, ttl, token, state, finished, wake),
            name=f"heartbeat-{lease_id}", daemon=True,
        )
        heartbeat.start()
        try:
            outcomes = run_parallel(
                evaluator, tasks, jobs=self.jobs, cost_key=cost_key,
                cache=True, progress=progress, cancel=token,
                fault_plan=plan,
            )
        except JobCancelledError:
            result = ("cancelled", None)
        except Exception as error:  # noqa: BLE001 — a job must never kill the worker
            result = ("error", f"{type(error).__name__}: {error}")
        else:
            result = ("done", dict(zip(cells, outcomes)))
            self.cells_run += len(cells)
        finally:
            finished.set()
            wake.set()
            heartbeat.join(timeout=5.0)
        if state["lost"]:
            return  # the broker already requeued this lease's cells
        kind, payload = result
        if kind == "done":
            self._post(lease_id, cells=payload)
        elif kind == "error":
            self._post(lease_id, error=payload)
        else:
            self._post(lease_id, cancelled=True)

    def _heartbeat_loop(self, lease_id: str, ttl: float, token: CancelToken,
                        state: dict, finished: threading.Event,
                        wake: threading.Event) -> None:
        """Refresh the lease and relay progress until the work finishes.

        Posts at least every ``ttl / 3`` seconds (so two consecutive losses
        still fit inside the TTL) and at most every
        ``_HEARTBEAT_FLOOR_SECONDS`` (progress events arrive per cell).  A
        410 means the lease is lost: set the local token so ``run_parallel``
        unwinds at the next cell boundary, and mark the loss so the result
        is not posted — the cells are already requeued elsewhere.
        """
        interval = max(_HEARTBEAT_FLOOR_SECONDS, ttl / 3.0)
        last_post = 0.0
        while not finished.is_set():
            wake.wait(timeout=interval)
            wake.clear()
            if finished.is_set():
                return
            now = time.monotonic()
            if now - last_post < _HEARTBEAT_FLOOR_SECONDS:
                continue
            last_post = now
            try:
                reply = self.client.lease_heartbeat(lease_id,
                                                    done=state["done"])
            except ServiceError as error:
                if getattr(error, "status", None) == 410:
                    state["lost"] = True
                    token.cancel()
                    return
                continue  # transient broker hiccup: the TTL has slack
            if reply.get("cancel"):
                token.cancel()

    def _post(self, lease_id: str, cells: dict | None = None,
              error: str | None = None, cancelled: bool = False) -> None:
        try:
            self.client.lease_result(lease_id, cells=cells, error=error,
                                     cancelled=cancelled)
        except ServiceError:
            # Lease lost or broker gone: the broker has (or will have)
            # requeued the cells; nothing useful left to do here.
            pass
