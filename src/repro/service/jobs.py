"""Job manager: the scenario service's queue, lease broker and state machine.

Submitted specs become :class:`Job` records that move through a small state
machine::

    queued -> running -> done | failed
    queued -> cancelled
    running -> cancelling -> cancelled | done | failed

Jobs wait in a priority queue (higher ``priority`` first, FIFO within a
priority).  Execution is pull-based: *workers* — the in-process
:class:`~repro.service.workers.local.LocalPool` threads and any number of
remote ``python -m repro worker`` processes — call :meth:`JobManager.
acquire_lease` to check work out.  In the default cell-granular mode the
broker expands the job's spec into its deterministic
:func:`~repro.scenarios.runner.expand_cells` order once, answers what it can
from the content-addressed result cache, and hands out *leases* over chunks
of the remaining cell indices.  A lease carries a deadline: the worker must
heartbeat (:meth:`JobManager.heartbeat_lease`) within ``REPRO_LEASE_TTL``
seconds or the lease expires and its unanswered cells requeue for the next
worker — a dead worker is harmless.  Completed outcomes flow back through
:meth:`JobManager.complete_lease` (first write per cell wins, so a zombie
worker can never corrupt a result) and the broker assembles the final
payload with the same :func:`~repro.scenarios.runner.assemble_result` the
in-process runner uses — a distributed run is bit-identical to a
single-node run by construction.

Cancelling a queued job is immediate; cancelling a *running* job is
cooperative: the job enters ``cancelling``, its
:class:`~repro.experiments.supervisor.CancelToken` is set (local workers
share the object; remote workers learn of it through the heartbeat reply)
and in-flight leases drain at the next cell boundary.

Results are cached at the scenario level: a whole-spec digest addresses the
complete result payload in the :class:`~repro.service.artifacts.
ArtifactStore`, so submitting an identical spec again completes instantly
without touching the engine.  Composite scenarios
(:mod:`repro.scenarios.composite`) extend the manager with DAG-aware
dispatch exactly as before: member jobs ride the normal priority queue (and
therefore the lease machinery), parent cancellation propagates, a member
failure fails the composite fast, and the assembled payload is cached under
a whole-composite digest.

On-demand queries (:mod:`repro.scenarios.query`) run through the same
broker: :meth:`JobManager.submit_query` drives the query on a background
thread, and each *wave* of cells the query needs becomes a child job
restricted to exactly those cell indices — waves ride the normal priority
queue and lease machinery, so a query scales across the worker fleet like
any sweep, and eliminating a losing candidate cancels its in-flight wave
through the ordinary cooperative-cancellation path.  The complete answer is
cached in the artifact store under :func:`~repro.scenarios.query.
query_digest`.

Every job also carries an append-only *event log* — queued/running/progress/
lease/terminal transitions, plus per-node events on composite parents and
wave events on query parents — consumed by the HTTP layer's SSE endpoint
through :meth:`JobManager.iter_events`.

Timekeeping discipline: every *deadline, age or interval* (lease TTLs,
heartbeat staleness, busy/uptime accounting) is computed from
``time.monotonic()``, which a wall-clock step (NTP, DST, operator ``date``)
cannot move; ``time.time()`` appears only in display fields reported
verbatim to clients (``submitted_at``, event timestamps, ``last_seen``).

With an injected test ``runner`` the manager degrades to *whole-job* leases:
the spec is never expanded and a single (local) lease covers the entire job,
driven through the injected callable exactly as the old dispatcher thread
did.
"""

from __future__ import annotations

import heapq
import threading
import time
import uuid
from dataclasses import dataclass, field

from repro.errors import (
    CacheKeyError,
    ConfigurationError,
    JobCancelledError,
    JobConflictError,
    LeaseLostError,
    ServiceError,
)
from repro.experiments.supervisor import CancelToken, supervisor_stats
from repro.scenarios.composite import (
    NODE_DONE,
    NODE_FAILED,
    NODE_PENDING,
    NODE_RUNNING,
    NODE_SKIPPED,
    CompositeSpec,
    assemble_payload,
    composite_digest,
    resolve_node_spec,
)
from repro.scenarios.ondemand import WaveExecutor, run_query
from repro.scenarios.query import QuerySpec, query_digest
from repro.scenarios.runner import (
    EVALUATORS,
    ScenarioCell,
    assemble_result,
    expand_cells,
    run_scenario,
    scenario_digest,
)
from repro.scenarios.spec import ScenarioSpec
from repro.service.artifacts import ArtifactStore
from repro.service.journal import JobJournal
from repro.service.workers.config import lease_ttl_from_env
from repro.sim.result_cache import (
    get_result_cache,
    is_cacheable_function,
    task_digest,
)

__all__ = ["JobState", "Job", "JobManager", "Lease", "LeaseGrant",
           "scenario_digest"]

# A job's event log is bounded; once full, the oldest events are dropped and
# late subscribers simply start further into the stream.  Terminal events are
# appended last, so they are never the ones dropped.
EVENT_BUFFER_LIMIT = 4096


class JobState:
    """The per-job state machine's states."""

    QUEUED = "queued"
    RUNNING = "running"
    CANCELLING = "cancelling"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submitted scenario (or composite) and everything the API reports.

    Plain jobs carry a ``spec``; composite parents carry a ``composite`` and
    track their member jobs through ``children`` (node name -> child job id)
    and ``node_states``.  Children point back via ``parent_id``/``node``.
    Query parents carry a ``query`` and spawn *wave* children — spec jobs
    whose ``required`` restricts them to a subset of the grid's cell indices.
    """

    id: str
    digest: str
    priority: int
    spec: ScenarioSpec | None = None
    composite: CompositeSpec | None = None
    query: QuerySpec | None = None
    state: str = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    cells_done: int = 0
    cells_total: int | None = None
    cached: bool = False
    error: str | None = None
    result: dict | None = None
    parent_id: str | None = None
    node: str | None = None
    children: dict[str, str] = field(default_factory=dict)
    node_states: dict[str, str] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    events_base: int = 0
    # Cooperative-cancellation token; assigned when the job starts running
    # and shared by every lease of the job.
    cancel: CancelToken | None = field(default=None, repr=False)
    # Monotonic companion to ``started_at``: interval math (busy-seconds,
    # utilisation) must survive wall-clock steps.
    started_monotonic: float | None = field(default=None, repr=False)
    # Wave child: the subset of grid cell indices this job must answer
    # (None = the whole grid, the normal case).
    required: list[int] | None = None
    # Wave child: raw `{cell_index: outcome}` objects held for the query
    # driver (cleared once the driver collects them; never serialised).
    raw: dict | None = field(default=None, repr=False)
    # A parked job was interrupted by a graceful drain: its terminal record
    # is withheld from the journal so a restarted server replays it.
    parked: bool = False
    # Ids of the job's unresolved leases.
    leases: set[str] = field(default_factory=set, repr=False)
    # True while a completion thread assembles the result outside the lock;
    # guards against a concurrent cancel/expiry finalising the job twice.
    finalizing: bool = False
    # FIFO tiebreaker for the open-cells heap (assigned at plan adoption).
    sequence: int = 0

    @property
    def finished(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def name(self) -> str:
        if self.composite is not None:
            return self.composite.name
        if self.query is not None:
            return self.query.name
        return self.spec.name

    @property
    def kind(self) -> str:
        if self.composite is not None:
            return "composite"
        if self.query is not None:
            return "query"
        return self.spec.kind

    def events_after(self, index: int) -> tuple[list[dict], int]:
        """Buffered events with absolute index >= ``index``, plus the next index."""
        start = max(0, index - self.events_base)
        return self.events[start:], self.events_base + len(self.events)

    def summary(self) -> dict:
        """The JSON status payload (everything but the result body)."""
        payload = {
            "id": self.id,
            "name": self.name,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "cached": self.cached,
            "progress": {"done": self.cells_done, "total": self.cells_total},
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if self.composite is not None:
            payload["children"] = dict(self.children)
            payload["nodes"] = dict(self.node_states)
        if self.query is not None:
            payload["children"] = dict(self.children)
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
            payload["node"] = self.node
        return payload


@dataclass
class Lease:
    """One worker's claim on a chunk of a job's sweep cells.

    ``cells`` is the list of cell indices (positions in the job's
    :func:`expand_cells` order) the worker must evaluate; ``None`` means a
    whole-job lease (injected-runner mode).  ``deadline`` is a monotonic
    timestamp refreshed by every heartbeat; the reaper expires remote leases
    past it.  Local leases never expire — an in-process worker cannot vanish
    without the whole broker vanishing with it.
    """

    id: str
    job_id: str
    worker: str
    cells: list[int] | None
    granted_at: float
    deadline: float
    local: bool
    done: int = 0
    resolved: bool = False


@dataclass
class LeaseGrant:
    """Everything a worker needs to execute a lease.

    The HTTP layer serialises the JSON-safe subset (spec dict, cell indices,
    ttl) for remote workers; the in-process pool additionally receives the
    live ``token``, the expanded ``tasks`` and — for whole-job leases — the
    injected ``runner``.
    """

    lease_id: str
    job_id: str
    kind: str  # "cells" | "job"
    spec: ScenarioSpec
    cells: list[int] | None
    tasks: list | None
    total_cells: int | None
    ttl: float
    token: CancelToken | None
    runner: object | None = None


@dataclass
class _JobPlan:
    """Broker-side expansion of one cell-mode job (guarded by the manager lock).

    ``pending`` holds the not-yet-leased cell indices, ``outcomes`` the
    answered ones (first write wins).  ``digests`` aligns with ``cells`` when
    the cell cache applies, so remotely-computed outcomes can be persisted
    into the broker's cache as they arrive.  ``required`` restricts a query
    *wave* to a subset of the grid: only those indices are leased, the job
    completes when they are all answered, and no whole-sweep payload is
    assembled (the query driver consumes the raw outcomes instead).
    """

    cells: list[ScenarioCell]
    pending: list[int]
    outcomes: dict[int, object]
    digests: list[str] | None
    use_cache: bool
    required: list[int] | None = None

    @property
    def goal(self) -> int:
        """How many cells this job must answer to finish."""
        return len(self.cells) if self.required is None else len(self.required)

    @property
    def complete(self) -> bool:
        if self.required is None:
            return len(self.outcomes) == len(self.cells)
        return all(index in self.outcomes for index in self.required)


def _default_runner(spec: ScenarioSpec, jobs: int | None, progress, cancel) -> dict:
    """Execute a spec through the scenario engine; returns the result payload."""
    return run_scenario(spec, jobs=jobs, progress=progress, cancel=cancel).to_dict()


class JobManager:
    """Priority queue + lease broker + scenario-level result cache.

    ``sweep_jobs`` is forwarded to the engine as the process-pool worker
    count; ``artifacts=None`` builds the environment-configured store;
    ``scenario_cache=False`` disables the scenario-level (artifact) cache
    while leaving cell-level caching to ``REPRO_CACHE`` as usual.  ``runner``
    is injectable for tests: a callable ``(spec, jobs, progress, cancel) ->
    dict`` that should raise :class:`JobCancelledError` when the cancel token
    fires — injecting one switches the manager to whole-job leases executed
    by the local pool only.  ``journal`` is an optional :class:`JobJournal`:
    parentless submissions are recorded durably and :meth:`replay_journal`
    resubmits whatever a killed server never finished.

    ``local_workers`` sizes the in-process worker pool (default 1, matching
    the historical single-dispatcher semantics; 0 runs a broker that only
    remote workers drain).  ``lease_ttl`` overrides ``REPRO_LEASE_TTL``;
    both are validated eagerly so a typo fails at startup.

    Terminal job records (and their in-memory result payloads) are bounded:
    once more than ``max_finished_jobs`` *parentless* jobs have finished, the
    oldest are dropped — their ids answer 404 afterwards, as a long-lived
    server must not grow without bound.  A finished composite *child* is kept
    as long as its parent record lives (clients navigate parent -> children)
    and is evicted together with the parent.  Whole-scenario payloads stay
    available through the (disk-backed, LRU-bounded) artifact store
    regardless: resubmitting the same spec is a cache hit.
    """

    def __init__(self, sweep_jobs: int | None = None,
                 artifacts: ArtifactStore | None = None,
                 scenario_cache: bool = True,
                 runner=None,
                 max_finished_jobs: int = 256,
                 journal: JobJournal | None = None,
                 local_workers: int = 1,
                 lease_ttl: float | str | None = None):
        if (not isinstance(local_workers, int) or isinstance(local_workers, bool)
                or local_workers < 0):
            raise ConfigurationError(
                f"local_workers must be a non-negative integer, "
                f"got {local_workers!r}"
            )
        self.sweep_jobs = sweep_jobs
        self.artifacts = artifacts if artifacts is not None else ArtifactStore()
        self.scenario_cache = scenario_cache
        self.max_finished_jobs = max(1, max_finished_jobs)
        self.journal = journal
        self.lease_ttl = lease_ttl_from_env(lease_ttl)
        self.scenario_hits = 0
        self.scenario_misses = 0
        self.started_at = time.time()
        # Uptime/utilisation intervals are measured on the monotonic clock;
        # ``started_at`` above is the wall-clock display value only.
        self._started_monotonic = time.monotonic()
        self.busy_seconds = 0.0
        self._runner = runner
        # With an injected runner the broker cannot expand specs into cells
        # (the runner may not even read the spec); it hands out whole-job
        # leases to the local pool instead.
        self._cell_mode = runner is None
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queue: list[tuple[int, int, str]] = []
        self._sequence = 0
        self._stop = False
        self._draining = False
        # Lease-broker state, all guarded by the manager lock.
        self._leases: dict[str, Lease] = {}
        self._plans: dict[str, _JobPlan] = {}
        self._workers: dict[str, dict] = {}
        self._open_cells: list[tuple[int, int, str]] = []
        self._lease_stats = {"granted_total": 0, "expired_total": 0,
                             "requeued_cells_total": 0}
        self._reaper = threading.Thread(
            target=self._reap_loop, name="lease-reaper", daemon=True
        )
        self._reaper.start()
        self._pool = None
        if local_workers > 0:
            # Imported lazily: the workers package is layered on top of this
            # module (LocalPool drives the manager through its public lease
            # API), so a module-level import would be circular in spirit even
            # though LocalPool only duck-types the manager.
            from repro.service.workers.local import LocalPool

            self._pool = LocalPool(self, count=local_workers,
                                   sweep_jobs=sweep_jobs)
            self._pool.start()

    # ------------------------------------------------------------------ events

    def _emit_locked(self, job: Job, event: str, **payload) -> None:
        """Append one event to a job's log (lock held) and wake subscribers.

        ``seq`` is the event's absolute position in the job's log (stable
        across buffer overflow), so SSE clients can resume a cut stream with
        ``Last-Event-ID`` without replaying what they already saw.
        """
        record = {"event": event, "job": job.id,
                  "seq": job.events_base + len(job.events),
                  "time": time.time(), **payload}
        job.events.append(record)
        overflow = len(job.events) - EVENT_BUFFER_LIMIT
        if overflow > 0:
            del job.events[:overflow]
            job.events_base += overflow
        self._condition.notify_all()

    def _emit_terminal_locked(self, job: Job) -> None:
        self._emit_locked(job, job.state, cached=job.cached, error=job.error)
        # Parked jobs keep their submit record live so a restart replays them.
        if (self.journal is not None and job.parent_id is None
                and not job.parked):
            self.journal.record_terminal(job.id, job.state)

    def _emit_progress_locked(self, job: Job) -> None:
        """Emit a progress event (and mirror it onto a composite parent)."""
        self._emit_locked(job, "progress", done=job.cells_done,
                          total=job.cells_total)
        if job.parent_id is not None:
            parent = self._jobs.get(job.parent_id)
            # A parent that went terminal (cancelled / failed fast) while
            # this member drains must not receive events after its terminal
            # event.
            if parent is not None and not parent.finished:
                self._emit_locked(parent, "node_progress", node=job.node,
                                  done=job.cells_done, total=job.cells_total)

    def iter_events(self, job_id: str, heartbeat_seconds: float = 10.0,
                    start_index: int = 0):
        """Yield a job's events as they happen; a generator that ends after
        the terminal event.

        Events already buffered are replayed first, so subscribing after
        completion yields the full (bounded) history immediately.
        ``start_index`` skips events whose absolute index (the ``seq`` field)
        is below it — the server side of SSE ``Last-Event-ID`` resumption.
        When no event arrives within ``heartbeat_seconds`` a synthetic
        ``{"event": "heartbeat"}`` is yielded so SSE consumers can detect a
        dead connection.  An unknown (or already pruned) job id raises
        :class:`ServiceError` up front; the job record is then *held* for the
        stream's lifetime, so a subscriber always receives the terminal event
        even if retention prunes the job mid-stream (pruning happens after
        the terminal emission, in the same locked transition).
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job '{job_id}'")
        index = max(0, start_index)
        while True:
            with self._condition:
                events, index = job.events_after(index)
                if not events and not job.finished and not self._stop:
                    self._condition.wait(timeout=heartbeat_seconds)
                    events, index = job.events_after(index)
                finished = job.finished
                stopping = self._stop
            yield from events
            if events and events[-1]["event"] in JobState.TERMINAL:
                return
            if not events:
                if finished or stopping:
                    # Terminal event already replayed to this subscriber (or
                    # the manager is shutting down): end the stream.
                    return
                yield {"event": "heartbeat", "job": job_id, "time": time.time()}

    # ------------------------------------------------------------------ client API

    def submit(self, spec: ScenarioSpec, priority: int = 0,
               job_id: str | None = None) -> Job:
        """Validate and enqueue a spec; returns the (possibly finished) job.

        An identical spec whose result is already in the artifact store
        completes instantly: the job is born ``done`` with ``cached=True``.
        ``job_id`` preserves a replayed job's original id so clients polling
        across a server restart keep working.
        """
        spec.validate()
        self._reject_if_unavailable()
        digest = scenario_digest(spec)
        # The artifact read is disk I/O — do it before taking the lock that
        # the workers, status queries and SSE emitters all share.
        cached = self.artifacts.get(digest) if self.scenario_cache else None
        if self.journal is not None and cached is None:
            # Journal *before* enqueueing: a crash in between replays an
            # accepted-but-lost job, never loses an acknowledged one.
            job_id = job_id or uuid.uuid4().hex[:12]
            self.journal.record_submit(job_id, "scenario", spec.to_dict(),
                                       priority)
        with self._condition:
            if self._stop:
                raise ServiceError("the job manager is shut down")
            return self._submit_spec_locked(spec, digest, priority,
                                            cached=cached, job_id=job_id)

    def _reject_if_unavailable(self) -> None:
        if self._stop:
            raise ServiceError("the job manager is shut down")
        if self._draining:
            raise ServiceError("the job manager is draining")

    def _submit_spec_locked(self, spec: ScenarioSpec, digest: str, priority: int,
                            cached: dict | None,
                            parent: Job | None = None,
                            node: str | None = None,
                            job_id: str | None = None) -> Job:
        """Create and enqueue one spec job (lock held).

        ``cached`` is the pre-fetched artifact payload (or None); a cached
        job is born done.  Parent bookkeeping for an instantly-done child is
        the *caller's* job — :meth:`_launch_ready_nodes_locked` drives its
        worklist with it — so this method never re-enters composite code.
        """
        job = Job(
            id=job_id or uuid.uuid4().hex[:12],
            spec=spec,
            digest=digest,
            priority=priority,
            submitted_at=time.time(),
            parent_id=parent.id if parent is not None else None,
            node=node,
        )
        self._jobs[job.id] = job
        if parent is not None:
            parent.children[node] = job.id
            parent.node_states[node] = NODE_RUNNING
            self._emit_locked(parent, "node_start", node=node, child=job.id)
        if cached is not None:
            self.scenario_hits += 1
            job.result = cached
            job.cached = True
            job.state = JobState.DONE
            job.finished_at = job.submitted_at
            self._emit_terminal_locked(job)
            self._prune_finished_locked()
            self._condition.notify_all()
        else:
            self.scenario_misses += 1
            self._sequence += 1
            heapq.heappush(self._queue, (-priority, self._sequence, job.id))
            self._emit_locked(job, JobState.QUEUED)
            self._condition.notify_all()
        return job

    def submit_composite(self, composite: CompositeSpec, priority: int = 0,
                         job_id: str | None = None) -> Job:
        """Validate a composite DAG and fan out its ready member jobs.

        The returned parent job coordinates the DAG: members are submitted as
        child jobs the moment their dependencies finish (parameter references
        resolved against the upstream results), and the parent completes when
        every node has.  An identical composite whose assembled payload is
        already in the artifact store completes instantly with
        ``cached=True``, without touching any member.  Only the *parent* is
        journaled: replaying it re-fans-out the members, and those already
        completed are answered by the artifact store.
        """
        composite.validate()
        self._reject_if_unavailable()
        digest = composite_digest(composite)
        cached = self.artifacts.get(digest) if self.scenario_cache else None
        if self.journal is not None and cached is None:
            job_id = job_id or uuid.uuid4().hex[:12]
            self.journal.record_submit(job_id, "composite", composite.to_dict(),
                                       priority)
        with self._condition:
            if self._stop:
                raise ServiceError("the job manager is shut down")
            parent = Job(
                id=job_id or uuid.uuid4().hex[:12],
                composite=composite,
                digest=digest,
                priority=priority,
                submitted_at=time.time(),
                cells_total=len(composite.nodes),
                node_states={node.name: NODE_PENDING for node in composite.nodes},
            )
            self._jobs[parent.id] = parent
            if cached is not None:
                self.scenario_hits += 1
                parent.result = cached
                parent.cached = True
                parent.state = JobState.DONE
                parent.cells_done = len(composite.nodes)
                parent.finished_at = parent.submitted_at
                parent.node_states = {
                    node.name: NODE_DONE for node in composite.nodes
                }
                self._emit_terminal_locked(parent)
                self._prune_finished_locked()
                self._condition.notify_all()
                return parent
            self.scenario_misses += 1
            parent.state = JobState.RUNNING
            parent.started_at = parent.submitted_at
            self._emit_locked(parent, JobState.RUNNING)
            self._launch_ready_nodes_locked(parent)
            return parent

    # ------------------------------------------------------------------ queries

    def submit_query(self, query: QuerySpec, priority: int = 0,
                     job_id: str | None = None) -> Job:
        """Answer an on-demand query through broker-executed waves.

        The returned parent job coordinates the query: a background driver
        thread runs :func:`~repro.scenarios.ondemand.run_query` with a
        broker-backed wave executor, so every wave of cells becomes a child
        job riding the normal priority queue and lease machinery (and
        therefore the whole worker fleet).  Wave lifecycle events
        (``wave_started`` / ``wave_done`` / ``candidate_eliminated``) are
        mirrored onto the parent's SSE stream.  An identical query whose
        answer is already in the artifact store (keyed on
        :func:`~repro.scenarios.query.query_digest`) completes instantly
        with ``cached=True`` — no wave runs.
        """
        query.validate()
        self._reject_if_unavailable()
        if not self._cell_mode:
            raise ServiceError(
                "queries need the cell-granular broker; a manager with an "
                "injected runner only grants whole-job leases"
            )
        digest = query_digest(query)
        cached = self.artifacts.get(digest) if self.scenario_cache else None
        if self.journal is not None and cached is None:
            job_id = job_id or uuid.uuid4().hex[:12]
            self.journal.record_submit(job_id, "query", query.to_dict(),
                                       priority)
        with self._condition:
            if self._stop:
                raise ServiceError("the job manager is shut down")
            parent = Job(
                id=job_id or uuid.uuid4().hex[:12],
                query=query,
                digest=digest,
                priority=priority,
                submitted_at=time.time(),
            )
            self._jobs[parent.id] = parent
            if cached is not None:
                self.scenario_hits += 1
                parent.result = cached
                parent.cached = True
                parent.state = JobState.DONE
                parent.finished_at = parent.submitted_at
                cells = cached.get("cells", {})
                parent.cells_done = cells.get("evaluated", 0)
                parent.cells_total = cells.get("total")
                self._emit_terminal_locked(parent)
                self._prune_finished_locked()
                self._condition.notify_all()
                return parent
            self.scenario_misses += 1
            parent.state = JobState.RUNNING
            parent.started_at = time.time()
            parent.cancel = CancelToken()
            self._emit_locked(parent, JobState.RUNNING)
        driver = threading.Thread(target=self._drive_query, args=(parent,),
                                  name=f"query-{parent.id}", daemon=True)
        driver.start()
        return parent

    def _drive_query(self, parent: Job) -> None:
        """Run one query to its answer on a dedicated driver thread.

        The driver never holds a lease or evaluates a cell itself — it only
        submits wave children and blocks on their handles, so however many
        queries run concurrently, the cell work still flows through the one
        priority queue.
        """

        def observer(event: dict) -> None:
            payload = dict(event)
            name = payload.pop("event", "wave")
            # Reserved event-record keys; the driver's payloads never carry
            # them, but guard against a future collision corrupting the log.
            for key in ("job", "seq", "time"):
                payload.pop(key, None)
            with self._condition:
                if not parent.finished:
                    self._emit_locked(parent, name, **payload)

        try:
            result = run_query(parent.query,
                               executor=_BrokerWaveExecutor(self, parent),
                               observer=observer, cancel=parent.cancel)
        except JobCancelledError:
            with self._condition:
                if not parent.finished:
                    self._finalize_query_locked(parent, JobState.CANCELLED)
            return
        except Exception as error:  # noqa: BLE001 — any driver failure must fail the job
            with self._condition:
                if not parent.finished:
                    self._finalize_query_locked(
                        parent, JobState.FAILED,
                        f"{type(error).__name__}: {error}")
            return
        payload = result.to_dict()
        if self.scenario_cache:
            self.artifacts.put(parent.digest, payload)
        with self._condition:
            if parent.finished:
                return
            parent.result = payload
            parent.cells_done = result.cells_evaluated
            parent.cells_total = result.cells_total
            self._finalize_query_locked(parent, JobState.DONE)

    def _finalize_query_locked(self, parent: Job, state: str,
                               error: str | None = None) -> None:
        """Take a query parent to a terminal state (lock held).

        Like :meth:`_finalize_locked` minus the lease/plan/busy bookkeeping
        a parent never owns — its wave children each settled their own.
        """
        parent.state = state
        if error is not None:
            parent.error = error
        parent.finished_at = time.time()
        if parent.cancel is not None and state in (JobState.FAILED,
                                                   JobState.CANCELLED):
            parent.cancel.cancel()
        self._emit_terminal_locked(parent)
        self._prune_finished_locked()
        self._condition.notify_all()

    def _submit_wave_locked(self, parent: Job, spec: ScenarioSpec,
                            indices: list[int], label: str) -> Job:
        """Enqueue one wave of a query as a cell-restricted child job.

        Waves skip the journal (the journaled parent re-derives them on
        replay) and the scenario-level artifact cache (a wave is a partial
        evaluation, not a whole-sweep result — its completed *cells* land in
        the cell cache as usual, which is what makes a warm replay free).
        """
        child = Job(
            id=uuid.uuid4().hex[:12],
            spec=spec,
            digest="",
            priority=parent.priority,
            submitted_at=time.time(),
            parent_id=parent.id,
            node=label,
            required=list(indices),
        )
        self._jobs[child.id] = child
        parent.children[label] = child.id
        self._sequence += 1
        heapq.heappush(self._queue, (-child.priority, self._sequence, child.id))
        self._emit_locked(child, JobState.QUEUED)
        self._emit_locked(parent, "wave_submitted", node=label, child=child.id,
                          cells=len(child.required))
        self._condition.notify_all()
        return child

    def replay_journal(self) -> list[Job]:
        """Resubmit every journaled job the previous server life never
        finished, preserving the original job ids.

        Called once at ``serve`` startup.  The journal is compacted first so
        the dead life's terminal records don't accumulate.  A record that no
        longer parses (the spec schema moved underneath it) is skipped — the
        journal is a recovery aid, not a suicide pact.
        """
        if self.journal is None:
            return []
        pending = self.journal.pending()
        self.journal.compact()
        replayed: list[Job] = []
        for record in pending:
            try:
                priority = int(record.get("priority", 0))
                if record.get("kind") == "composite":
                    composite = CompositeSpec.from_dict(record["spec"])
                    job = self.submit_composite(composite, priority=priority,
                                                job_id=record["job"])
                elif record.get("kind") == "query":
                    query = QuerySpec.from_dict(record["spec"])
                    job = self.submit_query(query, priority=priority,
                                            job_id=record["job"])
                else:
                    spec = ScenarioSpec.from_dict(record["spec"])
                    job = self.submit(spec, priority=priority,
                                      job_id=record["job"])
            except Exception:  # noqa: BLE001 — one bad record must not kill recovery
                # Retire the record: a spec that no longer parses would
                # otherwise be re-attempted (and re-skipped) on every restart.
                if record.get("job"):
                    self.journal.record_terminal(record["job"], JobState.FAILED)
                continue
            replayed.append(job)
        return replayed

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job '{job_id}'")
        return job

    def jobs(self) -> list[Job]:
        """All known jobs, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until a job reaches a terminal state (or the timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job '{job_id}'")
            while not job.finished:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._condition.wait(timeout=remaining)
        return job

    # ------------------------------------------------------------------ leases

    def acquire_lease(self, worker: str, max_cells: int | None = None,
                      wait: float = 0.0, remote: bool = True) -> LeaseGrant | None:
        """Check out up to ``max_cells`` sweep cells (or a whole job) to run.

        The worker's pull loop: open cells of already-running jobs are
        granted first (so a started job finishes before a new one starts),
        then the head of the priority queue is promoted to ``running`` and
        planned.  Blocks up to ``wait`` seconds for work to appear before
        returning None — the long-poll the HTTP ``POST /leases`` endpoint
        exposes.  ``max_cells=None`` takes everything pending (the local
        pool's default, preserving single-node scheduling exactly);
        ``remote=False`` marks the lease as in-process, exempt from TTL
        expiry and eligible for whole-job (injected-runner) grants.
        """
        if max_cells is not None and (not isinstance(max_cells, int)
                                      or isinstance(max_cells, bool)
                                      or max_cells <= 0):
            raise ConfigurationError(
                f"max_cells must be a positive integer, got {max_cells!r}"
            )
        deadline = time.monotonic() + max(0.0, wait)
        while True:
            with self._condition:
                if self._stop:
                    return None
                self._register_worker_locked(worker, remote)
                action = self._next_action_locked(worker, max_cells, remote)
                if action is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._condition.wait(timeout=min(remaining, 0.25))
                    continue
                kind, payload = action
                if kind == "grant":
                    return payload
            # kind == "plan": expand the spec and pre-answer cached cells
            # outside the lock (disk I/O), then loop back for a grant.
            self._plan_and_adopt(payload)

    def _register_worker_locked(self, worker: str, remote: bool) -> dict:
        info = self._workers.get(worker)
        if info is None:
            info = {"remote": remote, "leases_held": 0, "leases_total": 0,
                    "leases_lost": 0, "cells_done": 0, "cells_failed": 0,
                    "last_seen": time.time(),
                    "last_seen_monotonic": time.monotonic()}
            self._workers[worker] = info
        else:
            self._touch_worker_locked(info)
            info["remote"] = remote
        return info

    @staticmethod
    def _touch_worker_locked(info: dict) -> None:
        """Refresh a worker's liveness stamps: monotonic for staleness math,
        wall-clock for the human-facing ``last_seen`` field."""
        info["last_seen"] = time.time()
        info["last_seen_monotonic"] = time.monotonic()

    def _next_action_locked(self, worker: str, max_cells: int | None,
                            remote: bool):
        """One scheduling decision: a lease grant, a job to plan, or None.

        Open cells first — a running job's remaining cells outrank starting
        the next queued job, matching the historical one-job-at-a-time
        dispatcher when a single worker drains the queue.  A draining
        manager grants open cells (finish what started) but never pops the
        queue.
        """
        while self._open_cells:
            _neg_priority, _sequence, job_id = self._open_cells[0]
            job = self._jobs.get(job_id)
            plan = self._plans.get(job_id)
            if (job is None or job.state != JobState.RUNNING or job.parked
                    or plan is None or not plan.pending):
                heapq.heappop(self._open_cells)
                continue
            chunk = list(plan.pending if max_cells is None
                         else plan.pending[:max_cells])
            plan.pending = plan.pending[len(chunk):]
            if not plan.pending:
                heapq.heappop(self._open_cells)
            lease = self._grant_lease_locked(job, chunk, worker, remote)
            return ("grant", LeaseGrant(
                lease_id=lease.id,
                job_id=job.id,
                kind="cells",
                spec=job.spec,
                cells=chunk,
                tasks=[plan.cells[index].task for index in chunk],
                total_cells=len(plan.cells),
                ttl=self.lease_ttl,
                token=job.cancel,
            ))
        if self._draining:
            return None
        while self._queue:
            _neg_priority, _sequence, job_id = self._queue[0]
            job = self._jobs.get(job_id)
            if job is None or job.state != JobState.QUEUED:
                heapq.heappop(self._queue)
                continue  # cancelled (or pruned with its parent) while waiting
            if not self._cell_mode and remote:
                # Injected runners are process-local callables; only the
                # in-process pool can execute them.
                return None
            heapq.heappop(self._queue)
            job.state = JobState.RUNNING
            job.started_at = time.time()
            job.started_monotonic = time.monotonic()
            job.cancel = CancelToken()
            self._emit_locked(job, JobState.RUNNING)
            if self._cell_mode:
                return ("plan", job)
            lease = self._grant_lease_locked(job, None, worker, remote)
            return ("grant", LeaseGrant(
                lease_id=lease.id,
                job_id=job.id,
                kind="job",
                spec=job.spec,
                cells=None,
                tasks=None,
                total_cells=None,
                ttl=self.lease_ttl,
                token=job.cancel,
                runner=self._runner,
            ))
        return None

    def _grant_lease_locked(self, job: Job, cells: list[int] | None,
                            worker: str, remote: bool) -> Lease:
        lease = Lease(
            id=uuid.uuid4().hex[:12],
            job_id=job.id,
            worker=worker,
            cells=cells,
            granted_at=time.time(),
            deadline=time.monotonic() + self.lease_ttl,
            local=not remote,
        )
        self._leases[lease.id] = lease
        job.leases.add(lease.id)
        info = self._register_worker_locked(worker, remote)
        info["leases_held"] += 1
        info["leases_total"] += 1
        self._lease_stats["granted_total"] += 1
        self._emit_locked(job, "lease_granted", lease=lease.id, worker=worker,
                          cells=len(cells) if cells is not None else None)
        return lease

    def _resolve_lease_locked(self, lease: Lease) -> None:
        lease.resolved = True
        self._leases.pop(lease.id, None)
        job = self._jobs.get(lease.job_id)
        if job is not None:
            job.leases.discard(lease.id)
        info = self._workers.get(lease.worker)
        if info is not None:
            info["leases_held"] = max(0, info["leases_held"] - 1)

    # ---------------------------------------------------------------- planning

    def _plan_and_adopt(self, job: Job) -> None:
        """Expand a freshly-promoted job into cells and adopt the plan.

        Runs on the acquiring worker's thread with the lock *released* for
        the expensive parts: cell expansion and the cache precheck are pure
        CPU/disk work.  A job whose every cell is already cached completes
        here without any lease ever existing.
        """
        try:
            plan = self._plan_job(job.spec, required=job.required)
        except Exception as error:  # noqa: BLE001 — a bad spec must fail the job, not the worker
            with self._condition:
                if not job.finished:
                    self._finalize_locked(job, JobState.FAILED,
                                          f"{type(error).__name__}: {error}")
            return
        with self._condition:
            if job.finished:
                return
            if job.state == JobState.CANCELLING:
                self._finalize_locked(job, JobState.CANCELLED)
                return
            self._plans[job.id] = plan
            job.cells_total = plan.goal
            job.cells_done = len(plan.outcomes)
            self._emit_progress_locked(job)
            if plan.pending:
                self._sequence += 1
                job.sequence = self._sequence
                heapq.heappush(self._open_cells,
                               (-job.priority, job.sequence, job.id))
                self._condition.notify_all()
                return
            if plan.required is not None:
                # A fully-cached wave finishes here, no lease ever granted.
                self._finish_wave_locked(job, plan)
                return
            job.finalizing = True
            spec, cells = job.spec, plan.cells
            ordered = [plan.outcomes[index] for index in range(len(cells))]
        self._assemble_and_finish(job, spec, cells, ordered)

    def _plan_job(self, spec: ScenarioSpec,
                  required: list[int] | None = None) -> _JobPlan:
        """Expand the spec and answer whatever the cell cache already holds.

        Mirrors :func:`repro.experiments.common.run_parallel`'s cache
        precheck exactly (same digesting, same ambient batch-cycles extra),
        so the broker and a single-node run agree cell for cell on what is
        cached.  ``required`` restricts a query wave to a subset of the
        grid's indices: the cells list (and digest alignment) still covers
        the whole grid — indices stay global — but only the required cells
        are cache-probed and queued.
        """
        evaluator, _cost_key = EVALUATORS[spec.kind]
        cells = expand_cells(spec)
        if required is not None:
            bad = [index for index in required
                   if not 0 <= index < len(cells)]
            if bad:
                raise ConfigurationError(
                    f"wave cell indices {bad!r} are outside the spec's "
                    f"{len(cells)}-cell grid"
                )
        wanted = list(range(len(cells))) if required is None else list(required)
        outcomes: dict[int, object] = {}
        digests: list[str] | None = None
        cache = get_result_cache()
        use_cache = cache.enabled and is_cacheable_function(evaluator)
        if use_cache:
            from repro.sim.system import resolved_batch_cycles

            extra = ("batch_cycles", repr(resolved_batch_cycles()))
            try:
                digests = [task_digest(evaluator, cell.task, extra=extra)
                           for cell in cells]
            except CacheKeyError:
                use_cache = False
                digests = None
            else:
                for index in wanted:
                    hit, value = cache.get(digests[index])
                    if hit:
                        outcomes[index] = value
        pending = [index for index in wanted if index not in outcomes]
        return _JobPlan(cells=cells, pending=pending, outcomes=outcomes,
                        digests=digests, use_cache=use_cache,
                        required=None if required is None else list(required))

    def _assemble_and_finish(self, job: Job, spec: ScenarioSpec,
                             cells: list[ScenarioCell], ordered: list) -> None:
        """Assemble the final payload outside the lock and finalise ``done``.

        The caller must have set ``job.finalizing`` under the lock; nothing
        else finalises a job while that flag is up.
        """
        try:
            payload = assemble_result(spec, cells, ordered).to_dict()
        except Exception as error:  # noqa: BLE001 — assembly failure must fail the job
            with self._condition:
                self._finalize_locked(job, JobState.FAILED,
                                      f"{type(error).__name__}: {error}")
            return
        if self.scenario_cache:
            self.artifacts.put(job.digest, payload)
        with self._condition:
            job.result = payload
            self._finalize_locked(job, JobState.DONE)

    def _finish_wave_locked(self, job: Job, plan: _JobPlan) -> None:
        """Finish a query wave child ``done`` (lock held): stash the raw
        outcomes for the driver, no sweep assembly, no artifact write."""
        job.raw = {index: plan.outcomes[index] for index in plan.required}
        job.result = {"cells": sorted(plan.required)}
        job.cells_done = len(plan.required)
        self._finalize_locked(job, JobState.DONE)

    # -------------------------------------------------------------- heartbeats

    def heartbeat_lease(self, lease_id: str, done: int | None = None,
                        total: int | None = None) -> dict:
        """Refresh a lease's deadline and report progress; returns directives.

        ``done`` counts the lease's completed cells (whole-job leases pass
        ``done``/``total`` over the entire job instead).  The reply carries
        the job's state and a ``cancel`` flag the worker must honour — how a
        remote worker, which cannot share the broker's
        :class:`CancelToken` object, learns of cooperative cancellation.
        Heartbeating a lease the broker no longer honours (expired, job
        finished elsewhere) raises :class:`LeaseLostError` — HTTP 410 — and
        the worker abandons the work.
        """
        with self._condition:
            lease = self._leases.get(lease_id)
            if lease is None or lease.resolved:
                raise LeaseLostError(f"lease '{lease_id}' is no longer held")
            lease.deadline = time.monotonic() + self.lease_ttl
            info = self._workers.get(lease.worker)
            if info is not None:
                self._touch_worker_locked(info)
            job = self._jobs.get(lease.job_id)
            if job is None or job.finished:
                # The job went terminal while the lease was in flight (e.g.
                # another lease's error failed it); stop working.
                self._resolve_lease_locked(lease)
                state = job.state if job is not None else "unknown"
                return {"state": state, "cancel": True}
            if lease.cells is None:
                if done is not None and total is not None:
                    job.cells_done = int(done)
                    job.cells_total = int(total)
                    self._emit_progress_locked(job)
            elif done is not None:
                clamped = max(0, min(int(done), len(lease.cells)))
                if clamped != lease.done:
                    lease.done = clamped
                    self._refresh_cell_progress_locked(job)
            cancel = job.state == JobState.CANCELLING or job.parked
            return {"state": job.state, "cancel": cancel}

    def _refresh_cell_progress_locked(self, job: Job) -> None:
        """Recompute a cell-mode job's progress from outcomes + live leases."""
        plan = self._plans.get(job.id)
        if plan is None:
            return
        done = len(plan.outcomes)
        for lease_id in job.leases:
            lease = self._leases.get(lease_id)
            if lease is not None and lease.cells is not None:
                done += lease.done
        done = min(done, plan.goal)
        if done == job.cells_done:
            return
        job.cells_done = done
        self._emit_progress_locked(job)

    # -------------------------------------------------------------- completion

    def complete_lease(self, lease_id: str, outcomes=None,
                       error: str | None = None,
                       cancelled: bool = False) -> Job | None:
        """Resolve a lease with its results, an error, or a cancellation.

        Cell leases pass ``outcomes`` as ``{cell_index: outcome}``; a
        whole-job lease passes the runner's complete result payload.  The
        first write per cell wins — a zombie worker whose lease expired and
        requeued can still post, but can never overwrite what another worker
        already answered (and an expired lease raises
        :class:`LeaseLostError` here anyway).  A worker that *cancelled*
        (its own shutdown, or honouring the broker's cancel directive)
        requeues its unanswered cells unless the job itself is being
        cancelled.  When the last cell lands, the broker persists remotely
        computed outcomes into the cell cache, assembles the payload and
        finishes the job ``done``.
        """
        to_persist: list[tuple[str, object]] = []
        finish: tuple | None = None
        with self._condition:
            lease = self._leases.get(lease_id)
            if lease is None or lease.resolved:
                raise LeaseLostError(f"lease '{lease_id}' is no longer held")
            self._resolve_lease_locked(lease)
            info = self._workers.get(lease.worker)
            if info is not None:
                self._touch_worker_locked(info)
            job = self._jobs.get(lease.job_id)
            if job is None or job.finished:
                return job  # late completion of a job decided elsewhere
            if error is not None:
                if info is not None:
                    info["cells_failed"] += (len(lease.cells)
                                             if lease.cells is not None else 1)
                self._finalize_locked(job, JobState.FAILED, error)
                return job
            if lease.cells is None:
                # Whole-job lease (injected runner).
                if cancelled:
                    self._finalize_locked(job, JobState.CANCELLED)
                    return job
                if info is not None:
                    info["cells_done"] += job.cells_done
                job.finalizing = True
                finish = ("payload", outcomes)
            elif cancelled:
                plan = self._plans.get(job.id)
                if job.state == JobState.CANCELLING or job.parked:
                    if not job.leases and not job.finalizing:
                        self._finalize_locked(job, JobState.CANCELLED)
                    return job
                # The worker gave the lease back (its own shutdown, a lost
                # broker connection): requeue so another worker picks it up.
                if plan is not None:
                    missing = [index for index in lease.cells
                               if index not in plan.outcomes]
                    if missing:
                        self._requeue_cells_locked(job, plan, missing)
                return job
            else:
                plan = self._plans.get(job.id)
                if plan is None:
                    return job
                fresh: dict[int, object] = {}
                for key, value in (outcomes or {}).items():
                    index = int(key)
                    if index in plan.outcomes or index not in lease.cells:
                        continue
                    fresh[index] = value
                plan.outcomes.update(fresh)
                if info is not None:
                    info["cells_done"] += len(fresh)
                missing = [index for index in lease.cells
                           if index not in plan.outcomes]
                if missing and job.state == JobState.RUNNING and not job.parked:
                    self._requeue_cells_locked(job, plan, missing)
                self._refresh_cell_progress_locked(job)
                if (plan.use_cache and plan.digests is not None
                        and not lease.local):
                    # Local leases already persisted cell-by-cell inside
                    # run_parallel; remote outcomes are persisted here so the
                    # broker's cache answers future runs (and other workers
                    # through the /artifacts routes).
                    to_persist = [(plan.digests[index], value)
                                  for index, value in fresh.items()]
                if plan.complete:
                    if plan.required is not None:
                        # Query wave: no whole-sweep assembly — the driver
                        # consumes the raw outcomes through the wave handle.
                        self._finish_wave_locked(job, plan)
                    else:
                        job.finalizing = True
                        ordered = [plan.outcomes[index]
                                   for index in range(len(plan.cells))]
                        finish = ("cells", job.spec, plan.cells, ordered)
                elif (job.state == JobState.CANCELLING or job.parked) \
                        and not job.leases:
                    self._finalize_locked(job, JobState.CANCELLED)
                    return job
                else:
                    self._condition.notify_all()
        if to_persist:
            cache = get_result_cache()
            for digest, value in to_persist:
                cache.put(digest, value)
        if finish is None:
            return job
        if finish[0] == "payload":
            payload = finish[1]
            if self.scenario_cache and isinstance(payload, dict):
                self.artifacts.put(job.digest, payload)
            with self._condition:
                job.result = payload
                self._finalize_locked(job, JobState.DONE)
            return job
        _kind, spec, cells, ordered = finish
        self._assemble_and_finish(job, spec, cells, ordered)
        return job

    def _requeue_cells_locked(self, job: Job, plan: _JobPlan,
                              indices: list[int]) -> None:
        plan.pending.extend(indices)
        self._lease_stats["requeued_cells_total"] += len(indices)
        if job.sequence == 0:
            self._sequence += 1
            job.sequence = self._sequence
        heapq.heappush(self._open_cells, (-job.priority, job.sequence, job.id))
        self._condition.notify_all()

    def _finalize_locked(self, job: Job, state: str,
                         error: str | None = None) -> None:
        """Take a spec job to a terminal state (lock held): revoke leases,
        drop the plan, emit the terminal event, advance any parent."""
        job.state = state
        if error is not None:
            job.error = error
        job.finished_at = time.time()
        if job.started_monotonic is not None:
            self.busy_seconds += time.monotonic() - job.started_monotonic
        job.finalizing = False
        for lease_id in list(job.leases):
            lease = self._leases.get(lease_id)
            if lease is not None:
                self._resolve_lease_locked(lease)
        if job.cancel is not None and state in (JobState.FAILED,
                                                JobState.CANCELLED):
            # Sibling leases of a failed/cancelled job must stop working;
            # their eventual posts answer 410 and are discarded.
            job.cancel.cancel()
        self._plans.pop(job.id, None)
        self._emit_terminal_locked(job)
        if job.parent_id is not None:
            self._on_child_terminal_locked(job)
        self._prune_finished_locked()
        self._condition.notify_all()

    # ------------------------------------------------------------------ expiry

    def _reap_loop(self) -> None:
        interval = max(0.05, min(self.lease_ttl / 4.0, 5.0))
        with self._condition:
            while not self._stop:
                self._condition.wait(timeout=interval)
                if self._stop:
                    return
                now = time.monotonic()
                expired = [lease for lease in self._leases.values()
                           if not lease.local and now > lease.deadline]
                for lease in expired:
                    self._expire_lease_locked(lease)

    def _expire_lease_locked(self, lease: Lease) -> None:
        """A remote worker missed its heartbeat: revoke and requeue."""
        self._resolve_lease_locked(lease)
        self._lease_stats["expired_total"] += 1
        info = self._workers.get(lease.worker)
        if info is not None:
            info["leases_lost"] += 1
        job = self._jobs.get(lease.job_id)
        if job is None or job.finished:
            return
        self._emit_locked(job, "lease_expired", lease=lease.id,
                          worker=lease.worker)
        plan = self._plans.get(job.id)
        if lease.cells is not None and plan is not None:
            if job.state == JobState.RUNNING and not job.parked:
                missing = [index for index in lease.cells
                           if index not in plan.outcomes]
                if missing:
                    self._requeue_cells_locked(job, plan, missing)
        if ((job.state == JobState.CANCELLING or job.parked)
                and not job.leases and not job.finalizing):
            self._finalize_locked(job, JobState.CANCELLED)

    # ------------------------------------------------------------ cancellation

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued jobs immediately, running jobs cooperatively.

        The check-and-transition happens under the same lock the lease
        broker uses to move a job to ``running``, so the two can never
        half-cancel a job between them.  A queued job goes straight to
        ``cancelled``.  A *running* job enters ``cancelling``: its cancel
        token is set (remote workers learn through the heartbeat reply) and
        every lease drains at the next cell boundary — a lease that
        completes before noticing still lands its outcomes; a job whose
        every cell completed anyway still finishes ``done`` (the work was
        already paid for).  Cancelling again while ``cancelling`` is
        idempotent; only a finished job raises :class:`JobConflictError`
        (HTTP 409).  Cancelling a composite parent propagates to its
        descendants: queued children are cancelled, unlaunched nodes are
        skipped, and running children get their tokens set — the parent
        stays ``cancelling`` until the last one drains.
        """
        with self._condition:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job '{job_id}'")
            if job.composite is not None:
                if job.finished:
                    raise JobConflictError(
                        f"job '{job_id}' is {job.state}; a finished composite "
                        f"cannot be cancelled"
                    )
                if job.state != JobState.CANCELLING:
                    self._cancel_composite_locked(job)
                return job
            if job.query is not None:
                # Setting the token is enough: the driver thread notices at
                # the next wave boundary (or mid-wait through its polling
                # wave handles), cancels the in-flight wave children and
                # finalises the parent ``cancelled``.
                if job.finished:
                    raise JobConflictError(
                        f"job '{job_id}' is {job.state}; a finished query "
                        f"cannot be cancelled"
                    )
                if job.state != JobState.CANCELLING:
                    job.state = JobState.CANCELLING
                    if job.cancel is not None:
                        job.cancel.cancel()
                    self._emit_locked(job, JobState.CANCELLING)
                    self._condition.notify_all()
                return job
            if job.state == JobState.CANCELLING:
                return job  # idempotent: already being cancelled
            if job.state == JobState.RUNNING:
                job.state = JobState.CANCELLING
                if job.cancel is not None:
                    job.cancel.cancel()
                self._emit_locked(job, JobState.CANCELLING)
                self._maybe_finish_cancel_locked(job)
                self._condition.notify_all()
                return job
            if job.state != JobState.QUEUED:
                raise JobConflictError(
                    f"job '{job_id}' is {job.state}; a finished job "
                    f"cannot be cancelled"
                )
            job.state = JobState.CANCELLED
            job.finished_at = time.time()
            # The queue entry stays; the broker skips cancelled jobs.
            self._emit_terminal_locked(job)
            if job.parent_id is not None:
                self._on_child_terminal_locked(job)
            self._prune_finished_locked()
            self._condition.notify_all()
        return job

    def _maybe_finish_cancel_locked(self, job: Job) -> None:
        """Finalise a cancelling cell-mode job with nothing in flight.

        No leases and no finalisation thread means nobody will ever report
        back — the pending cells would wait forever.  A job still being
        planned (no plan adopted yet) is finalised by the planner's re-check
        instead.
        """
        if (job.spec is not None and not job.leases and not job.finalizing
                and job.id in self._plans):
            self._finalize_locked(job, JobState.CANCELLED)

    def _cancel_composite_locked(self, parent: Job) -> None:
        """Cancel a composite parent and propagate to its descendants.

        Queued children are cancelled and unlaunched nodes skipped outright;
        running children are switched to ``cancelling`` with their tokens
        set.  The parent goes terminal immediately when nothing is in
        flight, otherwise it enters ``cancelling`` *first* (so each child's
        terminal transition sees a cancelling parent and mirrors correctly)
        and waits for the last member to drain
        (:meth:`_on_child_terminal_locked` finalises it).
        """
        self._skip_descendants_locked(parent)
        active = [
            child for child_id in parent.children.values()
            if (child := self._jobs.get(child_id)) is not None
            and child.state in (JobState.RUNNING, JobState.CANCELLING)
        ]
        if not active:
            parent.state = JobState.CANCELLED
            parent.finished_at = time.time()
            self._emit_terminal_locked(parent)
            self._prune_finished_locked()
            self._condition.notify_all()
            return
        parent.state = JobState.CANCELLING
        self._emit_locked(parent, JobState.CANCELLING)
        for child in active:
            if child.state != JobState.RUNNING:
                continue
            child.state = JobState.CANCELLING
            if child.cancel is not None:
                child.cancel.cancel()
            self._emit_locked(child, JobState.CANCELLING)
            self._maybe_finish_cancel_locked(child)
        self._condition.notify_all()

    def _skip_descendants_locked(self, parent: Job) -> None:
        """Cancel queued children and mark unlaunched nodes skipped (lock held).

        Shared by composite cancellation and fail-fast: running members are
        left to drain (their outcome is mirrored into the node table when
        they finish), queued members are cancelled, never-launched nodes are
        skipped.
        """
        now = time.time()
        for node, child_id in parent.children.items():
            child = self._jobs.get(child_id)
            if child is None or child.state != JobState.QUEUED:
                continue
            child.state = JobState.CANCELLED
            child.finished_at = now
            parent.node_states[node] = NODE_SKIPPED
            self._emit_terminal_locked(child)
            self._emit_locked(parent, "node_skipped", node=node)
        for node, state in parent.node_states.items():
            if state == NODE_PENDING:
                parent.node_states[node] = NODE_SKIPPED
                self._emit_locked(parent, "node_skipped", node=node)

    # ------------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Queue depth, per-state counts, cache hit rates, worker fleet."""
        now_monotonic = time.monotonic()
        with self._lock:
            by_state: dict[str, int] = {}
            composites = 0
            queries = 0
            running_ids: list[str] = []
            busy = self.busy_seconds
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
                if job.composite is not None:
                    composites += 1
                    continue
                if job.query is not None:
                    # A query parent occupies no worker itself — its wave
                    # children carry the busy time.
                    queries += 1
                    continue
                if job.state in (JobState.RUNNING, JobState.CANCELLING):
                    running_ids.append(job.id)
                    if job.started_monotonic is not None:
                        busy += now_monotonic - job.started_monotonic
            queue_depth = by_state.get(JobState.QUEUED, 0)
            total = len(self._jobs)
            workers = {
                name: {
                    "remote": info["remote"],
                    "leases_held": info["leases_held"],
                    "leases_total": info["leases_total"],
                    "leases_lost": info["leases_lost"],
                    "cells_done": info["cells_done"],
                    "cells_failed": info["cells_failed"],
                    "last_seen": info["last_seen"],
                    "heartbeat_age_seconds": max(
                        0.0, now_monotonic - info["last_seen_monotonic"]),
                }
                for name, info in self._workers.items()
            }
            leases = {"active": len(self._leases), **self._lease_stats}
        uptime = max(now_monotonic - self._started_monotonic, 1e-9)
        cell_cache = get_result_cache()
        return {
            "uptime_seconds": uptime,
            "queue_depth": queue_depth,
            "running": running_ids,
            "jobs_total": total,
            "jobs_by_state": by_state,
            "composites_total": composites,
            "queries_total": queries,
            "scenario_cache": {
                "hits": self.scenario_hits,
                "misses": self.scenario_misses,
                **self.artifacts.stats.as_dict(),
            },
            "cell_cache": {
                "enabled": cell_cache.enabled,
                **cell_cache.stats.as_dict(),
            },
            "worker_utilisation": min(1.0, busy / uptime),
            "busy_seconds": busy,
            "workers": workers,
            "leases": leases,
            "supervisor": supervisor_stats().as_dict(),
            "journal": self.journal.stats() if self.journal is not None else None,
        }

    # ---------------------------------------------------------------- lifecycle

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop granting leases; queued jobs stay queued (service is ending)."""
        with self._condition:
            self._stop = True
            self._condition.notify_all()
        if self._pool is not None:
            self._pool.stop(timeout=timeout)
        self._reaper.join(timeout=timeout)

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM path: stop accepting, finish or park, flush.

        New submissions are rejected and the queue stops being popped —
        leases over *already running* jobs keep being granted so started
        work can finish.  Running jobs get up to ``timeout`` seconds to
        complete normally; past that they are *parked* — cancel tokens fire,
        every completed cell already persisted in the result cache, and
        their journal submit records stay live so the next server life
        replays them and the cache answers the cells they finished.  Queued
        jobs simply stay in the journal.  Ends with a journal compaction.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._condition:
            self._draining = True
            self._condition.notify_all()
        self._await_idle(deadline)
        with self._condition:
            for job in list(self._jobs.values()):
                if job.finished or job.started_at is None:
                    continue
                if job.state not in (JobState.RUNNING, JobState.CANCELLING):
                    continue
                job.parked = True
                if job.parent_id is not None:
                    parent = self._jobs.get(job.parent_id)
                    if parent is not None:
                        parent.parked = True
                if job.cancel is not None:
                    job.cancel.cancel()
        # Give parked leases one cell boundary to unwind before stopping.
        self._await_idle(time.monotonic() + 5.0)
        self.shutdown()
        if self.journal is not None:
            self.journal.compact()

    def _await_idle(self, deadline: float) -> None:
        """Wait until no spec job is executing (or the deadline passes)."""
        with self._condition:
            while True:
                busy = any(
                    job.spec is not None and not job.finished
                    and job.state in (JobState.RUNNING, JobState.CANCELLING)
                    and (job.leases or job.finalizing
                         or job.started_at is not None)
                    for job in self._jobs.values()
                )
                if not busy:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._condition.wait(timeout=min(remaining, 0.25))

    # ------------------------------------------------------------------ composites

    def _launch_ready_nodes_locked(self, parent: Job) -> None:
        """Submit every pending node whose dependencies are done (lock held).

        Parameter references resolve against the finished children's result
        payloads.  A resolution failure (bad selector output, spec made
        invalid by the injected values) fails the composite like a member
        failure would.  A ready child may complete instantly (artifact-store
        hit), unblocking its dependents in turn — the worklist loop rescans
        until a pass launches nothing, iteratively rather than recursively,
        so an arbitrarily deep all-cached chain cannot exhaust the stack.
        Finishes the parent when the last node completes.
        """
        progressed = True
        while progressed and not parent.finished:
            progressed = False
            upstream: dict[str, dict] = {}
            for node_name, child_id in parent.children.items():
                child = self._jobs.get(child_id)
                if child is not None and child.state == JobState.DONE:
                    upstream[node_name] = child.result
            for node in parent.composite.nodes:
                if parent.node_states.get(node.name) != NODE_PENDING:
                    continue
                if not all(parent.node_states.get(dep) == NODE_DONE
                           for dep in node.depends_on):
                    continue
                try:
                    spec = resolve_node_spec(node, upstream)
                    digest = scenario_digest(spec)
                except Exception as error:  # noqa: BLE001 — resolution must fail the composite, not the caller
                    reason = f"{type(error).__name__}: {error}"
                    parent.node_states[node.name] = NODE_FAILED
                    self._emit_locked(parent, "node_failed", node=node.name,
                                      error=reason)
                    self._fail_composite_locked(
                        parent,
                        f"node '{node.name}' failed to resolve: {reason}",
                        failed_node=node.name, reason=reason,
                    )
                    return
                # Member artifacts are small summary payloads; reading one
                # under the lock is bounded by the node count per pass.
                cached = (self.artifacts.get(digest)
                          if self.scenario_cache else None)
                child = self._submit_spec_locked(spec, digest, parent.priority,
                                                 cached, parent=parent,
                                                 node=node.name)
                if child.state == JobState.DONE:
                    parent.node_states[node.name] = NODE_DONE
                    parent.cells_done += 1
                    self._emit_locked(parent, "node_cached", node=node.name,
                                      child=child.id)
                    progressed = True  # dependents may have become ready
        if not parent.finished and all(
            state == NODE_DONE for state in parent.node_states.values()
        ):
            self._finish_composite_locked(parent)

    def _on_child_terminal_locked(self, child: Job) -> None:
        """Advance (or fail) the parent composite after a child finishes."""
        parent = self._jobs.get(child.parent_id or "")
        if parent is None:
            return
        if parent.query is not None:
            # Query waves are consumed through their handles by the driver
            # thread; the parent's node table and DAG logic don't apply.
            return
        node = child.node
        if parent.finished:
            # The parent reached a terminal state (cancellation, fail-fast)
            # while this member drained: mirror the member's real outcome in
            # the node table so the two never contradict, but emit nothing —
            # the parent's terminal event must stay last in its log.
            parent.node_states[node] = {
                JobState.DONE: NODE_DONE,
                JobState.FAILED: NODE_FAILED,
            }.get(child.state, NODE_SKIPPED)
            return
        if parent.state == JobState.CANCELLING:
            # A cancelled parent drains its in-flight members: mirror each
            # outcome, never launch dependents, and go terminal when the
            # last one lands.
            parent.node_states[node] = {
                JobState.DONE: NODE_DONE,
                JobState.FAILED: NODE_FAILED,
            }.get(child.state, NODE_SKIPPED)
            if child.state == JobState.DONE:
                parent.cells_done += 1
                self._emit_locked(parent, "node_done", node=node, child=child.id)
            active = any(
                (sibling := self._jobs.get(child_id)) is not None
                and not sibling.finished
                for child_id in parent.children.values()
            )
            if not active:
                parent.state = JobState.CANCELLED
                parent.finished_at = time.time()
                self._emit_terminal_locked(parent)
                self._prune_finished_locked()
                self._condition.notify_all()
            return
        if child.state == JobState.DONE:
            parent.node_states[node] = NODE_DONE
            parent.cells_done += 1
            self._emit_locked(parent, "node_cached" if child.cached else "node_done",
                              node=node, child=child.id)
            self._launch_ready_nodes_locked(parent)
            return
        parent.node_states[node] = NODE_FAILED
        reason = child.error or f"member job was {child.state}"
        self._emit_locked(parent, "node_failed", node=node, child=child.id,
                          error=reason)
        self._fail_composite_locked(parent, f"node '{node}' failed: {reason}",
                                    failed_node=node, reason=reason)

    def _partial_payload_locked(self, parent: Job) -> dict:
        """The assembled payload of whatever members finished (lock held)."""
        payloads: dict[str, dict] = {}
        resolved: dict[str, ScenarioSpec] = {}
        cached: dict[str, bool] = {}
        for node, child_id in parent.children.items():
            child = self._jobs.get(child_id)
            if child is None or child.state != JobState.DONE:
                continue
            payloads[node] = child.result
            resolved[node] = child.spec
            cached[node] = child.cached
        return assemble_payload(parent.composite, payloads, resolved, cached)

    def _finish_composite_locked(self, parent: Job) -> None:
        parent.result = self._partial_payload_locked(parent)
        if self.scenario_cache:
            # One bounded write at composite completion; member payloads were
            # each persisted outside the lock when their jobs executed.
            self.artifacts.put(parent.digest, parent.result)
        parent.state = JobState.DONE
        parent.finished_at = time.time()
        self._emit_terminal_locked(parent)
        self._prune_finished_locked()
        self._condition.notify_all()

    def _fail_composite_locked(self, parent: Job, message: str,
                               failed_node: str, reason: str) -> None:
        """Fail fast: cancel queued descendants, keep the partial results.

        The partial payload mirrors :meth:`CompositeResult.to_dict`'s failure
        shape — ``node_states`` plus per-node ``node_errors`` — so service
        and CLI clients see the same structure.
        """
        self._skip_descendants_locked(parent)
        partial = self._partial_payload_locked(parent)
        partial["node_states"] = dict(parent.node_states)
        partial["node_errors"] = {failed_node: reason}
        parent.result = partial
        parent.state = JobState.FAILED
        parent.error = message
        parent.finished_at = time.time()
        self._emit_terminal_locked(parent)
        self._prune_finished_locked()
        self._condition.notify_all()

    # ------------------------------------------------------------------ retention

    def _prune_finished_locked(self) -> None:
        """Drop the oldest *parentless* terminal job records beyond the bound.

        Called with the lock held.  ``self._jobs`` preserves submission
        order, so the oldest finished jobs go first; queued and running jobs
        are never touched.  A composite child with a live parent record does
        not count against the bound and is never evicted on its own — clients
        reach children through the parent summary, so evicting a child while
        its parent is still queryable would 404 a referenced id.  Evicting a
        parent evicts its (terminal) children with it.
        """
        finished = [
            job_id for job_id, job in self._jobs.items()
            if job.finished and (job.parent_id is None
                                 or job.parent_id not in self._jobs)
        ]
        excess = len(finished) - self.max_finished_jobs
        for job_id in finished[:excess] if excess > 0 else ():
            job = self._jobs.pop(job_id)
            for child_id in job.children.values():
                child = self._jobs.get(child_id)
                if child is not None and child.finished:
                    del self._jobs[child_id]


# ------------------------------------------------------------- query waves


class _BrokerWaveExecutor(WaveExecutor):
    """Run query waves as cell-restricted child jobs of one query parent.

    The on-demand drivers in :mod:`repro.scenarios.ondemand` call ``start``
    once per wave; each call enqueues a child job whose ``required`` names
    exactly the wave's cell indices, so the lease broker fans the wave
    across whatever workers — local threads or the remote fleet — pull it.
    """

    def __init__(self, manager: JobManager, parent: Job):
        self._manager = manager
        self._parent = parent

    def start(self, spec: ScenarioSpec, indices, label: str) -> "_BrokerWaveHandle":
        manager = self._manager
        with manager._condition:
            if manager._stop:
                raise ServiceError("the job manager is shut down")
            child = manager._submit_wave_locked(self._parent, spec,
                                               list(indices), label)
        return _BrokerWaveHandle(manager, child, self._parent.cancel)


class _BrokerWaveHandle:
    """One in-flight wave: wait for (or cancel) its child job.

    ``wait`` deliberately polls the manager's condition instead of using
    :meth:`JobManager.wait`: the driver must also unblock when the *query's*
    cancel token fires or the manager stops — neither of which is a child
    state transition.
    """

    def __init__(self, manager: JobManager, child: Job,
                 token: CancelToken | None):
        self._manager = manager
        self._child = child
        self._token = token

    def wait(self) -> dict:
        manager, child = self._manager, self._child
        while True:
            with manager._condition:
                if child.finished:
                    break
                interrupted = manager._stop or (
                    self._token is not None and self._token.cancelled)
                if not interrupted:
                    manager._condition.wait(timeout=0.25)
                    continue
            # Interrupted mid-wave (shutdown or query cancellation): cancel
            # the child — its lease drains at the next cell boundary, every
            # completed cell already cached — and unwind the driver.
            self.cancel()
            raise JobCancelledError(
                f"query wave '{child.node}' interrupted by "
                f"{'shutdown' if manager._stop else 'cancellation'}"
            )
        if child.state == JobState.DONE:
            raw = child.raw or {}
            child.raw = None  # the driver owns the outcomes now; free them
            return raw
        if child.state == JobState.CANCELLED:
            raise JobCancelledError(
                f"query wave '{child.node}' was cancelled")
        raise ServiceError(
            child.error or f"query wave '{child.node}' failed")

    def cancel(self) -> None:
        try:
            self._manager.cancel(self._child.id)
        except ServiceError:
            # Already terminal (JobConflictError) or pruned: nothing to do.
            pass
