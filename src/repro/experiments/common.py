"""Shared experiment configuration helpers and the parallel task executor.

The paper's 2-, 4- and 8-core CMPs use 8, 8 and 16 MB LLCs (Table I); this
reproduction runs much shorter traces, so experiments scale the cache
hierarchy down by roughly 64x (4 KB L1, 16 KB L2, 128/128/256 KB LLC) while
keeping latencies, associativities and the DRAM timing at their Table I
values.  All figure harnesses and benchmarks build their configurations
through :func:`default_experiment_config` so the scale-down is applied
consistently.

The figure experiments are embarrassingly parallel across (workload, config)
cells — every cell is an independent pure function of its arguments.
:func:`run_parallel` is the one fan-out point they all share:

* **Memoisation** — each cell is first looked up in the content-addressed
  result cache (:mod:`repro.sim.result_cache`); only misses are computed and
  the results persisted, so a warm rerun of an identical sweep touches no
  simulator code at all.  ``REPRO_CACHE=0`` disables this.
* **Persistent process pool** — misses are fanned across one shared,
  lazily-created :class:`~concurrent.futures.ProcessPoolExecutor` that is
  reused for every figure of a run (``REPRO_JOBS`` / the ``jobs`` argument
  selects the worker count); creating a pool per experiment would pay
  worker spawn and import cost once per figure.  Call
  :func:`shutdown_executor` for an explicit teardown (``run_all`` does).
* **Supervision** — each miss is submitted as its own future under a
  supervisor that classifies failures (see
  :mod:`repro.experiments.supervisor`): transient ones — injected faults,
  cell timeouts, a broken pool — are retried with exponential backoff and
  deterministic jitter, a broken pool is rebuilt and only still-unanswered
  cells resubmitted, and evaluator bugs surface unretried.  A cooperative
  cancel token stops the sweep at the next cell boundary.  Completed cells
  are persisted to the result cache *as they finish*, so recovery after a
  crash never recomputes a cell the cache can already answer.
* **Scheduling** — when the caller provides a ``cost_key``, largest cells
  are submitted first so a long cell cannot strand the pool's tail; results
  are always returned in submission order, bit-identical to the serial
  fallback used when ``jobs`` resolves to 1 or only one task is pending.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections.abc import Callable, Sequence

from repro.errors import (
    CacheKeyError,
    CellTimeoutError,
    ConfigurationError,
    JobCancelledError,
)
from repro.cache.batch import resolve_vec_batch
from repro.config import CMPConfig
from repro.experiments.supervisor import (
    CancelToken,
    RetryPolicy,
    cell_timeout_from_env,
    is_transient,
    record,
    retry_policy_from_env,
)
from repro.sim.result_cache import get_result_cache, is_cacheable_function, task_digest

__all__ = [
    "EXPERIMENT_LLC_KILOBYTES",
    "default_experiment_config",
    "get_executor",
    "print_cache_stats",
    "resolve_jobs",
    "run_parallel",
    "shutdown_executor",
]

# Scaled LLC capacity per core count, mirroring Table I's 8/8/16 MB.
EXPERIMENT_LLC_KILOBYTES = {2: 128, 4: 128, 8: 256}

# How long the supervisor's completion wait sleeps between bookkeeping passes
# (cancel checks, timeout scans, backoff expiry).  Pure overhead bound: a
# fault-free sweep wakes up this often and finds nothing to do.
_SUPERVISOR_TICK_SECONDS = 0.05

# Consecutive pool rebuilds without a single completed cell before the
# supervisor gives up — distinguishes "one worker died" (recoverable) from
# "workers die on startup" (hopeless, e.g. an import crash in every child).
_MAX_CONSECUTIVE_REBUILDS = 5


def default_experiment_config(n_cores: int, llc_kilobytes: int | None = None) -> CMPConfig:
    """The scaled CMP configuration used by the experiments for ``n_cores`` cores."""
    if llc_kilobytes is None:
        llc_kilobytes = EXPERIMENT_LLC_KILOBYTES.get(n_cores, 128)
    return CMPConfig.default(n_cores).scaled(llc_kilobytes=llc_kilobytes)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count for parallel sweeps.

    Explicit ``jobs`` wins; otherwise the ``REPRO_JOBS`` environment variable;
    otherwise the machine's CPU count.  Always at least 1.  A ``REPRO_JOBS``
    value that is not a positive integer raises
    :class:`~repro.errors.ConfigurationError` — silently clamping (or the
    bare ``ValueError`` ``int()`` used to throw) hid typos like
    ``REPRO_JOBS=all`` or ``REPRO_JOBS=-4`` until deep inside a sweep.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env is not None and env.strip() != "":
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_JOBS must be a positive integer, got {env!r}"
                ) from None
            if jobs <= 0:
                raise ConfigurationError(
                    f"REPRO_JOBS must be a positive integer, got {env!r}"
                )
        else:
            jobs = os.cpu_count() or 1
    return max(1, jobs)


# ------------------------------------------------------------------ persistent pool

_EXECUTOR = None
_EXECUTOR_WORKERS = 0
_EXECUTOR_ENV_FINGERPRINT = ""
_SHUTDOWN_REGISTERED = False
# Reentrant: shutdown_executor() may be reached from get_executor() while the
# lock is already held (worker-count/fingerprint change rebuilds the pool).
_EXECUTOR_LOCK = threading.RLock()


def _worker_env_fingerprint() -> str:
    """Ambient knobs that worker processes snapshot when the pool is created.

    Workers read ``REPRO_BATCH_CYCLES`` from their *own* environment (frozen
    at pool creation), while cache digests use the parent's current value; a
    pool that outlives an env change would therefore compute with the old
    knob and persist results under the new knob's digest.  The fingerprint
    forces a pool rebuild whenever a result-affecting ambient knob changes.
    """
    from repro.sim.system import resolved_batch_cycles

    return repr(resolved_batch_cycles())


def get_executor(workers: int):
    """The shared process pool, created lazily and reused across experiments.

    A pool with a different worker count — or a different ambient-knob
    fingerprint (see :func:`_worker_env_fingerprint`) — replaces the existing
    one (the old pool is shut down first).  The pool is torn down
    automatically at interpreter exit; ``run_all`` additionally shuts it down
    explicitly when a run completes.  Creation and teardown are serialised by
    a lock so long-lived multi-threaded callers (the scenario service) can
    interleave sweeps with ``run_all``-style explicit shutdowns: the next
    sweep after a shutdown simply builds a fresh pool.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS, _EXECUTOR_ENV_FINGERPRINT, _SHUTDOWN_REGISTERED
    if workers <= 0:
        raise ConfigurationError("the process pool needs at least one worker")
    fingerprint = _worker_env_fingerprint()
    with _EXECUTOR_LOCK:
        if _EXECUTOR is not None and (
            _EXECUTOR_WORKERS != workers or _EXECUTOR_ENV_FINGERPRINT != fingerprint
        ):
            shutdown_executor()
        if _EXECUTOR is None:
            from concurrent.futures import ProcessPoolExecutor

            _EXECUTOR = ProcessPoolExecutor(max_workers=workers)
            _EXECUTOR_WORKERS = workers
            _EXECUTOR_ENV_FINGERPRINT = fingerprint
            if not _SHUTDOWN_REGISTERED:
                atexit.register(shutdown_executor)
                _SHUTDOWN_REGISTERED = True
        return _EXECUTOR


def print_cache_stats() -> None:
    """Print the process-wide cell cache's counters on one line."""
    cache = get_result_cache()
    if cache.enabled:
        stats = cache.stats
        print(f"result cache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.stores} stored, {stats.errors} errors, "
              f"{stats.quarantined} quarantined ({cache.directory})")


def shutdown_executor() -> None:
    """Tear down the shared process pool (idempotent; safe from any thread).

    Calling it twice, concurrently, or while another thread is about to fan
    out work is allowed: the pool reference is swapped out under the lock and
    the next :func:`get_executor` call lazily builds a replacement, so a
    long-lived service can run ``run_all``-style scenarios (which shut the
    pool down when they finish) back to back without ever observing a closed
    pool.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS, _EXECUTOR_ENV_FINGERPRINT
    with _EXECUTOR_LOCK:
        executor, _EXECUTOR = _EXECUTOR, None
        _EXECUTOR_WORKERS = 0
        _EXECUTOR_ENV_FINGERPRINT = ""
    if executor is not None:
        executor.shutdown()


def _terminate_executor() -> None:
    """Kill the shared pool's workers and drop the pool (for hung cells).

    :func:`shutdown_executor` waits for running tasks — useless against a
    worker stuck inside a cell.  This variant SIGTERMs the worker processes
    first, then discards the executor without waiting; the next
    :func:`get_executor` call builds a fresh pool.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS, _EXECUTOR_ENV_FINGERPRINT
    with _EXECUTOR_LOCK:
        executor, _EXECUTOR = _EXECUTOR, None
        _EXECUTOR_WORKERS = 0
        _EXECUTOR_ENV_FINGERPRINT = ""
    if executor is None:
        return
    # _processes is an instance attribute of ProcessPoolExecutor (stable
    # across supported CPythons, but reach for it defensively).
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    executor.shutdown(wait=False, cancel_futures=True)


def _supervised_call(payload):
    """Top-level worker adapter: run one cell, firing any scripted fault first.

    ``payload`` is ``(function, args, cell, attempt, plan_dict)``.  The fault
    plan travels *inside* the pickled payload — not via environment
    inheritance — so injection is deterministic regardless of when the pool's
    workers were spawned.  ``in_worker`` is detected from the process tree:
    in the serial fallback this same adapter runs in the parent, where a
    scripted worker crash must degrade to a transient error instead of
    killing the caller.
    """
    function, args, cell, attempt, plan_dict = payload
    if plan_dict is not None:
        import multiprocessing

        from repro.faults import FaultPlan

        plan = FaultPlan.from_dict(plan_dict)
        plan.inject(cell, attempt, in_worker=multiprocessing.parent_process() is not None)
    return function(*args)


def _supervised_map(function: Callable, tasks: list[tuple], pending: list[int],
                    workers: int, cost_key: Callable[[tuple], float] | None,
                    policy: RetryPolicy, timeout: float | None,
                    cancel: CancelToken | None, plan,
                    on_value: Callable[[int, object], None],
                    recheck: Callable[[int], tuple[bool, object]]) -> None:
    """Supervised fan-out of the cells in ``pending`` over the shared pool.

    Cells are submitted largest first under ``cost_key``, one future per
    cell, and watched until answered:

    * a completed cell is reported through ``on_value`` immediately — the
      caller persists it to the result cache, so work done before a later
      crash is never redone;
    * a transient failure (injected fault, broken pool, timeout) charges the
      failing cell one attempt and reschedules it after deterministic
      backoff, re-checking the cache first via ``recheck``; a dead pool
      reschedules every in-flight cell;
    * a permanent evaluator failure — or a transient one out of attempt
      budget — tears the pool down and surfaces;
    * a set cancel token stops submissions, lets in-flight cells finish (and
      be persisted), then raises :class:`JobCancelledError`;
    * a cell running past ``timeout`` kills the pool's workers; the hung
      cell is charged an attempt, innocent casualties are resubmitted free.
    """
    plan_dict = plan.to_dict() if plan is not None else None
    order = sorted(pending)
    if cost_key is not None:
        # Stable sort: equal costs keep submission order deterministic.
        order.sort(key=lambda index: -cost_key(tasks[index]))

    unanswered = set(pending)
    attempts = dict.fromkeys(pending, 0)
    ready = list(order)                 # cells to (re)submit, in order
    delayed: list[tuple[float, int]] = []  # (monotonic ready time, cell)
    active: dict = {}                   # future -> cell
    started: dict = {}                  # future -> monotonic start time
    rebuilds_without_progress = 0

    from concurrent.futures import FIRST_COMPLETED, wait as wait_futures
    from concurrent.futures.process import BrokenProcessPool

    def _answer(cell: int, value) -> None:
        nonlocal rebuilds_without_progress
        unanswered.discard(cell)
        rebuilds_without_progress = 0
        on_value(cell, value)

    def _reschedule(cell: int, error: BaseException) -> None:
        """Charge one attempt for a transient failure; requeue or give up."""
        attempt = attempts[cell]
        if not policy.allows_retry(attempt):
            raise error
        attempts[cell] = attempt + 1
        record(retries=1)
        hit, value = recheck(cell)
        if hit:
            _answer(cell, value)
            return
        delay = policy.backoff_seconds(cell, attempt)
        delayed.append((time.monotonic() + delay, cell))

    def _rebuild_pool() -> None:
        nonlocal rebuilds_without_progress
        rebuilds_without_progress += 1
        record(pool_rebuilds=1)
        if rebuilds_without_progress > _MAX_CONSECUTIVE_REBUILDS:
            raise RuntimeError(
                "process pool kept breaking without completing a single cell "
                f"({_MAX_CONSECUTIVE_REBUILDS} consecutive rebuilds); giving up"
            )

    def _requeue_active(casualties: dict, culprit: int,
                        culprit_error: BaseException) -> None:
        """Resubmit in-flight cells after a pool teardown.

        Completed-but-uncollected futures keep their results; the culprit
        cell is charged an attempt; everyone else requeues free.
        """
        for future, cell in casualties.items():
            if future.done() and not future.cancelled() and future.exception() is None:
                _answer(cell, future.result())
            elif cell == culprit:
                _reschedule(cell, culprit_error)
            elif cell in unanswered:
                hit, value = recheck(cell)
                if hit:
                    _answer(cell, value)
                else:
                    ready.append(cell)

    try:
        while unanswered:
            if cancel is not None and cancel.cancelled:
                # Cooperative stop: no new submissions, but in-flight cells
                # run to completion so their results reach the cache.
                for future in active:
                    future.cancel()
                for future, cell in active.items():
                    if future.cancelled():
                        continue
                    try:
                        _answer(cell, future.result())
                    except BaseException:
                        pass  # a failing cell cannot matter: we're cancelling
                record(cancelled=1)
                raise JobCancelledError("sweep cancelled at cell boundary")

            now = time.monotonic()
            if delayed:
                due = sorted(entry for entry in delayed if entry[0] <= now)
                delayed = [entry for entry in delayed if entry[0] > now]
                ready.extend(cell for _when, cell in due)

            while ready:
                cell = ready.pop(0)
                if cell not in unanswered:
                    continue
                payload = (function, tasks[cell], cell, attempts[cell], plan_dict)
                pool = get_executor(workers)
                try:
                    future = pool.submit(_supervised_call, payload)
                except RuntimeError as error:
                    if "cannot schedule new futures" not in str(error):
                        raise
                    # Another thread shut the shared pool down between our
                    # lookup and the submission (a concurrent run_all
                    # finishing does exactly that): rebuild and resubmit.
                    shutdown_executor()
                    _rebuild_pool()
                    ready.insert(0, cell)
                    continue
                active[future] = cell
                if future.running():
                    started[future] = time.monotonic()

            if not active:
                if not (delayed or ready):
                    # Nothing in flight, nothing scheduled, yet cells remain:
                    # cannot happen unless the bookkeeping above is wrong.
                    raise RuntimeError("supervisor stalled with unanswered cells")
                time.sleep(_SUPERVISOR_TICK_SECONDS)
                continue

            done, _running = wait_futures(
                list(active), timeout=_SUPERVISOR_TICK_SECONDS,
                return_when=FIRST_COMPLETED,
            )

            pool_broke = False
            for future in done:
                cell = active.pop(future)
                started.pop(future, None)
                if future.cancelled():
                    if cell in unanswered:
                        ready.append(cell)
                    continue
                error = future.exception()
                if error is None:
                    _answer(cell, future.result())
                elif isinstance(error, BrokenProcessPool):
                    # The pool is dead; every other in-flight future is about
                    # to fail the same way.  Handle them all at once below.
                    pool_broke = True
                    if cell in unanswered:
                        _reschedule(cell, error)
                elif is_transient(error):
                    if cell in unanswered:
                        _reschedule(cell, error)
                else:
                    record(permanent_failures=1)
                    raise error

            if pool_broke:
                casualties, active, started = dict(active), {}, {}
                shutdown_executor()
                _rebuild_pool()
                for future, cell in casualties.items():
                    error = None if not future.done() or future.cancelled() \
                        else future.exception()
                    if future.done() and not future.cancelled() and error is None:
                        _answer(cell, future.result())
                    elif cell not in unanswered:
                        continue
                    elif isinstance(error, BrokenProcessPool):
                        _reschedule(cell, error)
                    else:
                        ready.append(cell)
                continue

            if timeout is not None and active:
                now = time.monotonic()
                hung: int | None = None
                for future, cell in active.items():
                    if future not in started:
                        if future.running():
                            started[future] = now
                    elif now - started[future] > timeout:
                        hung = cell
                        break
                if hung is not None:
                    record(timeouts=1)
                    casualties, active, started = dict(active), {}, {}
                    _terminate_executor()
                    _rebuild_pool()
                    _requeue_active(
                        casualties, culprit=hung,
                        culprit_error=CellTimeoutError(
                            f"cell {hung} exceeded the {timeout:g}s budget"
                        ),
                    )
    except JobCancelledError:
        # The workers are healthy, the job just isn't wanted any more; keep
        # the pool warm for the next sweep.
        raise
    except BaseException:
        # A broken or abandoned pool poisons every later submission; drop it
        # so the next call starts fresh.
        for future in active:
            future.cancel()
        shutdown_executor()
        raise


# ------------------------------------------------------------------ cached fan-out


def run_parallel(function: Callable, argument_tuples: Sequence[tuple],
                 jobs: int | None = None,
                 cost_key: Callable[[tuple], float] | None = None,
                 cache: bool = True,
                 progress: Callable[[int, int], None] | None = None,
                 cancel: CancelToken | None = None,
                 fault_plan=None) -> list:
    """Apply ``function`` to every argument tuple, in order, possibly in parallel.

    ``function`` must be a picklable top-level callable and a pure function of
    its arguments (every experiment cell evaluator is).  Results are returned
    in submission order, so the output is bit-identical to the serial
    ``[function(*args) for args in argument_tuples]`` fallback regardless of
    worker count, scheduling order, cache state or injected faults.

    Results of functions defined in the ``repro`` package are transparently
    memoised in the content-addressed result cache (see
    :mod:`repro.sim.result_cache`); pass ``cache=False`` or set
    ``REPRO_CACHE=0`` to force computation.  ``cost_key`` maps one argument
    tuple to a relative cost estimate used for largest-first scheduling.

    ``progress``, when given, is called as ``progress(completed, total)`` on
    the calling thread — once up front (cache hits count as completed) and
    once per task as results arrive — so long-running sweeps can report
    per-cell progress (the scenario service's job status does).

    Execution is *supervised*: transient failures retry with backoff
    (``REPRO_CELL_RETRIES``), cells may carry a wall-clock budget
    (``REPRO_CELL_TIMEOUT``, parallel path only — a hung in-process cell
    cannot be preempted), a broken pool is rebuilt and only unanswered cells
    resubmitted, and completed cells are persisted as they finish.
    ``cancel``, when given, is checked at cell boundaries and raises
    :class:`~repro.errors.JobCancelledError`.  ``fault_plan`` (default: the
    ``REPRO_FAULT_PLAN`` environment plan, if any) injects deterministic
    faults at chosen cell indices — indices count positions in
    ``argument_tuples``.  ``REPRO_VEC_BATCH``, a retired batching knob,
    raises :class:`~repro.errors.ConfigurationError` unless unset, empty or
    ``0``.
    """
    if cancel is not None:
        cancel.raise_if_cancelled()
    if fault_plan is None:
        from repro.faults import plan_from_env

        fault_plan = plan_from_env()
    tasks = list(argument_tuples)
    if not tasks:
        if progress is not None:
            progress(0, 0)
        return []
    # Validate the knobs eagerly: a typo in REPRO_JOBS, or a stale
    # REPRO_VEC_BATCH, must surface even when every cell is served from the
    # cache and no pool is ever built.
    workers = resolve_jobs(jobs)
    resolve_vec_batch()
    results: list = [None] * len(tasks)
    pending = list(range(len(tasks)))
    digests: list[str] | None = None

    result_cache = get_result_cache() if cache else None
    use_cache = (
        result_cache is not None
        and result_cache.enabled
        and is_cacheable_function(function)
    )
    if use_cache:
        # Ambient result-affecting knobs read inside the evaluators (not part
        # of the task tuples) must be folded into the digest: a run with a
        # different co-simulation batch slack simulates different
        # interleavings and may not share cache entries.
        from repro.sim.system import resolved_batch_cycles

        extra = ("batch_cycles", repr(resolved_batch_cycles()))
        try:
            digests = [task_digest(function, args, extra=extra) for args in tasks]
        except CacheKeyError:
            # Uncacheable argument (e.g. a local callable): compute everything.
            use_cache = False
        else:
            pending = []
            for index, digest in enumerate(digests):
                hit, value = result_cache.get(digest)
                if hit:
                    results[index] = value
                else:
                    pending.append(index)

    total = len(tasks)
    completed = total - len(pending)
    if progress is not None:
        progress(completed, total)

    if pending:
        policy = retry_policy_from_env()

        def _deliver(index: int, value) -> None:
            """Record one answered cell: result slot, cache persist, progress.

            Persisting *here* — as each cell completes, not after the whole
            sweep — is what makes recovery cheap: a crash mid-sweep leaves
            every finished cell answerable from the cache.
            """
            nonlocal completed
            results[index] = value
            if use_cache:
                result_cache.put(digests[index], value)
                if fault_plan is not None:
                    fault_plan.corrupt_cache_entry(result_cache, digests[index], index)
            completed += 1
            if progress is not None:
                progress(completed, total)

        def _recheck(index: int) -> tuple[bool, object]:
            if not use_cache:
                return False, None
            return result_cache.get(digests[index])

        if workers <= 1 or len(pending) <= 1:
            # Serial fallback: same supervision minus the timeout (an
            # in-process cell cannot be preempted) and minus the pool.
            plan_dict = fault_plan.to_dict() if fault_plan is not None else None
            for index in pending:
                if cancel is not None and cancel.cancelled:
                    record(cancelled=1)
                    raise JobCancelledError("sweep cancelled at cell boundary")
                attempt = 0
                while True:
                    try:
                        value = _supervised_call(
                            (function, tasks[index], index, attempt, plan_dict)
                        )
                        break
                    except BaseException as error:
                        if not is_transient(error):
                            record(permanent_failures=1)
                            raise
                        if not policy.allows_retry(attempt):
                            raise
                        record(retries=1)
                        time.sleep(policy.backoff_seconds(index, attempt))
                        attempt += 1
                _deliver(index, value)
        else:
            _supervised_map(function, tasks, pending, workers, cost_key,
                            policy=policy, timeout=cell_timeout_from_env(),
                            cancel=cancel, plan=fault_plan,
                            on_value=_deliver, recheck=_recheck)
    return results
