"""Worker fleet: interchangeable executors behind the broker's lease API.

The :class:`~repro.service.jobs.JobManager` never executes anything itself —
it grants *leases*.  Two executors drain them:

:class:`~repro.service.workers.local.LocalPool`
    In-process worker threads (the single-node default).  Each thread pulls
    leases straight off the manager and runs cells through
    :func:`~repro.experiments.common.run_parallel` — the same supervised
    process-pool path, with retries, timeouts and fault injection all
    intact.

:class:`~repro.service.workers.remote.RemoteWorker`
    The ``python -m repro worker`` process: long-polls a broker's HTTP lease
    endpoints, re-expands the spec locally, executes its leased cell slice
    through the identical supervised path, heartbeats within the lease TTL
    and posts outcomes back.  Imported lazily — its HTTP client pulls in the
    jobs module, which this package must not re-enter at import time (the
    broker imports :mod:`~repro.service.workers.config` while it is itself
    still loading).
"""

from repro.service.workers.config import (
    DEFAULT_LEASE_TTL,
    DEFAULT_WORKER_POLL,
    lease_ttl_from_env,
    worker_poll_from_env,
)
from repro.service.workers.local import LocalPool

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_WORKER_POLL",
    "LocalPool",
    "RemoteWorker",
    "lease_ttl_from_env",
    "worker_poll_from_env",
]


def __getattr__(name: str):
    if name == "RemoteWorker":
        from repro.service.workers.remote import RemoteWorker

        return RemoteWorker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
