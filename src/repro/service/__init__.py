"""Scenario service: a long-lived, multi-client job server over the engine.

The batch CLI runs one spec and exits; this package keeps the engine
resident — shared process pool warm, caches populated — and serves scenario
requests over HTTP (``python -m repro serve``):

* :mod:`repro.service.jobs` — priority queue, per-job state machine and the
  lease broker handing sweep cells to whoever will run them,
* :mod:`repro.service.workers` — the lease holders: the in-process
  :class:`~repro.service.workers.local.LocalPool` (the single-node default)
  and the :class:`~repro.service.workers.remote.RemoteWorker` behind
  ``python -m repro worker``,
* :mod:`repro.service.artifacts` — the LRU-bounded :mod:`repro.store` family
  of whole-scenario result payloads (the scenario-level cache above the
  cell-level one),
* :mod:`repro.service.http` — the stdlib ``ThreadingHTTPServer`` API,
  including the lease and artifact routes remote workers speak,
* :mod:`repro.service.client` — the urllib client used by tests and tools,
* :mod:`repro.service.journal` — the crash-safe job journal behind
  ``serve``'s restart recovery and graceful SIGTERM drain.
"""

from repro.service.artifacts import ArtifactStore
from repro.service.client import ServiceClient
from repro.service.http import ScenarioServer, create_server, serve
from repro.service.jobs import (
    Job,
    JobManager,
    JobState,
    Lease,
    LeaseGrant,
    scenario_digest,
)
from repro.service.journal import JobJournal, journal_path_from_env
from repro.service.workers import LocalPool

__all__ = [
    "ArtifactStore",
    "ServiceClient",
    "ScenarioServer",
    "create_server",
    "serve",
    "Job",
    "JobJournal",
    "JobManager",
    "JobState",
    "Lease",
    "LeaseGrant",
    "LocalPool",
    "journal_path_from_env",
    "scenario_digest",
]
