"""HTTP API of the scenario service (stdlib-only).

A :class:`ScenarioServer` is a ``ThreadingHTTPServer`` bound to a
:class:`~repro.service.jobs.JobManager`; each request thread only touches the
manager's thread-safe API.  The manager is a *lease broker*: work is executed
by whoever holds a lease — the in-process
:class:`~repro.service.workers.local.LocalPool` threads (``local_workers``,
default 1: the single-node configuration) and any number of remote
``python -m repro worker`` processes leasing cells over the routes below.

Routes
------
=======  =========================  =========================================
POST     /scenarios                 submit a ScenarioSpec JSON (optionally
                                    wrapped as ``{"spec": ..., "priority": N}``)
POST     /composites                submit a CompositeSpec JSON (same optional
                                    ``{"spec": ..., "priority": N}`` wrapper);
                                    member jobs fan out as dependencies finish
POST     /queries                   submit a QuerySpec JSON (same wrapper);
                                    an on-demand query evaluated wave by wave
                                    through the lease broker — wave lifecycle
                                    events stream on the job's ``/events``
GET      /scenarios                 list all jobs (most recent last)
GET      /scenarios/{id}            job status + per-cell progress (+ children
                                    and per-node states for composites)
GET      /scenarios/{id}/result     the result payload (202 while pending)
GET      /scenarios/{id}/events     Server-Sent Events stream of the job's
                                    progress (per-cell and, for composites,
                                    per-node events; heartbeats while idle;
                                    closes after the terminal event).  Events
                                    carry ``id:`` lines; a reconnecting client
                                    sends ``Last-Event-ID`` to resume where
                                    its cut stream left off
DELETE   /scenarios/{id}            cancel a job: 200 when it went terminal
                                    immediately (queued), 202 while a running
                                    job drains cooperatively (``cancelling``),
                                    409 only for finished jobs; composite
                                    cancellation propagates to descendants
POST     /leases                    lease a chunk of sweep cells
                                    (``{"worker": ..., "max_cells": N,
                                    "wait": S}``); long-polls up to ``wait``
                                    seconds; 200 with the grant (spec JSON +
                                    cell indices + TTL) or 204 when idle
POST     /leases/{id}/heartbeat     refresh a lease within its TTL, relay
                                    ``{"done": N}`` progress; the reply's
                                    ``cancel`` flag is the cancellation
                                    channel; 410 once the lease is lost
POST     /leases/{id}/result        post the lease's outcome: per-cell
                                    pickled results (base64 in JSON), an
                                    error, or a cancellation; 410 when lost
GET/PUT  /artifacts/{ns}/{key}      the broker's content-addressed stores as
                                    raw bytes (``ns`` is ``cells`` or
                                    ``scenarios``): remote workers with
                                    ``REPRO_ARTIFACT_URL`` read and write
                                    these so the fleet shares one cache;
                                    writes obey the store's size bound
GET      /healthz                   liveness probe
GET      /stats                     queue depth, cache hit rates, utilisation,
                                    per-worker lease/cell counters, lease
                                    totals, supervisor retries, journal
=======  =========================  =========================================

Malformed bodies and invalid specs answer 400 with the configuration error
message; unknown jobs 404; invalid state transitions 409.  Everything is
JSON, including errors (``{"error": ...}``) — except the ``/events`` stream,
which is ``text/event-stream`` with JSON ``data:`` payloads.

The CLI entry point (:func:`serve`) additionally journals submissions to a
crash-safe log (``REPRO_JOB_JOURNAL``), replays unfinished jobs at startup,
and drains gracefully on SIGTERM: no new jobs, the running job gets
``REPRO_DRAIN_SECONDS`` to finish (default 30) before being parked for the
next life, and the journal is flushed and compacted.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    ConfigurationError,
    JobConflictError,
    LeaseLostError,
    ServiceError,
)
from repro.scenarios.composite import CompositeSpec
from repro.scenarios.query import QuerySpec
from repro.scenarios.spec import ScenarioSpec
from repro.service.artifacts import ArtifactStore
from repro.service.jobs import JobManager, JobState
from repro.service.journal import JobJournal, journal_path_from_env
from repro.sim.result_cache import get_result_cache

__all__ = [
    "DEFAULT_PORT",
    "ScenarioServer",
    "create_server",
    "drain_seconds_from_env",
    "serve",
    "service_port_from_env",
]

DEFAULT_PORT = 8642

# Submissions larger than this are rejected outright: a spec is a few KB of
# JSON, so anything bigger is a client bug (or not a spec at all).
MAX_BODY_BYTES = 1 << 20

# Lease results and artifact uploads carry pickled sweep outcomes, which run
# far bigger than a spec — but still bounded, so one confused client cannot
# buffer the broker into the ground.
MAX_RESULT_BODY_BYTES = 128 << 20

# A lease long-poll is held at most this long per request; patient workers
# simply re-poll, which keeps request threads from pinning indefinitely.
MAX_LEASE_WAIT_SECONDS = 30.0

# Idle gap after which the /events stream emits a heartbeat event so clients
# (and intermediaries) can tell a quiet job from a dead connection.
EVENT_HEARTBEAT_SECONDS = 10.0

# Artifact keys are hex digests: anything else (dots, slashes, drive
# letters) is rejected before it can name a path.
_ARTIFACT_KEY = re.compile(r"^[0-9a-f]{8,128}$")
_ARTIFACT_NAMESPACES = ("cells", "scenarios")


def service_port_from_env() -> int:
    """The port selected by ``REPRO_SERVICE_PORT`` (default 8642)."""
    env = os.environ.get("REPRO_SERVICE_PORT")
    if env is None or env.strip() == "":
        return DEFAULT_PORT
    try:
        port = int(env)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_SERVICE_PORT must be an integer port, got {env!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(
            f"REPRO_SERVICE_PORT must be between 0 and 65535, got {env!r}"
        )
    return port


class ScenarioServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the job manager it serves."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], manager: JobManager,
                 verbose: bool = False):
        super().__init__(address, ScenarioRequestHandler)
        self.manager = manager
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]


class ScenarioRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-scenario-service/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ plumbing

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self, limit: int = MAX_BODY_BYTES) -> bytes | None:
        length = self.headers.get("Content-Length")
        try:
            length = int(length or 0)
        except ValueError:
            # The body was not consumed, so a keep-alive connection would
            # desync: close it instead of answering the next request with
            # the middle of this one's stale payload.
            self.close_connection = True
            self._send_error_json(400, "invalid Content-Length header")
            return None
        if length <= 0:
            self._send_error_json(400, "a request body is required")
            return None
        if length > limit:
            self.close_connection = True
            self._send_error_json(413, "request body too large for this route")
            return None
        return self.rfile.read(length)

    def _job_id_from_path(self, parts: list[str]) -> str:
        return parts[1]

    # ------------------------------------------------------------------ routes

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        try:
            if parts == ["healthz"]:
                self._send_json(200, {"status": "ok"})
            elif parts == ["stats"]:
                self._send_json(200, self.manager.stats())
            elif parts == ["scenarios"]:
                self._send_json(
                    200, {"jobs": [job.summary() for job in self.manager.jobs()]}
                )
            elif len(parts) == 2 and parts[0] == "scenarios":
                job = self.manager.get(self._job_id_from_path(parts))
                self._send_json(200, job.summary())
            elif len(parts) == 3 and parts[0] == "scenarios" and parts[2] == "result":
                self._send_result(self._job_id_from_path(parts))
            elif len(parts) == 3 and parts[0] == "scenarios" and parts[2] == "events":
                self._send_events(self._job_id_from_path(parts))
            elif len(parts) == 3 and parts[0] == "artifacts":
                self._get_artifact(parts[1], parts[2])
            else:
                self._send_error_json(404, f"no such route: GET {self.path}")
        except ServiceError as error:
            self._send_error_json(404, str(error))

    def _send_result(self, job_id: str) -> None:
        job = self.manager.get(job_id)
        if job.state == JobState.DONE:
            self._send_json(200, job.result)
        elif job.state == JobState.FAILED:
            payload = {"error": job.error or "scenario failed"}
            if job.result is not None:
                # A failed composite keeps whatever members finished.
                payload["partial_result"] = job.result
            self._send_json(500, payload)
        elif job.state == JobState.CANCELLED:
            self._send_error_json(409, f"job '{job_id}' was cancelled")
        else:
            # Still queued or running: tell the client to poll again.
            self._send_json(202, job.summary())

    def _send_events(self, job_id: str) -> None:
        """Stream a job's event log as Server-Sent Events until it finishes.

        The response is unframed (no Content-Length), so the connection is
        marked close; heartbeat events keep intermediaries from timing the
        stream out while a long sweep is quiet.  A disconnecting client
        simply ends the generator — the job is unaffected.  Every buffered
        event carries an ``id:`` line (its absolute log index); a client
        reconnecting with ``Last-Event-ID`` resumes just past it instead of
        replaying the whole history.
        """
        self.manager.get(job_id)  # 404 before committing to a stream
        start_index = 0
        last_id = self.headers.get("Last-Event-ID")
        if last_id is not None:
            try:
                start_index = int(last_id) + 1
            except ValueError:
                start_index = 0
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        try:
            for event in self.manager.iter_events(
                job_id, heartbeat_seconds=EVENT_HEARTBEAT_SECONDS,
                start_index=start_index,
            ):
                name = event.get("event", "message")
                data = json.dumps(event, default=str)
                frame = f"event: {name}\n"
                if "seq" in event:  # synthetic heartbeats carry no id
                    frame += f"id: {event['seq']}\n"
                frame += f"data: {data}\n\n"
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, ServiceError):
            return

    # ----------------------------------------------------------------- artifacts

    def _artifact_route(self, namespace: str, key: str):
        """Validate an ``/artifacts`` path; returns its store or None.

        Error responses are already sent when this returns None.  Keys must
        be lowercase hex digests — nothing that could name a path — and only
        locally-backed namespaces are served: a broker whose own store is
        remote must not proxy-chain (worst case, to itself).
        """
        if namespace not in _ARTIFACT_NAMESPACES:
            self._send_error_json(
                404,
                f"no such artifact namespace: {namespace!r} "
                f"(expected one of: {', '.join(_ARTIFACT_NAMESPACES)})",
            )
            return None
        if not _ARTIFACT_KEY.fullmatch(key):
            self._send_error_json(400, "artifact keys are lowercase hex digests")
            return None
        if namespace == "scenarios":
            store = self.manager.artifacts
        else:
            cache = get_result_cache()
            store = cache if cache.enabled else None
        if store is None or store.backend is not None:
            self._send_error_json(
                503, f"artifact namespace '{namespace}' has no local store "
                     f"on this broker"
            )
            return None
        return store

    def _get_artifact(self, namespace: str, key: str) -> None:
        store = self._artifact_route(namespace, key)
        if store is None:
            return
        data = store.get_bytes(key)
        if data is None:
            self._send_error_json(404, f"no artifact '{key}' in '{namespace}'")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_PUT(self) -> None:  # noqa: N802 — stdlib naming
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if len(parts) != 3 or parts[0] != "artifacts":
            self._send_error_json(404, f"no such route: PUT {self.path}")
            return
        store = self._artifact_route(parts[1], parts[2])
        if store is None:
            return
        data = self._read_body(limit=MAX_RESULT_BODY_BYTES)
        if data is None:
            return
        if store.put_bytes(parts[2], data):
            self._send_json(200, {"stored": True})
        else:
            self._send_error_json(503, "artifact store rejected the write")

    # -------------------------------------------------------------------- leases

    def _read_json_dict(self, limit: int = MAX_BODY_BYTES) -> dict | None:
        """Parse a POST body that must be a JSON object (None on error)."""
        body = self._read_body(limit=limit)
        if body is None:
            return None
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_error_json(400, f"request body is not valid JSON: {error}")
            return None
        if not isinstance(data, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        return data

    def _acquire_lease(self) -> None:
        """``POST /leases``: long-poll for a cell grant; 204 when idle."""
        data = self._read_json_dict()
        if data is None:
            return
        worker = data.get("worker")
        if not isinstance(worker, str) or not worker.strip():
            self._send_error_json(
                400, "lease requests need a non-empty 'worker' name")
            return
        wait = data.get("wait", 0.0)
        if (isinstance(wait, bool) or not isinstance(wait, (int, float))
                or wait < 0):
            self._send_error_json(
                400, "'wait' must be a non-negative number of seconds")
            return
        max_cells = data.get("max_cells")
        try:
            grant = self.manager.acquire_lease(
                worker=worker.strip(), max_cells=max_cells,
                wait=min(float(wait), MAX_LEASE_WAIT_SECONDS), remote=True,
            )
        except ConfigurationError as error:
            self._send_error_json(400, str(error))
            return
        except ServiceError as error:
            self._send_error_json(503, str(error))
            return
        if grant is None:
            self.send_response(204)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self._send_json(200, {
            "lease": grant.lease_id,
            "job": grant.job_id,
            "kind": grant.kind,
            "spec": grant.spec.to_dict(),
            "cells": list(grant.cells or []),
            "total_cells": grant.total_cells,
            "ttl": grant.ttl,
        })

    def _lease_heartbeat(self, lease_id: str) -> None:
        data = self._read_json_dict()
        if data is None:
            return
        done = data.get("done")
        total = data.get("total")
        for name, value in (("done", done), ("total", total)):
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)
                                      or value < 0):
                self._send_error_json(
                    400, f"'{name}' must be a non-negative integer")
                return
        try:
            reply = self.manager.heartbeat_lease(lease_id, done=done,
                                                 total=total)
        except LeaseLostError as error:
            self._send_error_json(410, str(error))
            return
        except ServiceError as error:
            self._send_error_json(404, str(error))
            return
        self._send_json(200, reply)

    def _lease_result(self, lease_id: str) -> None:
        """``POST /leases/{id}/result``: per-cell outcomes, error or cancel.

        Cell outcomes arrive pickled and base64-wrapped inside the JSON body;
        the broker unpickles what its own workers post — the same trust
        boundary as the process pool's pipes.
        """
        data = self._read_json_dict(limit=MAX_RESULT_BODY_BYTES)
        if data is None:
            return
        error_text = data.get("error")
        if error_text is not None and not isinstance(error_text, str):
            self._send_error_json(400, "'error' must be a string")
            return
        outcomes = None
        cells = data.get("cells")
        if cells is not None:
            if not isinstance(cells, dict):
                self._send_error_json(
                    400, "'cells' must map cell indices to encoded outcomes")
                return
            try:
                outcomes = {
                    int(index): pickle.loads(base64.b64decode(blob))
                    for index, blob in cells.items()
                }
            except Exception as error:  # noqa: BLE001 — any decode failure is a 400
                self._send_error_json(
                    400, f"could not decode cell outcomes: "
                         f"{type(error).__name__}: {error}")
                return
        try:
            job = self.manager.complete_lease(
                lease_id, outcomes=outcomes, error=error_text,
                cancelled=bool(data.get("cancelled", False)),
            )
        except LeaseLostError as error:
            self._send_error_json(410, str(error))
            return
        except ServiceError as error:
            self._send_error_json(404, str(error))
            return
        payload = ({"state": "unknown"} if job is None
                   else {"job": job.id, "state": job.state})
        self._send_json(200, payload)

    # --------------------------------------------------------------- submissions

    def _read_json_submission(self):
        """Parse a POST body into ``(payload_dict, priority)`` (None on error).

        Accepts either the bare spec object or the ``{"spec": ...,
        "priority": N}`` wrapper; error responses are already sent when this
        returns None.
        """
        body = self._read_body()
        if body is None:
            return None
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_error_json(400, f"request body is not valid JSON: {error}")
            return None
        priority = 0
        if isinstance(data, dict) and "spec" in data:
            priority = data.get("priority", 0)
            data = data["spec"]
        if not isinstance(priority, int) or isinstance(priority, bool):
            self._send_error_json(400, "priority must be an integer")
            return None
        return data, priority

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["leases"]:
            self._acquire_lease()
            return
        if len(parts) == 3 and parts[0] == "leases":
            if parts[2] == "heartbeat":
                self._lease_heartbeat(parts[1])
                return
            if parts[2] == "result":
                self._lease_result(parts[1])
                return
        if parts == ["scenarios"]:
            parse, submit = ScenarioSpec.from_dict, self.manager.submit
        elif parts == ["composites"]:
            parse, submit = CompositeSpec.from_dict, self.manager.submit_composite
        elif parts == ["queries"]:
            parse, submit = QuerySpec.from_dict, self.manager.submit_query
        else:
            self._send_error_json(404, f"no such route: POST {self.path}")
            return
        submission = self._read_json_submission()
        if submission is None:
            return
        data, priority = submission
        try:
            job = submit(parse(data), priority=priority)
        except ConfigurationError as error:
            self._send_error_json(400, str(error))
            return
        except ServiceError as error:
            self._send_error_json(503, str(error))
            return
        self._send_json(201, job.summary())

    def do_DELETE(self) -> None:  # noqa: N802 — stdlib naming
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if len(parts) != 2 or parts[0] != "scenarios":
            self._send_error_json(404, f"no such route: DELETE {self.path}")
            return
        try:
            job = self.manager.cancel(self._job_id_from_path(parts))
        except JobConflictError as error:
            self._send_error_json(409, str(error))
            return
        except ServiceError as error:
            self._send_error_json(404, str(error))
            return
        # 200 when the cancel completed synchronously (queued job, or a
        # composite with nothing in flight); 202 while a running job drains
        # cooperatively towards 'cancelled'.
        self._send_json(200 if job.finished else 202, job.summary())


def create_server(port: int = 0, host: str = "127.0.0.1",
                  manager: JobManager | None = None,
                  sweep_jobs: int | None = None,
                  artifacts: ArtifactStore | None = None,
                  local_workers: int = 1,
                  verbose: bool = False) -> ScenarioServer:
    """Build a scenario server (``port=0`` binds an ephemeral port).

    ``local_workers`` sizes the in-process pool (0 = broker-only: jobs wait
    for remote workers to attach).  The caller drives the serving loop
    (``serve_forever`` — typically on a background thread in tests) and owns
    shutdown: ``server.shutdown(); server.manager.shutdown()``.
    """
    if manager is None:
        manager = JobManager(sweep_jobs=sweep_jobs, artifacts=artifacts,
                             local_workers=local_workers)
    return ScenarioServer((host, port), manager, verbose=verbose)


def drain_seconds_from_env() -> float:
    """The SIGTERM grace period selected by ``REPRO_DRAIN_SECONDS`` (default 30)."""
    env = os.environ.get("REPRO_DRAIN_SECONDS")
    if env is None or env.strip() == "":
        return 30.0
    try:
        seconds = float(env)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_DRAIN_SECONDS must be a number of seconds, got {env!r}"
        ) from None
    if seconds < 0:
        raise ConfigurationError(
            f"REPRO_DRAIN_SECONDS must be non-negative, got {env!r}"
        )
    return seconds


def serve(port: int | None = None, host: str = "127.0.0.1",
          sweep_jobs: int | None = None, local_workers: int = 1,
          verbose: bool = True) -> int:
    """Run the scenario service until interrupted (the CLI entry point).

    Durable by default: submissions are journaled under the artifact
    directory (``REPRO_JOB_JOURNAL``), unfinished jobs from a previous —
    possibly SIGKILLed — life are replayed before the socket opens, and
    SIGTERM triggers a graceful drain (stop accepting, give the running job
    ``REPRO_DRAIN_SECONDS``, park the rest for the next life).

    ``local_workers=0`` runs a pure broker: every cell is executed by remote
    ``python -m repro worker`` processes leasing over HTTP.
    """
    from repro.experiments.common import shutdown_executor

    if port is None:
        port = service_port_from_env()
    drain_grace = drain_seconds_from_env()
    journal_path = journal_path_from_env()
    journal = JobJournal(journal_path) if journal_path is not None else None
    manager = JobManager(sweep_jobs=sweep_jobs, journal=journal,
                         local_workers=local_workers)
    server = create_server(port=port, host=host, manager=manager,
                           verbose=verbose)
    replayed = manager.replay_journal()
    if replayed:
        print(f"replayed {len(replayed)} unfinished job(s) from "
              f"{journal.path}")
    artifacts = server.manager.artifacts
    print(f"scenario service listening on http://{host}:{server.port}")
    print(f"local workers: {local_workers}"
          + (" (broker-only: attach remote workers)" if local_workers == 0
             else ""))
    print(f"artifact store: {artifacts.directory} "
          f"(bound {artifacts.max_bytes // (1024 * 1024)} MB)")
    if journal is not None:
        print(f"job journal: {journal.path}")

    draining = threading.Event()

    def _on_sigterm(signum, frame):  # noqa: ARG001 — signal signature
        draining.set()
        # serve_forever must be stopped from another thread: shutdown()
        # blocks until the serving loop exits, so calling it from a signal
        # handler interrupting that very loop would deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    installed_sigterm = False
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _on_sigterm)
        installed_sigterm = True
    try:
        server.serve_forever()
        if draining.is_set():
            print("SIGTERM: draining (no new jobs, finishing the running one)")
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if installed_sigterm:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
        server.server_close()
        if draining.is_set():
            manager.drain(timeout=drain_grace)
        else:
            server.shutdown()
            manager.shutdown()
        shutdown_executor()
    return 0
