"""Command-line interface for the scenario engine.

Usage::

    python -m repro list                          # catalogue + registries
    python -m repro show figure7 [--scale medium] # print a builtin's spec JSON
    python -m repro run figure3 [--scale small] [--jobs N] [--json OUT]
    python -m repro run path/to/scenario.json [--jobs N] [--json OUT]
    python -m repro run-composite path/to/composite.json [--jobs N] [--json OUT]
    python -m repro query path/to/query.json [--jobs N] [--json OUT]
    python -m repro query path/to/query.json --broker http://HOST:PORT
    python -m repro run-all [--scale small] [--jobs N] [--json OUT]
    python -m repro serve [--port P] [--jobs N] [--local-workers N]
    python -m repro worker --broker http://HOST:PORT [--jobs N] [--lease-cells N]

``run`` accepts either a built-in scenario name (see ``list``) or a path to a
JSON scenario spec — arbitrary machine/workload/estimator/sweep combinations
run without writing any Python.  Configuration mistakes (unknown scenario,
scale, technique, policy or axis names, malformed spec files) exit with
status 2 and a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from repro.errors import ConfigurationError

__all__ = ["main"]

DEFAULT_SCALE = "small"


def _jsonify(value):
    """Best-effort conversion of result objects to JSON-serialisable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    print(f"results written to {path}")


def _cmd_list() -> int:
    from repro import registry
    from repro.scenarios import AXIS_NAMES, SCENARIO_KINDS, builtin_scenarios

    print("Built-in scenarios (python -m repro run <name>):")
    for scenario in builtin_scenarios():
        print(f"  {scenario.name:<20} {scenario.description}")
    print("\nRegistered accounting techniques:",
          ", ".join(registry.accounting_techniques.names()))
    print("Registered partitioning policies:",
          ", ".join(registry.partitioning_policies.names()))
    print("Registered latency estimators:  ",
          ", ".join(registry.latency_estimators.names()))
    print("Registered workload generators: ",
          ", ".join(registry.workload_generators.names()))
    print("Sweep axes:                     ", ", ".join(AXIS_NAMES))
    print("Scenario kinds:                 ", ", ".join(SCENARIO_KINDS))
    print("\nCustom scenarios: python -m repro run path/to/scenario.json "
          "(see examples/scenario_spec.json)")
    print("Composite DAGs:   python -m repro run-composite path/to/composite.json "
          "(see examples/composite_spec.json)")
    print("Scenario service: python -m repro serve (HTTP job server; "
          "see README.md)")
    return 0


def _cmd_show(name: str, scale: str) -> int:
    from repro.scenarios import get_builtin

    scenario = get_builtin(name)
    specs = scenario.build_specs(scale)
    payload = [spec.to_dict() for spec in specs]
    print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    return 0


def _is_spec_path(scenario: str) -> bool:
    # Only an explicit .json suffix or a path separator selects the spec-file
    # route: probing the filesystem here would let a stray file named like a
    # builtin (e.g. ./figure3) silently shadow that scenario.
    return scenario.endswith(".json") or os.path.sep in scenario


def _cmd_run(scenario: str, scale: str | None, jobs: int | None,
             json_path: str | None) -> int:
    from repro.experiments.common import print_cache_stats, shutdown_executor
    from repro.scenarios import get_builtin, load_spec, run_scenario

    try:
        if _is_spec_path(scenario):
            if scale is not None:
                raise ConfigurationError(
                    "--scale applies only to built-in scenarios; a JSON spec "
                    "carries its own budgets"
                )
            spec = load_spec(scenario)
            result = run_scenario(spec, jobs=jobs)
            payload = result.to_dict()
        else:
            builtin = get_builtin(scenario)
            result = builtin.run(scale or DEFAULT_SCALE, jobs)
            payload = {"scenario": scenario, "scale": scale or DEFAULT_SCALE,
                       "result": _jsonify(result)}
    finally:
        # The persistent pool would otherwise idle until interpreter exit.
        shutdown_executor()
    print(result.report())
    print_cache_stats()
    if json_path:
        _write_json(json_path, payload)
    return 0


def _cmd_run_composite(path: str, jobs: int | None, json_path: str | None) -> int:
    from repro.errors import CompositeExecutionError
    from repro.experiments.common import print_cache_stats, shutdown_executor
    from repro.scenarios import load_composite, run_composite

    composite = load_composite(path)

    def observer(event: dict) -> None:
        node = event.get("node", "")
        if event["event"] == "node_progress":
            print(f"  [{node}] {event['done']}/{event['total']} cells", flush=True)
        elif event["event"] == "node_failed":
            print(f"  [{node}] FAILED: {event.get('error', '')}", flush=True)
        else:
            print(f"  [{node}] {event['event'].removeprefix('node_')}", flush=True)

    print(f"running composite '{composite.name}' "
          f"({len(composite.nodes)} nodes)")
    try:
        result = run_composite(composite, jobs=jobs, observer=observer)
    except CompositeExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        if error.result is not None:
            print(error.result.report())
            if json_path:
                _write_json(json_path, error.result.to_dict())
        return 1
    finally:
        shutdown_executor()
    print(result.report())
    print_cache_stats()
    if json_path:
        _write_json(json_path, result.to_dict())
    return 0


def _cmd_query(path: str, jobs: int | None, broker: str | None,
               json_path: str | None, timeout: float) -> int:
    from repro.scenarios import format_query_payload, load_query

    query = load_query(path)
    if broker is None:
        from repro.experiments.common import print_cache_stats, shutdown_executor
        from repro.scenarios import run_query

        def observer(event: dict) -> None:
            name = event.get("event", "")
            arm = event.get("arm") or event.get("candidate") or ""
            if name == "wave_done":
                print(f"  [{arm}] wave {event['wave']}: "
                      f"{event['cells']} cell(s) done", flush=True)
            elif name == "candidate_eliminated":
                print(f"  [{arm}] eliminated after "
                      f"{event['after_cells']} cell(s)", flush=True)

        print(f"answering query '{query.name}' ({query.kind})")
        try:
            result = run_query(query, jobs=jobs, observer=observer)
        finally:
            shutdown_executor()
        payload = result.to_dict()
        print(result.report())
        print_cache_stats()
        if json_path:
            _write_json(json_path, payload)
        return 0

    from repro.service.client import ServiceClient

    broker = broker.rstrip("/")
    if not broker.startswith(("http://", "https://")):
        raise ConfigurationError(
            f"--broker must be an http(s) base URL such as "
            f"'http://127.0.0.1:8642', got {broker!r}"
        )
    client = ServiceClient(broker)
    job = client.submit_query(query)
    print(f"submitted query '{query.name}' as job {job['id']} to {broker}")
    for event in client.iter_events(job["id"]):
        name = event.get("event", "")
        if name == "wave_done":
            print(f"  [{event.get('arm', '')}] wave {event.get('wave')}: "
                  f"{event.get('cells')} cell(s) done", flush=True)
        elif name == "candidate_eliminated":
            print(f"  [{event.get('candidate', '')}] eliminated after "
                  f"{event.get('after_cells')} cell(s)", flush=True)
        elif name in ("failed", "cancelled"):
            print(f"  job {name}: {event.get('error') or ''}", flush=True)
    status = client.wait(job["id"], timeout=timeout)
    if status["state"] != "done":
        detail = f": {status['error']}" if status.get("error") else ""
        print(f"error: query job {job['id']} finished "
              f"{status['state']}{detail}", file=sys.stderr)
        return 1
    payload = client.result(job["id"])
    print(format_query_payload(payload))
    if json_path:
        _write_json(json_path, payload)
    return 0


def _cmd_run_all(scale: str | None, jobs: int | None, json_path: str | None) -> int:
    from repro.experiments.run_all import run_all

    summary = run_all(scale or DEFAULT_SCALE, jobs=jobs)
    if json_path:
        _write_json(json_path, summary)
    return 0


def _cmd_serve(port: int | None, host: str, jobs: int | None,
               local_workers: int) -> int:
    from repro.service.http import serve

    if local_workers < 0:
        raise ConfigurationError(
            f"--local-workers must be non-negative, got {local_workers}")
    return serve(port=port, host=host, sweep_jobs=jobs,
                 local_workers=local_workers)


def _cmd_worker(broker: str, worker_id: str | None, jobs: int | None,
                lease_cells: int | None, poll: float | None,
                max_leases: int | None) -> int:
    from repro.experiments.common import shutdown_executor

    broker = broker.rstrip("/")
    if not broker.startswith(("http://", "https://")):
        raise ConfigurationError(
            f"--broker must be an http(s) base URL such as "
            f"'http://127.0.0.1:8642', got {broker!r}"
        )
    # Unless the operator chose otherwise, a remote worker reads and writes
    # the *broker's* content-addressed caches, so no cell in the fleet is
    # ever computed twice.
    os.environ.setdefault("REPRO_ARTIFACT_URL", broker)

    from repro.service.workers.remote import RemoteWorker

    worker = RemoteWorker(broker, worker_id=worker_id, jobs=jobs,
                          lease_cells=lease_cells, poll=poll)
    print(f"worker '{worker.worker_id}' leasing from {broker} "
          f"(poll {worker.poll:g}s, up to {worker.lease_cells} cells/lease)")
    try:
        worker.run(max_leases=max_leases)
    except KeyboardInterrupt:
        print("\nworker stopping")
    finally:
        shutdown_executor()
    print(f"worker '{worker.worker_id}' ran {worker.leases_run} lease(s), "
          f"{worker.cells_run} cell(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run GDP-reproduction scenarios (built-in figures or JSON specs).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list built-in scenarios and registries")

    show = subparsers.add_parser("show", help="print a built-in scenario's spec as JSON")
    show.add_argument("scenario")
    show.add_argument("--scale", default=DEFAULT_SCALE,
                      help="size the spec for this scale (default: small)")

    run = subparsers.add_parser("run", help="run one scenario (built-in name or JSON spec path)")
    run.add_argument("scenario", help="built-in scenario name or path to a JSON spec file")
    run.add_argument("--scale", default=None,
                     help="built-in scenario size: small, medium or large (default: small)")
    run.add_argument("--jobs", type=int, default=None,
                     help="parallel sweep workers (default: REPRO_JOBS or CPU count)")
    run.add_argument("--json", dest="json_path", metavar="OUT",
                     help="write a JSON summary to this path")

    run_composite = subparsers.add_parser(
        "run-composite",
        help="run a composite-scenario DAG from a JSON spec file")
    run_composite.add_argument(
        "composite", help="path to a JSON composite spec (see examples/composite_spec.json)")
    run_composite.add_argument("--jobs", type=int, default=None,
                               help="parallel sweep workers (default: REPRO_JOBS or CPU count)")
    run_composite.add_argument("--json", dest="json_path", metavar="OUT",
                               help="write a JSON summary to this path")

    query = subparsers.add_parser(
        "query",
        help="answer an on-demand query (best-of race, adaptive refinement, "
             "confidence sampling) from a JSON query spec")
    query.add_argument(
        "query", help="path to a JSON query spec (see examples/query_best_of.json)")
    query.add_argument("--jobs", type=int, default=None,
                       help="parallel sweep workers for in-process execution "
                            "(default: REPRO_JOBS or CPU count)")
    query.add_argument("--broker", default=None,
                       help="submit to a running scenario service instead of "
                            "executing in-process, e.g. http://127.0.0.1:8642")
    query.add_argument("--timeout", type=float, default=600.0,
                       help="broker mode: seconds to wait for the answer "
                            "(default: 600)")
    query.add_argument("--json", dest="json_path", metavar="OUT",
                       help="write the full answer payload to this path")

    run_all = subparsers.add_parser("run-all", help="run every figure plus the headline summary")
    run_all.add_argument("--scale", default=None,
                         help="small, medium or large (default: small)")
    run_all.add_argument("--jobs", type=int, default=None)
    run_all.add_argument("--json", dest="json_path", metavar="OUT")

    serve = subparsers.add_parser(
        "serve", help="run the long-lived scenario service (HTTP job server)")
    serve.add_argument("--port", type=int, default=None,
                       help="listen port (default: REPRO_SERVICE_PORT or 8642)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--jobs", type=int, default=None,
                       help="sweep workers per job (default: REPRO_JOBS or CPU count)")
    serve.add_argument("--local-workers", type=int, default=1,
                       help="in-process lease workers (0 = broker-only: all "
                            "cells run on remote workers; default: 1)")

    worker = subparsers.add_parser(
        "worker", help="attach a remote worker to a scenario broker")
    worker.add_argument("--broker", required=True,
                        help="broker base URL, e.g. http://127.0.0.1:8642")
    worker.add_argument("--id", dest="worker_id", default=None,
                        help="worker name shown in /stats (default: host-pid)")
    worker.add_argument("--jobs", type=int, default=None,
                        help="local process-pool width (default: REPRO_JOBS "
                             "or CPU count)")
    worker.add_argument("--lease-cells", type=int, default=None,
                        help="max cells per lease (default: the pool width)")
    worker.add_argument("--poll", type=float, default=None,
                        help="long-poll seconds per lease request (default: "
                             "REPRO_WORKER_POLL or 2)")
    worker.add_argument("--max-leases", type=int, default=None,
                        help="exit after this many leases (default: run "
                             "until interrupted)")

    arguments = parser.parse_args(argv)
    try:
        if arguments.command == "list":
            return _cmd_list()
        if arguments.command == "show":
            return _cmd_show(arguments.scenario, arguments.scale)
        if arguments.command == "run":
            return _cmd_run(arguments.scenario, arguments.scale, arguments.jobs,
                            arguments.json_path)
        if arguments.command == "run-composite":
            return _cmd_run_composite(arguments.composite, arguments.jobs,
                                      arguments.json_path)
        if arguments.command == "query":
            return _cmd_query(arguments.query, arguments.jobs,
                              arguments.broker, arguments.json_path,
                              arguments.timeout)
        if arguments.command == "serve":
            return _cmd_serve(arguments.port, arguments.host, arguments.jobs,
                              arguments.local_workers)
        if arguments.command == "worker":
            return _cmd_worker(arguments.broker, arguments.worker_id,
                               arguments.jobs, arguments.lease_cells,
                               arguments.poll, arguments.max_leases)
        return _cmd_run_all(arguments.scale, arguments.jobs, arguments.json_path)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
