"""Benchmark of record for the GDP reproduction.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload accuracy-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` gives the per-layer metrics from a traced run.  Both check the
program's outputs and print, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
only when every check passed; it is 2 when the benchmark cannot run at all
(no sources next to it, bad arguments).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from common import (
    BenchmarkError,
    RunDirectory,
    declared_metrics,
    emit_result,
    host_manifest,
    nproc,
    require_sources,
    shm_segments,
)

WORKLOADS = ("accuracy-sweep", "partition-sweep", "service-warm")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of the run (default: 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run a tiny input (the smoke test's size)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_workload(args, rundir, jobs: int):
    if args.workload == "service-warm":
        from service_warm import ServiceRun

        run = ServiceRun(args.seed, args.seconds, rundir, jobs, tiny=args.tiny)
    else:
        from sweeps import SweepRun

        run = SweepRun(args.workload, args.seed, args.seconds, rundir, jobs, tiny=args.tiny)
    try:
        values = run.run_traced() if args.trace else run.run_untraced()
    except Exception as error:  # the run is over; report it as failed
        import traceback

        traceback.print_exc()
        run.fail(1, f"run aborted: {error!r}")
        values = {}
    return run, values


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_sources()
        declared_metrics(bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        from sweeps import setup_probe

        setup_probe(args.workload, args.seed, args.tiny)
        return 0

    # A terminated run still stops its server and pool and removes its files;
    # forked pool workers inherit the handler and must just die.
    main_pid = os.getpid()

    def terminate(signum, frame):
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let the clean-up finish
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    jobs = nproc()
    rundir = RunDirectory(args.workload)
    rundir.point_env_at(rundir.path)
    shm_before = shm_segments()
    try:
        print("manifest: " + json.dumps(host_manifest(args.seed, jobs), sort_keys=True))
        run, values = run_workload(args, rundir, jobs)
    finally:
        from repro.experiments.common import shutdown_executor

        shutdown_executor()
        rundir.cleanup()
    leaked = shm_segments() - shm_before
    if leaked:
        run.fail(len(leaked), f"{len(leaked)} shared-memory segment(s) outlived the run")
    print()
    for line in run.report:
        print(line)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    attempted = max(run.attempted, 1)
    print(f"failed_ratio: {run.failed / attempted:.6g} ({run.failed} of {attempted})")
    correct = not run.problems and run.failed == 0
    if values:
        emit_result(values, bool(args.trace), correct, attempted, run.failed)
    return 0 if correct and values else 1


if __name__ == "__main__":
    sys.exit(main())
