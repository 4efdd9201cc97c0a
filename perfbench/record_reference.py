"""Record the digests the benchmark compares each run's outputs with.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py --seeds 1-64,101-110
    python3 perfbench/record_reference.py --seeds 7 --tiny

For every workload and seed it computes the model's outputs once, in
process, and stores their digests in ``perfbench/reference.json``: the cell
outcomes and simulator counters of a sweep (one traced serial replay, which
the benchmark's own gate holds bit-identical to the pooled run) and the
in-process results of every ``service-warm`` template.  A run whose seed is
recorded fails when a digest differs.  Re-record only for a deliberate
change to the model's results, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import REFERENCE_FILE, RunDirectory, require_sources


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def record(workload: str, seed: int, tiny: bool, rundir) -> dict[str, str]:
    if workload == "service-warm":
        from service_warm import reference_results, results_digest, templates

        references, _ = reference_results(templates(seed, tiny))
        return {"results": results_digest(references)}
    from layers import LayerTrace
    from sweeps import counter_digest, load_spec, outcome_digest, serial_replay

    spec, _ = load_spec(workload, seed, tiny)
    trace = LayerTrace()
    outcomes, _, _ = serial_replay(spec, rundir.fresh("cells"), trace)
    return {"outcomes": outcome_digest(outcomes), "counters": counter_digest(trace)}


def main(argv=None) -> int:
    from run import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-64,101-110")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to record (default: all)")
    parser.add_argument("--tiny", action="store_true", help="record the tiny size")
    args = parser.parse_args(argv)
    require_sources()
    size = "tiny" if args.tiny else "full"
    try:
        recorded = json.loads(REFERENCE_FILE.read_text())
    except FileNotFoundError:
        recorded = {}
    rundir = RunDirectory("record")
    rundir.point_env_at(rundir.path)
    try:
        for workload in args.workload or WORKLOADS:
            for seed in parse_seeds(args.seeds):
                digests = record(workload, seed, args.tiny, rundir)
                recorded.setdefault(workload, {}).setdefault(size, {})[str(seed)] = digests
                print(f"{workload} {size} seed {seed}: {digests}", flush=True)
                partial = REFERENCE_FILE.with_suffix(".json.partial")
                partial.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
                os.replace(partial, REFERENCE_FILE)  # a concurrent reader never sees half
    finally:
        rundir.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
