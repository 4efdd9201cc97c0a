"""Fast smoke test of the benchmark itself.

Runs every workload once untraced and once traced at tiny size, and checks
that each run exits 0, reports ``correct``, and prints every metric
BENCHMARK.json declares — by name with its unit, both in the table and in
the final JSON line.  Run from the root of a checkout::

    python3 perfbench/smoke.py

It takes a few minutes on two CPUs.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCH_DIR, ROOT, declared_metrics
from run import WORKLOADS


def check(workload: str, trace: bool) -> list[str]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(int(trace)), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} --trace {int(trace)}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    table = "\n".join(lines[:-1])
    for name, unit in declared_metrics(trace).items():
        entry = result["metrics"].get(name)
        if entry is None or entry.get("unit") != unit:
            problems.append(f"{label}: JSON lacks {name} [{unit}]")
        elif not any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                     for line in table.splitlines()):
            problems.append(f"{label}: table lacks {name} [{unit}]")
    if not trace and any(entry["value"] <= 0 for entry in result["metrics"].values()):
        problems.append(f"{label}: an end-to-end metric is not positive")
    return problems


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            found = check(workload, trace)
            print(f"{workload:<16} trace={int(trace)}  {'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
