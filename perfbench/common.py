"""Shared plumbing of the benchmark: paths, isolation, statistics, output.

Everything here is workload-independent: locating the checkout, giving each
run fresh cache/artifact/journal directories inside it, the host manifest,
quantiles, peak RSS, the ``/dev/shm`` leak check and the final result line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
RUNS_DIR = ROOT / ".perfbench_runs"
# Digests of the model's outputs recorded per workload, size and seed
# (written by record_reference.py).
REFERENCE_FILE = BENCH_DIR / "reference.json"

# Prefix of the shared-memory trace segments the sweep transport may create
# (repro.workloads.shm); any left behind after a run is a leak.
SHM_PREFIX = "repro-trace-"


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def require_sources() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def subprocess_env(**overrides: str) -> dict:
    """Environment for child Python processes: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(overrides)
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


class RunDirectory:
    """Fresh per-run cell-cache, artifact and journal directories.

    Created under ``.perfbench_runs/`` in the checkout and removed on exit,
    so a run never touches the repository's ``.repro_cache`` or
    ``.repro_artifacts``.  ``fresh()`` hands out further empty directories
    for workloads that start cold several times in one run.
    """

    def __init__(self, workload: str):
        RUNS_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR))
        self._count = 0

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.path / f"{label}-{self._count}"
        path.mkdir()
        return path

    def point_env_at(self, base: Path) -> None:
        """Route this process's (and its children's) caches and temporary files into ``base``."""
        os.environ["TMPDIR"] = str(base)
        tempfile.tempdir = None  # re-read TMPDIR on next use
        os.environ["REPRO_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = str(base / "cells")
        os.environ["REPRO_ARTIFACT_DIR"] = str(base / "artifacts")
        os.environ["REPRO_JOB_JOURNAL"] = str(base / "jobs.journal")

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still owns a directory there


class Checks:
    """What one run attempted, what failed, and the messages to print (thread-safe)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report: list[str] = []
        self._lock = threading.Lock()

    def attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, count: int, message: str) -> None:
        with self._lock:
            self.failed += count
            if message not in self.problems:
                self.problems.append(message)


def digest(lines) -> str:
    """Short SHA-256 of lines of text."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def recorded_digests(workload: str, size: str, seed: int) -> dict[str, str] | None:
    """The digests recorded for one run's inputs, or None if none were."""
    try:
        recorded = json.loads(REFERENCE_FILE.read_text())
    except FileNotFoundError:
        return None
    return recorded.get(workload, {}).get(size, {}).get(str(seed))


def check_recorded(checks: "Checks", workload: str, size: str, seed: int,
                   found: dict[str, str]) -> None:
    """Compare a run's output digests with the recorded ones for its seed.

    The other gates compare the program with itself; this one catches a
    change to the simulated results.  A seed with no recorded digests is
    reported and not compared.
    """
    recorded = recorded_digests(workload, size, seed)
    if recorded is None:
        checks.report.append(f"  no recorded digests for {workload} ({size}) seed {seed}; "
                             "not compared")
        return
    for key, value in sorted(found.items()):
        expected = recorded.get(key)
        if expected is None:
            continue
        checks.attempt()
        if value == expected:
            checks.report.append(f"  {key} digest {value} matches the recorded one")
        else:
            checks.fail(1, f"{key} digest {value} differs from the recorded {expected} "
                           f"(seed {seed}); a deliberate model change re-records "
                           "perfbench/reference.json with perfbench/record_reference.py")


def shm_segments() -> set[str]:
    """Names of the repro shared-memory trace segments currently present."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and every reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, share: float) -> float:
    """Linear-interpolated percentile (``share`` in (0, 1))."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if text.startswith("ref: "):
        ref = text[5:]
        try:
            return (ROOT / ".git" / ref).read_text().strip()
        except OSError:
            packed = ROOT / ".git" / "packed-refs"
            try:
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split()[0]
            except OSError:
                pass
            return f"unknown ({ref})"
    return text


def host_manifest(seed: int, jobs: int) -> dict:
    """Host, commit, seed and the effective result-affecting knobs."""
    from repro.cache.batch import resolve_vec_batch
    from repro.sim.system import resolved_batch_cycles

    cache_knobs = {name: value for name, value in sorted(os.environ.items())
                   if name.startswith("REPRO_CACHE")}
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "seed": seed,
        "REPRO_JOBS": jobs,
        "REPRO_BATCH_CYCLES": resolved_batch_cycles(),
        "REPRO_VEC_BATCH": resolve_vec_batch(),
        **cache_knobs,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics BENCHMARK.json declares for a mode."""
    try:
        spec = json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {SPEC_FILE}: {error}") from None
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def emit_result(values: dict[str, float], trace: bool, correct: bool,
                attempted: int, failed: int) -> None:
    """Print every declared metric with its unit, then the JSON result line.

    A declared metric the workload did not produce is a benchmark bug, so it
    raises instead of printing a partial result.
    """
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"metrics not produced: {', '.join(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    width = max(len(name) for name in units)
    print("\nmetrics" + (" (traced run)" if trace else ""))
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
