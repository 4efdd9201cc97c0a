"""The two sweep workloads: ``accuracy-sweep`` and ``partition-sweep``.

Untraced (``--trace 0``), a run repeats one cold sweep — a fresh, empty cell
cache and a freshly spun-up process pool of ``nproc`` workers, exactly what
``python -m repro run`` pays — until the measuring time is used up, and
reports medians.  Traced (``--trace 1``), it runs the same sweep once through
the pool as the reference, then replays every cell serially in-process under
:class:`~layers.LayerTrace` and requires each outcome to be bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
import traceback

from common import (
    BENCH_DIR, Checks, check_recorded, digest, median, peak_rss_mb, percentile, subprocess_env)
from layers import LayerTrace, ratio

_clock = time.perf_counter

# Set-up probes of one run: three before every sweep, at least twelve in all.
# Spreading them over the run averages over the host's slower and faster
# spells, which last seconds; a burst of probes at the start samples one.
PROBES_PER_SWEEP = 3
SETUP_PROBES = 12

# Size of each workload: full, and the tiny variant the smoke test runs.
SIZES = {
    "accuracy-sweep": {"full": {"per_group": 1, "instructions": 10_000, "interval": 2_500},
                       "tiny": {"per_group": 1, "instructions": 1_000, "interval": 500}},
    "partition-sweep": {"full": {"per_group": 1, "instructions": 16_000, "interval": 4_000},
                        "tiny": {"per_group": 1, "instructions": 2_000, "interval": 1_000}},
}


# The benchmark mixes: the ones the built-in generator draws at seed 0.
MIX_GENERATOR = "perfbench-mixes"


def _seed0_mixes(n_cores: int, group: str, count: int, seed: int):
    """Fixed multiprogrammed mixes, so every seed simulates the same benchmarks.

    The run seed still seeds every synthetic trace (``seed + core``), so each
    seed gives new inputs of the same kind; only which benchmarks share a CMP
    is held fixed, because that choice alone moves a sweep's cost by ~20%.
    """
    from repro.registry import workload_generators

    return workload_generators.get("auto")(n_cores, group, count, 0)


def register_mixes() -> None:
    from repro.registry import workload_generators

    if MIX_GENERATOR not in workload_generators.names():
        workload_generators.register(MIX_GENERATOR, _seed0_mixes)


def spec_dict(workload: str, seed: int, tiny: bool = False) -> dict:
    """The scenario spec of one sweep workload, as ``repro run`` would load it."""
    size = SIZES[workload]["tiny" if tiny else "full"]
    spec = {
        "name": workload,
        "machine": {"core_counts": [4, 8]},
        "workloads": {"generator": MIX_GENERATOR, "groups": ["H", "M", "L"],
                      "per_group": size["per_group"], "seed": seed},
        "instructions_per_core": size["instructions"],
        "interval_instructions": size["interval"],
    }
    if workload == "accuracy-sweep":
        spec.update(kind="accuracy", techniques=["ITCA", "PTCA", "ASM", "GDP", "GDP-O"],
                    collect_components=True)
    else:
        spec.update(kind="throughput", policies=["LRU", "UCP", "ASM", "MCP", "MCP-O"],
                    repartition_interval_cycles=20_000.0)
    return spec


def load_spec(workload: str, seed: int, tiny: bool = False):
    """Spec load, validation and cell expansion: the sweep's set-up work."""
    from repro.scenarios import ScenarioSpec, expand_cells

    register_mixes()
    spec = ScenarioSpec.from_json(json.dumps(spec_dict(workload, seed, tiny)))
    spec.validate()
    return spec, expand_cells(spec)


def setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """Body of one set-up probe process: import, load, validate, expand.

    Prints the wall-clock time at which the sweep is ready to submit.
    """
    load_spec(workload, seed, tiny)
    print(f"ready {time.time()!r}")


def measure_setup(workload: str, seed: int, tiny: bool, probes: int) -> list[float]:
    """Seconds from launching a fresh process to its expanded, ready sweep."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(probes):
        start = time.time()
        probe = subprocess.run(command, env=subprocess_env(), check=True, timeout=60,
                               capture_output=True, text=True)
        ready = float(probe.stdout.split("ready ")[-1])
        samples.append(ready - start)
    return samples


def instructions_per_sweep(spec, cells) -> int:
    """Simulated instructions a sweep commits (deterministic by construction).

    Accuracy cells run a plain shared run, an ASM-rotated one (when ASM is
    estimated) and one private run per core; throughput cells one shared run
    per policy and one private run per core.  Every core of every run commits
    ``instructions_per_core``; the traced run checks this count exactly.
    """
    total = 0
    for cell in cells:
        cores = len(cell.task[0].benchmarks)
        if spec.kind == "accuracy":
            runs = 2 + (1 if "ASM" in spec.techniques else 0)
        else:
            runs = len(spec.policies) + 1
        total += runs * cores * spec.instructions_per_core
    return total


def fingerprint(outcome) -> str:
    """Bit-identity key of one cell outcome: ``repr`` round-trips floats."""
    return repr(outcome)


def outcome_digest(outcomes) -> str:
    return digest(map(fingerprint, outcomes))


def counter_digest(trace: LayerTrace) -> str:
    return digest(["/".join(str(value) for value in trace.counter_fingerprint())])


def pooled_sweep(spec, jobs: int, cache_dir) -> tuple[list, float, list[float]]:
    """One cold sweep through the pool, as ``python -m repro run`` does it.

    Returns the outcomes in cell order, the wall seconds (pool spin-up and
    teardown included) and each cell's latency from sweep start to its
    result reaching this process.
    """
    from repro.experiments.common import shutdown_executor
    from repro.scenarios import run_scenario

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    arrivals: list[float] = []
    start = _clock()

    def progress(done: int, total: int) -> None:
        if done:
            arrivals.append(_clock())

    try:
        result = run_scenario(spec, jobs=jobs, progress=progress)
    finally:
        shutdown_executor()
    wall = _clock() - start
    outcomes = [outcome for results in result.cells.values() for outcome in results]
    return outcomes, wall, [arrival - start for arrival in arrivals]


def serial_replay(spec, cache_dir, trace: LayerTrace | None):
    """Every cell serially in this process (optionally traced).

    Returns outcomes, wall seconds and per-cell seconds (evaluation plus the
    cell-cache write, from the engine's progress callbacks).
    """
    from repro.scenarios import run_scenario
    from repro.sim.runner import build_trace

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    build_trace.cache_clear()  # a pool worker starts with no traces either
    marks: list[float] = []
    start = _clock()

    def progress(done: int, total: int) -> None:
        marks.append(_clock())

    if trace is not None:
        with trace:
            result = run_scenario(spec, jobs=1, progress=progress)
    else:
        result = run_scenario(spec, jobs=1, progress=progress)
    wall = _clock() - start
    outcomes = [outcome for results in result.cells.values() for outcome in results]
    cell_seconds = [later - earlier for earlier, later in zip(marks, marks[1:])]
    return outcomes, wall, cell_seconds


def model_report(spec, outcomes) -> list[str]:
    """Ungated model outputs: errors, edge cases and a digest of the results."""
    lines = ["model outputs (not gated; no hardware reference in the repo)",
             f"  outcome digest: {outcome_digest(outcomes)}"]
    if spec.kind == "accuracy":
        from repro.experiments.accuracy import summarize_rms

        errors = [value for outcome in outcomes for benchmark in outcome.benchmarks
                  for values in benchmark.ipc_errors.values() for value in values]
        for technique in spec.techniques:
            lines.append(f"  {technique:<6} mean IPC RMS error {summarize_rms(outcomes, technique):.4f}")
        lines.append(f"  non-finite IPC errors: {sum(not math.isfinite(e) for e in errors)}"
                     f" of {len(errors)}")
        lines.append(f"  IPC errors above 100 (estimate IPC > 100): "
                     f"{sum(e > 100.0 for e in errors if math.isfinite(e))}")
    else:
        from repro.experiments.case_study import average_throughput

        for policy in spec.policies:
            lines.append(f"  {policy:<6} mean STP {average_throughput(outcomes, policy):.4f}")
        values = [value for outcome in outcomes for value in outcome.stp.values()]
        lines.append(f"  non-finite STP values: {sum(not math.isfinite(v) for v in values)}")
    return lines


class SweepRun(Checks):
    """One invocation of a sweep workload (traced or not)."""

    def __init__(self, workload: str, seed: int, seconds: float, rundir, jobs: int,
                 tiny: bool = False):
        super().__init__()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rundir = rundir
        self.jobs = jobs
        self.tiny = tiny
        self.size = "tiny" if tiny else "full"

    def _compare(self, reference: list, outcomes: list, label: str) -> None:
        self.attempt(len(reference))
        mismatched = sum(fingerprint(a) != fingerprint(b) for a, b in zip(reference, outcomes))
        mismatched += abs(len(reference) - len(outcomes))
        if mismatched:
            self.fail(mismatched, f"{label}: {mismatched} cell outcome(s) differ from the reference")

    # -------------------------------------------------------------- untraced

    def run_untraced(self) -> dict[str, float]:
        setup: list[float] = []
        spec, cells = load_spec(self.workload, self.seed, self.tiny)
        instructions = instructions_per_sweep(spec, cells)
        walls: list[float] = []
        latencies: list[list[float]] = []  # per sweep: each cell's arrival
        reference = None
        crashes = 0
        deadline = _clock() + self.seconds
        while not walls or _clock() < deadline:
            setup += measure_setup(self.workload, self.seed, self.tiny, PROBES_PER_SWEEP)
            try:
                outcomes, wall, arrivals = pooled_sweep(spec, self.jobs, self.rundir.fresh("cells"))
            except Exception:
                traceback.print_exc()
                self.attempt(len(cells))
                self.fail(len(cells), "a pooled sweep raised")
                crashes += 1
                if crashes > 3:
                    break
                continue
            if reference is None:
                reference = outcomes
                self.attempt(len(outcomes))
                if len(outcomes) != len(cells):
                    self.fail(len(cells), "sweep returned the wrong number of cells")
            else:
                self._compare(reference, outcomes, f"round {len(walls) + 1}")
            walls.append(wall)
            latencies.append(arrivals)
        if reference is None:
            raise RuntimeError("no sweep completed")
        setup += measure_setup(self.workload, self.seed, self.tiny,
                               max(0, SETUP_PROBES - len(setup)))
        # Before the in-process check below, which `repro run` never does.
        peak_rss = peak_rss_mb()
        self.report = model_report(spec, reference)
        self._spot_check(spec, cells, reference)
        check_recorded(self, self.workload, self.size, self.seed,
                       {"outcomes": outcome_digest(reference)})
        wall = median(walls)
        print(f"{len(walls)} cold sweep(s) of {len(cells)} cells, "
              f"{instructions / 1e6:.3f} M simulated instructions each; "
              f"wall_s samples: {', '.join(f'{w:.3f}' for w in walls)}")
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}")
        return {
            "setup_s": median(setup),
            "wall_s": wall,
            "peak_rss_mb": peak_rss,
            "sim_minstr_per_s": instructions / 1e6 / wall,
            "requests_per_s": len(cells) / wall,
            # Cells of one sweep are not independent requests: take each
            # sweep's percentile, then the median over the run's sweeps.
            "request_p50_ms": 1e3 * median([percentile(a, 0.50) for a in latencies]),
            "request_p99_ms": 1e3 * median([percentile(a, 0.99) for a in latencies]),
        }

    def _spot_check(self, spec, cells, reference) -> None:
        """Re-evaluate one seeded cell in-process; check outcome and commits."""
        from repro.scenarios.runner import EVALUATORS
        from repro.sim.runner import build_trace

        index = random.Random(self.seed).randrange(len(cells))
        evaluator = EVALUATORS[spec.kind][0]
        build_trace.cache_clear()
        trace = LayerTrace()
        with trace:
            outcome = evaluator(*cells[index].task)
        self._compare([reference[index]], [outcome], f"in-process replay of cell {index}")
        expected = instructions_per_sweep(spec, [cells[index]])
        if trace.commit_mismatches or trace.counters["cpu.committed_instructions"] != expected:
            self.fail(1, f"cell {index}: cores did not commit instructions_per_core")

    # ---------------------------------------------------------------- traced

    def run_traced(self) -> dict[str, float]:
        from repro.experiments.supervisor import supervisor_stats

        spec, cells = load_spec(self.workload, self.seed, self.tiny)
        retries_before = supervisor_stats().retries
        reference, pooled_wall, _ = pooled_sweep(spec, self.jobs, self.rundir.fresh("cells"))
        self.attempt(len(reference))
        retries = supervisor_stats().retries - retries_before
        outcomes, untraced_wall, _ = serial_replay(spec, self.rundir.fresh("cells"), None)
        self._compare(reference, outcomes, "untraced serial replay")

        replays = []
        deadline = _clock() + self.seconds
        while not replays or _clock() < deadline:
            trace = LayerTrace()
            outcomes, wall, cell_seconds = serial_replay(spec, self.rundir.fresh("cells"), trace)
            self._compare(reference, outcomes, f"traced replay {len(replays) + 1}")
            replays.append((trace, wall, cell_seconds))
        first = replays[0][0]
        for trace, _, _ in replays[1:]:
            if trace.counter_fingerprint() != first.counter_fingerprint():
                self.fail(1, "simulator counters differ between identical replays")
        expected = instructions_per_sweep(spec, cells)
        if first.commit_mismatches or first.counters["cpu.committed_instructions"] != expected:
            self.fail(1, f"committed {first.counters['cpu.committed_instructions']} "
                         f"instructions, expected {expected}")
        transport = sum(len(pickle.dumps(cell.task)) + len(pickle.dumps(outcome))
                        for cell, outcome in zip(cells, reference))
        samples = [sweep_layer_metrics(trace, cell_seconds) for trace, _, cell_seconds in replays]
        metrics = {name: median([sample[name] for sample in samples]) for name in samples[0]}
        traced_wall = median([wall for _, wall, _ in replays])
        metrics.update({
            "experiments.transport.bytes": transport,
            "experiments.supervisor.retries": retries,
            "bench.pooled_wall_s": pooled_wall,
            "bench.untraced_serial_s": untraced_wall,
            "bench.tracing_overhead_ratio": traced_wall / untraced_wall - 1.0,
        })
        metrics.update(service_placeholders())
        self.report = model_report(spec, reference) + traced_model_lines(first, metrics)
        check_recorded(self, self.workload, self.size, self.seed,
                       {"outcomes": outcome_digest(reference), "counters": counter_digest(first)})
        print(f"{len(replays)} traced serial replay(s) of {len(cells)} cells; "
              f"pooled {pooled_wall:.3f} s, untraced serial {untraced_wall:.3f} s, "
              f"traced serial {traced_wall:.3f} s")
        return metrics


def sweep_layer_metrics(trace: LayerTrace, cell_seconds: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced replay."""
    calls, seconds, counters = trace.calls, trace.seconds, trace.counters
    shared_instr = counters["sim.run_shared_mode.instructions"]
    private_instr = counters["sim.run_private_mode.instructions"]
    sim_seconds = seconds["sim.run_shared_mode"] + seconds["sim.run_private_mode"]
    metrics = {
        "sim.run_shared_mode.minstr": shared_instr / 1e6,
        "sim.run_private_mode.minstr": private_instr / 1e6,
        "sim.host_ns_per_instr": 1e9 * ratio(sim_seconds, shared_instr + private_instr),
        "sim.host_ns_per_llc_access": 1e9 * ratio(sim_seconds, counters["cache.llc.accesses"]),
        "cpu.committed_instructions": counters["cpu.committed_instructions"],
        "interconnect.ring.transfers": counters["interconnect.ring.transfers"],
        "dram.reads": counters["dram.reads"],
        "dram.row_hit_rate": ratio(counters["dram.row_hits"], counters["dram.reads"]),
        "baselines.asm_rotation_run.s": seconds["baselines.asm_rotation_run"],
        "experiments.cell.s_p50": median(cell_seconds),
        "experiments.cell.s_max": max(cell_seconds),
        "result_cache.put.bytes": counters["result_cache.put_bytes"],
        "result_cache.hit_ratio": ratio(counters["result_cache.hits"], calls["result_cache.get"]),
        "scenarios.expand_cells.s": seconds["scenarios.expand_cells"],
        "scenarios.digest.s": seconds["scenarios.digest"],
    }
    for level in ("l1", "l2", "llc"):
        accesses = counters[f"cache.{level}.accesses"]
        metrics[f"cache.{level}.accesses"] = accesses
        metrics[f"cache.{level}.hit_ratio"] = ratio(counters[f"cache.{level}.hits"], accesses)
    for layer in ("workloads.generate_trace", "sim.run_shared_mode", "sim.run_private_mode",
                  "baselines.estimate", "core.estimate", "core.cpl", "latency.dief",
                  "partitioning.repartition", "result_cache.get", "result_cache.put",
                  "result_cache.digest"):
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.s"] = seconds[layer]
    return metrics


def service_placeholders() -> dict[str, float]:
    """Service-layer metrics: a sweep never touches the service."""
    from service_warm import kind_latencies

    placeholders = {name: 0.0 for name in (
        "service.submit.s", "service.wait.s", "service.result.s",
        "service.scenario_cache.hit_ratio", "service.worker.busy_s",
        "service.queue_depth.max", "service.query.cells_evaluated_ratio")}
    placeholders.update(kind_latencies([]))
    return placeholders


def traced_model_lines(trace: LayerTrace, metrics: dict[str, float]) -> list[str]:
    lines = [f"  estimates with IPC > 100: {trace.estimates_ipc_over_100}; "
             f"non-finite estimates: {trace.estimates_non_finite}",
             f"  simulator counter digest: {counter_digest(trace)}",
             "  cache hit ratios (caches start empty): " + ", ".join(
                 f"{level} {metrics[f'cache.{level}.hit_ratio']:.3f}" for level in ("l1", "l2", "llc"))]
    if metrics["cache.l2.accesses"] and metrics["cache.l2.hit_ratio"] < 0.1:
        lines.append("  note: L2 hits are rare on this workload; its working sets cycle through "
                     "the 16 KB LRU L2, so an L2-hit fast path has little to gain here")
    return lines
