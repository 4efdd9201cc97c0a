"""Shared-mode and private-mode experiment runners.

The paper's methodology (Section VI) runs every multi-programmed workload in
shared mode, then reruns each benchmark alone on the same CMP (private mode)
over the same instructions, and compares per-interval shared-mode estimates
against the measured private-mode values.  These helpers encapsulate both
runs so experiments and tests only deal with results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import SimulationError
from repro.config import CMPConfig
from repro.sim.system import CMPSystem, CoreResult, SystemResult
from repro.workloads.mixes import Workload
from repro.workloads.synthetic import generate_trace, get_benchmark
from repro.workloads.trace import Trace

__all__ = [
    "PrivateModeResult",
    "WorkloadRunResult",
    "build_trace",
    "run_private_mode",
    "run_shared_mode",
    "run_workload",
]

DEFAULT_INSTRUCTIONS = 20_000


@dataclass
class PrivateModeResult:
    """Outcome of running one benchmark alone on the CMP."""

    benchmark: str
    core: CoreResult

    @property
    def cpi(self) -> float:
        return self.core.cpi

    @property
    def ipc(self) -> float:
        return self.core.ipc

    @property
    def intervals(self):
        return self.core.intervals


@dataclass
class WorkloadRunResult:
    """Shared-mode plus per-benchmark private-mode results for one workload."""

    workload: Workload
    shared: SystemResult
    private: dict[int, PrivateModeResult] = field(default_factory=dict)

    def shared_cpi(self, core: int) -> float:
        return self.shared.cores[core].cpi

    def private_cpi(self, core: int) -> float:
        return self.private[core].cpi

    def slowdown(self, core: int) -> float:
        private = self.private_cpi(core)
        return self.shared_cpi(core) / private if private > 0 else 1.0

    def system_throughput(self) -> float:
        """STP = sum over cores of private CPI / shared CPI."""
        total = 0.0
        for core in self.shared.cores:
            shared = self.shared_cpi(core)
            if shared > 0:
                total += self.private_cpi(core) / shared
        return total


@lru_cache(maxsize=128)
def build_trace(benchmark_name: str, num_instructions: int, seed: int = 0) -> Trace:
    """Generate the trace for one named benchmark.

    Trace generation is deterministic and traces are treated as read-only by
    the simulator, so identical (benchmark, length, seed) requests — which
    recur across experiments, techniques and partitioning policies — share
    one cached trace.
    """
    return generate_trace(get_benchmark(benchmark_name), num_instructions, seed=seed)


def run_private_mode(trace: Trace, config: CMPConfig, llc_ways: int | None = None,
                     core_id: int = 0, interval_instructions: int | None = None,
                     target_instructions: int | None = None,
                     record_events: bool = True) -> PrivateModeResult:
    """Run one trace alone on the CMP (private mode).

    ``llc_ways`` optionally restricts the LLC allocation, which is how the
    LLC-sensitivity profiling of Section VI varies the available ways.
    ``target_instructions`` defaults to the trace length; passing the same
    value as the shared-mode run keeps the two modes' intervals aligned.
    ``record_events=False`` skips materialising per-event records (timing and
    aggregate statistics are unaffected); callers that only consume CPI/stall
    aggregates use it to cut the dominant allocation cost of ground-truth
    runs.
    """
    system = CMPSystem(
        config,
        {core_id: trace},
        target_instructions=target_instructions or len(trace),
        interval_instructions=interval_instructions,
        record_events=record_events,
    )
    if llc_ways is not None:
        if llc_ways <= 0:
            raise SimulationError("private-mode runs need at least one LLC way")
        system.hierarchy.set_partition({core_id: llc_ways})
    result = system.run()
    return PrivateModeResult(benchmark=trace.name, core=result.cores[core_id])


def run_shared_mode(traces: dict[int, Trace], config: CMPConfig,
                    target_instructions: int,
                    interval_instructions: int | None = None,
                    configure_system=None,
                    record_events: bool = True) -> SystemResult:
    """Run a multi-programmed workload in shared mode.

    ``configure_system`` is an optional callable invoked with the constructed
    :class:`CMPSystem` before the run starts; accounting techniques and
    partitioning policies use it to install their hooks.  ``record_events``
    mirrors :func:`run_private_mode`: pass False when no consumer reads the
    per-event lists (only aggregate counters and epoch buckets).
    """
    system = CMPSystem(
        config,
        traces,
        target_instructions=target_instructions,
        interval_instructions=interval_instructions,
        record_events=record_events,
    )
    if configure_system is not None:
        configure_system(system)
    result = system.run()
    return result


def run_workload(workload: Workload, config: CMPConfig,
                 instructions_per_core: int = DEFAULT_INSTRUCTIONS,
                 interval_instructions: int | None = None,
                 seed: int = 0,
                 configure_system=None,
                 run_private: bool = True) -> WorkloadRunResult:
    """Run one workload in shared mode and (optionally) each benchmark in private mode.

    The private-mode runs execute exactly the same traces over the same
    instruction counts, which is the alignment the paper's error metrics
    require.
    """
    traces = {
        core: build_trace(name, instructions_per_core, seed=seed + core)
        for core, name in enumerate(workload.benchmarks)
    }
    shared = run_shared_mode(
        traces,
        config,
        target_instructions=instructions_per_core,
        interval_instructions=interval_instructions,
        configure_system=configure_system,
    )
    result = WorkloadRunResult(workload=workload, shared=shared)
    if run_private:
        for core, trace in traces.items():
            result.private[core] = run_private_mode(
                trace, config, core_id=core, interval_instructions=interval_instructions,
                target_instructions=instructions_per_core,
            )
    return result
