"""Generic scenario runner: spec -> sweep cells -> parallel execution.

The runner expands a :class:`~repro.scenarios.spec.ScenarioSpec` into a flat
list of (workload, config) sweep cells, evaluates them through the shared
persistent process pool, and groups the raw per-workload results by
``(n_cores, group, axis_label)``.  Every cell is a pure function of its
argument tuple, so the content-addressed result cache
(:mod:`repro.sim.result_cache`) serves warm reruns for free, and the figure
adapters built on top stay bit-identical to the pre-engine harnesses (pinned
by ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product

from repro.config import DDR2_800, DDR4_2666, KILOBYTE, CMPConfig
from repro.errors import ConfigurationError
from repro.experiments.accuracy import evaluate_workload_accuracy, summarize_rms
from repro.experiments.attribution import (
    ATTRIBUTION_COMPONENTS,
    evaluate_workload_attribution,
    summarize_attribution,
)
from repro.experiments.case_study import average_throughput, evaluate_workload_throughput
from repro.experiments.common import default_experiment_config, run_parallel
from repro.experiments.policy_switch import (
    evaluate_workload_policy_switch,
    summarize_estimated_ipc,
    summarize_switches,
)
from repro.experiments.tables import format_cell_table
from repro.registry import workload_generators
from repro.scenarios.spec import ScenarioSpec, SweepAxis

__all__ = [
    "ScenarioCell",
    "ScenarioResult",
    "assemble_result",
    "axis_value_label",
    "expand_cells",
    "run_scenario",
    "scenario_digest",
]


def scenario_digest(spec: ScenarioSpec) -> str:
    """Content digest addressing the complete result of one scenario spec.

    Folds in the same ambient knob the cell cache folds into task digests:
    a different co-simulation batch slack simulates different interleavings,
    so it must address different scenario artifacts too.  The scenario
    service's artifact store keys whole-scenario payloads by this digest.
    """
    from repro.sim.result_cache import content_digest
    from repro.sim.system import resolved_batch_cycles

    material = spec.to_dict()
    # Fault plans script the execution path, never the result: a faulted run
    # must address the same artifact as its fault-free twin (the chaos tests
    # assert bit-identical payloads across the two).
    material.pop("fault_plan", None)
    return content_digest(
        "scenario-result", material,
        extra=("batch_cycles", repr(resolved_batch_cycles())),
    )


@dataclass(frozen=True)
class ScenarioCell:
    """One executable sweep cell: an argument tuple for the kind's evaluator."""

    key: tuple[int, str, str]  # (n_cores, group, axis_label)
    task: tuple


@dataclass
class ScenarioResult:
    """Raw per-workload results of one scenario, grouped by cell key.

    ``cells`` maps ``(n_cores, group, axis_label)`` — ``axis_label`` is ``""``
    for scenarios without sweep axes — to the list of per-workload results
    (:class:`~repro.experiments.accuracy.WorkloadAccuracy` for accuracy
    scenarios, :class:`~repro.experiments.case_study.WorkloadThroughput` for
    throughput scenarios) in workload-generation order.
    """

    spec: ScenarioSpec
    cells: dict[tuple[int, str, str], list] = field(default_factory=dict)

    def results(self, n_cores: int, group: str, axis_label: str = "") -> list:
        return self.cells.get((n_cores, group, axis_label), [])

    def cell_label(self, key: tuple[int, str, str]) -> str:
        n_cores, group, axis_label = key
        label = f"{n_cores}c-{group}"
        return f"{label}@{axis_label}" if axis_label else label

    def tables(self) -> dict[str, dict[str, dict[str, float]]]:
        """Summary tables: {table name: {row label: {column: value}}}.

        Accuracy scenarios report the mean per-benchmark RMS error of the IPC
        and stall-cycle estimates per technique; throughput scenarios report
        the average system throughput per policy.  With sweep axes, columns
        are the axis labels and one table is emitted per metric/technique.
        """
        if self.spec.kind == "throughput":
            return {"average_stp": self._metric_table(
                lambda results, policy: average_throughput(results, policy),
                self.spec.policies,
            )}
        if self.spec.kind == "interference_attribution":
            return {"interference_attribution": self._metric_table(
                lambda results, metric: summarize_attribution(results, metric),
                ATTRIBUTION_COMPONENTS,
            )}
        if self.spec.kind == "policy_switching":
            return {
                "mean_estimated_ipc": self._metric_table(
                    lambda results, technique: summarize_estimated_ipc(results, technique),
                    self.spec.techniques,
                ),
                "policy_switches": self._metric_table(
                    lambda results, _column: summarize_switches(results),
                    ("switches",),
                ),
            }
        tables: dict[str, dict[str, dict[str, float]]] = {}
        for metric in ("ipc", "stall"):
            table = self._metric_table(
                lambda results, technique, _metric=metric: summarize_rms(
                    results, technique, metric=_metric
                ),
                self.spec.techniques,
            )
            tables[f"{metric}_rms"] = table
        return tables

    def _metric_table(self, aggregate: Callable[[list, str], float],
                      columns: tuple[str, ...]) -> dict[str, dict[str, float]]:
        if not self.spec.axes:
            return {
                self.cell_label(key): {
                    column: aggregate(results, column) for column in columns
                }
                for key, results in self.cells.items()
            }
        # Axis sweeps pivot the axis labels into the columns, one row per
        # (cell, column) pair so the table stays two-dimensional.
        table: dict[str, dict[str, float]] = {}
        for (n_cores, group, axis_label), results in self.cells.items():
            for column in columns:
                row = f"{n_cores}c-{group}" if len(columns) == 1 else \
                    f"{n_cores}c-{group}:{column}"
                table.setdefault(row, {})[axis_label] = aggregate(results, column)
        return table

    def report(self) -> str:
        lines = [f"Scenario '{self.spec.name}' ({self.spec.kind})"]
        if self.spec.description:
            lines.append(self.spec.description)
        for table_name, cells in self.tables().items():
            lines.append(f"\n{table_name}")
            lines.append(format_cell_table(cells))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable summary (spec + aggregate tables + any details).

        For the time-series kinds the aggregate tables alone would discard
        the scenario's actual product, so ``details`` carries the per-cell
        raw payloads: the per-benchmark slowdown decomposition for
        ``interference_attribution`` and the sampled policy/IPC traces for
        ``policy_switching``.
        """
        # An injected fault plan never changes what a scenario computes (the
        # contract in :mod:`repro.faults`), so it must not change the
        # serialised payload either: faulted and fault-free runs of the same
        # scenario stay bit-identical and share one artifact-cache entry.
        spec_payload = self.spec.to_dict()
        spec_payload.pop("fault_plan", None)
        payload = {"scenario": spec_payload, "tables": self.tables()}
        details = self.details()
        if details:
            payload["details"] = details
        return payload

    def details(self) -> dict:
        """Per-cell detail payloads (JSON-serialisable; empty for kinds whose
        tables already carry everything)."""
        if self.spec.kind == "interference_attribution":
            return {
                self.cell_label(key): [
                    {
                        "benchmark": benchmark.benchmark,
                        "core": benchmark.core,
                        "shared_cpi": benchmark.shared_cpi,
                        "private_cpi": benchmark.private_cpi,
                        "slowdown": benchmark.slowdown,
                        "total_interference_cycles": benchmark.total_interference_cycles,
                        "cache_interference_cycles": benchmark.cache_interference_cycles,
                        "ring_interference_cycles": benchmark.ring_interference_cycles,
                        "dram_interference_cycles": benchmark.dram_interference_cycles,
                        "interference_misses": benchmark.interference_misses,
                        "sms_loads": benchmark.sms_loads,
                    }
                    for result in results
                    for benchmark in result.benchmarks
                ]
                for key, results in self.cells.items()
            }
        if self.spec.kind == "policy_switching":
            return {
                self.cell_label(key): [
                    {
                        "workload": "+".join(trace.workload.benchmarks),
                        "policy_sequence": list(trace.policy_sequence),
                        "switch_interval_cycles": trace.switch_interval_cycles,
                        "switch_count": trace.switch_count,
                        "samples": [
                            {
                                "time": sample.time,
                                "policy": sample.policy,
                                "switched": sample.switched,
                                "allocation": (
                                    {str(core): ways for core, ways
                                     in sample.allocation.items()}
                                    if sample.allocation is not None else None
                                ),
                                "shared_ipc": {
                                    str(core): ipc for core, ipc
                                    in sample.shared_ipc.items()
                                },
                                "estimated_ipc": {
                                    technique: {str(core): ipc for core, ipc
                                                in per_core.items()}
                                    for technique, per_core
                                    in sample.estimated_ipc.items()
                                },
                            }
                            for sample in trace.samples
                        ],
                    }
                    for trace in results
                ]
                for key, results in self.cells.items()
            }
        return {}


# ------------------------------------------------------------------ expansion


def axis_value_label(axis: SweepAxis, value) -> str:
    """Human-readable label for one axis value (matches the Figure 7 labels)."""
    if axis.name == "llc_size_kb":
        return f"{value}KB"
    return str(value)


def _apply_axis(config: CMPConfig, axis_name: str, value,
                prb_override: int | None) -> tuple[CMPConfig, int | None]:
    """Fold one axis value into the cell's configuration (or PRB override).

    The PRB size is deliberately kept out of the config and passed as the
    evaluator's ``prb_entries`` argument, mirroring how the pre-engine
    Figure 7e harness expressed it: the evaluator applies it via
    ``config.with_prb_entries`` itself, so both forms simulate identically.
    """
    if axis_name == "llc_size_kb":
        return config.with_llc(size_bytes=value * KILOBYTE), prb_override
    if axis_name == "llc_associativity":
        return config.with_llc(associativity=value), prb_override
    if axis_name == "dram_channels":
        return config.with_dram(channels=value), prb_override
    if axis_name == "dram_interface":
        timing = DDR2_800 if value == "DDR2" else DDR4_2666
        return config.with_dram(timing=timing), prb_override
    if axis_name == "prb_entries":
        return config, value
    raise ConfigurationError(f"unknown sweep axis '{axis_name}'")


def _axis_variants(spec: ScenarioSpec, base_config: CMPConfig):
    """Yield (axis_label, config, prb_override) for the spec's axis product."""
    if not spec.axes:
        yield "", base_config, None
        return
    value_lists = [axis.values for axis in spec.axes]
    for combination in product(*value_lists):
        config = base_config
        prb_override: int | None = None
        labels = []
        for axis, value in zip(spec.axes, combination):
            config, prb_override = _apply_axis(config, axis.name, value, prb_override)
            labels.append(axis_value_label(axis, value))
        yield "/".join(labels), config, prb_override


def _accuracy_task(spec: ScenarioSpec, workload, config: CMPConfig,
                   prb_override: int | None) -> tuple:
    task = (
        workload,
        config,
        spec.instructions_per_core,
        spec.interval_instructions,
        spec.workloads.seed,
        spec.techniques,
        spec.collect_components,
    )
    # Only prb_entries sweeps pass the optional eighth argument; all other
    # cells use the accuracy-sweep 7-tuple form (the pre-engine Figure 7
    # harness always passed an explicit trailing None, so its cells hash to
    # new cache digests once — the results are identical either way).
    if prb_override is not None:
        task = (*task, prb_override)
    return task


def _throughput_task(spec: ScenarioSpec, workload, config: CMPConfig,
                     prb_override: int | None) -> tuple:
    # The throughput evaluator has no prb_entries argument; the policies read
    # the PRB size from the configuration, so a prb_entries axis folds into
    # the config here.
    if prb_override is not None:
        config = config.with_prb_entries(prb_override)
    return (
        workload,
        config,
        spec.policies,
        spec.instructions_per_core,
        spec.interval_instructions,
        spec.repartition_interval_cycles,
        spec.workloads.seed,
    )


def _accuracy_cell_cost(args: tuple) -> float:
    """Relative cost of one accuracy cell: cores x instructions dominates."""
    workload, _config, instructions_per_core = args[0], args[1], args[2]
    return float(len(workload.benchmarks) * instructions_per_core)


def _throughput_cell_cost(args: tuple) -> float:
    """Relative cost of one case-study cell: one shared run per policy plus
    one private run per core, all proportional to the instruction count."""
    workload, _config, policies, instructions_per_core = args[0], args[1], args[2], args[3]
    return float(len(workload.benchmarks) * (len(policies) + 1) * instructions_per_core)


def _attribution_task(spec: ScenarioSpec, workload, config: CMPConfig,
                      prb_override: int | None) -> tuple:
    if prb_override is not None:
        config = config.with_prb_entries(prb_override)
    return (
        workload,
        config,
        spec.instructions_per_core,
        spec.interval_instructions,
        spec.workloads.seed,
    )


def _attribution_cell_cost(args: tuple) -> float:
    """One shared run plus one private run per core."""
    workload, _config, instructions_per_core = args[0], args[1], args[2]
    return float(len(workload.benchmarks) * 2 * instructions_per_core)


def _policy_switch_task(spec: ScenarioSpec, workload, config: CMPConfig,
                        prb_override: int | None) -> tuple:
    if prb_override is not None:
        config = config.with_prb_entries(prb_override)
    return (
        workload,
        config,
        spec.policies,
        spec.techniques,
        spec.instructions_per_core,
        spec.interval_instructions,
        spec.repartition_interval_cycles,
        spec.workloads.seed,
        spec.policy_switch_cycles,
    )


def _policy_switch_cell_cost(args: tuple) -> float:
    """A single shared run, proportional to cores times instructions."""
    workload, _config, _policies, _techniques, instructions_per_core = (
        args[0], args[1], args[2], args[3], args[4]
    )
    return float(len(workload.benchmarks) * instructions_per_core)


EVALUATORS: dict[str, tuple[Callable, Callable[[tuple], float]]] = {
    "accuracy": (evaluate_workload_accuracy, _accuracy_cell_cost),
    "throughput": (evaluate_workload_throughput, _throughput_cell_cost),
    "interference_attribution": (evaluate_workload_attribution, _attribution_cell_cost),
    "policy_switching": (evaluate_workload_policy_switch, _policy_switch_cell_cost),
}

TASK_BUILDERS: dict[str, Callable] = {
    "accuracy": _accuracy_task,
    "throughput": _throughput_task,
    "interference_attribution": _attribution_task,
    "policy_switching": _policy_switch_task,
}


def expand_cells(spec: ScenarioSpec,
                 config_factory=default_experiment_config) -> list[ScenarioCell]:
    """Expand a validated spec into its flat, ordered list of sweep cells.

    Ordering is core counts, then workload groups, then axis combinations,
    then workloads — the same nesting the hardwired figure harnesses used, so
    serial evaluation visits cells in the familiar order (parallel execution
    returns results in this submission order regardless).
    """
    generator = workload_generators.get(spec.workloads.generator)
    cells: list[ScenarioCell] = []
    for n_cores in spec.machine.core_counts:
        if spec.machine.llc_kilobytes is None:
            base_config = config_factory(n_cores)
        else:
            try:
                base_config = config_factory(n_cores, spec.machine.llc_kilobytes)
            except TypeError as error:
                # A custom single-parameter factory cannot honour an explicit
                # LLC size; surface that as a configuration problem instead
                # of a raw TypeError from deep inside expansion.
                raise ConfigurationError(
                    f"machine.llc_kilobytes requires a config factory accepting "
                    f"(n_cores, llc_kilobytes); {config_factory!r} rejected the "
                    f"call ({error})"
                ) from None
        for group in spec.workloads.groups:
            workloads = generator(
                n_cores, group, spec.workloads.per_group, spec.workloads.seed
            )
            for axis_label, config, prb_override in _axis_variants(spec, base_config):
                for workload in workloads:
                    builder = TASK_BUILDERS[spec.kind]
                    task = builder(spec, workload, config, prb_override)
                    cells.append(ScenarioCell(key=(n_cores, group, axis_label), task=task))
    return cells


def assemble_result(spec: ScenarioSpec, cells: list[ScenarioCell],
                    outcomes: list) -> ScenarioResult:
    """Group per-cell outcomes (in :func:`expand_cells` order) into a result.

    The single place scenario results are assembled: the in-process
    :func:`run_scenario` path and the lease broker — which collects outcomes
    cell-by-cell from a fleet of workers — both call it, so a distributed
    run's payload is bit-identical to a single-node run's by construction.
    """
    result = ScenarioResult(spec=spec)
    for cell, outcome in zip(cells, outcomes):
        result.cells.setdefault(cell.key, []).append(outcome)
    return result


def run_scenario(spec: ScenarioSpec, jobs: int | None = None,
                 config_factory=default_experiment_config,
                 cache: bool = True,
                 progress: Callable[[int, int], None] | None = None,
                 cancel=None) -> ScenarioResult:
    """Execute every cell of a scenario and group the raw results.

    All cells — across groups, core counts and axis values — are flattened
    into one task list and fanned through
    :func:`repro.experiments.common.run_parallel`, so they share the
    persistent process pool, largest-cells-first scheduling, the
    content-addressed result cache and the cell supervisor's retry/timeout
    machinery.  Results are deterministic and independent of the worker
    count.  ``progress`` is forwarded to :func:`run_parallel` and reports
    completed/total sweep cells; ``cancel`` (a
    :class:`~repro.experiments.supervisor.CancelToken`) stops the sweep at
    the next cell boundary with :class:`~repro.errors.JobCancelledError`.

    A ``spec.fault_plan`` wins over any ``REPRO_FAULT_PLAN`` environment
    plan; its cell indices address positions in :func:`expand_cells` order.
    """
    spec.validate()
    evaluator, cost_key = EVALUATORS[spec.kind]
    cells = expand_cells(spec, config_factory=config_factory)
    outcomes = run_parallel(
        evaluator, [cell.task for cell in cells], jobs=jobs, cost_key=cost_key,
        cache=cache, progress=progress, cancel=cancel,
        fault_plan=spec.fault_plan,
    )
    return assemble_result(spec, cells, outcomes)
