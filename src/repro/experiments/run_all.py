"""Run every experiment and print the consolidated report.

Usage::

    python -m repro.experiments.run_all [--scale small|medium|large] [--json PATH]

``small`` matches the benchmark-harness defaults (a couple of minutes),
``medium`` the scale used to populate EXPERIMENTS.md, and ``large`` a
several-times-bigger sweep for overnight runs.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.experiments.common import print_cache_stats, shutdown_executor
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import Figure6Settings, run_figure6
from repro.experiments.figure7 import Figure7Settings, run_figure7
from repro.experiments.summary import run_headline_summary
from repro.experiments.sweep import SweepSettings, run_accuracy_sweep
from repro.scenarios.builtin import SCALES, resolve_scale

__all__ = ["SCALES", "run_all", "main"]


def run_all(scale: str = "small", jobs: int | None = None) -> dict:
    """Run figures 3-7 plus the headline summary; returns a JSON-serialisable dict.

    ``jobs`` sets the process-parallel fan-out for the workload sweeps (None
    resolves the ``REPRO_JOBS`` environment variable, then the CPU count).
    An unknown ``scale`` raises :class:`~repro.errors.ConfigurationError`.
    """
    knobs = resolve_scale(scale)
    # Monotonic: a wall-clock step (NTP, DST) must not produce a negative or
    # wildly wrong elapsed time in the summary.
    start = time.monotonic()

    # All figures fan their cells through the shared persistent process pool
    # and the content-addressed result cache; the pool is shut down when the
    # run completes (it would otherwise idle until interpreter exit).
    try:
        sweep = run_accuracy_sweep(SweepSettings(
            core_counts=knobs["core_counts"],
            categories=("H", "M", "L"),
            workloads_per_category=knobs["workloads"],
            instructions_per_core=knobs["instructions"],
            interval_instructions=knobs["interval"],
            collect_components=True,
        ), jobs=jobs)
        figure3 = run_figure3(sweep=sweep)
        figure4 = run_figure4(sweep=sweep)
        figure5 = run_figure5(sweep=sweep)
        figure6 = run_figure6(Figure6Settings(
            core_counts=knobs["core_counts"],
            categories=("H", "M", "L"),
            workloads_per_category=knobs["workloads"],
            instructions_per_core=knobs["case_instructions"],
            interval_instructions=knobs["interval"],
        ), jobs=jobs)
        figure7 = run_figure7(Figure7Settings(
            categories=("H", "M", "L"),
            workloads_per_category=knobs["workloads"],
            instructions_per_core=knobs["instructions"],
            interval_instructions=knobs["interval"],
        ), jobs=jobs)
        headline = run_headline_summary(accuracy_sweep=sweep, figure6=figure6)
    finally:
        shutdown_executor()

    for result in (figure3, figure4, figure5, figure6, figure7, headline):
        print(result.report())
        print()

    print_cache_stats()

    return {
        "scale": scale,
        "figure3_ipc_rms": figure3.ipc_rms,
        "figure3_stall_rms": figure3.stall_rms,
        "figure6_average_stp": figure6.average_stp,
        "figure7_panels": figure7.panels,
        "headline_mean_ipc_error": headline.mean_ipc_error,
        "headline_mcp_vs_asm": headline.mcp_vs_asm_stp_improvement,
        "headline_mcp_vs_lru": headline.mcp_vs_lru_stp_improvement,
        "elapsed_seconds": time.monotonic() - start,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--json", help="write the consolidated results to this path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel sweep workers (default: REPRO_JOBS or CPU count)")
    arguments = parser.parse_args(argv)
    summary = run_all(arguments.scale, jobs=arguments.jobs)
    if arguments.json:
        with open(arguments.json, "w") as handle:
            json.dump(summary, handle, indent=2, default=str)
        print(f"results written to {arguments.json}")


if __name__ == "__main__":
    main()
