"""Per-layer tracing from outside the program.

:class:`LayerTrace` rebinds the module attributes and methods through which
the scenario engine calls into each layer, so every call is timed and
counted without changing a line under ``src/``.  Spans nest the way the
calls do: ``core.estimate`` includes the ``core.cpl`` and ``latency.dief``
calls GDP makes, and ``sim.run_shared_mode`` includes the
``partitioning.repartition`` hooks that fire inside it.

It also substitutes a recording subclass for the ``CMPSystem`` that
``repro.sim.runner`` builds, reading each finished system's deterministic
hardware counters (committed instructions, cache hits and misses, ring
transfers, DRAM reads) and checking that every core committed its target.

Use it as a context manager around in-process work; leaving the block
restores every original binding.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter

# Deterministic simulator counters read off every CMPSystem.
COUNTER_NAMES = (
    "cpu.committed_instructions",
    "cache.l1.accesses", "cache.l1.hits",
    "cache.l2.accesses", "cache.l2.hits",
    "cache.llc.accesses", "cache.llc.hits",
    "interconnect.ring.transfers",
    "dram.reads", "dram.row_hits",
)


class LayerTrace:
    """Timed, counted calls into each layer plus simulator counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.commit_mismatches = 0
        self.estimates_non_finite = 0
        self.estimates_ipc_over_100 = 0
        self._restore: list[tuple[object, str, object]] = []
        # The traced server records from several threads at once.
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording

    def span(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.calls[layer] += 1
            self.seconds[layer] += seconds

    def count(self, counter: str, delta: int) -> None:
        with self._lock:
            self.counters[counter] += delta

    def _rebind(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _rebind_everywhere(self, function, replacement) -> None:
        """Rebind ``function`` in every loaded repro module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._rebind(module, attribute, replacement)

    def _timed(self, layer: str, function, after=None):
        def wrapper(*args, **kwargs):
            start = _clock()
            result = function(*args, **kwargs)
            self.span(layer, _clock() - start)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", layer)
        return wrapper

    # ------------------------------------------------------------- install

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        import repro.core.cpl as cpl
        import repro.experiments.common as common
        import repro.scenarios.runner as scenario_runner
        import repro.sim.runner as sim_runner
        import repro.workloads.synthetic as synthetic
        from repro import registry
        from repro.baselines.asm import install_asm_rotation
        from repro.latency.dief import DIEFLatencyEstimator
        from repro.sim.result_cache import ResultCache

        def private_done(result, args, kwargs):
            self.count("sim.run_private_mode.instructions", result.core.instructions)

        original_shared = sim_runner.run_shared_mode

        def run_shared_mode(*args, **kwargs):
            start = _clock()
            result = original_shared(*args, **kwargs)
            seconds = _clock() - start
            self.span("sim.run_shared_mode", seconds)
            if kwargs.get("configure_system") is install_asm_rotation:
                self.span("baselines.asm_rotation_run", seconds)
            self.count("sim.run_shared_mode.instructions",
                       sum(core.instructions for core in result.cores.values()))
            return result

        self._rebind_everywhere(original_shared, run_shared_mode)
        self._rebind_everywhere(
            sim_runner.run_private_mode,
            self._timed("sim.run_private_mode", sim_runner.run_private_mode, private_done))
        self._rebind_everywhere(
            synthetic.generate_trace,
            self._timed("workloads.generate_trace", synthetic.generate_trace))
        self._rebind_everywhere(
            cpl.estimate_interval_cpl,
            self._timed("core.cpl", cpl.estimate_interval_cpl))
        self._rebind_everywhere(
            scenario_runner.expand_cells,
            self._timed("scenarios.expand_cells", scenario_runner.expand_cells))
        self._rebind_everywhere(
            scenario_runner.scenario_digest,
            self._timed("scenarios.digest", scenario_runner.scenario_digest))
        self._rebind_everywhere(
            common.task_digest,
            self._timed("result_cache.digest", common.task_digest))
        self._rebind(DIEFLatencyEstimator, "estimate",
                     self._timed("latency.dief", DIEFLatencyEstimator.estimate))
        self._install_estimates(registry)
        self._install_result_cache(ResultCache)
        self._rebind(sim_runner, "CMPSystem", self._recording_system(sim_runner.CMPSystem))

    def _install_estimates(self, registry) -> None:
        """Wrap each registered technique's ``estimate`` once, on its class."""
        from repro.config import CMPConfig
        from repro.latency.dief import DIEFLatencyEstimator

        config = CMPConfig.default(2)
        seen = set()
        for name in registry.accounting_techniques.names():
            technique = registry.accounting_techniques.create(
                name, config, DIEFLatencyEstimator())
            for klass in type(technique).__mro__:
                if "estimate" in klass.__dict__:
                    break
            if klass in seen:
                continue
            seen.add(klass)
            layer = ("baselines.estimate" if klass.__module__.startswith("repro.baselines")
                     else "core.estimate")
            self._rebind(klass, "estimate",
                         self._timed(layer, klass.__dict__["estimate"], self._check_estimate))

    def _check_estimate(self, estimate, args, kwargs) -> None:
        ipc = estimate.ipc
        with self._lock:
            if not math.isfinite(ipc):
                self.estimates_non_finite += 1
            elif ipc > 100.0:
                self.estimates_ipc_over_100 += 1

    def _install_result_cache(self, cache_type) -> None:
        get, put = cache_type.get, cache_type.put

        def cache_get(cache, digest):
            start = _clock()
            hit, value = get(cache, digest)
            self.span("result_cache.get", _clock() - start)
            self.count("result_cache.hits", int(hit))
            return hit, value

        def cache_put(cache, digest, result):
            start = _clock()
            stored = put(cache, digest, result)
            self.span("result_cache.put", _clock() - start)
            if stored and cache.backend is None:
                self.count("result_cache.put_bytes", cache.entry_path(digest).stat().st_size)
            return stored

        self._rebind(cache_type, "get", cache_get)
        self._rebind(cache_type, "put", cache_put)

    def _recording_system(self, system_type):
        trace = self

        class RecordingCMPSystem(system_type):
            def add_periodic_hook(self, period_cycles, callback):
                module = getattr(callback, "__module__", "") or ""
                if module.startswith("repro.partitioning"):
                    callback = trace._timed("partitioning.repartition", callback)
                return super().add_periodic_hook(period_cycles, callback)

            def run(self):
                result = super().run()
                trace._harvest(self)
                return result

        RecordingCMPSystem.__name__ = system_type.__name__
        RecordingCMPSystem.__qualname__ = system_type.__qualname__
        return RecordingCMPSystem

    def _harvest(self, system) -> None:
        hierarchy = system.hierarchy
        with self._lock:
            counters = self.counters
            for core in system.cores.values():
                committed = core.committed_instructions
                counters["cpu.committed_instructions"] += committed
                if committed != system.target_instructions:
                    self.commit_mismatches += 1
            for level, caches in (("l1", hierarchy.l1.values()), ("l2", hierarchy.l2.values()),
                                  ("llc", (hierarchy.llc,))):
                for cache in caches:
                    counters[f"cache.{level}.accesses"] += cache.hits + cache.misses
                    counters[f"cache.{level}.hits"] += cache.hits
            counters["interconnect.ring.transfers"] += hierarchy.ring.transfers
            counters["dram.reads"] += hierarchy.dram.reads
            counters["dram.row_hits"] += hierarchy.dram.row_hit_reads

    # -------------------------------------------------------------- summary

    def counter_fingerprint(self) -> tuple:
        return tuple(self.counters.get(name, 0) for name in COUNTER_NAMES)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
