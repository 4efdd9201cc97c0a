"""Equivalence tests for the array-backed simulation kernel.

The cache kernel was rewritten from per-set lists of ``CacheLine`` objects to
flat parallel arrays, and the sweep layer gained a process-parallel executor.
These tests pin the behaviour to the original (seed) implementation:

* ``ReferenceCache`` below is the seed's list-of-line-objects cache, kept
  verbatim as an executable specification.  Randomised partitioned and
  unpartitioned access streams must produce the exact same hit/miss/eviction
  sequence, statistics and occupancies on both implementations.
* The decoded private stream (``decode_private``) must classify every
  position exactly as :meth:`MemoryHierarchy.access` does when called in
  program order.
* Golden fingerprints, recorded from the implementation that simulated the
  private L1/L2 inside every run, pin whole co-simulations (shared, ASM-
  rotated, repartitioned and private runs, events on and off) and the L1/L2
  counters at both ``batch_cycles`` settings.
* Parallel sweeps must return results identical to serial sweeps.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from dataclasses import dataclass, replace

import pytest

from repro.baselines.asm import install_asm_rotation
from repro.cache.cache import SetAssociativeCache
from repro.config import CacheConfig, CMPConfig
from repro.cpu.core import OutOfOrderCore
from repro.errors import SimulationError
from repro.experiments.sweep import SweepSettings, run_accuracy_sweep, run_workloads_parallel
from repro.mem.hierarchy import MemoryHierarchy
from repro.partitioning.mcp import MCPPolicy
from repro.sim.system import CMPSystem
from repro.workloads.synthetic import generate_trace, get_benchmark
from repro.workloads.trace import (
    LONG_OP_PERIOD,
    InstrKind,
    Outcome,
    TraceBuilder,
    decode_private,
)


# --------------------------------------------------------------------------- reference


@dataclass
class _RefLine:
    tag: int
    owner: int
    last_use: int
    dirty: bool = False


class ReferenceCache:
    """The seed set-associative cache: per-set lists of line records."""

    def __init__(self, config: CacheConfig, partitioned: bool = False):
        config.validate()
        self.config = config
        self.partitioned = partitioned
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.line_bytes = config.line_bytes
        self._sets: list[list[_RefLine]] = [[] for _ in range(self.num_sets)]
        self._use_counter = 0
        self._allocation: dict[int, int] | None = None
        self.hits = 0
        self.misses = 0
        self.per_core_hits: dict[int, int] = {}
        self.per_core_misses: dict[int, int] = {}

    def set_index(self, address: int) -> int:
        return (address // self.line_bytes) % self.num_sets

    def tag(self, address: int) -> int:
        return address // (self.line_bytes * self.num_sets)

    def set_partition(self, allocation: dict[int, int] | None) -> None:
        self._allocation = dict(allocation) if allocation is not None else None

    def probe(self, address: int) -> bool:
        index = self.set_index(address)
        tag = self.tag(address)
        return any(line.tag == tag for line in self._sets[index])

    def access(self, address: int, core: int = 0, is_store: bool = False):
        self._use_counter += 1
        index = self.set_index(address)
        tag = self.tag(address)
        cache_set = self._sets[index]
        for line in cache_set:
            if line.tag == tag:
                line.last_use = self._use_counter
                if is_store:
                    line.dirty = True
                self.hits += 1
                self.per_core_hits[core] = self.per_core_hits.get(core, 0) + 1
                return (True, None, None, False)
        self.misses += 1
        self.per_core_misses[core] = self.per_core_misses.get(core, 0) + 1
        return self._fill(index, tag, core, is_store)

    def _fill(self, index: int, tag: int, core: int, is_store: bool):
        cache_set = self._sets[index]
        new_line = _RefLine(tag=tag, owner=core, last_use=self._use_counter, dirty=is_store)
        quota = None
        if self.partitioned and self._allocation is not None:
            quota = max(1, self._allocation.get(core, self.associativity))
        own_lines = sum(1 for line in cache_set if line.owner == core) if quota is not None else 0
        within_quota = quota is None or own_lines < quota
        if len(cache_set) < self.associativity and within_quota:
            cache_set.append(new_line)
            return (False, None, None, False)
        victim = self._select_victim(cache_set, core)
        outcome = (False, victim.tag, victim.owner, victim.dirty)
        cache_set.remove(victim)
        cache_set.append(new_line)
        return outcome

    def _select_victim(self, cache_set, core: int):
        if not self.partitioned or self._allocation is None:
            return min(cache_set, key=lambda line: line.last_use)
        allocation = self._allocation
        quota = max(1, allocation.get(core, self.associativity))
        occupancy: dict[int, int] = {}
        for line in cache_set:
            occupancy[line.owner] = occupancy.get(line.owner, 0) + 1
        own_lines = [line for line in cache_set if line.owner == core]
        if len(own_lines) >= quota:
            return min(own_lines, key=lambda line: line.last_use)
        over_allocated = [
            line
            for line in cache_set
            if line.owner != core
            and occupancy.get(line.owner, 0) > allocation.get(line.owner, 0)
        ]
        if over_allocated:
            return min(over_allocated, key=lambda line: line.last_use)
        if len(cache_set) < self.associativity:
            return min(own_lines, key=lambda line: line.last_use) if own_lines else min(
                cache_set, key=lambda line: line.last_use
            )
        return min(cache_set, key=lambda line: line.last_use)

    def occupancy(self, core: int) -> int:
        return sum(1 for cache_set in self._sets for line in cache_set if line.owner == core)

    def set_occupancy(self, index: int) -> dict[int, int]:
        counts: dict[int, int] = {}
        for line in self._sets[index]:
            counts[line.owner] = counts.get(line.owner, 0) + 1
        return counts


# --------------------------------------------------------------------------- streams


def _make_config(assoc=8, sets=16, line_bytes=64):
    return CacheConfig(
        size_bytes=assoc * sets * line_bytes,
        associativity=assoc,
        latency=3,
        mshrs=8,
        line_bytes=line_bytes,
    )


def _random_stream(rng, n, n_cores=4, address_bits=18, repartition=False, assoc=8):
    """Yield (kind, payload) events: accesses plus occasional repartitions."""
    for _ in range(n):
        if repartition and rng.random() < 0.002:
            ways = [rng.randrange(1, 3) for _ in range(n_cores)]
            while sum(ways) > assoc:
                ways[rng.randrange(n_cores)] = 1
            yield ("partition", {core: w for core, w in enumerate(ways)})
        address = rng.randrange(0, 1 << address_bits) & ~63
        core = rng.randrange(0, n_cores)
        store = rng.random() < 0.25
        yield ("access", (address, core, store))


def _run_pair(config, partitioned, allocation, seed, n=8000, repartition=False):
    new = SetAssociativeCache(config, partitioned=partitioned)
    ref = ReferenceCache(config, partitioned=partitioned)
    if allocation is not None:
        new.set_partition(allocation)
        ref.set_partition(allocation)
    rng = random.Random(seed)
    for kind, payload in _random_stream(
        rng, n, repartition=repartition, assoc=config.associativity
    ):
        if kind == "partition":
            new.set_partition(payload)
            ref.set_partition(payload)
            continue
        address, core, store = payload
        expected = ref.access(address, core, store)
        outcome = new.access(address, core, store)
        got = (outcome.hit, outcome.evicted_tag, outcome.evicted_owner, outcome.evicted_dirty)
        assert got == expected, f"diverged at access {address:#x} core {core} store {store}"
    return new, ref


def _assert_state_matches(new: SetAssociativeCache, ref: ReferenceCache, n_cores=4):
    assert new.hits == ref.hits and new.misses == ref.misses
    assert new.per_core_hits == ref.per_core_hits
    assert new.per_core_misses == ref.per_core_misses
    for core in range(n_cores):
        assert new.occupancy(core) == ref.occupancy(core)
    for index in range(new.num_sets):
        assert new.set_occupancy(index) == ref.set_occupancy(index)


class TestCacheKernelEquivalence:
    def test_unpartitioned_random_stream(self):
        config = _make_config()
        new, ref = _run_pair(config, partitioned=False, allocation=None, seed=11)
        _assert_state_matches(new, ref)

    def test_partitioned_full_allocation(self):
        config = _make_config()
        allocation = {0: 2, 1: 3, 2: 1, 3: 2}
        new, ref = _run_pair(config, partitioned=True, allocation=allocation, seed=23)
        _assert_state_matches(new, ref)

    def test_partitioned_partial_allocation_and_repartitioning(self):
        config = _make_config()
        new, ref = _run_pair(
            config, partitioned=True, allocation={0: 4, 2: 2}, seed=37, repartition=True
        )
        _assert_state_matches(new, ref)

    def test_non_power_of_two_sets_divmod_fallback(self):
        config = _make_config(assoc=4, sets=12)
        assert config.num_sets & (config.num_sets - 1) != 0  # exercises the fallback
        new, ref = _run_pair(config, partitioned=False, allocation=None, seed=5)
        _assert_state_matches(new, ref)

    def test_probe_agrees_after_stream(self):
        config = _make_config()
        new, ref = _run_pair(config, partitioned=False, allocation=None, seed=3, n=2000)
        rng = random.Random(99)
        for _ in range(500):
            address = rng.randrange(0, 1 << 18) & ~63
            assert new.probe(address) == ref.probe(address)

    def test_access_hit_fast_path_matches_reference(self):
        """The allocation-free hot path must evolve state exactly like access()."""
        for partitioned, allocation in ((False, None), (True, {0: 3, 1: 2, 2: 2, 3: 1})):
            config = _make_config()
            new = SetAssociativeCache(config, partitioned=partitioned)
            ref = ReferenceCache(config, partitioned=partitioned)
            if allocation is not None:
                new.set_partition(allocation)
                ref.set_partition(allocation)
            rng = random.Random(41)
            for kind, payload in _random_stream(rng, 6000, assoc=config.associativity):
                if kind != "access":
                    continue
                address, core, store = payload
                expected_hit = ref.access(address, core, store)[0]
                assert new.access_hit(address, core, store) == expected_hit
            assert new.hits == ref.hits and new.misses == ref.misses
            for index in range(new.num_sets):
                assert new.set_occupancy(index) == ref.set_occupancy(index)


# --------------------------------------------------------------------------- parallel sweeps


def _sweep_digest(sweep):
    digest = []
    for key in sorted(sweep.cells):
        for workload_accuracy in sweep.cells[key]:
            for benchmark in workload_accuracy.benchmarks:
                for technique in sorted(benchmark.ipc_errors):
                    digest.append((
                        key,
                        benchmark.benchmark,
                        benchmark.core,
                        technique,
                        tuple(benchmark.ipc_errors[technique]),
                        tuple(benchmark.stall_errors[technique]),
                    ))
    return digest


class TestParallelSweepEquivalence:
    @pytest.fixture(scope="class", autouse=True)
    def _no_result_cache(self):
        # The point of these tests is that the *computation* is identical
        # serially and in parallel; a warm result cache would trivialise them.
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setenv("REPRO_CACHE", "0")
            yield

    @pytest.fixture(scope="class")
    def tiny_settings(self):
        return SweepSettings(
            core_counts=(2,),
            categories=("H",),
            workloads_per_category=2,
            instructions_per_core=3_000,
            interval_instructions=1_500,
        )

    def test_parallel_sweep_identical_to_serial(self, tiny_settings):
        serial = run_accuracy_sweep(tiny_settings, jobs=1)
        parallel = run_accuracy_sweep(tiny_settings, jobs=2)
        assert _sweep_digest(serial) == _sweep_digest(parallel)

    def test_run_workloads_parallel_preserves_order(self):
        results = run_workloads_parallel(_square, [(i,) for i in range(20)], jobs=4)
        assert results == [i * i for i in range(20)]

    def test_serial_fallback_for_single_task(self):
        assert run_workloads_parallel(_square, [(7,)], jobs=8) == [49]


def _square(value):
    return value * value


# --------------------------------------------------------------------------- decoded private stream


_SCALED = CMPConfig.default(4).scaled(llc_kilobytes=64)
# Non-power-of-two set counts (12 and 24 sets) exercise the divmod fallback.
_ODD = replace(
    _SCALED,
    l1d=replace(_SCALED.l1d, size_bytes=3 * 1024, associativity=4),
    l2=replace(_SCALED.l2, size_bytes=12 * 1024, associativity=8),
)


def _classes_from_access(trace, config, target):
    """Per-position classes from MemoryHierarchy.access() in program order."""
    hierarchy = MemoryHierarchy(config, active_cores=[0])
    expected = []
    clock = 0.0
    for position in range(target):
        offset = position % len(trace)
        kind = trace.kinds[offset]
        if kind == InstrKind.COMPUTE:
            long_op = position % LONG_OP_PERIOD == 0
            expected.append(Outcome.LONG_COMPUTE if long_op else Outcome.COMPUTE)
            continue
        result = hierarchy.access(0, trace.addresses[offset], clock,
                                  is_store=kind == InstrKind.STORE)
        clock = result.completion_time + 1.0
        if kind == InstrKind.STORE:
            expected.append(Outcome.STORE_L1_HIT if result.l1_hit else Outcome.STORE_L1_MISS)
        elif result.l1_hit:
            expected.append(Outcome.LOAD_L1_HIT)
        elif result.l2_hit:
            expected.append(Outcome.LOAD_L2_HIT)
        else:
            assert result.is_sms
            expected.append(Outcome.LOAD_SMS)
    return bytes(expected), hierarchy


class TestDecodedPrivateStream:
    @pytest.mark.parametrize("config", [_SCALED, _ODD], ids=["scaled", "odd_sets"])
    @pytest.mark.parametrize("target", [1_100, 4_321], ids=["below_length", "restarts"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_stream_matches_access(self, config, target, seed):
        trace = _random_trace(random.Random(seed), 2_000, footprint_lines=400)
        stream = decode_private(trace, config.l1d, config.l2, target)
        expected, hierarchy = _classes_from_access(trace, config, target)
        assert stream.classes == expected
        l1, l2 = hierarchy.l1[0], hierarchy.l2[0]
        assert (stream.l1_hits, stream.l1_misses, stream.l2_hits, stream.l2_misses) == (
            l1.hits, l1.misses, l2.hits, l2.misses)

    def test_stream_is_memoised_and_not_pickled(self):
        trace = _random_trace(random.Random(3), 500)
        stream = trace.private_stream(_SCALED.l1d, _SCALED.l2, 800)
        assert trace.private_stream(_SCALED.l1d, _SCALED.l2, 800) is stream
        assert trace.private_stream(_ODD.l1d, _ODD.l2, 800) is not stream
        assert pickle.loads(pickle.dumps(trace))._streams == {}

    @pytest.mark.parametrize("level", ["l1", "l2"])
    def test_core_rejects_warm_private_caches(self, level):
        hierarchy = MemoryHierarchy(_SCALED, active_cores=[0])
        getattr(hierarchy, level)[0].access_hit(0x4000)
        trace = _random_trace(random.Random(4), 200)
        with pytest.raises(SimulationError, match="cold caches"):
            OutOfOrderCore(0, trace, _SCALED, hierarchy)


# --------------------------------------------------------------------------- golden co-simulation fingerprints


def _random_trace(rng, n, store_fraction=0.2, dep_fraction=0.3, footprint_lines=1024,
                  memory_fraction=0.3, name="random"):
    """A random trace with loads, stores and load-to-load dependencies."""
    builder = TraceBuilder(name=name)
    loads = []
    while len(builder) < n:
        roll = rng.random()
        if roll >= memory_fraction:
            builder.add_compute(1)
            continue
        address = rng.randrange(footprint_lines) * 64 + rng.randrange(8) * 8
        if rng.random() < store_fraction:
            builder.add_store(address)
        else:
            depends_on = rng.choice(loads[-8:]) if loads and rng.random() < dep_fraction else None
            loads.append(builder.add_load(address, depends_on=depends_on))
    return builder.build()


def _benchmark_trace(name, length):
    return generate_trace(get_benchmark(name), length, seed=3)


def _fingerprint(system, result):
    """Digest of every observable of one co-simulation (floats by repr)."""
    parts = [repr(result.total_cycles)]
    for core_id in sorted(result.cores):
        core = result.cores[core_id]
        parts.append(f"core {core_id} {core.instructions} {core.cycles!r}")
        for interval in core.intervals:
            parts.append(repr([
                getattr(interval, name)
                for name in (
                    "index", "start_time", "end_time", "instructions", "commit_cycles",
                    "stall_sms", "stall_pms", "stall_independent", "stall_other",
                    "sms_loads", "sms_latency_sum", "pre_llc_latency_sum",
                    "post_llc_latency_sum", "interference_sum",
                    "interference_miss_penalty_sum", "dram_interference_sum",
                    "llc_accesses", "llc_misses", "interference_misses",
                    "sampled_llc_misses",
                )
            ]))
            for buckets in (interval.epoch_instructions, interval.epoch_stall_cycles,
                            interval.epoch_sms_accesses):
                parts.append(repr(sorted(buckets.items())))
            for load in interval.loads:
                parts.append(repr((
                    load.instr_index, load.address, load.issue_time, load.completion_time,
                    load.is_sms, load.latency, load.interference_cycles, load.llc_hit,
                    load.interference_miss, load.caused_stall, load.stall_start,
                    load.stall_end, load.overlap_cycles,
                )))
            for stall in interval.stalls:
                parts.append(repr((stall.start, stall.end, stall.cause, stall.load_address,
                                   stall.load_is_sms)))
    hierarchy = system.hierarchy
    parts.append(repr((
        hierarchy.llc.hits, hierarchy.llc.misses, hierarchy.ring.transfers,
        hierarchy.ring.per_core_interference_cycles, hierarchy.dram.reads,
        hierarchy.dram.row_hit_reads,
    )))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _private_counters(system):
    hierarchy = system.hierarchy
    return {
        core: (hierarchy.l1[core].hits, hierarchy.l1[core].misses,
               hierarchy.l2[core].hits, hierarchy.l2[core].misses)
        for core in hierarchy.active_cores
    }


def _two_core(batch_cycles):
    config = CMPConfig.default(2).scaled(llc_kilobytes=64)
    traces = {
        0: _benchmark_trace("art_like", 3_000),
        1: _random_trace(random.Random(5), 2_500, name="random_stores"),
    }
    # Target above both trace lengths: both cores restart their traces.
    return CMPSystem(config, traces, target_instructions=5_000, interval_instructions=1_000,
                     batch_cycles=batch_cycles, record_events=True)


def _four_core(batch_cycles, record_events=False):
    config = CMPConfig.default(4).scaled(llc_kilobytes=64)
    traces = {
        0: _benchmark_trace("applu_like", 6_000),
        1: _benchmark_trace("twolf_like", 2_500),
        2: _benchmark_trace("omnetpp_like", 6_000),
        3: _benchmark_trace("gcc_like", 3_000),
    }
    # Target below two of the trace lengths and above the other two.
    return CMPSystem(config, traces, target_instructions=4_000, interval_instructions=1_500,
                     batch_cycles=batch_cycles, record_events=record_events)


def _asm_rotated(batch_cycles):
    system = _four_core(batch_cycles)
    install_asm_rotation(system)
    return system


def _repartitioned(batch_cycles):
    system = _four_core(batch_cycles, record_events=True)
    MCPPolicy(repartition_interval_cycles=4_000).install(system)
    return system


def _private_partitioned(batch_cycles):
    config = CMPConfig.default(4).scaled(llc_kilobytes=64)
    system = CMPSystem(config, {0: _benchmark_trace("lbm_like", 3_000)},
                       target_instructions=4_500, interval_instructions=1_000,
                       batch_cycles=batch_cycles, record_events=True)
    system.hierarchy.set_partition({0: 3})
    return system


_RUNS = {
    "two_core_events": _two_core,
    "four_core_no_events": _four_core,
    "four_core_asm": _asm_rotated,
    "four_core_mcp": _repartitioned,
    "private_llc_ways": _private_partitioned,
}

# Recorded from the implementation that simulated L1/L2 inside every run.
_GOLDEN_FINGERPRINTS = {
    ("four_core_asm", 0): "55b1520f71b6297d",
    ("four_core_asm", 1024): "1cf40755c10ed655",
    ("four_core_mcp", 0): "db5d2124839ca8ea",
    ("four_core_mcp", 1024): "fc1c94cb34533fb6",
    ("four_core_no_events", 0): "0c8f983436dfd949",
    ("four_core_no_events", 1024): "7f38bfa427ab8843",
    ("private_llc_ways", 0): "3765d55b049e1654",
    ("private_llc_ways", 1024): "3765d55b049e1654",
    ("two_core_events", 0): "68f57f32baf8ae34",
    ("two_core_events", 1024): "418d9f232d363c77",
}

_FOUR_CORE_COUNTERS = {0: (0, 447, 0, 447), 1: (294, 238, 82, 156), 2: (607, 542, 63, 479), 3: (52, 34, 2, 32)}

# Per core: (L1 hits, L1 misses, L2 hits, L2 misses), recorded likewise.
_GOLDEN_PRIVATE_COUNTERS = {
    "four_core_asm": _FOUR_CORE_COUNTERS,
    "four_core_mcp": _FOUR_CORE_COUNTERS,
    "four_core_no_events": _FOUR_CORE_COUNTERS,
    "private_llc_ways": {0: (641, 642, 0, 642)},
    "two_core_events": {0: (720, 721, 0, 721), 1: (117, 1493, 274, 1219)},
}


class TestGoldenCoSimulation:
    @pytest.mark.parametrize("batch_cycles", [0, 1024])
    @pytest.mark.parametrize("run", sorted(_RUNS))
    def test_fingerprint(self, run, batch_cycles):
        system = _RUNS[run](batch_cycles)
        result = system.run()
        assert _fingerprint(system, result) == _GOLDEN_FINGERPRINTS[(run, batch_cycles)]

    @pytest.mark.parametrize("run", sorted(_RUNS))
    def test_private_cache_counters(self, run):
        system = _RUNS[run](1024)
        system.run()
        assert _private_counters(system) == _GOLDEN_PRIVATE_COUNTERS[run]
