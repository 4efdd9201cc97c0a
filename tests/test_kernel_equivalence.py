"""Equivalence tests for the array-backed simulation kernel.

The cache kernel was rewritten from per-set lists of ``CacheLine`` objects to
flat parallel arrays, and the sweep layer gained a process-parallel executor.
These tests pin the behaviour to the original (seed) implementation:

* ``ReferenceCache`` below is the seed's list-of-line-objects cache, kept
  verbatim as an executable specification.  Randomised partitioned and
  unpartitioned access streams must produce the exact same hit/miss/eviction
  sequence, statistics and occupancies on both implementations.
* Parallel sweeps must return results identical to serial sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheConfig
from repro.experiments.sweep import SweepSettings, run_accuracy_sweep, run_workloads_parallel


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
