"""End-to-end memory hierarchy: private L1/L2, ring, shared LLC, DRAM.

This is the shared substrate both simulation modes run on.  In shared mode all
cores issue requests into the same LLC, ring and memory controller; in private
mode a single core has exclusive access.  Each access returns a
:class:`MemoryAccessResult` with the latency breakdown and the interference
attribution the accounting techniques consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.atd import AuxiliaryTagDirectory
from repro.cache.cache import SetAssociativeCache
from repro.cache.mshr import MSHRFile
from repro.dram.controller import MemoryController
from repro.errors import ConfigurationError
from repro.interconnect.ring import RingInterconnect
from repro.mem.request import MemoryAccessResult
from repro.config import CMPConfig

__all__ = ["CoreMemoryCounters", "MemoryHierarchy"]


@dataclass(slots=True)
class CoreMemoryCounters:
    """Per-core, per-interval counters maintained by the memory hierarchy.

    These counters are what a hardware implementation would expose to the
    accounting units; they are reset whenever an estimate interval ends.
    (``slots=True``: the fields are updated on every shared-memory access.)
    """

    sms_loads: int = 0
    sms_latency_sum: float = 0.0
    pre_llc_latency_sum: float = 0.0
    post_llc_latency_sum: float = 0.0
    interference_sum: float = 0.0
    interference_miss_penalty_sum: float = 0.0
    dram_interference_sum: float = 0.0
    llc_accesses: int = 0
    llc_misses: int = 0
    interference_misses: int = 0
    sampled_llc_misses: int = 0

    def average_sms_latency(self) -> float:
        return self.sms_latency_sum / self.sms_loads if self.sms_loads else 0.0

    def average_interference(self) -> float:
        return self.interference_sum / self.sms_loads if self.sms_loads else 0.0

    def reset(self) -> None:
        self.sms_loads = 0
        self.sms_latency_sum = 0.0
        self.pre_llc_latency_sum = 0.0
        self.post_llc_latency_sum = 0.0
        self.interference_sum = 0.0
        self.interference_miss_penalty_sum = 0.0
        self.dram_interference_sum = 0.0
        self.llc_accesses = 0
        self.llc_misses = 0
        self.interference_misses = 0
        self.sampled_llc_misses = 0


class MemoryHierarchy:
    """The CMP memory system shared by all cores.

    Parameters
    ----------
    config:
        The CMP configuration (Table I).
    active_cores:
        Core ids that participate; a single-element list models private mode.
    """

    def __init__(self, config: CMPConfig, active_cores: list[int] | None = None):
        config.validate()
        self.config = config
        self.active_cores = list(active_cores) if active_cores is not None else list(range(config.n_cores))
        if not self.active_cores:
            raise ConfigurationError("the memory hierarchy needs at least one active core")
        self.l1 = {core: SetAssociativeCache(config.l1d, name=f"l1d[{core}]") for core in self.active_cores}
        self.l2 = {core: SetAssociativeCache(config.l2, name=f"l2[{core}]") for core in self.active_cores}
        self.l1_mshrs = {core: MSHRFile(config.l1d.mshrs) for core in self.active_cores}
        self.llc = SetAssociativeCache(config.llc, name="llc", partitioned=True)
        self.ring = RingInterconnect(config.ring, n_cores=config.n_cores, n_banks=config.llc.banks)
        self.dram = MemoryController(config.dram, line_bytes=config.llc.line_bytes)
        self.atds = {
            core: AuxiliaryTagDirectory(config.llc, config.accounting.atd_sampled_sets, core=core)
            for core in self.active_cores
        }
        self.counters: dict[int, CoreMemoryCounters] = {
            core: CoreMemoryCounters() for core in self.active_cores
        }
        # Latencies and LLC geometry hoisted out of the per-access path.
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self._llc_latency = config.llc.latency
        self._llc_line_shift = self.llc._line_shift
        self._llc_set_mask = self.llc._set_mask
        self._llc_tag_shift = self.llc._tag_shift
        self._llc_banks = config.llc.banks
        # ATD set-sampling geometry is identical across cores (same LLC
        # config), so one ATD's precomputed set->slot table serves the
        # inlined membership lookup in shared_load.
        self._atd_slot_by_set = next(iter(self.atds.values()))._slot_by_set
        # With one active core the shadow (core-alone) schedules are provably
        # identical to the real schedules, so interference is exactly zero
        # and the shadow emulation can be skipped wholesale.
        self._multi_core = len(self.active_cores) > 1
        # LLC flat arrays for the inlined lookup on the SMS path (flush()
        # clears these in place, so the references stay valid).
        self._llc_state = (
            self.llc._tags,
            self.llc._last_use,
            self.llc._set_sizes,
            self.llc._owners,
            self.llc._core_occupancy,
            self.llc.associativity,
        )
        self._last_shared_access = (0.0, 0.0, False)

    # ------------------------------------------------------------------ configuration

    def set_partition(self, allocation: dict[int, int] | None) -> None:
        """Install an LLC way allocation (None restores unpartitioned LRU)."""
        self.llc.set_partition(allocation)

    def set_priority_core(self, core: int | None) -> None:
        """Give one core highest memory-controller priority (used by ASM)."""
        self.dram.set_priority_core(core)

    # ------------------------------------------------------------------ access path

    def access(self, core: int, address: int, issue_time: float,
               is_store: bool = False) -> MemoryAccessResult:
        """Send one memory operation through the hierarchy.

        Stores update cache state but complete with the L1 latency; the store
        buffer hides their latency from commit (the paper treats store-related
        stalls as one of the rare "other" stall sources).

        This is the descriptive API: it always materialises a
        :class:`MemoryAccessResult`.  The simulation kernel decodes the
        private L1/L2 outcomes of a whole trace up front
        (:meth:`Trace.private_stream <repro.workloads.trace.Trace.private_stream>`)
        and calls only :meth:`shared_load` and :meth:`store_miss`, the same
        methods this one uses past the private caches.
        """
        if core not in self.l1:
            raise ConfigurationError(f"core {core} is not active in this hierarchy")
        l1_hit = self.l1[core].access_hit(address, core, is_store)
        if is_store and not l1_hit:
            # A store miss still allocates in L2 and the LLC for footprint
            # realism, but its latency is hidden by the store buffer.
            self.l2[core].access_hit(address, core, True)
            self.store_miss(core, address)
        if is_store or l1_hit:
            return MemoryAccessResult(
                address=address,
                core=core,
                issue_time=issue_time,
                completion_time=issue_time + self._l1_latency,
                is_sms=False,
                l1_hit=l1_hit,
                l2_hit=False,
                llc_hit=False,
            )
        # L1 load miss: wait for a free MSHR, then look up L2.
        mshr = self.l1_mshrs[core]
        ready = mshr.acquire_time(issue_time) + self._l1_latency + self._l2_latency
        if self.l2[core].access_hit(address, core):
            mshr.allocate(ready, address)
            return MemoryAccessResult(
                address=address,
                core=core,
                issue_time=issue_time,
                completion_time=ready,
                is_sms=False,
                l1_hit=False,
                l2_hit=True,
                llc_hit=False,
            )
        completion, interference, llc_hit, interference_miss = self.shared_load(
            core, address, ready, issue_time
        )
        mshr.allocate(completion, address)
        pre_llc_latency, post_llc_latency, row_hit = self._last_shared_access
        return MemoryAccessResult(
            address=address,
            core=core,
            issue_time=issue_time,
            completion_time=completion,
            is_sms=True,
            l1_hit=False,
            l2_hit=False,
            llc_hit=llc_hit,
            pre_llc_latency=pre_llc_latency,
            post_llc_latency=post_llc_latency,
            interference_cycles=interference,
            interference_miss=interference_miss,
            row_hit=row_hit,
        )

    def store_miss(self, core: int, address: int) -> None:
        """Install an L1-missing store's line in the ATD and the LLC.

        The store buffer hides its latency, so no timing is modelled.
        """
        self.atds[core].access(address)
        self.llc.access_hit(address, core, True)

    def shared_load(self, core: int, address: int, ready_for_ring: float,
                    original_issue: float):
        """An L2-missing load's trip through ring, ATD, LLC and DRAM.

        ``ready_for_ring`` is when the request leaves the private caches;
        ``original_issue`` is when the core issued it.  Returns
        ``(completion, interference_cycles, llc_hit, interference_miss)``.
        """
        counters = self.counters[core]
        ring = self.ring
        llc = self.llc
        # The LLC set index is shared between the bank mapping and the ATD
        # lookup (same geometry); compute it once with the hoisted shift/mask.
        mask = self._llc_set_mask
        if mask is not None:
            set_index = (address >> self._llc_line_shift) & mask
        else:
            set_index = llc.set_index(address)
        bank = set_index % self._llc_banks

        # Request hop towards the LLC bank (ring link logic inlined: this and
        # the response hop below run once per SMS-load each).  With a single
        # active core the shadow link schedule is identical to the real one,
        # so the shadow emulation is skipped and interference is exactly 0.
        multi_core = self._multi_core
        occupancy = ring._occupancy
        hop_latency = ring._latency_table[core][bank]
        links = ring._request_links
        if len(links) == 1:
            link = links[0]
        else:
            link = links[0]
            for candidate in links:
                if candidate.next_free < link.next_free:
                    link = candidate
        next_free = link.next_free
        start = ready_for_ring if ready_for_ring > next_free else next_free
        link.next_free = start + occupancy
        interference = 0.0
        if multi_core:
            shadow = link.shadow_next_free
            shadow_free = shadow[core]
            shadow_start = ready_for_ring if ready_for_ring > shadow_free else shadow_free
            shadow[core] = shadow_start + occupancy
            interference = start - shadow_start
            if interference < 0.0:
                interference = 0.0
            ring.per_core_interference_cycles[core] += interference
        llc_ready = start + hop_latency

        # The ATD shares the LLC's geometry, so the tag is computed once.
        if mask is not None:
            tag = address >> self._llc_tag_shift
        else:
            tag = llc.tag(address)
        atd = self.atds[core]
        counters.llc_accesses += 1
        # Sampled-set membership is one precomputed table lookup (built from
        # the stride test in AuxiliaryTagDirectory.__init__): -1 = unsampled.
        slot = self._atd_slot_by_set[set_index]
        if slot >= 0:
            atd_hit = atd.access_sampled(atd._stacks[slot], tag)
        else:
            atd_hit = None

        # LLC lookup, inlined (the flat-array path of
        # SetAssociativeCache.access_hit; partition-aware fills go through the
        # shared SetAssociativeCache machinery).
        (llc_tags, llc_last_use, llc_sizes, llc_owners, llc_occupancy,
         llc_assoc) = self._llc_state
        counter = llc._use_counter + 1
        llc._use_counter = counter
        base = set_index * llc_assoc
        size = llc_sizes[set_index]
        segment = llc_tags[base:base + size]
        if tag in segment:
            llc_last_use[base + segment.index(tag)] = counter
            llc.hits += 1
            llc_hit = True
        else:
            llc.misses += 1
            if llc._allocation is not None:
                llc._fill(set_index, tag, core, False, want_outcome=False)
            else:
                if size < llc_assoc:
                    slot = base + size
                    llc_sizes[set_index] = size + 1
                else:
                    ages = llc_last_use[base:base + llc_assoc]
                    slot = base + ages.index(min(ages))
                    llc_occupancy[llc_owners[slot]] -= 1
                try:
                    llc_occupancy[core] += 1
                except IndexError:
                    llc_occupancy.extend([0] * (core + 1 - len(llc_occupancy)))
                    llc_occupancy[core] += 1
                llc_tags[slot] = tag
                llc_owners[slot] = core
                llc_last_use[slot] = counter
                llc._dirty[slot] = False
            llc_hit = False
        row_hit = False
        post_llc_latency = 0.0

        if llc_hit:
            data_ready = llc_ready + self._llc_latency
        else:
            counters.llc_misses += 1
            if atd_hit is not None:
                counters.sampled_llc_misses += 1
            arrival = llc_ready + self._llc_latency
            data_ready, row_hit, dram_interference = self.dram.access_fast(
                address, core, arrival, multi_core
            )
            post_llc_latency = data_ready - arrival
            counters.dram_interference_sum += dram_interference
            if atd_hit is True:
                # The private-mode LLC would have hit, so the entire DRAM
                # round trip (queueing included) is interference caused by
                # cache contention.  The penalty is tracked separately so
                # DIEF can extrapolate the sampled rate to unsampled sets.
                counters.interference_misses += 1
                counters.interference_miss_penalty_sum += post_llc_latency
                interference += post_llc_latency
            else:
                interference += dram_interference

        # Response hop back to the core.
        links = ring._response_links
        if len(links) == 1:
            link = links[0]
        else:
            link = links[0]
            for candidate in links:
                if candidate.next_free < link.next_free:
                    link = candidate
        next_free = link.next_free
        start = data_ready if data_ready > next_free else next_free
        link.next_free = start + occupancy
        if multi_core:
            shadow = link.shadow_next_free
            shadow_free = shadow[core]
            shadow_start = data_ready if data_ready > shadow_free else shadow_free
            shadow[core] = shadow_start + occupancy
            response_interference = start - shadow_start
            if response_interference < 0.0:
                response_interference = 0.0
            ring.per_core_interference_cycles[core] += response_interference
            interference += response_interference
        ring.transfers += 2
        completion = start + hop_latency

        latency = completion - original_issue
        pre_llc_latency = latency - post_llc_latency

        counters.sms_loads += 1
        counters.sms_latency_sum += latency
        counters.pre_llc_latency_sum += pre_llc_latency
        counters.post_llc_latency_sum += post_llc_latency
        counters.interference_sum += interference

        # Stashed for the descriptive access() wrapper (single-threaded use).
        self._last_shared_access = (pre_llc_latency, post_llc_latency, row_hit)
        interference_miss = atd_hit if not llc_hit else (
            False if atd_hit is not None else None
        )
        return completion, interference, llc_hit, interference_miss

    # ------------------------------------------------------------------ interval management

    def reset_interval_counters(self, core: int | None = None) -> None:
        """Reset per-interval counters (for one core or all cores).

        ATD stack-distance histograms are deliberately *not* reset here: they
        are consumed (and reset) by the cache-partitioning policies on their
        own repartitioning interval.
        """
        cores = [core] if core is not None else self.active_cores
        for core_id in cores:
            self.counters[core_id].reset()

    def reset_atd_statistics(self, core: int | None = None) -> None:
        """Reset ATD stack-distance histograms (done by partitioning policies)."""
        cores = [core] if core is not None else self.active_cores
        for core_id in cores:
            self.atds[core_id].reset_statistics()

    def miss_curve(self, core: int):
        """The core's private-mode LLC miss curve accumulated since the last ATD reset."""
        return self.atds[core].miss_curve()
