"""Trace-driven out-of-order core model.

The model is interval-style: every instruction gets a dispatch time, a ready
time and a commit time with O(1) work, which reproduces the behaviour the
paper's accounting techniques depend on without cycle-stepping:

* in-order commit at the pipeline width, with commit stalls whenever the
  instruction at the head of the ROB (modelled through the commit stream) is a
  load whose data has not returned;
* memory-level parallelism: independent loads overlap, loads with data
  dependencies serialise;
* ROB-occupancy back-pressure: dispatch of instruction *i* cannot overtake the
  commit of instruction *i - ROB_entries*;
* MSHR limits via the memory hierarchy.

The core records the event stream (L1-miss loads, commit stalls) that the
accounting layer replays, and buckets statistics per estimate interval.

The per-instruction work is done inside :meth:`OutOfOrderCore.step_until`,
a batched loop that keeps all mutable state in local variables and only
writes it back when the batch ends (at a co-simulation deadline, a periodic
hook boundary, or completion).  :meth:`step` is a one-instruction batch.

The loop reads each position's class from the trace's decoded
:class:`~repro.workloads.trace.PrivateStream`: the private L1/L2 outcome of
every load and store is fixed by the trace alone, so compute instructions and
L1-hit loads never leave the loop, L2-hit loads only book an MSHR, and only
SMS loads and L1-missing stores call into the :class:`MemoryHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop as _heappop, heappush as _heappush

from repro.cpu.events import CommitStall, IntervalStats, LoadRecord, StallCause, annotate_overlap
from repro.errors import SimulationError
from repro.mem.hierarchy import MemoryHierarchy
from repro.config import CMPConfig
from repro.workloads.trace import Outcome, Trace

__all__ = ["CoreProgress", "OutOfOrderCore"]

# Latency of the long-latency compute positions (Outcome.LONG_COMPUTE).
_LONG_OP_LATENCY = 12

_INFINITY = float("inf")


@dataclass(frozen=True)
class CoreProgress:
    """Summary of a core's progress, used by the co-simulation scheduler."""

    core: int
    committed_instructions: int
    current_time: float
    finished: bool


class OutOfOrderCore:
    """One processor core executing a trace against a memory hierarchy.

    The core's private L1 and L2 must be cold and driven by this core alone
    (:class:`~repro.sim.system.CMPSystem` builds a fresh hierarchy per run):
    their outcomes come from the trace's decoded private stream, not from the
    caches.  After a run only the L1/L2 ``hits``/``misses`` counters are
    maintained (credited when the core finishes), not their line contents.
    """

    def __init__(self, core_id: int, trace: Trace, config: CMPConfig,
                 hierarchy: MemoryHierarchy, target_instructions: int | None = None,
                 interval_instructions: int | None = None, record_events: bool = True):
        if len(trace) == 0:
            raise SimulationError("cannot run an empty trace")
        l1 = hierarchy.l1[core_id]
        l2 = hierarchy.l2[core_id]
        if l1._use_counter or l2._use_counter:
            raise SimulationError(
                f"core {core_id}'s private caches were already accessed; "
                "the decoded private stream assumes cold caches"
            )
        self.core_id = core_id
        # When False, per-event records (LoadRecord / CommitStall lists) are
        # not materialised: all timing, stall-cycle sums, hierarchy counters
        # and per-epoch buckets are still maintained, so results that read
        # only aggregates are bit-identical.  Ground-truth private-mode runs
        # and policies that act on aggregates use this to skip a large
        # allocation cost.
        self.record_events = record_events
        self.trace = trace
        self.config = config
        self.hierarchy = hierarchy
        self.target_instructions = target_instructions or len(trace)
        self._stream = trace.private_stream(l1.config, l2.config, self.target_instructions)
        self.interval_instructions = (
            interval_instructions or config.accounting.estimate_interval_instructions
        )
        self.epoch_cycles = config.accounting.asm_epoch_cycles

        width = config.core.width
        self._dispatch_interval = 1.0 / width
        self._commit_interval = 1.0 / width
        self._rob_entries = config.core.rob_entries
        self._compute_latency = float(config.core.compute_latency)

        # Rolling commit-time window used for the ROB-occupancy constraint.
        self._commit_window = [0.0] * self._rob_entries
        self._last_dispatch = 0.0
        self._last_commit = 0.0
        self._trace_position = 0
        self._committed = 0
        # Completion time of recent loads, for load-to-load dependencies.
        # A fixed-size ring keyed by ``position % ring_size``; each slot
        # remembers which absolute trace position it holds so stale entries
        # are detected on lookup instead of being pruned eagerly.
        self._dep_ring_size = 4 * self._rob_entries
        self._dep_ring_position = [-1] * self._dep_ring_size
        self._dep_ring_completion = [0.0] * self._dep_ring_size

        self.intervals: list[IntervalStats] = []
        self._interval = self._new_interval(index=0, start_time=0.0)
        self.finished = False

    # ------------------------------------------------------------------ public API

    def progress(self) -> CoreProgress:
        return CoreProgress(
            core=self.core_id,
            committed_instructions=self._committed,
            current_time=self._last_commit,
            finished=self.finished,
        )

    @property
    def committed_instructions(self) -> int:
        return self._committed

    @property
    def current_time(self) -> float:
        return self._last_commit

    def next_event_time(self) -> float:
        """Estimated time of the next instruction's dispatch (for co-sim ordering)."""
        oldest_commit = self._commit_window[self._trace_position % self._rob_entries]
        return max(self._last_dispatch + self._dispatch_interval, oldest_commit)

    def step(self) -> None:
        """Process one instruction."""
        self.step_until(max_instructions=1)

    # ------------------------------------------------------------------ simulation kernel

    def step_until(self, time_limit: float = _INFINITY, hook_limit: float = _INFINITY,
                   max_instructions: int | None = None) -> None:
        """Process instructions in a tight batch.

        At least one instruction is processed (matching the behaviour of the
        former one-instruction ``step`` under the co-simulation heap); the
        batch then continues while the next dispatch estimate stays below
        ``time_limit`` and the commit time stays below ``hook_limit`` (the
        next periodic-hook boundary).  All per-instruction state lives in
        locals and is written back once when the batch ends.
        """
        if self.finished:
            return
        # ---- hoist instance state into locals (the entire point of batching)
        # Unboxed column views: indexing the packed arrays directly would
        # re-box one int per access in this per-instruction loop.
        _kinds, addresses, deps = self.trace.hot()
        trace_length = len(addresses)
        classes = self._stream.classes
        dispatch_interval = self._dispatch_interval
        commit_interval = self._commit_interval
        rob_entries = self._rob_entries
        compute_latency = self._compute_latency
        long_latency = float(_LONG_OP_LATENCY)
        commit_window = self._commit_window
        last_dispatch = self._last_dispatch
        last_commit = self._last_commit
        position = self._trace_position
        committed = self._committed
        interval_instructions = self.interval_instructions
        target = self.target_instructions
        epoch_cycles = self.epoch_cycles
        core_id = self.core_id
        hierarchy = self.hierarchy
        shared_load = hierarchy.shared_load
        store_miss = hierarchy.store_miss
        l1_latency = hierarchy._l1_latency
        l2_latency = hierarchy._l2_latency
        mshr = hierarchy.l1_mshrs[core_id]
        outstanding = mshr._outstanding
        mshr_entries = mshr.entries
        ring_size = self._dep_ring_size
        ring_position = self._dep_ring_position
        ring_completion = self._dep_ring_completion
        recording = self.record_events
        interval = self._interval
        interval_loads = interval.loads
        interval_stalls = interval.stalls
        cause_sms = StallCause.SMS_LOAD
        cause_pms = StallCause.PMS_LOAD
        cause_independent = StallCause.INDEPENDENT
        cause_other = StallCause.OTHER
        outcome_compute = Outcome.COMPUTE
        outcome_long_compute = Outcome.LONG_COMPUTE
        outcome_l1_hit = Outcome.LOAD_L1_HIT
        outcome_sms = Outcome.LOAD_SMS
        outcome_store_hit = Outcome.STORE_L1_HIT
        # Epoch bucketing cache: consecutive commits usually land in the same
        # ASM epoch, so batch the per-epoch instruction count locally and
        # flush it into the interval dict when the epoch (or batch) ends.
        epoch_index = -1
        epoch_count = 0
        epoch_boundary = 0.0
        window_index = position % rob_entries
        # Counters replacing per-instruction modulo arithmetic.  ``committed``
        # and ``position`` always advance in lockstep, so the loop tracks only
        # ``position`` and recovers the commit count from the fixed offset.
        interval_countdown = interval_instructions - (committed % interval_instructions)
        position_offset = position - committed
        start_position = position
        stop_position = position_offset + target
        max_stop = position + max_instructions if max_instructions is not None else -1
        finished = False

        while True:
            dispatch = last_dispatch + dispatch_interval
            oldest_commit = commit_window[window_index]
            if oldest_commit > dispatch:
                dispatch = oldest_commit
            if dispatch >= time_limit and position != start_position:
                break
            outcome = classes[position]
            if outcome == outcome_compute:
                ready = dispatch + compute_latency
            elif outcome == outcome_long_compute:
                ready = dispatch + long_latency
            elif outcome >= outcome_store_hit:
                # The store buffer hides store latency from commit; an L1 miss
                # still fills the shared levels through the hierarchy.
                if outcome != outcome_store_hit:
                    store_miss(core_id, addresses[position % trace_length])
                ready = dispatch + compute_latency
            else:  # load
                offset = position % trace_length
                issue = dispatch
                dep = deps[offset]
                if dep >= 0:
                    # Dependencies refer to positions in the (possibly
                    # repeated) trace; map them into the current repetition,
                    # falling back to the previous one around a restart.
                    candidate = position - offset + dep
                    slot = candidate % ring_size
                    if ring_position[slot] == candidate:
                        dep_completion = ring_completion[slot]
                        if dep_completion > issue:
                            issue = dep_completion
                    else:
                        candidate -= trace_length
                        if candidate >= 0:
                            slot = candidate % ring_size
                            if ring_position[slot] == candidate:
                                dep_completion = ring_completion[slot]
                                if dep_completion > issue:
                                    issue = dep_completion
                if outcome == outcome_l1_hit:
                    # L1 hits never enter the PRB and cannot cause visible
                    # SMS stalls.
                    ready = issue + l1_latency
                    record = None
                else:
                    # L1 miss: wait for a free MSHR (MSHRFile.acquire_time
                    # and allocate, inlined), then L2 or the shared levels.
                    address = addresses[offset]
                    while outstanding and outstanding[0][0] <= issue:
                        _heappop(outstanding)
                    if len(outstanding) < mshr_entries:
                        ready = issue
                    else:
                        earliest = outstanding[0][0]
                        ready = earliest if earliest > issue else issue
                    ready = ready + l1_latency + l2_latency
                    if outcome == outcome_sms:
                        ready, interference, llc_hit, interference_miss = shared_load(
                            core_id, address, ready, issue
                        )
                    else:
                        interference = 0.0
                        llc_hit = False
                        interference_miss = None
                    if len(outstanding) >= mshr_entries:
                        _heappop(outstanding)
                    _heappush(outstanding, (ready, address))
                    record = None
                    if recording:
                        record = LoadRecord(
                            instr_index=position,
                            address=address,
                            issue_time=issue,
                            completion_time=ready,
                            is_sms=outcome == outcome_sms,
                            latency=ready - issue,
                            interference_cycles=interference,
                            llc_hit=llc_hit,
                            interference_miss=interference_miss,
                        )
                        interval_loads.append(record)
                slot = position % ring_size
                ring_position[slot] = position
                ring_completion[slot] = ready

            # ---- commit (in-order, at the pipeline width)
            earliest = last_commit + commit_interval
            if ready > earliest:
                commit_time = ready
                gap = commit_time - earliest
                if gap > 1e-9:
                    # The portion of the gap beyond the pipelined commit rate
                    # is a stall; attribute it to the blocking instruction.
                    # (Stalls are rare relative to commits, so the cause is
                    # derived here from the position's class instead of being
                    # tracked on every instruction.)
                    if outcome <= outcome_long_compute:
                        interval.stall_independent += gap
                        cause = cause_independent
                        stall_record = None
                    elif outcome >= outcome_store_hit:
                        interval.stall_other += gap
                        cause = cause_other
                        stall_record = None
                    elif outcome == outcome_sms:
                        interval.stall_sms += gap
                        cause = cause_sms
                        stall_record = record
                    else:
                        interval.stall_pms += gap
                        cause = cause_pms
                        stall_record = record
                    stall_epoch = int(earliest // epoch_cycles)
                    buckets = interval.epoch_stall_cycles
                    buckets[stall_epoch] = buckets.get(stall_epoch, 0.0) + gap
                    if recording:
                        interval_stalls.append(CommitStall(
                            start=earliest,
                            end=commit_time,
                            cause=cause,
                            load_address=stall_record.address if stall_record is not None else None,
                            load_is_sms=stall_record.is_sms if stall_record is not None else False,
                        ))
                        if stall_record is not None:
                            stall_record.caused_stall = True
                            stall_record.stall_start = earliest
                            stall_record.stall_end = commit_time
            else:
                commit_time = earliest
            last_dispatch = dispatch
            last_commit = commit_time
            commit_window[window_index] = commit_time
            # Commit times are monotonic, so the epoch only moves forward;
            # recompute the division only when the cached boundary is crossed.
            if epoch_index >= 0 and commit_time < epoch_boundary:
                epoch = epoch_index
                epoch_count += 1
            else:
                epoch = int(commit_time // epoch_cycles)
                if epoch_count:
                    buckets = interval.epoch_instructions
                    buckets[epoch_index] = buckets.get(epoch_index, 0) + epoch_count
                epoch_index = epoch
                epoch_boundary = (epoch + 1) * epoch_cycles
                epoch_count = 1
            if outcome == outcome_sms:
                buckets = interval.epoch_sms_accesses
                buckets[epoch] = buckets.get(epoch, 0) + 1

            position += 1
            window_index += 1
            if window_index == rob_entries:
                window_index = 0
            interval_countdown -= 1

            if interval_countdown == 0:
                interval_countdown = interval_instructions
                if epoch_count:
                    buckets = interval.epoch_instructions
                    buckets[epoch_index] = buckets.get(epoch_index, 0) + epoch_count
                    epoch_index = -1
                    epoch_count = 0
                self._last_commit = last_commit
                self._trace_position = position
                self._committed = position - position_offset
                self._close_interval()
                interval = self._interval
                interval_loads = interval.loads
                interval_stalls = interval.stalls
            if position == stop_position:
                finished = True
                break
            if last_commit >= hook_limit:
                break
            if position == max_stop:
                break

        # ---- write locals back
        if epoch_count:
            buckets = interval.epoch_instructions
            buckets[epoch_index] = buckets.get(epoch_index, 0) + epoch_count
        self._last_dispatch = last_dispatch
        self._last_commit = last_commit
        self._trace_position = position
        self._committed = position - position_offset
        if finished:
            self._finish()

    # ------------------------------------------------------------------ intervals

    def _new_interval(self, index: int, start_time: float) -> IntervalStats:
        self.hierarchy.reset_interval_counters(self.core_id)
        return IntervalStats(
            core=self.core_id,
            index=index,
            start_time=start_time,
            end_time=start_time,
            instructions=0,
            commit_cycles=0.0,
            stall_sms=0.0,
            stall_pms=0.0,
            stall_independent=0.0,
            stall_other=0.0,
        )

    def _append_interval(self, instructions: int) -> IntervalStats:
        """Snapshot the hierarchy counters into the open interval and append it."""
        interval = self._interval
        interval.end_time = self._last_commit
        interval.instructions = instructions
        interval.commit_cycles = max(0.0, interval.total_cycles - interval.stall_cycles)
        counters = self.hierarchy.counters[self.core_id]
        interval.sms_loads = counters.sms_loads
        interval.sms_latency_sum = counters.sms_latency_sum
        interval.pre_llc_latency_sum = counters.pre_llc_latency_sum
        interval.post_llc_latency_sum = counters.post_llc_latency_sum
        interval.interference_sum = counters.interference_sum
        interval.interference_miss_penalty_sum = counters.interference_miss_penalty_sum
        interval.dram_interference_sum = counters.dram_interference_sum
        interval.llc_accesses = counters.llc_accesses
        interval.llc_misses = counters.llc_misses
        interval.interference_misses = counters.interference_misses
        interval.sampled_llc_misses = counters.sampled_llc_misses
        annotate_overlap(interval.loads, interval.stalls)
        self.intervals.append(interval)
        return interval

    def _close_interval(self) -> None:
        interval = self._append_interval(self.interval_instructions)
        self._interval = self._new_interval(index=interval.index + 1, start_time=self._last_commit)

    def _finish(self) -> None:
        # Close a trailing partial interval if it contains any instructions.
        remainder = self._committed % self.interval_instructions
        if remainder:
            self._append_interval(remainder)
        # The private caches were decoded, not simulated: credit their totals.
        stream = self._stream
        l1 = self.hierarchy.l1[self.core_id]
        l2 = self.hierarchy.l2[self.core_id]
        l1.hits += stream.l1_hits
        l1.misses += stream.l1_misses
        l2.hits += stream.l2_hits
        l2.misses += stream.l2_misses
        self.finished = True

    # ------------------------------------------------------------------ aggregate statistics

    @property
    def total_cycles(self) -> float:
        return self._last_commit

    @property
    def cpi(self) -> float:
        return self._last_commit / self._committed if self._committed else 0.0

    @property
    def ipc(self) -> float:
        return self._committed / self._last_commit if self._last_commit else 0.0
