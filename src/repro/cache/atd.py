"""Auxiliary Tag Directories (ATDs) with set sampling.

An ATD tracks, for one core, the tag state the shared LLC *would* have if that
core had exclusive use of the cache.  It serves two purposes in the paper:

1. producing private-mode miss curves for the partitioning policies
   (UCP, ASM-driven partitioning and MCP), and
2. identifying *interference misses* — accesses that hit in the ATD but miss
   in the shared cache — which DIEF uses to estimate the LLC component of the
   private-mode latency.

Storing full tag directories per core is expensive, so the paper (following
Qureshi et al.) samples a subset of sets and assumes they are representative.
"""

from __future__ import annotations

from repro.cache.miss_curve import MissCurve
from repro.errors import ConfigurationError
from repro.config import CacheConfig

__all__ = ["AuxiliaryTagDirectory"]


class AuxiliaryTagDirectory:
    """Per-core sampled LRU tag directory for the shared LLC."""

    def __init__(self, llc_config: CacheConfig, sampled_sets: int = 32, core: int = 0):
        llc_config.validate()
        if sampled_sets <= 0:
            raise ConfigurationError("the ATD must sample at least one set")
        self.core = core
        self.config = llc_config
        self.num_llc_sets = llc_config.num_sets
        self.associativity = llc_config.associativity
        self.line_bytes = llc_config.line_bytes
        self.sampled_sets = min(sampled_sets, self.num_llc_sets)
        # Sample sets at a regular stride so the sample spans the whole index
        # space (simple static set sampling).  Membership is the pure
        # arithmetic test ``index % stride == 0 and index // stride <
        # sampled_sets``; it is materialised once into a dense slot table so
        # the per-access hot path (here and inlined in
        # repro.mem.hierarchy.shared_load) is a single branch-free list
        # index instead of a hash lookup.
        stride = max(1, self.num_llc_sets // self.sampled_sets)
        self._stride = stride
        self._slot_by_set = [-1] * self.num_llc_sets
        for slot in range(self.sampled_sets):
            self._slot_by_set[stride * slot] = slot
        # Sampled stacks are stored densely, indexed by ``set_index // stride``
        # (the "slot").  Each stack is an LRU list of tags (index 0 = MRU).
        self._stacks: list[list[int]] = [[] for _ in range(self.sampled_sets)]
        # Kept for introspection and tests; the hot path never consults it.
        self._sampled_indices = frozenset(stride * i for i in range(self.sampled_sets))
        # Shift/mask address decomposition for power-of-two geometry, with a
        # divmod fallback (mirrors SetAssociativeCache).
        self._line_shift = self.line_bytes.bit_length() - 1
        if self.num_llc_sets & (self.num_llc_sets - 1) == 0:
            self._set_mask: int | None = self.num_llc_sets - 1
            self._tag_shift = self._line_shift + (self.num_llc_sets.bit_length() - 1)
        else:
            self._set_mask = None
            self._tag_shift = 0
        self.hit_position_histogram = [0.0] * self.associativity
        self.sampled_misses = 0.0
        self.sampled_accesses = 0.0

    # ------------------------------------------------------------------ geometry

    def set_index(self, address: int) -> int:
        if self._set_mask is not None:
            return (address >> self._line_shift) & self._set_mask
        return (address // self.line_bytes) % self.num_llc_sets

    def tag(self, address: int) -> int:
        if self._set_mask is not None:
            return address >> self._tag_shift
        return address // (self.line_bytes * self.num_llc_sets)

    def stack_for(self, set_index: int) -> list[int] | None:
        """The LRU stack sampling ``set_index``, or None when it is unsampled."""
        slot = self._slot_by_set[set_index]
        if slot < 0:
            return None
        return self._stacks[slot]

    def samples(self, address: int) -> bool:
        """True when the address maps to a sampled set."""
        return self.stack_for(self.set_index(address)) is not None

    @property
    def sampling_factor(self) -> float:
        """Multiplier converting sampled counts into full-cache counts."""
        return self.num_llc_sets / self.sampled_sets

    # ------------------------------------------------------------------ access

    def access(self, address: int) -> bool | None:
        """Record one access by this core.

        Returns True for an ATD hit, False for an ATD miss and None when the
        address does not map to a sampled set (in which case no state changes).
        """
        mask = self._set_mask
        if mask is not None:
            index = (address >> self._line_shift) & mask
        else:
            index = (address // self.line_bytes) % self.num_llc_sets
        stack = self.stack_for(index)
        if stack is None:
            return None
        if mask is not None:
            tag = address >> self._tag_shift
        else:
            tag = address // (self.line_bytes * self.num_llc_sets)
        return self.access_sampled(stack, tag)

    def access_sampled(self, stack: list[int], tag: int) -> bool:
        """Record one access already known to map to the sampled ``stack``.

        Hot-path entry point: the memory hierarchy computes the set index and
        tag once (they are shared with the LLC lookup) and calls this only for
        sampled sets.
        """
        self.sampled_accesses += 1
        try:
            position = stack.index(tag)
        except ValueError:
            self.sampled_misses += 1
            stack.insert(0, tag)
            if len(stack) > self.associativity:
                stack.pop()
            return False
        self.hit_position_histogram[position] += 1
        del stack[position]
        stack.insert(0, tag)
        return True

    def would_hit(self, address: int) -> bool | None:
        """Non-destructive probe: would the private-mode LLC hit this address?"""
        stack = self.stack_for(self.set_index(address))
        if stack is None:
            return None
        return self.tag(address) in stack

    # ------------------------------------------------------------------ miss curves

    def miss_curve(self, scale_to_full_cache: bool = True) -> MissCurve:
        """Return the miss curve accumulated since the last reset."""
        curve = MissCurve.from_hit_histogram(self.hit_position_histogram, self.sampled_misses)
        if scale_to_full_cache:
            return curve.scaled(self.sampling_factor)
        return curve

    def reset_statistics(self) -> None:
        """Clear histogram counters (tag state is retained across intervals)."""
        self.hit_position_histogram = [0.0] * self.associativity
        self.sampled_misses = 0.0
        self.sampled_accesses = 0.0

    def storage_bits(self, tag_bits: int = 28) -> int:
        """Approximate storage cost in bits (used to report the set-sampling saving)."""
        per_line = tag_bits + 1  # tag + valid
        return self.sampled_sets * self.associativity * per_line
