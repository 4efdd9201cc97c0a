"""Instruction traces consumed by the trace-driven core model.

A trace is a flat sequence of instructions.  Each instruction is either a
compute instruction, a load or a store.  Loads carry a byte address and an
optional data dependency on an earlier load (by instruction index), which is
how pointer-chasing and other serialising access patterns are expressed.

Storage is packed: the three per-instruction columns live in ``array``
buffers (one signed byte per kind, one signed 64-bit word per address and
dependency) instead of Python lists.  That cuts the resident size of a trace
by roughly 10x (no per-instruction boxed ints) and, because traces are
pickled into every sweep worker process, cuts the per-task serialisation cost
by a similar factor: pickling an ``array`` copies its raw buffer instead of
walking one object per instruction.  The list-like API — ``len``, indexing,
iteration, slicing and the :class:`TraceBuilder` append protocol — is
unchanged; a pickled trace travels as its name plus the three raw buffers.

:meth:`Trace.private_stream` decodes a trace into one byte per executed
instruction position: compute, long-latency compute, or the private-cache
outcome of a load or store (see :func:`decode_private`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheConfig
from repro.errors import TraceError

__all__ = ["InstrKind", "Outcome", "PrivateStream", "Trace", "TraceBuilder", "decode_private"]

# Column typecodes: kinds fit a signed byte, addresses and dependency indices
# use signed 64-bit words (addresses are byte addresses, deps may be -1).
KIND_TYPECODE = "b"
WORD_TYPECODE = "q"


class InstrKind:
    """Instruction kind encodings used in :class:`Trace` arrays."""

    COMPUTE = 0
    LOAD = 1
    STORE = 2


# Every LONG_OP_PERIOD-th instruction position, when it is a compute
# instruction, is a long-latency operation (e.g. an FP divide).  The choice is
# a deterministic function of the position so shared- and private-mode runs
# stall on the same instructions, as they would in reality.
LONG_OP_PERIOD = 24


class Outcome:
    """Per-position classes of a :class:`PrivateStream`."""

    COMPUTE = 0
    LONG_COMPUTE = 1
    LOAD_L1_HIT = 2
    LOAD_L2_HIT = 3
    LOAD_SMS = 4          # misses L2: visits the shared memory system
    STORE_L1_HIT = 5
    STORE_L1_MISS = 6


class PrivateStream(NamedTuple):
    """A trace decoded against one L1/L2 geometry (see :func:`decode_private`)."""

    classes: bytes
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int


def _as_kind_array(values) -> array:
    return values if isinstance(values, array) and values.typecode == KIND_TYPECODE else array(KIND_TYPECODE, values)


def _as_word_array(values) -> array:
    return values if isinstance(values, array) and values.typecode == WORD_TYPECODE else array(WORD_TYPECODE, values)


def _trace_from_packed(name: str, kinds: bytes, addresses: bytes, deps: bytes) -> "Trace":
    """Rebuild a :class:`Trace` from its packed buffers (pickle entry point)."""
    trace = Trace.__new__(Trace)
    kind_column = array(KIND_TYPECODE)
    kind_column.frombytes(kinds)
    address_column = array(WORD_TYPECODE)
    address_column.frombytes(addresses)
    dep_column = array(WORD_TYPECODE)
    dep_column.frombytes(deps)
    trace.kinds = kind_column
    trace.addresses = address_column
    trace.deps = dep_column
    trace.name = name
    trace._hot = None
    trace._streams = {}
    return trace


def decode_private(trace: "Trace", l1: CacheConfig, l2: CacheConfig,
                   target_instructions: int) -> PrivateStream:
    """Classify the first ``target_instructions`` positions of a run of ``trace``.

    A core's L1 and L2 are unpartitioned LRU caches that only that core
    touches, in program order, with no back-invalidation from the shared
    levels.  Whether a load hits L1, hits L2 or leaves the private memory
    system is therefore a function of the trace alone: it is the same in
    shared, private, ASM-rotated and partitioned runs, at any timing.  The
    decode replays the loads and stores through fresh caches (wrapping past
    the end of the trace the way a core restarts it) and records one
    :class:`Outcome` byte per position, plus the caches' hit/miss totals.
    """
    kinds, addresses, _deps = trace.hot()
    length = len(kinds)
    repeats, tail = divmod(target_instructions, length)
    # Compute positions keep their kind byte (InstrKind.COMPUTE equals
    # Outcome.COMPUTE); every load and store position is overwritten below.
    classes = bytearray(kinds * repeats + kinds[:tail])
    l1_cache = SetAssociativeCache(l1)
    l2_cache = SetAssociativeCache(l2)
    l1_access = l1_cache.access_hit
    l2_access = l2_cache.access_hit
    memory_ops = [
        (offset, kind == InstrKind.STORE, addresses[offset])
        for offset, kind in enumerate(kinds)
        if kind != InstrKind.COMPUTE
    ]
    for start in range(0, target_instructions, length):
        for offset, is_store, address in memory_ops:
            position = start + offset
            if position >= target_instructions:
                break
            if is_store:
                # A store miss allocates in L2 too (for footprint realism).
                if l1_access(address, 0, True):
                    classes[position] = Outcome.STORE_L1_HIT
                else:
                    l2_access(address, 0, True)
                    classes[position] = Outcome.STORE_L1_MISS
            elif l1_access(address):
                classes[position] = Outcome.LOAD_L1_HIT
            elif l2_access(address):
                classes[position] = Outcome.LOAD_L2_HIT
            else:
                classes[position] = Outcome.LOAD_SMS
    for position in range(0, target_instructions, LONG_OP_PERIOD):
        if classes[position] == Outcome.COMPUTE:
            classes[position] = Outcome.LONG_COMPUTE
    return PrivateStream(bytes(classes), l1_cache.hits, l1_cache.misses,
                         l2_cache.hits, l2_cache.misses)


@dataclass
class Trace:
    """A flat instruction trace.

    Attributes
    ----------
    kinds:
        One entry per instruction, an :class:`InstrKind` value
        (``array('b')``; list/tuple inputs are packed on construction).
    addresses:
        Byte address per instruction, 0 for compute instructions
        (``array('q')``).
    deps:
        For loads, the instruction index of the earlier load whose data this
        load's address depends on, or -1 when the address is independent
        (``array('q')``).
    name:
        Human-readable benchmark name.
    """

    kinds: array = field(default_factory=lambda: array(KIND_TYPECODE))
    addresses: array = field(default_factory=lambda: array(WORD_TYPECODE))
    deps: array = field(default_factory=lambda: array(WORD_TYPECODE))
    name: str = "anonymous"

    def __post_init__(self) -> None:
        self.kinds = _as_kind_array(self.kinds)
        self.addresses = _as_word_array(self.addresses)
        self.deps = _as_word_array(self.deps)
        if not (len(self.kinds) == len(self.addresses) == len(self.deps)):
            raise TraceError("trace arrays must have identical lengths")
        self._hot: tuple[bytes, list[int], list[int]] | None = None
        self._streams: dict[tuple, PrivateStream] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    def __reduce__(self):
        # Pickle through the packed wire form: three buffer copies instead of
        # one object per instruction (the dominant cost of shipping tasks to
        # sweep workers before traces were packed).
        return (
            _trace_from_packed,
            (self.name, self.kinds.tobytes(), self.addresses.tobytes(), self.deps.tobytes()),
        )

    def hot(self) -> tuple[bytes, list[int], list[int]]:
        """Unboxed (kinds, addresses, deps) columns for the simulation kernel.

        Indexing an ``array`` re-boxes the value on every access, which is
        measurable in the per-instruction loop; the kernel instead reads a
        ``bytes`` view of the kinds and plain-list views of the addresses and
        dependencies, built once per trace per process and cached (traces are
        read-only once built).  Everything else — storage, pickling, the
        public columns — stays packed.
        """
        hot = self._hot
        if hot is None:
            hot = (self.kinds.tobytes(), self.addresses.tolist(), self.deps.tolist())
            self._hot = hot
        return hot

    def private_stream(self, l1: CacheConfig, l2: CacheConfig,
                       target_instructions: int) -> PrivateStream:
        """:func:`decode_private` of this trace, memoised per process like :meth:`hot`.

        Every run of a sweep cell (shared, ASM-rotated, private and
        partitioned) replays the same positions through the same private
        caches, so they all share one decode.  Never pickled.
        """
        key = (l1, l2, target_instructions)
        stream = self._streams.get(key)
        if stream is None:
            stream = decode_private(self, l1, l2, target_instructions)
            self._streams[key] = stream
        return stream

    @property
    def num_instructions(self) -> int:
        return len(self.kinds)

    @property
    def num_loads(self) -> int:
        return self.kinds.count(InstrKind.LOAD)

    @property
    def num_stores(self) -> int:
        return self.kinds.count(InstrKind.STORE)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TraceError` on violation."""
        for index, (kind, dep) in enumerate(zip(self.kinds, self.deps)):
            if kind not in (InstrKind.COMPUTE, InstrKind.LOAD, InstrKind.STORE):
                raise TraceError(f"instruction {index} has unknown kind {kind}")
            if dep >= index:
                raise TraceError(f"instruction {index} depends on a later instruction {dep}")
            if dep >= 0 and self.kinds[dep] != InstrKind.LOAD:
                raise TraceError(f"instruction {index} depends on a non-load instruction {dep}")
            if kind != InstrKind.LOAD and dep != -1:
                raise TraceError(f"non-load instruction {index} cannot carry a dependency")

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a sub-trace covering instructions ``[start, stop)``.

        Load dependencies that point before ``start`` are dropped (turned into
        independent loads), mirroring what a checkpoint boundary does.
        """
        if not (0 <= start <= stop <= len(self)):
            raise TraceError(f"invalid slice [{start}, {stop}) of trace with {len(self)} instructions")
        deps = array(WORD_TYPECODE)
        for index in range(start, stop):
            dep = self.deps[index]
            deps.append(dep - start if dep >= start else -1)
        return Trace(
            kinds=self.kinds[start:stop],
            addresses=self.addresses[start:stop],
            deps=deps,
            name=self.name,
        )

    def repeated(self, times: int) -> "Trace":
        """Return the trace concatenated with itself ``times`` times.

        Used to restart a benchmark when it reaches the end of its
        instruction sample (as the paper does for multi-programmed runs).
        """
        if times <= 0:
            raise TraceError("repeat count must be positive")
        result = TraceBuilder(name=self.name)
        for _ in range(times):
            offset = len(result)
            for index in range(len(self)):
                dep = self.deps[index]
                result.kinds.append(self.kinds[index])
                result.addresses.append(self.addresses[index])
                result.deps.append(dep + offset if dep >= 0 else -1)
        return result.build()

    def load_addresses(self) -> list[int]:
        """Return the addresses of all loads, in program order."""
        return [
            address
            for kind, address in zip(self.kinds, self.addresses)
            if kind == InstrKind.LOAD
        ]

    def memory_intensity(self) -> float:
        """Fraction of instructions that are loads or stores."""
        if not self.kinds:
            return 0.0
        memory_ops = len(self.kinds) - self.kinds.count(InstrKind.COMPUTE)
        return memory_ops / len(self.kinds)


@lru_cache(maxsize=256)
def _compute_fillers(count: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Cached (kinds, addresses, deps) filler tuples for compute blocks.

    Generators append millions of short compute runs; reusing immutable
    filler tuples avoids three throwaway allocations per block.
    """
    return (
        (InstrKind.COMPUTE,) * count,
        (0,) * count,
        (-1,) * count,
    )


class TraceBuilder:
    """Incremental construction of a :class:`Trace`.

    The builder appends straight into packed ``array`` columns, so building a
    trace never materialises per-instruction Python objects; generators that
    inline the appends (``repro.workloads.synthetic``) get the same
    ``append``/``extend`` protocol lists offered.
    """

    def __init__(self, name: str = "anonymous"):
        self.name = name
        self.kinds: array = array(KIND_TYPECODE)
        self.addresses: array = array(WORD_TYPECODE)
        self.deps: array = array(WORD_TYPECODE)

    def __len__(self) -> int:
        return len(self.kinds)

    def add_compute(self, count: int = 1) -> None:
        """Append ``count`` compute instructions."""
        if count < 0:
            raise TraceError("compute count cannot be negative")
        fillers = _compute_fillers(count)
        self.kinds.extend(fillers[0])
        self.addresses.extend(fillers[1])
        self.deps.extend(fillers[2])

    def add_load(self, address: int, depends_on: int | None = None) -> int:
        """Append a load and return its instruction index."""
        index = len(self.kinds)
        if depends_on is not None and not (0 <= depends_on < index):
            raise TraceError(f"load dependency {depends_on} out of range at index {index}")
        self.kinds.append(InstrKind.LOAD)
        self.addresses.append(address)
        self.deps.append(depends_on if depends_on is not None else -1)
        return index

    def add_store(self, address: int) -> int:
        """Append a store and return its instruction index."""
        index = len(self.kinds)
        self.kinds.append(InstrKind.STORE)
        self.addresses.append(address)
        self.deps.append(-1)
        return index

    def build(self, validate: bool = True) -> Trace:
        """Return the built trace, validating it unless ``validate`` is False.

        Generators whose output is valid by construction (the synthetic
        benchmark patterns) pass ``validate=False``: the check is a full
        O(n) pass per trace and shows up in experiment setup time.
        """
        trace = Trace(
            kinds=array(KIND_TYPECODE, self.kinds),
            addresses=array(WORD_TYPECODE, self.addresses),
            deps=array(WORD_TYPECODE, self.deps),
            name=self.name,
        )
        if validate:
            trace.validate()
        return trace
