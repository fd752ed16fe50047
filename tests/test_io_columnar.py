"""ColumnTrace: lossless conversion, zero-copy slicing, Trace parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TraceFormatError
from repro.io import ColumnTrace, Trace, TraceRecord

record_strategy = st.builds(
    TraceRecord,
    timestamp_us=st.integers(min_value=0, max_value=10_000_000),
    can_id=st.integers(min_value=0, max_value=0x7FF),
    data=st.binary(max_size=8),
    extended=st.booleans(),
    source=st.sampled_from(["", "ecu_a", "ecu_b", "attacker"]),
    is_attack=st.booleans(),
)


def trace_strategy(min_size=0, max_size=40):
    return st.lists(record_strategy, min_size=min_size, max_size=max_size).map(
        lambda records: Trace(sorted(records, key=lambda r: r.timestamp_us))
    )


class TestConversion:
    @settings(max_examples=60, deadline=None)
    @given(trace_strategy())
    def test_round_trip_is_lossless(self, trace):
        assert ColumnTrace.from_trace(trace).to_trace() == trace

    @settings(max_examples=30, deadline=None)
    @given(trace_strategy())
    def test_to_columns_matches_from_trace(self, trace):
        assert trace.to_columns() == ColumnTrace.from_trace(trace)

    def test_empty(self):
        ct = ColumnTrace.from_trace(Trace())
        assert len(ct) == 0
        assert ct.to_trace() == Trace()
        assert ct.start_us == ct.end_us == ct.duration_us == 0
        assert ct.attack_count == 0
        assert list(ct.time_windows(100)) == []
        assert ct.id_histogram() == {}

    def test_coerce_passes_columnar_through(self):
        ct = ColumnTrace.from_trace(Trace([TraceRecord(0, 1)]))
        assert ColumnTrace.coerce(ct) is ct
        assert ColumnTrace.coerce(Trace([TraceRecord(0, 1)])) == ct

    def test_sources_are_interned(self):
        trace = Trace(
            [TraceRecord(i, 1, source="ecu_a" if i % 2 else "ecu_b") for i in range(10)]
        )
        ct = trace.to_columns()
        assert sorted(ct.source_table) == ["ecu_a", "ecu_b"]
        assert ct.sources() == [r.source for r in trace]


class TestAccessors:
    @settings(max_examples=30, deadline=None)
    @given(trace_strategy(min_size=1))
    def test_scalar_properties_match_trace(self, trace):
        ct = trace.to_columns()
        assert ct.start_us == trace.start_us
        assert ct.end_us == trace.end_us
        assert ct.duration_us == trace.duration_us
        assert ct.attack_count == trace.attack_count
        assert ct.message_rate_hz() == trace.message_rate_hz()
        assert ct.id_histogram() == trace.id_histogram()

    @settings(max_examples=30, deadline=None)
    @given(trace_strategy())
    def test_array_accessors_match_trace(self, trace):
        ct = trace.to_columns()
        assert np.array_equal(ct.ids(), trace.ids())
        assert np.array_equal(ct.timestamps_us(), trace.timestamps_us())
        assert np.array_equal(ct.attack_mask(), trace.attack_mask())
        assert np.array_equal(ct.unique_ids(), trace.unique_ids())
        assert np.array_equal(ct.dlc, [r.dlc for r in trace])


class TestSlicing:
    @settings(max_examples=40, deadline=None)
    @given(
        trace_strategy(min_size=1),
        st.integers(min_value=0, max_value=10_000_000),
        st.integers(min_value=0, max_value=10_000_000),
    )
    def test_between_matches_trace(self, trace, a, b):
        lo, hi = min(a, b), max(a, b)
        assert trace.to_columns().between(lo, hi).to_trace() == trace.between(lo, hi)

    def test_slices_are_views(self):
        trace = Trace([TraceRecord(i * 10, i + 1, bytes([i])) for i in range(8)])
        ct = trace.to_columns()
        window = ct.slice(2, 6)
        assert window.timestamp_us.base is not None  # a view, not a copy
        assert window.to_trace() == trace[2:6]
        assert ct[2:6] == window

    def test_filters_match_trace(self):
        trace = Trace(
            [TraceRecord(i, i % 5, is_attack=i % 3 == 0) for i in range(30)]
        )
        ct = trace.to_columns()
        assert ct.only_attacks().to_trace() == trace.only_attacks()
        assert ct.without_attacks().to_trace() == trace.without_attacks()
        assert ct.shifted(500).to_trace() == trace.shifted(500)

    def test_merge_matches_trace_merge(self):
        a = Trace([TraceRecord(i * 7, 1, b"\x01", source="a") for i in range(10)])
        b = Trace([TraceRecord(i * 11, 2, b"\x02\x03", source="b") for i in range(8)])
        merged = ColumnTrace.merge(a.to_columns(), b.to_columns())
        assert merged.to_trace() == Trace.merge(a, b)


class TestWindowing:
    @settings(max_examples=40, deadline=None)
    @given(trace_strategy(min_size=1), st.data())
    def test_time_windows_match_trace(self, trace, data):
        # Both implementations yield every empty window, so the window
        # is at least duration/10_000: no example walks more than ~10k
        # windows, and window_us = 1 stays reachable on short traces.
        window_us = data.draw(
            st.integers(
                min_value=max(1, trace.duration_us // 10_000),
                max_value=2_000_000,
            ),
            label="window_us",
        )
        record_windows = [list(w) for w in trace.time_windows(window_us)]
        column_windows = [
            list(w.iter_records()) for w in trace.to_columns().time_windows(window_us)
        ]
        assert record_windows == column_windows

    def test_window_segments_skip_empty_windows(self):
        trace = Trace([TraceRecord(t, 1) for t in (0, 5, 10, 45, 47, 90)])
        grid, starts, ends = trace.to_columns().window_segments(10)
        assert list(grid) == [0, 1, 4, 9]
        assert list(starts) == [0, 2, 3, 5]
        assert list(ends) == [2, 3, 5, 6]

    def test_window_segments_rejects_bad_window(self):
        with pytest.raises(ValueError):
            Trace([TraceRecord(0, 1)]).to_columns().window_segments(0)


class TestValidation:
    def test_rejects_unsorted_timestamps(self):
        with pytest.raises(TraceFormatError):
            ColumnTrace([5, 1], [1, 2])

    def test_rejects_mismatched_columns(self):
        with pytest.raises(TraceFormatError):
            ColumnTrace([1, 2], [1])

    def test_rejects_bad_offsets(self):
        with pytest.raises(TraceFormatError):
            ColumnTrace([1, 2], [1, 2], payload_offsets=[0, 4, 9])

    def test_rejects_bad_source_codes(self):
        with pytest.raises(TraceFormatError):
            ColumnTrace([1], [1], source_code=[3], source_table=("",))


class TestBusTagging:
    """The multi-bus fan-in extension: per-record bus labels that
    survive slicing, filtering and merging (and are dropped, documented,
    by to_trace)."""

    def make(self, n=10, offset=0):
        return Trace(
            TraceRecord(offset + i * 100, 0x100 + i % 4, source=f"s{i % 2}")
            for i in range(n)
        ).to_columns()

    def test_with_bus_tags_every_record(self):
        tagged = self.make().with_bus("ms")
        assert tagged.bus_labels() == ("ms",)
        assert tagged.buses() == ["ms"] * 10

    def test_untagged_default_is_blank(self):
        ct = self.make()
        assert ct.bus_table == ("",)
        assert ct.bus_labels() == ("",)

    def test_empty_bus_label_rejected(self):
        with pytest.raises(TraceFormatError):
            self.make().with_bus("")

    def test_merge_preserves_labels(self):
        fused = ColumnTrace.merge(
            self.make(offset=0).with_bus("hs"),
            self.make(offset=50).with_bus("ms"),
        )
        assert sorted(fused.bus_labels()) == ["hs", "ms"]
        assert len(fused.for_bus("hs")) == 10
        assert fused.for_bus("ms") == self.make(offset=50).with_bus("ms")

    def test_for_bus_unknown_label_rejected(self):
        with pytest.raises(TraceFormatError, match="not present"):
            self.make().with_bus("hs").for_bus("ms")

    def test_slices_and_takes_keep_tags(self):
        fused = ColumnTrace.merge(
            self.make(offset=0).with_bus("hs"),
            self.make(offset=50).with_bus("ms"),
        )
        window = fused.slice(3, 12)
        assert set(window.buses()) <= {"hs", "ms"}
        picked = fused.take(np.arange(0, len(fused), 2))
        assert len(picked.buses()) == len(picked)

    def test_equality_compares_decoded_labels(self):
        a = self.make().with_bus("hs")
        b = self.make().with_bus("ms")
        assert a != b
        assert a == self.make().with_bus("hs")

    def test_to_trace_drops_tags(self):
        tagged = self.make().with_bus("hs")
        assert tagged.to_trace() == self.make().to_trace()


class TestMergeValidation:
    """merge must reject malformed parts with TraceFormatError, never a
    numpy broadcast error."""

    def make(self):
        return Trace(
            TraceRecord(i * 10, 0x100, data=b"ab") for i in range(5)
        ).to_columns()

    def test_rejects_non_columntrace(self):
        with pytest.raises(TraceFormatError, match="ColumnTrace"):
            ColumnTrace.merge(self.make(), "nope")

    def test_rejects_ragged_columns(self):
        good = self.make()
        ragged = ColumnTrace(
            good.timestamp_us, good.can_id[:2], validate=False
        )
        with pytest.raises(TraceFormatError, match="rows"):
            ColumnTrace.merge(good, ragged)

    def test_rejects_wrong_dtype(self):
        good = self.make()
        bad = ColumnTrace(good.timestamp_us, good.can_id, validate=False)
        bad.can_id = bad.can_id.astype(np.float64)
        with pytest.raises(TraceFormatError, match="dtype"):
            ColumnTrace.merge(good, bad)

    def test_rejects_bad_offsets_shape(self):
        good = self.make()
        bad = ColumnTrace(
            good.timestamp_us,
            good.can_id,
            payload=good.payload,
            payload_offsets=good.payload_offsets[:-2],
            validate=False,
        )
        with pytest.raises(TraceFormatError, match="payload_offsets"):
            ColumnTrace.merge(good, bad)

    def test_rejects_two_dimensional_column(self):
        good = self.make()
        bad = ColumnTrace(good.timestamp_us, good.can_id, validate=False)
        bad.is_attack = np.zeros((len(good), 2), dtype=bool)
        with pytest.raises(TraceFormatError, match="1-D"):
            ColumnTrace.merge(good, bad)
