"""The latency lists behind :class:`LatencyTally`.

Tally ``merge`` must match the flat concatenation element-exactly, and
the summary must read percentiles off the lists it holds.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import LatencyTally, percentile_summary


ZERO = {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestPercentileSummary:
    def test_empty_samples_give_zeros(self):
        assert percentile_summary([]) == ZERO
        tally = LatencyTally()
        assert tally.read_percentiles() == ZERO
        assert tally.operation_percentiles() == ZERO

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_linear_interpolation(self, values):
        arr = np.array(values, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        assert percentile_summary(values) == {
            "count": float(len(values)),
            "mean": float(arr.mean()),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
        }

    def test_accepts_any_iterable(self):
        values = [float(i % 13) / 3.0 for i in range(200)]
        expect = percentile_summary(values)
        assert percentile_summary(tuple(values)) == expect
        assert percentile_summary(x for x in values) == expect

    def test_values_are_python_floats(self):
        summary = percentile_summary([0.25, 0.5, 4.0])
        assert all(type(v) is float for v in summary.values())


class TestTallyLists:
    def test_each_tally_owns_its_lists(self):
        a = LatencyTally()
        b = LatencyTally()
        a.read_latencies.append(1.0)
        a.failed_write_latencies.append(2.0)
        assert type(a.read_latencies) is list
        assert b.read_latencies == [] and b.failed_write_latencies == []

    def test_failed_latencies_stay_out_of_operation_percentiles(self):
        tally = LatencyTally()
        tally.read_latencies.extend([1.0, 2.0])
        tally.write_latencies.append(3.0)
        tally.failed_read_latencies.append(100.0)
        tally.failed_write_latencies.append(200.0)
        assert tally.operation_percentiles() == percentile_summary([1.0, 2.0, 3.0])
        summary = tally.summary()
        assert summary["failed_read_latency"]["p50"] == 100.0
        assert summary["failed_write_latency"]["count"] == 1.0


class TestTallyMerge:
    def test_merge_sums_counters_and_round_messages(self):
        a = LatencyTally(reads_attempted=3, reads_succeeded=2, repairs=1)
        a.round_messages.update({"version": 4, "payload": 2})
        b = LatencyTally(reads_attempted=5, reads_succeeded=5, versions_reused=2)
        b.round_messages.update({"version": 1, "write": 3})
        b.failed_read_latencies.append(9.0)
        a.merge(b)
        assert (a.reads_attempted, a.reads_succeeded) == (8, 7)
        assert (a.repairs, a.versions_reused) == (1, 2)
        assert a.round_messages == Counter({"version": 5, "payload": 2, "write": 3})
        assert a.failed_read_latencies == [9.0]

    @given(
        shards=st.lists(
            st.lists(st.floats(0.0, 5.0), max_size=40), min_size=1, max_size=5
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_matches_elementwise_concatenation(self, shards):
        """Merged shard tallies equal the flat concatenation, exactly."""
        total = LatencyTally()
        for samples in shards:
            part = LatencyTally()
            for x in samples:
                part.read_latencies.append(x)
                part.write_latencies.append(x * 2.0)
            part.reads_attempted = len(samples)
            total.merge(part)
        flat = [x for samples in shards for x in samples]
        assert total.read_latencies == flat
        assert total.write_latencies == [x * 2.0 for x in flat]
        assert total.reads_attempted == sum(len(s) for s in shards)
        assert total.operation_percentiles() == percentile_summary(
            flat + [x * 2.0 for x in flat]
        )

    def test_merge_appends_after_existing_samples(self):
        a = LatencyTally()
        b = LatencyTally()
        for i in range(4095):
            a.read_latencies.append(float(i))
        for i in range(10):
            b.read_latencies.append(float(1000 + i))
        a.merge(b)
        assert a.read_latencies == [float(i) for i in range(4095)] + [
            float(1000 + i) for i in range(10)
        ]
        assert b.read_latencies == [float(1000 + i) for i in range(10)]

    def test_summary_uses_buffers(self):
        tally = LatencyTally()
        tally.reads_attempted = tally.reads_succeeded = 2
        tally.read_latencies.extend([0.5, 1.5])
        summary = tally.summary()
        assert summary["read_latency"]["count"] == 2.0
        assert summary["read_latency"]["p50"] == 1.0
