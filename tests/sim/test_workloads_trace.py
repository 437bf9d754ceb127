"""Tests for workload generators and the history-model trace simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import FailureTrace, exponential_trace
from repro.errors import ConfigurationError
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.sim import (
    OpKind,
    TraceSimConfig,
    TraceSimulation,
    sequential_workload,
    uniform_workload,
    vm_disk_workload,
    zipf_workload,
)

QUORUM = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)  # (7,4) stripes


class TestWorkloads:
    def test_uniform_counts_and_range(self):
        ops = uniform_workload(500, 8, read_fraction=0.5, rng=0)
        assert len(ops) == 500
        assert all(0 <= op.block < 8 for op in ops)
        reads = sum(op.kind is OpKind.READ for op in ops)
        assert 180 < reads < 320  # ~50%

    def test_uniform_read_fraction_extremes(self):
        assert all(
            op.kind is OpKind.READ for op in uniform_workload(50, 4, 1.0, rng=1)
        )
        assert all(
            op.kind is OpKind.WRITE for op in uniform_workload(50, 4, 0.0, rng=2)
        )

    def test_sequential_round_robin(self):
        ops = sequential_workload(10, 4, rng=3)
        assert [op.block for op in ops] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_zipf_skew(self):
        ops = zipf_workload(4000, 16, alpha=1.5, rng=4)
        counts = np.bincount([op.block for op in ops], minlength=16)
        assert counts[0] > counts[8] > 0 or counts[8] == 0
        assert counts[0] > 4000 / 16  # head hotter than uniform

    def test_zipf_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_workload(10, 4, alpha=0.0)

    def test_vm_disk_properties(self):
        ops = vm_disk_workload(600, 32, rng=5)
        assert len(ops) == 600
        assert all(0 <= op.block < 32 for op in ops)
        # bursts guarantee a healthy share of writes
        writes = sum(op.kind is OpKind.WRITE for op in ops)
        assert writes > 100

    def test_vm_disk_validation(self):
        with pytest.raises(ConfigurationError):
            vm_disk_workload(10, 4, burst_length=0)
        with pytest.raises(ConfigurationError):
            vm_disk_workload(10, 4, hot_fraction=0.0)

    def test_common_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_workload(0, 4)
        with pytest.raises(ConfigurationError):
            uniform_workload(10, 0)
        with pytest.raises(ConfigurationError):
            uniform_workload(10, 4, read_fraction=1.5)

    def test_payload_seeds_vary(self):
        ops = uniform_workload(100, 4, read_fraction=0.0, rng=6)
        assert len({op.payload_seed for op in ops}) > 90


class TestTraceSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceSimConfig(horizon=0)
        with pytest.raises(ConfigurationError):
            TraceSimConfig(op_rate=0)
        with pytest.raises(ConfigurationError):
            TraceSimConfig(read_fraction=2.0)
        with pytest.raises(ConfigurationError):
            TraceSimConfig(repair_interval=0.0)


class TestTraceSimulation:
    def test_no_failures_everything_succeeds(self):
        trace = FailureTrace(7, [])
        sim = TraceSimulation(
            7, 4, QUORUM, trace, TraceSimConfig(horizon=100.0, op_rate=1.0), rng=7
        )
        tally = sim.run()
        assert tally.reads_attempted + tally.writes_attempted > 50
        assert tally.reads_succeeded == tally.reads_attempted
        assert tally.writes_succeeded == tally.writes_attempted
        assert tally.consistency_violations == 0
        assert tally.messages > 0

    def test_trace_size_validated(self):
        with pytest.raises(ConfigurationError):
            TraceSimulation(7, 4, QUORUM, FailureTrace(5, []))

    def test_failures_reduce_availability_but_not_consistency(self):
        trace = exponential_trace(7, mtbf=20.0, mttr=20.0, horizon=400.0, rng=8)
        sim = TraceSimulation(
            7, 4, QUORUM, trace, TraceSimConfig(horizon=400.0, op_rate=2.0), rng=9
        )
        tally = sim.run()
        assert tally.consistency_violations == 0
        assert tally.reads_succeeded < tally.reads_attempted  # some failures

    @pytest.mark.parametrize(
        "seeds, horizon, read_fraction, interval",
        [((10, 11), 600.0, 0.4, 25.0), ((3, 4), 400.0, 0.5, 20.0)],
        ids=["reads40", "reads50"],
    )
    def test_repair_improves_over_no_repair(self, seeds, horizon, read_fraction, interval):
        # Same trace and workload, with and without anti-entropy: the
        # repaired run must succeed at least as often (staleness shrinks
        # the usable quorum pool without repair).
        trace_seed, sim_seed = seeds
        trace = exponential_trace(7, mtbf=30.0, mttr=10.0, horizon=horizon, rng=trace_seed)
        base_cfg = dict(horizon=horizon, op_rate=1.5, read_fraction=read_fraction)
        no_repair = TraceSimulation(
            7, 4, QUORUM, trace, TraceSimConfig(**base_cfg), rng=sim_seed
        ).run()
        with_repair = TraceSimulation(
            7, 4, QUORUM, trace, TraceSimConfig(**base_cfg, repair_interval=interval),
            rng=sim_seed,
        ).run()
        assert with_repair.repairs > 0
        total_no = no_repair.reads_succeeded + no_repair.writes_succeeded
        total_yes = with_repair.reads_succeeded + with_repair.writes_succeeded
        assert total_yes >= total_no
        before, after = no_repair.summary(), with_repair.summary()
        for kind in ("read_availability", "write_availability"):
            assert after[kind] >= before[kind] - 0.02, kind
        assert with_repair.consistency_violations == 0
        assert no_repair.consistency_violations == 0

    def test_custom_workload_drives_ops(self):
        from repro.sim import Operation

        trace = FailureTrace(7, [])
        workload = [Operation(OpKind.WRITE, 0, 123), Operation(OpKind.READ, 0, 0)]
        sim = TraceSimulation(
            7,
            4,
            QUORUM,
            trace,
            TraceSimConfig(horizon=50.0, op_rate=1.0),
            workload=workload,
            rng=12,
        )
        tally = sim.run()
        # alternating write/read workload: roughly half and half
        assert tally.writes_attempted >= 1
        assert tally.reads_attempted >= 1

    def test_summary_keys(self):
        trace = FailureTrace(7, [])
        sim = TraceSimulation(
            7, 4, QUORUM, trace, TraceSimConfig(horizon=30.0, op_rate=1.0), rng=13
        )
        tally = sim.run()
        summary = tally.summary()
        for key in (
            "read_availability",
            "write_availability",
            "decode_fraction",
            "consistency_violations",
            "repairs",
            "messages",
        ):
            assert key in summary
