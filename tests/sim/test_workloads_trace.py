"""Tests for workload generators and the history-model ``trace`` kind."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    PlacementSpec,
    ScenarioSpec,
    SystemSpec,
    WorkloadSpec,
    build_sharded_system,
    run_spec,
)
from repro.cluster import Cluster, FailureTrace
from repro.errors import ConfigurationError
from repro.sim import (
    OpKind,
    ShardedClosedLoopSimulation,
    sequential_workload,
    uniform_workload,
    vm_disk_workload,
    zipf_workload,
)


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


def trace_spec(
    *, horizon=100.0, op_rate=1.0, mtbf=1e9, mttr=1.0, repair_interval=None,
    workload=None, seed=0,
) -> SystemSpec:
    """A (7, 4) TRAP-ERC ``trace`` scenario (``mtbf=1e9``: no failures)."""
    return SystemSpec.trapezoid(
        7, 4, 2, 1, 1, 2,
        cluster=ClusterSpec(num_nodes=7, failure="exponential", mtbf=mtbf, mttr=mttr),
        workload=workload or WorkloadSpec(block_length=8),
        scenario=ScenarioSpec(
            kind="trace", horizon=horizon, op_rate=op_rate,
            repair_interval=repair_interval,
        ),
        seed=seed,
    )


class TestTraceSpecValidation:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="trace", horizon=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="trace", op_rate=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(read_fraction=2.0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="trace", repair_interval=0.0)


class TestTraceScenario:
    def test_no_failures_everything_succeeds(self):
        data = run_spec(trace_spec(seed=7)).data
        assert data["reads_attempted"] + data["writes_attempted"] > 50
        assert data["reads_succeeded"] == data["reads_attempted"]
        assert data["writes_succeeded"] == data["writes_attempted"]
        assert data["consistency_violations"] == 0
        assert data["messages"] > 0

    def test_trace_size_validated(self):
        # a trace must cover the 7 data nodes of the (7, 4) stripe exactly
        system = build_sharded_system(trace_spec())
        data = system.initialize()
        for width in (5, 9):
            with pytest.raises(ConfigurationError, match="data nodes"):
                ShardedClosedLoopSimulation(
                    system.cluster, system.router, [],
                    trace=FailureTrace(width, []), initial=data,
                )

    def test_trace_covers_every_data_node_of_a_wider_volume(self, monkeypatch):
        # (7, 4) on 9 nodes, 3 rotating stripes: stripe s sits on nodes
        # s .. s + 6, so nodes 7 and 8 hold blocks and must churn too
        failed = set()
        fail = Cluster.fail

        def spy(cluster, node_id):
            failed.add(node_id)
            fail(cluster, node_id)

        monkeypatch.setattr(Cluster, "fail", spy)
        spec = trace_spec(horizon=200.0, mtbf=20.0, mttr=5.0, seed=3).replace(
            cluster=ClusterSpec(num_nodes=9, failure="exponential", mtbf=20.0, mttr=5.0),
            placement=PlacementSpec(kind="rotating", stripes=3),
        )
        data = run_spec(spec).data
        assert failed == set(range(9))
        assert data["consistency_violations"] == 0
        assert data["reads_succeeded"] < data["reads_attempted"]

    def test_failures_reduce_availability_but_not_consistency(self):
        data = run_spec(
            trace_spec(horizon=400.0, op_rate=2.0, mtbf=20.0, mttr=20.0, seed=9)
        ).data
        assert data["consistency_violations"] == 0
        assert data["reads_succeeded"] < data["reads_attempted"]  # some failures

    @pytest.mark.parametrize(
        "seed, horizon, read_fraction, interval",
        [(11, 600.0, 0.4, 25.0), (4, 400.0, 0.5, 20.0)],
        ids=["reads40", "reads50"],
    )
    def test_repair_improves_over_no_repair(self, seed, horizon, read_fraction, interval):
        # Same trace and workload, with and without anti-entropy: the
        # repaired run must succeed at least as often (staleness shrinks
        # the usable quorum pool without repair).
        base = dict(
            horizon=horizon, op_rate=1.5, mtbf=30.0, mttr=10.0, seed=seed,
            workload=WorkloadSpec(block_length=8, read_fraction=read_fraction),
        )
        no_repair = run_spec(trace_spec(**base)).data
        with_repair = run_spec(trace_spec(**base, repair_interval=interval)).data
        assert with_repair["repairs"] > 0
        total_no = no_repair["reads_succeeded"] + no_repair["writes_succeeded"]
        total_yes = with_repair["reads_succeeded"] + with_repair["writes_succeeded"]
        assert total_yes >= total_no
        before, after = no_repair["summary"], with_repair["summary"]
        for kind in ("read_availability", "write_availability"):
            assert after[kind] >= before[kind] - 0.02, kind
        assert with_repair["consistency_violations"] == 0
        assert no_repair["consistency_violations"] == 0

    def test_custom_workload_drives_ops(self):
        # a non-uniform tape (stream 5) is cycled to the arrival count
        workload = WorkloadSpec(kind="sequential", num_ops=4, block_length=8)
        data = run_spec(trace_spec(horizon=50.0, workload=workload, seed=12)).data
        assert data["writes_attempted"] >= 1
        assert data["reads_attempted"] >= 1
        assert data["reads_attempted"] + data["writes_attempted"] > 4

    def test_summary_keys(self):
        summary = run_spec(trace_spec(horizon=30.0, seed=13)).data["summary"]
        for key in (
            "read_availability",
            "write_availability",
            "decode_fraction",
            "consistency_violations",
            "repairs",
            "messages",
        ):
            assert key in summary
