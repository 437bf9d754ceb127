"""Saturation sweep and queueing sanity: the closed-network behaviour.

The queueing-theory floor: with per-node FIFO servers, measured queue
wait must grow with offered load (the M/D/1-style check of the issue),
and the ops/s-vs-clients curve must rise then flatten — non-degenerate
and deterministic under a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.api import (
    LatencySpec,
    ScenarioRunner,
    ScenarioSpec,
    ServiceTimeSpec,
    ShardingSpec,
    SystemSpec,
    WorkloadSpec,
)
from repro.errors import ConfigurationError
from repro.sim import (
    ClosedLoopConfig,
    SaturationPoint,
    knee_clients,
    queue_summary,
    run_saturation_point,
)
from tests.runtime.closed_loop import build_closed_loop

from repro.cluster import FixedServiceTime


def _make_run(clients, service=0.002, ops=240, shards=4):
    sim, _ = build_closed_loop(
        7, ops, clients, 0.0, 0.5, shards=shards,
        service=FixedServiceTime(service),
    )
    sim.config = ClosedLoopConfig(clients=clients, think_time=0.0, horizon=5000.0)
    return sim


class TestQueueingSanity:
    def test_queue_wait_grows_with_offered_load(self):
        """M/D/1-style: higher arrival pressure => longer measured waits."""
        waits = []
        for clients in (1, 4, 16):
            run = _make_run(clients)
            run.run()
            queues = run.router.shards[0].coordinator.queues
            summary = queue_summary(queues, run.sim.now)
            waits.append(summary["mean_wait"])
        assert waits[0] <= waits[1] <= waits[2]
        assert waits[2] > waits[0]
        assert waits[2] > 0.0

    def test_utilization_grows_with_clients(self):
        utils = []
        for clients in (1, 8):
            run = _make_run(clients)
            run.run()
            queues = run.router.shards[0].coordinator.queues
            utils.append(queue_summary(queues, run.sim.now)["max_utilization"])
        assert 0.0 < utils[0] < utils[1] <= 1.0

    def test_queue_summary_zeros_when_off(self):
        summary = queue_summary(None, 10.0)
        assert summary["nodes"] == 0
        assert summary["mean_wait"] == 0.0
        assert summary["max_utilization"] == 0.0


def _points(client_counts):
    return [run_saturation_point(c, _make_run(c)) for c in client_counts]


class TestSaturationSweep:
    def test_throughput_rises_then_flattens(self):
        points = _points([1, 2, 4, 8, 16])
        tps = [p.throughput for p in points]
        assert tps[1] > tps[0]  # scaling regime
        # Saturation regime: the last doubling buys less than the first.
        assert tps[-1] / tps[-2] < tps[1] / tps[0]
        assert all(p.ops_completed > 0 for p in points)
        assert all(len(p.per_shard) == 4 for p in points)
        assert all(len(p.trace_hash) == 64 for p in points)

    def test_points_are_json_shaped(self):
        import json

        (point,) = _points([2])
        payload = json.dumps(point.to_dict())
        assert "operation_latency" in payload
        assert point.aggregate["operation_latency"]["p95"] > 0

    def test_knee_clients(self):
        def pt(clients, tp):
            return SaturationPoint(
                clients=clients, ops_completed=1, ops_failed=0,
                virtual_duration=1.0, throughput=tp, aggregate={},
                per_shard=[], queues={},
            )

        points = [pt(1, 10.0), pt(2, 19.0), pt(4, 20.0), pt(8, 20.5)]
        assert knee_clients(points) == 2  # 19 >= 0.9 * 20.5
        assert knee_clients(points, threshold=1.0) == 8
        with pytest.raises(ConfigurationError, match="at least one"):
            knee_clients([])
        with pytest.raises(ConfigurationError, match="threshold"):
            knee_clients(points, threshold=0.0)


class TestSaturationScenario:
    SPEC = SystemSpec.trapezoid(
        9, 6, 2, 1, 1, 2,
        latency=LatencySpec(kind="fixed", delay=0.001),
        sharding=ShardingSpec(shards=4),
        service=ServiceTimeSpec(kind="fixed", time=0.002),
        workload=WorkloadSpec(num_ops=160, block_length=16),
        scenario=ScenarioSpec(
            kind="saturation", client_counts=(1, 4, 8), horizon=2000.0
        ),
        seed=23,
    )

    def test_reports_curve_per_shard_and_knee(self):
        data = ScenarioRunner(self.SPEC).run().data
        assert data["shards"] == 4
        assert data["client_counts"] == [1, 4, 8]
        tps = [p["throughput"] for p in data["points"]]
        assert len(set(tps)) == 3  # non-degenerate curve
        assert tps[1] > tps[0]
        assert data["knee_clients"] in (1, 4, 8)
        for point in data["points"]:
            assert len(point["per_shard"]) == 4
            agg = point["aggregate"]
            assert agg["operation_latency"]["p50"] > 0
            assert agg["read_latency"]["p95"] >= agg["read_latency"]["p50"]
        assert len(data["trace_hash"]) == 64

    def test_deterministic_and_json_round_trip(self):
        spec = SystemSpec.from_json(self.SPEC.to_json())
        assert spec == self.SPEC
        first = ScenarioRunner(self.SPEC).run()
        second = ScenarioRunner(spec).run()
        assert first.to_json() == second.to_json()

    def test_default_client_counts(self):
        spec = self.SPEC.replace(
            scenario=ScenarioSpec(kind="saturation", horizon=2000.0),
            workload=WorkloadSpec(num_ops=60, block_length=16),
        )
        data = ScenarioRunner(spec).run().data
        assert data["client_counts"] == [1, 2, 4, 8, 16]


class TestSpecValidation:
    def test_sharding_spec(self):
        assert ShardingSpec().shards == 1
        with pytest.raises(ConfigurationError, match="shards"):
            ShardingSpec(shards=0)
        with pytest.raises(ConfigurationError, match="routing"):
            ShardingSpec(routing="modulo")
        spec = ShardingSpec(shards=4, routing="hash", route_seed=9)
        assert ShardingSpec.from_dict(spec.to_dict()) == spec

    def test_service_spec(self):
        assert ServiceTimeSpec().kind == "none"
        with pytest.raises(ConfigurationError, match="service-time"):
            ServiceTimeSpec(kind="pareto")
        with pytest.raises(ConfigurationError, match="mean"):
            ServiceTimeSpec(kind="exponential", time=0.0)
        spec = ServiceTimeSpec(kind="fixed", time=0.001)
        assert ServiceTimeSpec.from_dict(spec.to_dict()) == spec

    def test_two_tier_latency_spec(self):
        spec = LatencySpec(kind="two_tier", local=0.001, remote=0.01,
                           rack_size=3, jitter=0.1)
        assert LatencySpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigurationError, match="local <= remote"):
            LatencySpec(kind="two_tier", local=0.01, remote=0.001)
        with pytest.raises(ConfigurationError, match="rack_size"):
            LatencySpec(kind="two_tier", rack_size=0)

    def test_client_counts_validated(self):
        with pytest.raises(ConfigurationError, match="client count"):
            ScenarioSpec(kind="saturation", client_counts=(0,))
        with pytest.raises(ConfigurationError, match="empty"):
            ScenarioSpec(kind="saturation", client_counts=())

    def test_system_spec_round_trips_with_sharding(self):
        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            sharding=ShardingSpec(shards=8, routing="hash"),
            service=ServiceTimeSpec(kind="exponential", time=0.0004),
        )
        assert SystemSpec.from_json(spec.to_json()) == spec
        # Old-style documents (no sharding keys) still load.
        plain = SystemSpec.trapezoid(9, 6, 2, 1, 1, 2)
        payload = plain.to_dict()
        del payload["sharding"], payload["service"]
        assert SystemSpec.from_dict(payload) == plain
