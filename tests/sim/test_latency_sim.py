"""Closed-loop event-driven simulation: concurrency, metrics, determinism."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import (
    FaultloadSpec,
    LatencySpec,
    ScenarioRunner,
    ScenarioSpec,
    ShardingSpec,
    SystemSpec,
    WorkloadSpec,
    build_sharded_system,
)
from repro.cluster.failures import exponential_trace
from repro.cluster.rng import make_rng
from repro.sim import (
    ClosedLoopConfig,
    OpKind,
    Operation,
    PartitionWindow,
    ShardedClosedLoopSimulation,
    percentile_summary,
)
from repro.errors import ConfigurationError
from tests.runtime.closed_loop import build_closed_loop

GOLDENS = json.loads(
    (Path(__file__).parent / "closed_loop_goldens.json").read_text()
)


class TestPercentileSummary:
    def test_empty_is_zeros(self):
        assert percentile_summary([]) == {
            "count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_orders(self):
        s = percentile_summary(range(1, 101))
        assert s["count"] == 100
        assert s["p50"] <= s["p95"] <= s["p99"]
        assert s["p50"] == pytest.approx(50.5)


def build_sim(seed=0, clients=5, ops=120, think=0.02, trace=None, partitions=None):
    sim, router = build_closed_loop(
        seed, ops, clients, think, trace=trace, partitions=partitions
    )
    return sim, router.shards[0].coordinator


class TestClosedLoopSimulation:
    def test_operations_genuinely_concurrent(self):
        sim, coordinator = build_sim(clients=5, think=0.0)
        tally = sim.run()
        assert coordinator.max_in_flight == 5
        assert tally.reads_attempted + tally.writes_attempted == 120

    def test_healthy_cluster_all_ops_succeed_with_latency_samples(self):
        # think_time spaces the clients out so no two writers collide.
        sim, _ = build_sim(clients=1, ops=60)
        tally = sim.run()
        assert tally.reads_succeeded == tally.reads_attempted
        assert tally.writes_succeeded == tally.writes_attempted
        assert tally.consistency_violations == 0
        assert len(tally.read_latencies) == tally.reads_succeeded
        # ERC write = embedded read + 2 write rounds: strictly slower.
        assert tally.write_percentiles()["p50"] > tally.read_percentiles()["p50"]

    def test_per_round_message_counts(self):
        sim, _ = build_sim(clients=2, ops=60)
        tally = sim.run()
        rounds = tally.round_messages
        assert rounds["version-query"] > 0
        assert rounds["write"] > 0
        assert tally.messages == sum(rounds.values())

    def test_same_seed_identical_results_and_trace(self):
        sim1, coord1 = build_sim(seed=5)
        sim2, coord2 = build_sim(seed=5)
        assert sim1.run().summary() == sim2.run().summary()
        assert coord1.trace_hash() == coord2.trace_hash()

    @pytest.mark.parametrize("case", sorted(GOLDENS))
    def test_goldens_of_the_deleted_single_shard_driver(self, case):
        """``(seed -> trace_hash, summary)`` recorded from the unsharded
        ``ClosedLoopSimulation`` at the commit that deleted it (the
        1-shard router run replayed that driver bit for bit),
        re-recorded once when Case 1 of a read became one round, and
        once when N_i's level-0 poll became that round."""
        kwargs = {
            "healthy": dict(seed=5),
            "churn": dict(
                seed=7, ops=200, think=0.05,
                trace=exponential_trace(
                    9, mtbf=0.5, mttr=0.5, horizon=100.0, rng=make_rng(3)
                ),
            ),
            "partition": dict(
                seed=9, ops=100, partitions=[PartitionWindow(0.0, 1.0, (6, 7))]
            ),
        }[case]
        sim, coordinator = build_sim(**kwargs)
        summary = sim.run().summary()
        assert coordinator.trace_hash() == GOLDENS[case]["trace_hash"]
        assert json.loads(json.dumps(summary)) == GOLDENS[case]["summary"]

    def test_churn_faultload_costs_availability(self):
        trace = exponential_trace(9, mtbf=0.5, mttr=0.5, horizon=100.0, rng=make_rng(3))
        sim, _ = build_sim(trace=trace, ops=200, think=0.05)
        tally = sim.run()
        assert tally.writes_succeeded < tally.writes_attempted
        assert tally.consistency_violations == 0

    def test_partition_window_causes_timeouts_then_heals(self):
        windows = [PartitionWindow(0.0, 1.0, (6, 7))]
        sim, router = build_closed_loop(0, 100, 5, 0.02, partitions=windows)
        shard = router.shards[0]
        engine, clock = shard.engine, shard.coordinator.sim
        spans = {"read": [], "write": []}  # (block, start, end, success)

        def timed(kind, make_plan):
            def plan(block, *args):
                start = clock.now
                result = yield from make_plan(block, *args)
                spans[kind].append((block, start, clock.now, result.success))
                return result
            return plan

        # the driver's operations only: a write's read-before-write is
        # part of the write's span
        shard.engine = SimpleNamespace(
            read_plan=timed("read", engine.read_plan),
            write_plan=timed("write", engine.write_plan),
        )
        tally = sim.run()
        assert len(spans["read"]) == tally.reads_attempted
        assert tally.timeouts > 0
        assert tally.messages_dropped > 0
        # Writes need w_1 = 2 of the 3 parities: the 2-node partition
        # blocks them, and the stale survivors keep rejecting deltas even
        # after the heal (the documented no-anti-entropy collapse).
        assert tally.writes_succeeded == 0
        # Reads ride level 0 + the direct path throughout, so every read
        # with no write to its block in flight succeeds. A read that
        # overlaps one may find N_i already past the version its check
        # saw, and too few fragments at that version to decode.
        quiet = [
            ok
            for block, start, end, ok in spans["read"]
            if not any(
                b == block and w_start <= end and w_end >= start
                for b, w_start, w_end, _ in spans["write"]
            )
        ]
        assert quiet and all(quiet)
        assert tally.consistency_violations == 0
        # Failed writes are bounded by the timeout policy, not stragglers.
        assert max(tally.failed_write_latencies) < 0.2

    def test_partition_window_validation(self):
        with pytest.raises(ConfigurationError, match="end > start"):
            PartitionWindow(5.0, 5.0, (1,))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="clients"):
            ClosedLoopConfig(clients=0)
        with pytest.raises(ConfigurationError, match="think_time"):
            ClosedLoopConfig(think_time=-1.0)


def open_loop(ops, arrivals, delay=0.0):
    """A 1-shard (9, 6) system driven open-loop at a fixed ``delay``."""
    spec = SystemSpec.trapezoid(
        9, 6, 2, 1, 1, 2,
        latency=LatencySpec(kind="fixed", delay=delay),
        workload=WorkloadSpec(block_length=8),
        seed=3,
    )
    system = build_sharded_system(spec)
    data = system.initialize()
    sim = ShardedClosedLoopSimulation(
        system.cluster, system.router, ops,
        config=ClosedLoopConfig(horizon=10.0),
        arrivals=arrivals, initial=data,
    )
    return system, sim


def overwrite_block_0(system) -> None:
    """Other bytes on N_0 at its current version (no write involved)."""
    engine = system.router.shards[0].engine
    node = system.cluster.node(engine.layout.node_of_block(0))
    key = engine.data_key(0)
    node.put_data(key, np.full(8, 0xAB, dtype=np.uint8), node.data_version(key))


class TestOpenLoopAndReadCheck:
    @pytest.mark.parametrize("tamper", [False, True])
    def test_same_version_other_bytes_without_a_write_is_counted(self, tamper):
        ops = [Operation(OpKind.WRITE, 0, 5), Operation(OpKind.READ, 0, 0)]
        system, sim = open_loop(ops, [1.0, 3.0])
        if tamper:  # between the acknowledged write and the read
            system.simulator.schedule_at(2.0, lambda: overwrite_block_0(system))
        tally = sim.run()
        assert tally.writes_succeeded == tally.reads_succeeded == 1
        # the read returns the floor's version 1, with the tampered bytes
        assert tally.consistency_violations == int(tamper)

    @pytest.mark.parametrize(
        "write_block, violations", [(0, 0), (1, 1)], ids=["same-block", "other-block"]
    )
    def test_read_overlapping_a_write_on_its_block_is_exempt(
        self, write_block, violations
    ):
        # N_0 holds other bytes at version 0; the read starts while a
        # write is in its read-before-write and finishes before it lands
        ops = [Operation(OpKind.WRITE, write_block, 5), Operation(OpKind.READ, 0, 0)]
        system, sim = open_loop(ops, [1.0, 1.0005], delay=0.001)
        system.simulator.schedule_at(0.5, lambda: overwrite_block_0(system))
        tally = sim.run()
        assert tally.reads_succeeded == 1
        assert tally.consistency_violations == violations

    def test_open_loop_submits_at_arrivals_and_completions_schedule_nothing(
        self, monkeypatch
    ):
        ops = [Operation(OpKind.READ, block, 0) for block in range(5)]
        arrivals = [0.5, 1.25, 2.0]
        system, sim = open_loop(ops, arrivals, delay=0.001)
        engine = system.router.shards[0].engine
        submitted = []
        read_plan = engine.read_plan

        def spy(i):
            submitted.append(system.simulator.now)
            return read_plan(i)

        monkeypatch.setattr(engine, "read_plan", spy)
        tally = sim.run()
        assert submitted == arrivals
        # three arrivals, three reads: the tape's other two never run
        assert tally.reads_attempted == tally.reads_succeeded == 3
        assert system.simulator.now > arrivals[-1]  # reads took virtual time


class TestLatencyScenarioKind:
    """The facade surface: spec -> runner -> tidy percentile results."""

    def make_spec(self, **scenario_kwargs) -> SystemSpec:
        scenario = dict(
            kind="latency", clients=4, think_time=0.05, horizon=30.0,
        )
        scenario.update(scenario_kwargs)
        return SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            latency=LatencySpec(kind="fixed", delay=0.001),
            workload=WorkloadSpec(num_ops=80, block_length=16),
            scenario=ScenarioSpec(**scenario),
            seed=21,
        )

    def test_round_trips_and_reproduces(self):
        spec = self.make_spec(
            faultload=FaultloadSpec(kind="churn", mtbf=3.0, mttr=0.5)
        )
        replay = SystemSpec.from_json(spec.to_json())
        assert replay == spec
        r1 = ScenarioRunner(spec).run()
        r2 = ScenarioRunner(replay).run()
        assert r1.to_dict() == r2.to_dict()
        summary = r1.data["summary"]
        assert summary["read_latency"]["p95"] >= summary["read_latency"]["p50"] > 0
        assert r1.data["trace_hash"] == r2.data["trace_hash"]

    @pytest.mark.parametrize("protocol", ["trap-erc", "trap-fr", "rowa", "majority"])
    def test_every_registry_engine_runs_event_driven(self, protocol):
        result = ScenarioRunner(self.make_spec().replace(protocol=protocol)).run()
        summary = result.data["summary"]
        assert summary["read_availability"] > 0.9
        assert summary["max_in_flight"] >= 2

    def test_partition_faultload_reported(self):
        spec = self.make_spec(
            faultload=FaultloadSpec(
                kind="partition", partition_size=2, period=1.0, duration=0.4
            )
        )
        result = ScenarioRunner(spec).run()
        assert result.data["summary"]["timeouts"] > 0
        assert result.data["faultload"]["kind"] == "partition"

    def test_repair_interval_wires_anti_entropy(self):
        spec = self.make_spec(
            think_time=0.2,
            repair_interval=0.5,
            faultload=FaultloadSpec(kind="churn", mtbf=2.0, mttr=1.0),
        )
        result = ScenarioRunner(spec).run()
        # repairs may legitimately be zero on a lucky trace, but the
        # scenario must run and stay consistent under churn + repair.
        assert result.data["summary"]["consistency_violations"] == 0

    def test_no_sharding_section_is_the_one_shard_volume(self):
        spec = self.make_spec(
            faultload=FaultloadSpec(kind="churn", mtbf=3.0, mttr=0.5)
        )
        bare = ScenarioRunner(spec).run().data
        one = ScenarioRunner(spec.replace(sharding=ShardingSpec(shards=1))).run().data
        assert bare == one
        assert bare["shards"] == 1 and len(bare["per_shard"]) == 1

    def test_different_seeds_different_traces(self):
        h1 = ScenarioRunner(self.make_spec()).run().data["trace_hash"]
        h2 = ScenarioRunner(self.make_spec().replace(seed=22)).run().data["trace_hash"]
        assert h1 != h2
