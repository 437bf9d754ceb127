"""Sharded multi-volume runtime: router, service queues, per-shard keys.

Hash routing, FIFO service queues, shared-substrate contention and
per-link latency on top of the closed-loop driver; the 1-shard run
itself is pinned by the goldens in ``tests/sim/test_latency_sim.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    LatencySpec,
    ServiceTimeSpec,
    ShardingSpec,
    SystemSpec,
    WorkloadSpec,
    build_sharded_system,
)
from repro.cluster import (
    Cluster,
    ExponentialServiceTime,
    FixedLatency,
    FixedServiceTime,
    Network,
    Simulator,
    TwoTierLatency,
)
from repro.cluster.rng import make_rng
from repro.core.trap_erc import TrapErcProtocol
from repro.erasure import MDSCode
from repro.errors import ConfigurationError
from repro.runtime import (
    EventCoordinator,
    NodeServiceQueue,
    RetryPolicy,
    ShardRouter,
    make_service_queues,
)
from repro.sim.workloads import write_payload
from tests.runtime.closed_loop import BLOCK, K, N, build_closed_loop, quorum


class TestShardsOwnTheirStorageKeys:
    """Shards share nodes, never records (ROADMAP 1(a))."""

    SHARDS = 4
    SPEC = SystemSpec.trapezoid(
        N, K, 2, 1, 1, 2,
        latency=LatencySpec(kind="lognormal"),
        sharding=ShardingSpec(shards=SHARDS),
        workload=WorkloadSpec(block_length=32),
        seed=3,
    )

    @pytest.mark.parametrize("protocol", ["trap-erc", "trap-fr", "rowa", "majority"])
    def test_reads_return_the_last_bytes_written_to_that_block(self, protocol):
        system = build_sharded_system(self.SPEC.replace(protocol=protocol))
        initial = system.initialize()
        router, sim = system.router, system.simulator
        shadow = {
            block: initial[router.locate(block)[0].index, router.locate(block)[1]]
            for block in range(router.num_blocks)
        }
        failed, wrong, reads = [], [], [0]

        def client(shard: int) -> None:
            # One client per shard, on that shard's blocks only: no two
            # writers ever race, so every read has exactly one right answer.
            tape = iter(range(60))

            def next_op() -> None:
                step = next(tape, None)
                if step is None:
                    return
                block = (step % K) * self.SHARDS + shard
                if step % 3 == 2:
                    reads[0] += 1
                    router.submit_read(block, lambda r: read_done(block, r))
                else:
                    value = write_payload(shard * 1000 + step, 32)
                    router.submit_write(
                        block, value, lambda r: write_done(block, value, r)
                    )

            def read_done(block, result) -> None:
                if not result.success:
                    failed.append(("read", block))
                elif not np.array_equal(result.value, shadow[block]):
                    wrong.append(block)
                sim.schedule_in(0.001, next_op)

            def write_done(block, value, result) -> None:
                if result.success:
                    shadow[block] = value
                else:
                    failed.append(("write", block))
                sim.schedule_in(0.001, next_op)

            sim.schedule_at(sim.now, next_op)

        for shard in range(self.SHARDS):
            client(shard)
        sim.run()
        assert reads[0] == 20 * self.SHARDS
        assert failed == []
        assert wrong == []

    def test_stripe_ids_are_per_shard_and_shard_zero_keeps_the_legacy_one(self):
        system = build_sharded_system(self.SPEC)
        assert [shard.engine.stripe_id for shard in system.shards] == [
            "api-stripe", "api-stripe-1", "api-stripe-2", "api-stripe-3",
        ]
        assert [repair.protocol.stripe_id for repair in system.repairs] == [
            shard.engine.stripe_id for shard in system.shards
        ]


class TestShardRouter:
    def test_interleave_locate_is_a_bijection(self):
        _, router = build_closed_loop(0, 10, 1, 0.0, 0.5, shards=4)
        homes = {router.locate(b)[0].index * K + router.locate(b)[1]
                 for b in range(router.num_blocks)}
        assert len(homes) == router.num_blocks
        # Round-robin: consecutive blocks land on consecutive shards.
        assert [router.locate(b)[0].index for b in range(4)] == [0, 1, 2, 3]

    def test_hash_routing_is_a_seeded_bijection(self):
        _, router = build_closed_loop(0, 10, 1, 0.0, 0.5, shards=4, routing="hash")
        homes = {(router.locate(b)[0].index, router.locate(b)[1])
                 for b in range(router.num_blocks)}
        assert len(homes) == router.num_blocks
        _, router2 = build_closed_loop(0, 10, 1, 0.0, 0.5, shards=4, routing="hash")
        assert all(
            router.locate(b)[0].index == router2.locate(b)[0].index
            for b in range(router.num_blocks)
        )

    def test_route_key_stable_and_in_range(self):
        _, router = build_closed_loop(0, 10, 1, 0.0, 0.5, shards=4)
        blocks = [router.route_key(("volume", i)) for i in range(100)]
        assert blocks == [router.route_key(("volume", i)) for i in range(100)]
        assert all(0 <= b < router.num_blocks for b in blocks)
        assert len(set(blocks)) > 1  # keys spread over the volume

    def test_locate_range_checked(self):
        _, router = build_closed_loop(0, 10, 1, 0.0, 0.5, shards=2)
        with pytest.raises(ConfigurationError, match="logical block"):
            router.locate(router.num_blocks)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ShardRouter([])
        _, router = build_closed_loop(0, 10, 1, 0.0, 0.5)
        with pytest.raises(ConfigurationError, match="routing"):
            ShardRouter(router.shards, routing="modulo")

    def test_multi_shard_run_spreads_and_stays_consistent(self):
        sharded, router = build_closed_loop(3, 160, 6, 0.0, 0.5, shards=4)
        tally = sharded.run()
        assert tally.reads_attempted + tally.writes_attempted == 160
        assert tally.consistency_violations == 0
        per_shard = sharded.shard_summaries()
        assert [row["shard"] for row in per_shard] == [0, 1, 2, 3]
        assert all(row["reads"] + row["writes"] > 0 for row in per_shard)
        assert sum(row["reads"] + row["writes"] for row in per_shard) == 160


class TestNodeServiceQueue:
    def test_fifo_order_and_waits(self):
        sim = Simulator()
        queue = NodeServiceQueue(sim, 0, FixedServiceTime(1.0), rng=0)
        order = []
        for tag in "abc":
            queue.push(lambda t=tag: order.append((t, sim.now)))
        assert len(queue) == 3
        sim.run()
        assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        stats = queue.stats
        assert stats.arrivals == stats.served == 3
        assert stats.max_queue_len == 3
        assert stats.total_service == pytest.approx(3.0)
        # b waited 1s, c waited 2s.
        assert stats.total_wait == pytest.approx(3.0)
        assert stats.mean_wait == pytest.approx(1.0)
        assert stats.utilization(3.0) == pytest.approx(1.0)

    def test_idle_server_starts_immediately(self):
        sim = Simulator()
        queue = NodeServiceQueue(sim, 0, FixedServiceTime(0.5), rng=0)
        queue.push(lambda: None)
        sim.run()
        queue.push(lambda: None)
        sim.run()
        assert queue.stats.total_wait == 0.0

    def test_exponential_service_is_deterministic_per_stream(self):
        draws = [
            ExponentialServiceTime(0.01).sample(make_rng(5)) for _ in range(2)
        ]
        assert draws[0] == draws[1] > 0

    def test_make_service_queues_independent_streams(self):
        sim = Simulator()
        queues = make_service_queues(sim, 3, ExponentialServiceTime(0.01), rng=7)
        assert sorted(queues) == [0, 1, 2]
        samples = {i: q.model.sample(q.rng) for i, q in queues.items()}
        assert len(set(samples.values())) == 3


class TestQueueAwareDelivery:
    def test_service_time_adds_to_operation_latency(self):
        fast, _ = build_closed_loop(0, 40, 1, 0.0, 1.0)
        slow, _ = build_closed_loop(0, 40, 1, 0.0, 1.0, service=FixedServiceTime(0.01))
        p50_fast = fast.run().read_percentiles()["p50"]
        p50_slow = slow.run().read_percentiles()["p50"]
        assert p50_slow >= p50_fast + 0.01

    def test_contention_queues_requests(self):
        sharded, router = build_closed_loop(
            1, 200, 8, 0.0, 0.5, shards=4, service=FixedServiceTime(0.002)
        )
        tally = sharded.run()
        queues = router.shards[0].coordinator.queues
        stats = [q.stats for q in queues.values()]
        assert sum(s.total_wait for s in stats) > 0  # someone queued
        assert max(s.max_queue_len for s in stats) >= 2
        assert tally.consistency_violations == 0

    def test_node_failing_while_queued_refuses_at_service_time(self):
        network = Network(latency=FixedLatency(0.001))
        cluster = Cluster(N, network=network)
        sim = Simulator()
        queues = make_service_queues(sim, N, FixedServiceTime(0.05), rng=0)
        coordinator = EventCoordinator(
            cluster, sim, rng=0, policy=RetryPolicy(timeout=10.0), queues=queues,
        )
        engine = TrapErcProtocol(
            cluster, MDSCode(N, K), quorum(), coordinator=coordinator
        )
        engine.initialize(
            make_rng(1).integers(0, 256, size=(K, BLOCK), dtype=np.int64)
            .astype(np.uint8)
        )
        # Kill node 0 while its version-query sits in the queue: delivery
        # happened, but service-time execution sees the failure.
        handle = coordinator.submit(engine.read_plan(0))
        sim.schedule_at(0.01, lambda: cluster.fail(0))
        sim.run()
        assert handle.done
        assert handle.result.success  # quorum survives one refusal
        assert cluster.node(0).stats.failed_rpcs > 0


class TestPerLinkLatency:
    def test_default_models_delegate_sample_link(self):
        model = FixedLatency(0.003)
        assert model.sample_link(make_rng(0), None, 5) == 0.003

    def test_two_tier_local_vs_remote(self):
        model = TwoTierLatency(local=0.001, remote=0.02, rack_size=3)
        rng = make_rng(0)
        assert model.sample_link(rng, 0, 2) == 0.001  # same rack
        assert model.sample_link(rng, 0, 3) == 0.02  # cross rack
        assert model.sample_link(rng, None, 2) == 0.02  # off-cluster client
        assert model.sample(rng) == 0.02  # single-dist fallback is WAN

    def test_two_tier_jitter_bounds_and_validation(self):
        model = TwoTierLatency(local=0.001, remote=0.02, rack_size=3, jitter=0.5)
        rng = make_rng(1)
        draws = [model.sample_link(rng, 0, 1) for _ in range(50)]
        assert all(0.0005 <= d <= 0.0015 for d in draws)
        assert len(set(draws)) > 1
        with pytest.raises(ConfigurationError, match="local <= remote"):
            TwoTierLatency(local=0.01, remote=0.001)
        with pytest.raises(ConfigurationError, match="jitter"):
            TwoTierLatency(jitter=1.0)

    def test_colocated_coordinator_is_faster(self):
        def p50(site):
            network = Network()
            cluster = Cluster(N, network=network)
            sim = Simulator()
            coordinator = EventCoordinator(
                cluster, sim, rng=0,
                latency=TwoTierLatency(local=0.001, remote=0.02, rack_size=9),
                policy=RetryPolicy(timeout=10.0), site=site,
            )
            engine = TrapErcProtocol(
                cluster, MDSCode(N, K), quorum(), coordinator=coordinator
            )
            engine.initialize(
                make_rng(1).integers(0, 256, size=(K, BLOCK), dtype=np.int64)
                .astype(np.uint8)
            )
            result = coordinator.execute(engine.read_plan(0))
            assert result.success
            return result.latency

        # rack_size=9: one rack, so a colocated coordinator talks local
        # to every node, an off-cluster one pays WAN both ways.
        assert p50(site=0) < p50(site=None) / 5

    def test_sharded_build_places_coordinators_in_racks(self):
        spec = SystemSpec.trapezoid(
            N, K, 2, 1, 1, 2,
            latency=LatencySpec(kind="two_tier", local=0.001, remote=0.02,
                                rack_size=3),
            sharding=ShardingSpec(shards=4),
            seed=0,
        )
        system = build_sharded_system(spec, rng=0)
        sites = [shard.coordinator.site for shard in system.shards]
        assert sites == [0, 3, 6, 0]  # round-robin over the 3 racks

    def test_bare_build_is_reproducible_from_the_spec(self):
        """Default rng/service_rng derive from spec.seed (streams 8/10)."""
        spec = SystemSpec.trapezoid(
            N, K, 2, 1, 1, 2,
            latency=LatencySpec(kind="lognormal"),
            sharding=ShardingSpec(shards=2),
            service=ServiceTimeSpec(kind="exponential", time=0.001),
            seed=13,
        )

        def one_run():
            system = build_sharded_system(spec, record_trace=True)
            system.initialize()
            results = [system.router.execute_read(b) for b in range(4)]
            assert all(r.success for r in results)
            return system.trace_hash(), [r.latency for r in results]

        assert one_run() == one_run()

    def test_service_spec_build(self):
        spec = SystemSpec.trapezoid(
            N, K, 2, 1, 1, 2,
            service=ServiceTimeSpec(kind="exponential", time=0.001),
            sharding=ShardingSpec(shards=2),
            seed=0,
        )
        system = build_sharded_system(spec, rng=0, service_rng=1)
        assert system.queues is not None and len(system.queues) == N
        # One shared mapping: every shard coordinator sees the same queues.
        assert all(s.coordinator.queues is system.queues for s in system.shards)
