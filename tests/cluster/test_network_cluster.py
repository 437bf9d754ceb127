"""Tests for the network fabric, failure models and cluster facade."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BernoulliSnapshot,
    Cluster,
    EventKind,
    FailureEvent,
    FailureTrace,
    FixedLatency,
    Network,
    Simulator,
    TwoTierLatency,
    UniformLatency,
    exponential_trace,
    make_rng,
    spawn_rngs,
)
from repro.cluster.network import LatencyModel, LognormalLatency
from repro.errors import ConfigurationError, NodeUnavailableError, SimulationError


def payload(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, 16, dtype=np.int64).astype(np.uint8)


class TestNetwork:
    def test_rpc_counts_messages(self):
        cluster = Cluster(3)
        cluster.rpc(0, "put_data", "k", payload(), 0)
        assert cluster.network.stats.messages == 2
        assert cluster.network.stats.by_kind["put_data"] == 1
        assert cluster.network.stats.bytes_sent == 16

    def test_rpc_to_failed_node(self):
        cluster = Cluster(3)
        cluster.fail(1)
        with pytest.raises(NodeUnavailableError):
            cluster.rpc(1, "data_version", "k")
        assert cluster.network.stats.rpc_failures == 1

    def test_partition_blocks_reachable_node(self):
        cluster = Cluster(3)
        cluster.network.partition([2])
        with pytest.raises(NodeUnavailableError):
            cluster.rpc(2, "data_version", "k")
        cluster.network.heal()
        assert cluster.rpc(2, "data_version", "k") == -1

    def test_partial_heal(self):
        net = Network()
        net.partition([0, 1])
        net.heal([0])
        cluster = Cluster(2, network=net)
        assert net.is_reachable(cluster.node(0))
        assert not net.is_reachable(cluster.node(1))

    def test_message_delay_accumulates(self):
        net = Network(latency=FixedLatency(0.001))
        cluster = Cluster(2, network=net)
        cluster.rpc(0, "data_version", "k")
        cluster.rpc(1, "data_version", "k")
        # Sum over messages — a traffic proxy, not an operation latency.
        assert net.stats.total_message_delay == pytest.approx(0.004)

    def test_virtual_latency_alias_removed(self):
        # The deprecated pre-runtime alias for ``total_message_delay``
        # completed its removal cycle (docs/RUNTIME.md, "Accounting").
        net = Network(latency=FixedLatency(0.001))
        cluster = Cluster(2, network=net)
        cluster.rpc(0, "data_version", "k")
        assert not hasattr(net.stats, "virtual_latency")
        with pytest.raises(AttributeError):
            net.stats.virtual_latency

    def test_round_latency_is_max_of_parallel(self):
        net = Network(latency=FixedLatency(0.001))
        cluster = Cluster(2, network=net)
        cluster.rpc(0, "data_version", "k")
        assert net.last_rpc_delay == pytest.approx(0.002)
        net.record_round(net.last_rpc_delay)
        assert net.stats.operation_latency == pytest.approx(0.002)
        assert net.stats.rounds == 1

    def test_uniform_latency_bounds(self):
        model = UniformLatency(0.001, 0.002)
        rng = make_rng(0)
        for _ in range(50):
            assert 0.001 <= model.sample(rng) <= 0.002

    def test_stats_reset(self):
        cluster = Cluster(2)
        cluster.rpc(0, "data_version", "k")
        cluster.reset_stats()
        assert cluster.network.stats.messages == 0


class TestTwoTierLatency:
    def test_ragged_last_rack(self):
        # rack_size = 3 over 7 nodes: racks {0,1,2}, {3,4,5}, {6}. The
        # short trailing rack is still a rack of its own.
        model = TwoTierLatency(local=0.001, remote=0.01, rack_size=3)
        rng = make_rng(0)
        assert model.rack_of(6) == 2
        assert model.sample_link(rng, 6, 6) == pytest.approx(0.001)
        assert model.sample_link(rng, 5, 6) == pytest.approx(0.01)
        assert model.sample_link(rng, 3, 5) == pytest.approx(0.001)

    def test_single_rack_degeneracy(self):
        # rack_size >= cluster size: every on-cluster leg is local; only
        # off-cluster endpoints pay the remote tier.
        model = TwoTierLatency(local=0.001, remote=0.01, rack_size=100)
        rng = make_rng(1)
        for src in range(5):
            for dst in range(5):
                assert model.sample_link(rng, src, dst) == pytest.approx(0.001)
        assert model.sample_link(rng, None, 0) == pytest.approx(0.01)
        assert model.sample_link(rng, 0, -1) == pytest.approx(0.01)

    def test_sample_link_symmetric(self):
        # Tier selection depends only on the rack pair, not direction.
        model = TwoTierLatency(local=0.001, remote=0.01, rack_size=2)
        rng = make_rng(2)
        pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (3, 2), (2, 3)]
        for src, dst in pairs:
            forward = model.sample_link(rng, src, dst)
            backward = model.sample_link(rng, dst, src)
            assert forward == pytest.approx(backward)
        # Same-rack pairs sit on the local tier, cross-rack on remote.
        assert model.sample_link(rng, 0, 1) < model.sample_link(rng, 0, 2)

    def test_jitter_stays_within_band(self):
        model = TwoTierLatency(
            local=0.001, remote=0.01, rack_size=2, jitter=0.5
        )
        rng = make_rng(3)
        for _ in range(200):
            local = model.sample_link(rng, 0, 1)
            remote = model.sample_link(rng, 0, 2)
            assert 0.0005 <= local <= 0.0015
            assert 0.005 <= remote <= 0.015


class _OnlySample(LatencyModel):
    """A user model that defines nothing but ``sample``."""

    def sample(self, rng):
        return float(rng.exponential(0.002))


class TestLatencyStream:
    """``model.stream(rng, site)`` — what the event runtime draws through
    — is stream-identical to sequential ``sample_link`` calls, whatever
    the request sizes: block-backed models refill mid-request, 1-peer
    and n-peer draws interleave."""

    MODELS = {
        "fixed": FixedLatency(0.003),
        "uniform": UniformLatency(0.001, 0.004),
        "lognormal": LognormalLatency(),
        "two_tier": TwoTierLatency(local=0.0005, remote=0.004, rack_size=3),
        "two_tier_jitter": TwoTierLatency(
            local=0.0005, remote=0.004, rack_size=3, jitter=0.3
        ),
        "only_sample": _OnlySample(),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(
        sizes=st.lists(
            st.sampled_from([1, 1, 1, 2, 3, 9, 200, 511, 512, 513, 1100]),
            min_size=1,
            max_size=12,
        ),
        site=st.sampled_from([None, 0, 4]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_sequential_sample_link(self, name, sizes, site, seed):
        model = self.MODELS[name]
        draw = model.stream(make_rng(seed), site)
        reference = make_rng(seed)
        peer = 0
        for size in sizes:
            peers = [(peer + i) % 9 for i in range(size)]
            peer += size
            assert draw(peers) == [
                model.sample_link(reference, site, p) for p in peers
            ]

    def test_block_backed_models_draw_ahead_of_their_generator(self):
        """Why a coordinator must own its generator: the stream's state
        runs ahead of the delays handed out."""
        rng = make_rng(3)
        LognormalLatency().stream(rng, None)([0])
        assert rng.bit_generator.state != make_rng(3).bit_generator.state
        one = make_rng(3)
        one.lognormal(-6.5, 0.5)
        assert rng.bit_generator.state != one.bit_generator.state


class TestCluster:
    def test_size_and_ids(self):
        cluster = Cluster(5)
        assert len(cluster) == 5
        assert cluster.alive_ids == [0, 1, 2, 3, 4]
        assert cluster.num_data_nodes == 5

    def test_metadata_nodes_follow_the_data_nodes(self):
        cluster = Cluster(5, metadata_nodes=3)
        assert len(cluster) == 8
        assert cluster.num_data_nodes == 5
        assert cluster.node(7).node_id == 7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Cluster(0)
        with pytest.raises(ConfigurationError):
            Cluster(3).node(3)
        with pytest.raises(ConfigurationError):
            Cluster(3, metadata_nodes=-1)

    def test_fail_recover(self):
        cluster = Cluster(4)
        cluster.fail_many([1, 3])
        assert cluster.failed_ids == [1, 3]
        cluster.recover(1)
        assert cluster.failed_ids == [3]
        cluster.recover_all()
        assert cluster.failed_ids == []

    def test_apply_alive_vector(self):
        cluster = Cluster(4)
        cluster.apply_alive_vector(np.array([True, False, True, False]))
        assert cluster.alive_ids == [0, 2]
        cluster.apply_alive_vector(np.array([False, True, True, True]))
        assert cluster.alive_ids == [1, 2, 3]

    def test_apply_alive_vector_shape_check(self):
        with pytest.raises(ConfigurationError):
            Cluster(3).apply_alive_vector(np.array([True, False]))


def loaded_cluster() -> Cluster:
    """Three nodes holding a data and a parity record each."""
    cluster = Cluster(3)
    for i in range(3):
        cluster.rpc(i, "put_data", "d", payload(i), 0)
        cluster.rpc(i, "put_parity", "p", payload(10 + i), np.zeros(2, dtype=np.int64))
    return cluster


def records(cluster: Cluster) -> list:
    """Per node: the "d" payload and version, the "p" payload and versions."""
    rows = []
    for i in range(len(cluster)):
        data, version = cluster.rpc(i, "read_data", "d")
        parity, versions = cluster.rpc(i, "read_parity", "p")
        rows.append((data.tobytes(), version, parity.tobytes(), versions.tolist()))
    return rows


class TestSnapshotRestore:
    def test_failed_and_partitioned_nodes_come_back(self):
        cluster = loaded_cluster()
        snapshot = cluster.snapshot()
        cluster.fail(1)
        cluster.network.partition([2])
        cluster.restore(snapshot)
        assert cluster.failed_ids == []
        assert not any(cluster.network.is_partitioned(i) for i in range(3))
        assert cluster.rpc(2, "data_version", "d") == 0

    def test_a_record_written_after_the_snapshot_is_gone(self):
        cluster = loaded_cluster()
        before = records(cluster)
        snapshot = cluster.snapshot()
        cluster.rpc(0, "write_data", "d", payload(7), 1)
        cluster.rpc(1, "put_data", "new", payload(8), 0)
        cluster.rpc(2, "apply_delta", "p", 0, payload(9), 0, 1)
        cluster.restore(snapshot)
        assert records(cluster) == before
        assert not cluster.node(1).has_key("new")

    def test_a_wipe_is_undone(self):
        cluster = loaded_cluster()
        before = records(cluster)
        snapshot = cluster.snapshot()
        cluster.fail(0)
        cluster.recover(0, wipe=True)
        assert cluster.node(0).keys() == set()
        cluster.restore(snapshot)
        assert records(cluster) == before

    def test_restored_records_are_the_same_sealed_objects(self):
        cluster = loaded_cluster()
        stored = cluster.rpc(0, "read_data", "d")[0]
        snapshot = cluster.snapshot()
        cluster.rpc(0, "write_data", "d", payload(7), 1)
        cluster.restore(snapshot)
        restored = cluster.rpc(0, "read_data", "d")[0]
        assert restored is stored
        assert not restored.flags.writeable
        # ... and a snapshot is not changed by what the nodes store later
        cluster.rpc(0, "write_data", "d", payload(7), 1)
        cluster.restore(snapshot)
        assert cluster.rpc(0, "read_data", "d")[0] is stored

    def test_restore_sends_no_message(self):
        cluster = loaded_cluster()
        snapshot = cluster.snapshot()
        messages = cluster.network.stats.messages
        cluster.restore(snapshot)
        assert cluster.network.stats.messages == messages


class TestBernoulliSnapshot:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BernoulliSnapshot(1.5, 3)
        with pytest.raises(ConfigurationError):
            BernoulliSnapshot(0.5, 0)

    def test_extreme_p(self):
        rng = make_rng(1)
        assert BernoulliSnapshot(1.0, 5).sample(rng).all()
        assert not BernoulliSnapshot(0.0, 5).sample(rng).any()

    def test_sample_many_shape(self):
        out = BernoulliSnapshot(0.5, 7).sample_many(100, make_rng(2))
        assert out.shape == (100, 7)
        assert out.dtype == bool

    def test_sample_many_mean_close_to_p(self):
        out = BernoulliSnapshot(0.7, 10).sample_many(20000, make_rng(3))
        assert abs(out.mean() - 0.7) < 0.01

    def test_trials_validation(self):
        with pytest.raises(ConfigurationError):
            BernoulliSnapshot(0.5, 3).sample_many(0, make_rng(0))


class TestFailureTrace:
    def test_alive_at(self):
        trace = FailureTrace(
            2,
            [
                FailureEvent(1.0, 0, EventKind.FAIL),
                FailureEvent(2.0, 0, EventKind.REPAIR),
            ],
        )
        assert trace.alive_at(0, 0.5)
        assert not trace.alive_at(0, 1.5)
        assert trace.alive_at(0, 2.5)
        assert trace.alive_at(1, 1.5)

    def test_alive_vector(self):
        trace = FailureTrace(3, [FailureEvent(1.0, 2, EventKind.FAIL)])
        assert trace.alive_vector(0.5).tolist() == [True, True, True]
        assert trace.alive_vector(1.0).tolist() == [True, True, False]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureTrace(1, [FailureEvent(1.0, 3, EventKind.FAIL)])
        with pytest.raises(ConfigurationError):
            FailureTrace(1, [FailureEvent(-1.0, 0, EventKind.FAIL)])

    def test_availability_of(self):
        trace = FailureTrace(
            1,
            [
                FailureEvent(2.0, 0, EventKind.FAIL),
                FailureEvent(3.0, 0, EventKind.REPAIR),
            ],
        )
        assert trace.availability_of(0, 4.0) == pytest.approx(0.75)

    def test_exponential_trace_hits_target_availability(self):
        # availability = mtbf / (mtbf + mttr) = 0.8
        trace = exponential_trace(20, mtbf=8.0, mttr=2.0, horizon=3000.0, rng=make_rng(4))
        measured = np.mean([trace.availability_of(i, 3000.0) for i in range(20)])
        assert abs(measured - 0.8) < 0.03

    def test_exponential_trace_validation(self):
        with pytest.raises(ConfigurationError):
            exponential_trace(2, mtbf=0, mttr=1, horizon=10)
        with pytest.raises(ConfigurationError):
            exponential_trace(2, mtbf=1, mttr=1, horizon=0)

    def test_events_alternate_per_node(self):
        trace = exponential_trace(5, mtbf=5.0, mttr=1.0, horizon=200.0, rng=make_rng(5))
        for node in range(5):
            kinds = [ev.kind for ev in trace.events if ev.node_id == node]
            for a, b in zip(kinds, kinds[1:]):
                assert a != b, "fail/repair events must alternate"


class TestSimulator:
    def test_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(2.0, lambda: order.append("c"))  # FIFO among ties
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 2.0
        assert sim.processed == 3

    def test_schedule_in(self):
        sim = Simulator()
        times = []
        sim.schedule_in(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run_until(6.0)
        assert fired == [1, 5]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def recurring():
            seen.append(sim.now)
            if sim.now < 3:
                sim.schedule_in(1.0, recurring)

        sim.schedule_at(1.0, recurring)
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    def test_max_events(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(float(t), lambda: None)
        sim.run(max_events=3)
        assert sim.processed == 3

    def test_cancelled_timer_never_fires(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_at(1.0, lambda: fired.append("cancelled"))
        sim.schedule_at(2.0, lambda: fired.append("live"))
        timer.cancel()
        sim.run()
        assert fired == ["live"]
        assert sim.processed == 1

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        timer = sim.schedule_at(1.0, lambda: None)
        sim.run()
        timer.cancel()  # must not raise or corrupt the queue
        assert len(sim) == 0

    def test_len_excludes_cancelled_anywhere_in_heap(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        buried = sim.schedule_at(2.0, lambda: None)  # not at the heap head
        sim.schedule_at(3.0, lambda: None)
        buried.cancel()
        assert len(sim) == 2

    def test_run_until_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        head = sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        head.cancel()
        sim.run_until(3.0)
        assert fired == [] and sim.now == 3.0


class TestRngHelpers:
    def test_make_rng_passthrough(self):
        rng = make_rng(7)
        assert make_rng(rng) is rng

    def test_make_rng_deterministic(self):
        assert make_rng(7).integers(1000) == make_rng(7).integers(1000)

    def test_spawn_rngs_independent(self):
        parent = make_rng(9)
        children = spawn_rngs(parent, 3)
        assert len(children) == 3
        draws = [c.integers(10**9) for c in children]
        assert len(set(draws)) == 3
