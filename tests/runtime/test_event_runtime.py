"""Event-path session-layer semantics: delivery, refusal, drop, retry.

These tests drive the EventCoordinator directly with hand-built plans so
each message-lifecycle rule is observable in isolation: dead nodes refuse
fast (error reply after a round trip), partitioned nodes drop silently
(only the timeout resolves them), retries resend, quorum-wait completes
on the q-th fastest response, and the whole thing replays bit-identically
from one seed.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.cluster import Cluster, Simulator
from repro.cluster.network import FixedLatency, LognormalLatency, Network
from repro.errors import SimulationError
from repro.runtime import (
    EventCoordinator,
    Request,
    RetryPolicy,
    Round,
)

DELAY = 0.001  # one message leg
RTT = 2 * DELAY


def make_world(num_nodes=5, timeout=0.05, retries=0):
    network = Network(latency=FixedLatency(DELAY))
    cluster = Cluster(num_nodes, network=network)
    sim = Simulator()
    coordinator = EventCoordinator(
        cluster,
        sim,
        rng=0,
        policy=RetryPolicy(timeout=timeout, retries=retries),
        record_trace=True,
    )
    for node in cluster.nodes:
        node.put_data("k", np.zeros(4, dtype=np.uint8), 0)
    return cluster, sim, coordinator


def version_round(cluster, need=None, **kwargs):
    return Round(
        [Request(n.node_id, "data_version", ("k",)) for n in cluster.nodes],
        need=need,
        **kwargs,
    )


def run_plan(coordinator, round_):
    def plan():
        outcome = yield round_
        return outcome

    return coordinator.execute(plan())


class TestDeliveryLifecycle:
    def test_round_trip_latency_is_two_legs(self):
        cluster, sim, coordinator = make_world()
        outcome = run_plan(coordinator, version_round(cluster))
        assert outcome.satisfied
        assert outcome.elapsed == pytest.approx(RTT)
        assert len(outcome.accepted) == len(cluster)

    def test_quorum_wait_completes_at_need_not_all(self):
        cluster, sim, coordinator = make_world()
        outcome = run_plan(coordinator, version_round(cluster, need=2))
        assert outcome.satisfied and len(outcome.accepted) == 2
        # messages attributed to the op: 5 sends + the 2 replies that
        # arrived before completion (FixedLatency ties break by order).
        assert outcome.messages == len(cluster) + 2

    def test_dead_node_refuses_fast(self):
        cluster, sim, coordinator = make_world()
        cluster.fail(1)
        outcome = run_plan(coordinator, version_round(cluster))
        assert outcome.elapsed == pytest.approx(RTT)  # refusal is not a timeout
        assert len(outcome.accepted) == len(cluster) - 1
        failed = [r for r in outcome.responses if not r.ok]
        assert [r.request.node_id for r in failed] == [1]
        assert cluster.network.stats.timeouts == 0

    def test_partitioned_node_times_out(self):
        cluster, sim, coordinator = make_world(timeout=0.05)
        cluster.network.partition([2])
        outcome = run_plan(coordinator, version_round(cluster))
        assert outcome.elapsed == pytest.approx(0.05)  # the timeout bounds it
        assert cluster.network.stats.timeouts == 1
        assert cluster.network.stats.messages_dropped == 1

    def test_retry_reaches_node_after_heal(self):
        cluster, sim, coordinator = make_world(timeout=0.05, retries=2)
        cluster.network.partition([2])
        # Heal while the first attempt's timeout is pending: the resend
        # goes through.
        sim.schedule_at(0.06, lambda: cluster.network.heal())
        outcome = run_plan(coordinator, version_round(cluster))
        assert outcome.satisfied and len(outcome.accepted) == len(cluster)
        assert cluster.network.stats.retries >= 1

    def test_retries_exhausted_resolve_failed(self):
        cluster, sim, coordinator = make_world(timeout=0.02, retries=1)
        cluster.network.partition([2])
        outcome = run_plan(coordinator, version_round(cluster))
        failed = [r for r in outcome.responses if not r.ok]
        assert [r.request.node_id for r in failed] == [2]
        # two attempts, two timeouts
        assert cluster.network.stats.timeouts == 2
        assert outcome.elapsed == pytest.approx(0.04)

    def test_reply_in_flight_keeps_its_bytes_when_the_next_write_lands(self):
        # Nodes hand out their stored (immutable) buffers, so a reply on
        # the wire is a snapshot without a node-side copy.
        cluster, sim, coordinator = make_world()
        node = cluster.nodes[3]
        node.put_parity("p", np.arange(4, dtype=np.uint8), np.zeros(2, dtype=np.int64))

        def overwrite():  # served at DELAY, reply lands at RTT
            node.write_data("k", np.full(4, 9, dtype=np.uint8), 1)
            node.apply_delta(
                "p", 0, np.full(4, 0xFF, dtype=np.uint8), expected_version=0, new_version=1
            )

        sim.schedule_at(1.5 * DELAY, overwrite)
        outcome = run_plan(
            coordinator,
            Round([Request(3, "read_data", ("k",)), Request(3, "read_parity", ("p",))]),
        )
        (data, data_version), (parity, parity_versions) = (
            r.value for r in outcome.responses
        )
        assert data_version == 0 and np.array_equal(data, np.zeros(4, dtype=np.uint8))
        assert parity_versions.tolist() == [0, 0]
        assert np.array_equal(parity, np.arange(4, dtype=np.uint8))
        assert not data.flags.writeable and not parity.flags.writeable
        # ... while the node itself has moved on.
        assert node.read_data("k")[1] == 1
        assert np.array_equal(node.read_parity("p")[0], np.arange(4, dtype=np.uint8) ^ 0xFF)

    def test_node_failing_mid_flight_refuses_at_delivery(self):
        cluster, sim, coordinator = make_world()
        # The node dies while the request is on the wire.
        sim.schedule_at(DELAY / 2, lambda: cluster.fail(3))
        outcome = run_plan(coordinator, version_round(cluster))
        failed = [r for r in outcome.responses if not r.ok]
        assert [r.request.node_id for r in failed] == [3]

    def test_partition_mid_flight_drops_request(self):
        cluster, sim, coordinator = make_world(timeout=0.03)
        sim.schedule_at(DELAY / 2, lambda: cluster.network.partition([3]))
        outcome = run_plan(coordinator, version_round(cluster))
        failed = [r for r in outcome.responses if not r.ok]
        assert [r.request.node_id for r in failed] == [3]
        assert cluster.network.stats.messages_dropped == 1

    def test_empty_round_completes_immediately(self):
        _, _, coordinator = make_world()
        outcome = run_plan(coordinator, Round([]))
        assert outcome.satisfied and outcome.elapsed == 0.0

    def test_no_retransmission_after_round_completes(self):
        # need=3 of 5 with one silent node: the op completes on the fast
        # quorum; the partitioned attempt must die quietly at its first
        # timeout instead of burning through the retry budget on behalf
        # of a finished operation.
        cluster, sim, coordinator = make_world(timeout=0.05, retries=3)
        cluster.network.partition([4])
        outcome = run_plan(coordinator, version_round(cluster, need=3))
        assert outcome.satisfied
        sim.run()  # drain everything the session layer still scheduled
        assert cluster.network.stats.timeouts == 0
        assert cluster.network.stats.retries == 0
        # one send to the silent node, never repeated
        assert cluster.network.stats.messages_dropped == 1
        # the dangling timer chain must not stretch virtual time:
        # everything resolves within one timeout window.
        assert sim.now <= 0.05 + RTT


class TestOperationBookkeeping:
    def test_concurrent_submits_tracked(self):
        cluster, sim, coordinator = make_world()

        def plan():
            yield version_round(cluster)
            return "done"

        results = []
        coordinator.submit(plan(), results.append)
        coordinator.submit(plan(), results.append)
        assert coordinator.in_flight == 2
        sim.run()
        assert results == ["done", "done"]
        assert coordinator.max_in_flight == 2
        assert coordinator.in_flight == 0

    def test_execute_rejects_reentrancy(self):
        cluster, sim, coordinator = make_world()

        def inner():
            return "inner"
            yield  # pragma: no cover

        def outer():
            outcome = yield version_round(cluster)
            coordinator.execute(inner())
            return outcome

        with pytest.raises(SimulationError, match="re-entrant"):
            coordinator.execute(outer())

    def test_round_kind_message_accounting(self):
        cluster, sim, coordinator = make_world()
        run_plan(coordinator, version_round(cluster, kind="version-query"))
        sim.run()
        # 5 sends + 5 replies, all attributed to the version-query kind.
        assert coordinator.round_messages["version-query"] == 2 * len(cluster)


class TestWavePacking:
    """Simulator events per operation: the cost signature of ``_launch``.

    Closed-loop sessions resubmit one pinned fan-out to every node (24
    requests with need 13, and 12 with need 7). Under a fixed latency
    every message of a wave arrives at the same instant, so the whole
    wave is one heap entry each way; under a continuous latency each leg
    is its own entry. Cancelled timers never count.
    """

    SHAPES = [pytest.param(24, 13, id="fanout24"), pytest.param(12, 7, id="fanout12")]

    def _events_per_op(self, fanout, need, latency, ops=400, clients=16):
        cluster = Cluster(fanout, network=Network(latency=latency))
        for node in cluster.nodes:
            node.put_data(node.node_id, np.zeros(8, dtype=np.uint8), 1)
        sim = Simulator()
        coordinator = EventCoordinator(
            cluster, sim, rng=1, policy=RetryPolicy(timeout=0.05, retries=1)
        )
        requests = [Request(i, "data_version", (i,)) for i in range(fanout)]
        done = [0]

        def plan():
            return (yield Round(requests, need=need, kind="version-query"))

        def resubmit(_outcome):
            done[0] += 1
            if done[0] + clients <= ops:
                coordinator.submit(plan(), resubmit)

        for _ in range(clients):
            coordinator.submit(plan(), resubmit)
        sim.run()
        assert done[0] == ops
        assert cluster.network.stats.timeouts == 0
        return sim.processed / ops

    @pytest.mark.parametrize("fanout, need", SHAPES)
    def test_fixed_latency_wave_is_one_event_each_way(self, fanout, need):
        assert self._events_per_op(fanout, need, FixedLatency(DELAY)) == 2.0

    @pytest.mark.parametrize("fanout, need", SHAPES)
    def test_lognormal_latency_is_one_event_per_leg_each_way(self, fanout, need):
        events = self._events_per_op(fanout, need, LognormalLatency())
        assert events == 2.0 * fanout


class TestDeterminism:
    def _trace(self, fail_at=None):
        cluster, sim, coordinator = make_world(timeout=0.03, retries=1)
        cluster.network.partition([4])
        if fail_at is not None:
            sim.schedule_at(fail_at, lambda: cluster.fail(0))

        def plan():
            yield version_round(cluster, need=3)
            outcome = yield version_round(cluster)
            return outcome

        coordinator.execute(plan())
        sim.run()
        return coordinator.trace_hash()

    def test_same_seed_same_trace(self):
        assert self._trace() == self._trace()

    def test_different_schedule_different_trace(self):
        assert self._trace() != self._trace(fail_at=0.0005)


class TestShutdownHygiene:
    """Discarding a coordinator mid-simulation must not leak sessions."""

    def test_shutdown_cancels_outstanding_timers(self):
        cluster, sim, coordinator = make_world(timeout=0.05)
        cluster.network.partition(range(len(cluster)))  # all silent
        handle = coordinator.submit(
            (lambda: (yield version_round(cluster, need=5)))()
        )
        # every attempt sent, dropped, and now waiting on its timer
        assert len(coordinator.outstanding) == len(cluster)
        cancelled = coordinator.shutdown()
        assert cancelled == len(cluster)
        assert len(coordinator.outstanding) == 0
        # the heap holds only dead timers: nothing fires, time never moves
        processed = sim.processed
        sim.run()
        assert sim.processed == processed
        assert not handle.done  # the abandoned operation stays abandoned

    def test_shutdown_after_clean_run_is_noop(self):
        cluster, sim, coordinator = make_world()
        outcome = run_plan(coordinator, version_round(cluster))
        assert outcome.satisfied
        assert coordinator.shutdown() == 0

    def test_coordinator_stays_usable_after_shutdown(self):
        cluster, sim, coordinator = make_world(timeout=0.05)
        cluster.network.partition([0])
        coordinator.submit(
            (lambda: (yield version_round(cluster, need=5)))()
        )
        coordinator.shutdown()
        cluster.network.heal()
        # shutdown drains, it does not poison: a fresh plan completes
        outcome = run_plan(coordinator, version_round(cluster, need=3))
        assert outcome.satisfied

    def test_shutdown_releases_abandoned_rounds(self):
        """Mid-operation shutdown: once the simulator has drained, the
        abandoned rounds pin nothing (round, plan, on_done), ``in_flight``
        is settled, ``on_done`` never fired, and the coordinator works."""

        class Probe:
            """Weakly referenceable stand-in for a round's private state."""

        cluster, sim, coordinator = make_world(timeout=0.05)
        cluster.network.partition([0])  # need=5 can only end by timeout
        fired, refs = [], []
        for _ in range(4):
            probe = Probe()
            round_ = version_round(
                cluster, need=5, accept=lambda response, _pin=probe: response.ok
            )
            plan = (lambda r: (yield r))(round_)
            refs += [weakref.ref(probe), weakref.ref(plan)]
            coordinator.submit(plan, fired.append)
            del probe, round_, plan
        assert sim.step() and sim.step()  # requests delivered, 4 of 5 replies in
        assert coordinator.in_flight == 4
        assert coordinator.shutdown() == 4  # one silent attempt per round
        assert coordinator.in_flight == 0
        sim.run()
        gc.collect()
        assert [ref() for ref in refs] == [None] * 8
        assert fired == [] and coordinator.in_flight == 0
        cluster.network.heal()
        outcome = run_plan(coordinator, version_round(cluster, need=3))
        assert outcome.satisfied and coordinator.in_flight == 0

    def test_closed_loop_sim_shuts_coordinator_down(self):
        # the trace-sim driver calls shutdown() after run(): no attempt
        # may survive with a live timer once a simulation finishes
        from repro.api import ScenarioRunner, SystemSpec

        spec = SystemSpec.from_dict(
            {
                "protocol": "trap-erc",
                "code": {"n": 9, "k": 6},
                "quorum": {"kind": "trapezoid", "a": 2, "b": 1, "h": 1, "w": 2},
                "workload": {"num_ops": 30, "block_length": 16},
                "scenario": {"kind": "latency", "clients": 2, "horizon": 60.0},
                "seed": 3,
            }
        )
        result = ScenarioRunner(spec).run()
        assert result.data["summary"]["read_latency"]["count"] > 0
