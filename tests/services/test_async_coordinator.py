"""AsyncCoordinator lifecycle: timeout, retry, drain, shutdown, submit."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.node import StorageNode
from repro.errors import NodeUnavailableError, SimulationError
from repro.runtime import AsyncCoordinator, Request, RetryPolicy, Round
from repro.services import (
    FrameProtocol,
    InprocTransport,
    ServiceGroup,
    StorageNodeService,
    TcpTransport,
    frame,
)


def make_transports(num_nodes: int = 3):
    return {
        i: InprocTransport(StorageNodeService(StorageNode(i)))
        for i in range(num_nodes)
    }


def ping_round(node_ids, **kwargs) -> Round:
    return Round([Request(i, "ping") for i in node_ids], **kwargs)


def one_round_plan(round_):
    outcome = yield round_
    return outcome


class SlowTransport:
    """Wrapper whose first ``fail_first`` requests are never answered."""

    def __init__(self, inner, fail_first: int = 0):
        self.inner = inner
        self.fail_first = fail_first
        self.attempts = 0
        self.unanswered: list[asyncio.Future] = []

    def submit(self, method, args=(), kwargs=None):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            future = asyncio.get_running_loop().create_future()
            self.unanswered.append(future)
            return future
        return self.inner.submit(method, args, kwargs)

    async def aclose(self):
        await self.inner.aclose()


def live_timers(loop) -> list:
    return [handle for handle in loop._scheduled if not handle.cancelled()]


class TestLifecycle:
    def test_execute_gather_round(self):
        coordinator = AsyncCoordinator(make_transports())
        outcome = coordinator.execute(one_round_plan(ping_round([0, 1, 2])))
        assert outcome.satisfied
        assert [r.value for r in outcome.accepted] == [0, 1, 2]
        assert coordinator.messages == 6  # 3 sends + 3 replies
        assert coordinator.ops_completed == 1
        coordinator.close()

    def test_quorum_round_issues_lazily(self):
        coordinator = AsyncCoordinator(make_transports(5))
        outcome = coordinator.execute(
            one_round_plan(ping_round([0, 1, 2, 3, 4], need=2))
        )
        assert outcome.satisfied and len(outcome.accepted) == 2
        # quorum-first: only the first `need` requests ever left
        assert coordinator.messages == 4
        coordinator.close()

    def test_quorum_round_widens_past_a_dead_node(self):
        transports = make_transports(3)
        transports[0].service.node.fail()
        coordinator = AsyncCoordinator(transports)
        outcome = coordinator.execute(
            one_round_plan(
                Round([Request(i, "data_version", ("k",)) for i in range(3)], need=1)
            )
        )
        assert outcome.satisfied
        assert [r.request.node_id for r in outcome.accepted] == [1]
        assert [r.ok for r in outcome.responses] == [False, True]
        assert coordinator.messages == 4  # node 2 was never asked
        coordinator.close()

    def test_missing_transport_is_loud(self):
        coordinator = AsyncCoordinator({})
        with pytest.raises(SimulationError):
            coordinator.execute(one_round_plan(ping_round([0])))
        coordinator.close()

    def test_timeout_then_retry_succeeds(self):
        slow = SlowTransport(make_transports(1)[0], fail_first=1)
        coordinator = AsyncCoordinator(
            {0: slow}, policy=RetryPolicy(timeout=0.02, retries=1)
        )
        outcome = coordinator.execute(one_round_plan(ping_round([0])))
        assert outcome.satisfied
        assert coordinator.timeouts == 1
        assert coordinator.retries == 1
        assert slow.attempts == 2
        # 1 unanswered send + 1 answered send/reply pair
        assert coordinator.messages == 3
        assert outcome.messages == 3
        # the deadline cancelled the unanswered request; nothing is left armed
        assert [f.cancelled() for f in slow.unanswered] == [True]
        assert len(coordinator.outstanding) == 0
        assert live_timers(coordinator._loop) == []
        coordinator.close()

    def test_exhausted_retries_fail_as_node_unavailable(self):
        slow = SlowTransport(make_transports(1)[0], fail_first=10)
        coordinator = AsyncCoordinator(
            {0: slow}, policy=RetryPolicy(timeout=0.02, retries=1)
        )
        outcome = coordinator.execute(one_round_plan(ping_round([0], need=1)))
        assert not outcome.satisfied
        (response,) = outcome.responses
        assert isinstance(response.error, NodeUnavailableError)
        assert response.error.node_id == 0
        assert coordinator.timeouts == 2
        assert coordinator.retries == 1
        assert coordinator.messages == 2  # two sends, no reply
        assert dict(coordinator.round_messages) == {"payload": 2}
        assert slow.attempts == 2
        coordinator.close()

    def test_unreachable_node_fails_fast_without_waiting_for_the_deadline(self):
        transports = make_transports(2)
        coordinator = AsyncCoordinator(
            transports, policy=RetryPolicy(timeout=30.0, retries=3)
        )
        loop = coordinator._ensure_loop()
        loop.run_until_complete(transports[0].aclose())
        started = loop.time()
        outcome = coordinator.execute(one_round_plan(ping_round([0, 1])))
        assert loop.time() - started < 5.0
        assert [r.ok for r in outcome.responses] == [False, True]
        assert coordinator.timeouts == 0 and coordinator.retries == 0
        assert coordinator.messages == 4  # refusal counts as the reply
        coordinator.close()

    def test_closed_coordinator_refuses_plans(self):
        coordinator = AsyncCoordinator(make_transports(1))
        coordinator.execute(one_round_plan(ping_round([0])))
        loop = coordinator._ensure_loop()
        loop.run_until_complete(coordinator.aclose())
        with pytest.raises(SimulationError):
            coordinator.execute(one_round_plan(ping_round([0])))
        coordinator.close()

    def test_close_is_idempotent_and_closes_owned_loop(self):
        coordinator = AsyncCoordinator(make_transports(1))
        coordinator.execute(one_round_plan(ping_round([0])))
        coordinator.close()
        coordinator.close()
        assert coordinator._loop.is_closed()

    def test_execute_refused_inside_running_loop(self):
        coordinator = AsyncCoordinator(make_transports(1))

        async def go():
            with pytest.raises(SimulationError):
                coordinator.execute(one_round_plan(ping_round([0])))

        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(go())
        finally:
            loop.close()


class TestSubmitAndDrain:
    def test_sync_submit_completes_inline(self):
        coordinator = AsyncCoordinator(make_transports(1))
        seen = []
        handle = coordinator.submit(
            one_round_plan(ping_round([0])), on_done=seen.append
        )
        assert handle.done
        assert seen and seen[0].satisfied
        coordinator.close()

    def test_async_submit_interleaves(self):
        coordinator = AsyncCoordinator(make_transports(3))

        async def go():
            handles = [
                coordinator.submit(one_round_plan(ping_round([i])))
                for i in range(3)
            ]
            assert not any(h.done for h in handles)  # genuinely in flight
            await coordinator.drain()
            return handles

        loop = coordinator._ensure_loop()
        handles = loop.run_until_complete(go())
        assert all(h.result.satisfied for h in handles)
        assert coordinator.max_in_flight == 3
        coordinator.close()

    def test_drain_counts_outstanding(self):
        coordinator = AsyncCoordinator(make_transports(1))

        async def go():
            return await coordinator.drain()

        assert coordinator._ensure_loop().run_until_complete(go()) == 0
        coordinator.close()

    def test_drain_waits_for_stragglers_and_their_resends(self):
        # node 1 never answers its first request: the round completes on
        # node 0's reply, the straggler times out in the background, is
        # resent and answered — drain() sees all of it through
        transports = make_transports(2)
        slow = SlowTransport(transports[1], fail_first=1)
        coordinator = AsyncCoordinator(
            {0: transports[0], 1: slow},
            policy=RetryPolicy(timeout=0.05, retries=1),
        )

        async def go():
            outcome = await coordinator.execute_plan(
                one_round_plan(ping_round([0, 1], need=1, send_all=True))
            )
            assert outcome.satisfied and len(coordinator.outstanding) == 1
            waited = await coordinator.drain()
            return outcome, waited

        loop = coordinator._ensure_loop()
        outcome, waited = loop.run_until_complete(go())
        assert outcome.messages == 3  # the straggler's traffic is not the round's
        assert waited == 2 and slow.attempts == 2
        assert coordinator.timeouts == 1 and coordinator.retries == 1
        assert coordinator.messages == 5
        assert len(coordinator.outstanding) == 0
        coordinator.close()

    def test_aclose_cancels_and_closes_transports(self):
        transports = make_transports(2)
        coordinator = AsyncCoordinator(transports)
        coordinator.execute(one_round_plan(ping_round([0, 1])))
        loop = coordinator._ensure_loop()
        loop.run_until_complete(coordinator.aclose())
        assert coordinator.closed
        assert all(t.closed for t in transports.values())
        assert len(coordinator.outstanding) == 0
        coordinator.close()


def run(coro_fn):
    """Run ``coro_fn(loop)`` on a fresh loop that must end clean."""
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro_fn(loop))
    finally:
        assert asyncio.all_tasks(loop) == set()
        loop.close()


class TestOverTcp:
    """Deadlines and shutdown against real sockets."""

    def test_late_reply_is_ignored_but_the_node_applied_the_request(self):
        node = StorageNode(0)
        service = StorageNodeService(node)
        payload = np.arange(32, dtype=np.uint8)

        async def go(loop):
            connections = []

            def late(body):  # answers 0.15 s after the request arrived
                reply = frame(service.handle_frame(body))
                loop.call_later(0.15, connections[-1].transport.write, reply)

            def accept():
                connections.append(FrameProtocol(late))
                return connections[-1]

            server = await loop.create_server(accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport = TcpTransport(0, "127.0.0.1", port)
            coordinator = AsyncCoordinator(
                {0: transport}, policy=RetryPolicy(timeout=0.05, retries=0), loop=loop
            )
            request = Request(0, "write_data", ("k", payload, 1))
            outcome = await coordinator.execute_plan(
                one_round_plan(Round([request], need=1))
            )
            assert not outcome.satisfied
            assert isinstance(outcome.responses[0].error, NodeUnavailableError)
            assert coordinator.timeouts == 1 and coordinator.messages == 1
            assert transport._pending == {}  # forgotten at the deadline
            await asyncio.sleep(0.3)  # the reply arrives, nobody waits for it
            assert transport.frames_received == 1
            assert transport._pending == {} and transport._conn is not None
            assert np.array_equal(node.read_data("k")[0], payload)
            assert await transport.call("ping") == 0  # the connection lives on
            await coordinator.aclose()
            server.close()
            connections[0].transport.abort()
            await server.wait_closed()
            await asyncio.sleep(0)  # the aborted socket closes on the next turn

        run(go)

    def test_aclose_mid_round_leaves_nothing_behind(self):
        async def go(loop):
            # nodes that swallow every request: the round can only hang
            group = ServiceGroup([StorageNode(i) for i in range(3)], kind="tcp")
            for service in group.services.values():
                service.handle_frame = lambda body: None
            await group.start()
            transports = group.make_transports()
            coordinator = AsyncCoordinator(
                transports, policy=RetryPolicy(timeout=30.0, retries=2), loop=loop
            )
            op = loop.create_task(
                coordinator.execute_plan(one_round_plan(ping_round([0, 1, 2])))
            )
            await asyncio.sleep(0.05)
            assert len(coordinator.outstanding) == 3 and len(live_timers(loop)) == 3
            assert len(group.connections) == 3
            await coordinator.aclose()
            await asyncio.sleep(0.05)
            assert op.cancelled()
            assert len(coordinator.outstanding) == 0
            assert live_timers(loop) == []
            for transport in transports.values():
                assert transport._pending == {} and not transport._backlog
                assert transport._conn is None and transport._connecting is None
            assert group.connections == set()  # the sockets really closed
            assert coordinator.timeouts == 0 and coordinator.retries == 0
            await group.aclose()

        run(go)
