"""Node services and the two client transports, driven directly."""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest

from repro.cluster.node import StorageNode
from repro.cluster.rng import make_rng
from repro.errors import ConfigurationError, NodeUnavailableError
from repro.services import (
    RPC_METHODS,
    Codec,
    FrameProtocol,
    InprocTransport,
    ServiceGroup,
    StorageNodeService,
    TcpTransport,
    WireError,
    connect_transports,
    frame,
    mirror_state,
)


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()


async def stop(server, connections) -> None:
    """Close a hand-made test server and the connections it accepted."""
    server.close()
    for connection in connections:
        connection.transport.abort()
    await server.wait_closed()
    await asyncio.sleep(0)  # aborted sockets close on the next turn


def payload(seed: int = 0) -> np.ndarray:
    return make_rng(seed).integers(0, 256, 16, dtype=np.int64).astype(np.uint8)


class TestServiceDispatch:
    def test_ping_returns_node_id(self):
        service = StorageNodeService(StorageNode(3))
        reply = service.dispatch({"id": 1, "method": "ping"})
        assert reply == {"id": 1, "ok": True, "value": 3}

    def test_versioned_write_read_cycle(self):
        service = StorageNodeService(StorageNode(0))
        value = payload()
        ok = service.dispatch(
            {"id": 1, "method": "write_data", "args": ["k", value, 1]}
        )
        assert ok["ok"]
        back = service.dispatch({"id": 2, "method": "read_data", "args": ["k"]})
        got, version = back["value"]
        assert np.array_equal(got, value) and version == 1

    def test_unknown_method_is_configuration_error_reply(self):
        service = StorageNodeService(StorageNode(0))
        reply = service.dispatch({"id": 1, "method": "rm_rf"})
        assert not reply["ok"]
        assert reply["error"]["type"] == "ConfigurationError"
        assert service.faults == 1

    def test_internal_methods_not_dispatchable(self):
        assert "fail" not in RPC_METHODS
        assert "recover" not in RPC_METHODS
        service = StorageNodeService(StorageNode(0))
        assert not service.dispatch({"id": 1, "method": "fail"})["ok"]

    def test_dead_node_replies_node_unavailable(self):
        node = StorageNode(5)
        node.fail()
        service = StorageNodeService(node)
        reply = service.dispatch({"id": 1, "method": "data_version", "args": ["k"]})
        assert not reply["ok"]
        assert reply["error"]["type"] == "NodeUnavailableError"
        assert reply["error"]["node_id"] == 5

    def test_malformed_frame_becomes_error_reply(self):
        service = StorageNodeService(StorageNode(0))
        reply = service.codec.decode(service.handle_frame(b"\xffgarbage"))
        assert not reply["ok"]


class TestInprocTransport:
    def test_full_wire_round_trip(self):
        service = StorageNodeService(StorageNode(0))
        transport = InprocTransport(service)

        async def go():
            await transport.call("write_data", ("k", payload(), 1))
            value, version = await transport.call("read_data", ("k",))
            await transport.aclose()
            return value, version

        value, version = run(go())
        assert np.array_equal(value, payload()) and version == 1
        assert transport.calls == 2

    def test_version_rpcs_round_trip_with_tuple_keys(self):
        # The verified read path interrogates versions before payloads
        # and keys metadata records by tuple; both version RPCs and the
        # tuple-key encoding must survive the wire codec end to end.
        service = StorageNodeService(StorageNode(0))
        transport = InprocTransport(service)
        meta_key = ("meta", "api-stripe", 0)
        vv = np.arange(6, dtype=np.int64)

        async def go():
            await transport.call("put_data", (meta_key, payload(), 4))
            await transport.call("put_parity", (("erc-parity", "s"), payload(), vv))
            data_v = await transport.call("data_version", (meta_key,))
            missing_v = await transport.call("data_version", (("meta", "x", 1),))
            parity_vv = await transport.call(
                "parity_versions", (("erc-parity", "s"),)
            )
            await transport.aclose()
            return data_v, missing_v, parity_vv

        data_v, missing_v, parity_vv = run(go())
        assert data_v == 4
        assert missing_v == -1  # absent key: the sentinel, not an error
        assert np.array_equal(np.asarray(parity_vv), vv)

    def test_fifo_resolution_order(self):
        service = StorageNodeService(StorageNode(0))
        transport = InprocTransport(service)

        async def go():
            tasks = [
                asyncio.ensure_future(transport.call("ping"))
                for _ in range(4)
            ]
            order = []
            for ix, task in enumerate(tasks):
                task.add_done_callback(lambda _t, ix=ix: order.append(ix))
            await asyncio.gather(*tasks)
            await transport.aclose()
            return order

        assert run(go()) == [0, 1, 2, 3]

    def test_error_replies_raise_on_the_client(self):
        node = StorageNode(2)
        node.fail()
        transport = InprocTransport(StorageNodeService(node))

        async def go():
            try:
                with pytest.raises(NodeUnavailableError):
                    await transport.call("data_version", ("k",))
            finally:
                await transport.aclose()

        run(go())

    def test_closed_transport_fails_fast(self):
        transport = InprocTransport(StorageNodeService(StorageNode(0)))

        async def go():
            await transport.aclose()
            with pytest.raises(NodeUnavailableError):
                await transport.call("ping")

        run(go())

    def test_submit_returns_a_future_and_never_raises(self):
        transport = InprocTransport(StorageNodeService(StorageNode(0)))

        async def go():
            ok = transport.submit("ping")
            bad = transport.submit("read_data", (object(),))  # unencodable
            assert isinstance(ok, asyncio.Future) and not ok.done()
            assert await ok == 0
            with pytest.raises(WireError):
                await bad
            await transport.aclose()

        run(go())

    def test_abandoned_request_still_executes_and_counts_bytes(self):
        node = StorageNode(0)
        transport = InprocTransport(StorageNodeService(node))

        async def go():
            future = transport.submit("write_data", ("k", payload(), 1))
            future.cancel()  # the caller's deadline passed
            assert await transport.call("data_version", ("k",)) == 1
            await transport.aclose()

        run(go())
        assert transport.frames_sent == 2 and transport.frames_received == 2
        assert transport.bytes_sent > 16 and transport.bytes_received > 0


class TestTcpTransport:
    def test_round_trip_over_real_sockets(self):
        nodes = [StorageNode(i) for i in range(3)]
        group = ServiceGroup(nodes, kind="tcp")

        async def go():
            await group.start()
            transports = group.make_transports()
            try:
                await transports[1].call("write_data", ("k", payload(), 1))
                value, version = await transports[1].call("read_data", ("k",))
                pong = await transports[2].call("ping")
                return value, version, pong
            finally:
                for transport in transports.values():
                    await transport.aclose()
                await group.aclose()

        value, version, pong = run(go())
        assert np.array_equal(value, payload()) and version == 1 and pong == 2

    def test_refused_connection_is_node_unavailable(self):
        # Nothing listens on this transport's port: the very first call
        # must fail fast with the dead-node error, no timeout involved.
        transport = TcpTransport(0, "127.0.0.1", 1)  # port 1: never open

        async def go():
            with pytest.raises(NodeUnavailableError):
                await transport.call("ping")
            await transport.aclose()

        run(go())
        assert transport.refusals == 1

    def test_hostile_frames_get_typed_replies_and_the_connection_survives(self):
        group = ServiceGroup([StorageNode(0)], kind="tcp")
        codec = Codec()
        hostile = [
            b"\xff garbage",
            struct.pack(">I", 2) + b"{}" + b"trailing",
            codec.encode({"__b__x": 1})[:-1],
            struct.pack(">I", 30) + b'{"__nd__":["|O",[1],8]}'.ljust(30) + b"\0" * 8,
        ]

        async def read_reply(reader):
            (length,) = struct.unpack(">I", await reader.readexactly(4))
            return codec.decode(await reader.readexactly(length))

        async def go():
            await group.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", group.ports[0])
            try:
                for body in hostile:
                    writer.write(frame(body))
                    reply = await asyncio.wait_for(read_reply(reader), 5)
                    assert reply["ok"] is False
                    assert reply["error"]["type"] == "WireError"
                writer.write(frame(codec.encode({"id": 9, "method": "ping"})))
                assert await asyncio.wait_for(read_reply(reader), 5) == {
                    "id": 9, "ok": True, "value": 0,
                }
                # an oversize length word is the one thing that ends it
                writer.write(struct.pack(">I", 2**31))
                assert await asyncio.wait_for(reader.read(), 5) == b""
            finally:
                writer.close()
                await writer.wait_closed()
                await group.aclose()

        run(go())
        assert group.services[0].faults == len(hostile)

    def test_client_drops_an_undecodable_reply_and_keeps_the_connection(self):
        codec = Codec()

        async def go():
            loop = asyncio.get_running_loop()
            connections = []

            def noisy(body):  # two frames of noise, then the real reply
                connections[-1].transport.write(frame(b"\xff not a body"))
                connections[-1].transport.write(
                    frame(codec.encode({"id": "no such id", "ok": True}))
                )
                request = codec.decode(body)
                return codec.encode({"id": request["id"], "ok": True, "value": 7})

            def accept():
                connections.append(FrameProtocol(noisy))
                return connections[-1]

            server = await loop.create_server(accept, "127.0.0.1", 0)
            transport = TcpTransport(0, "127.0.0.1", server.sockets[0].getsockname()[1])
            try:
                assert await asyncio.wait_for(transport.call("ping"), 5) == 7
                conn = transport._conn
                assert await asyncio.wait_for(transport.call("ping"), 5) == 7
                assert transport._conn is conn  # never dropped
                assert transport.frames_received == 6 and transport._pending == {}
            finally:
                await transport.aclose()
                await stop(server, connections)

        run(go())

    def test_connection_lost_mid_call_fails_fast_and_the_next_call_reconnects(self):
        service = StorageNodeService(StorageNode(0))

        async def go():
            loop = asyncio.get_running_loop()
            connections = []

            def hang_up_once(body):
                if len(connections) == 1:
                    connections[0].transport.abort()  # dies with the call in flight
                    return None
                return service.handle_frame(body)

            def accept():
                connections.append(FrameProtocol(hang_up_once))
                return connections[-1]

            server = await loop.create_server(accept, "127.0.0.1", 0)
            transport = TcpTransport(0, "127.0.0.1", server.sockets[0].getsockname()[1])
            try:
                started = loop.time()
                with pytest.raises(NodeUnavailableError):
                    await transport.call("ping")
                assert loop.time() - started < 5.0  # no timeout involved
                assert transport._pending == {} and transport._conn is None
                assert await transport.call("ping") == 0
                assert len(connections) == 2
            finally:
                await transport.aclose()
                await stop(server, connections)

        run(go())

    def test_peer_that_stops_reading_pauses_the_client_writer(self):
        # the service accepts but does not read: frames beyond what the
        # socket takes wait in the transport's backlog, not in an
        # ever-growing write buffer, and one cancelled there never leaves
        node = StorageNode(0)
        service = StorageNodeService(node)
        block = np.zeros(256 * 1024, dtype=np.uint8)
        count = 128  # 32 MiB: far more than loopback socket buffers hold

        async def go():
            loop = asyncio.get_running_loop()
            connections = []

            class Deaf(FrameProtocol):
                def connection_made(self, transport):
                    super().connection_made(transport)
                    transport.pause_reading()

            def accept():
                connections.append(Deaf(service.handle_frame, serving=True))
                return connections[-1]

            server = await loop.create_server(accept, "127.0.0.1", 0)
            transport = TcpTransport(0, "127.0.0.1", server.sockets[0].getsockname()[1])
            try:
                futures = [
                    transport.submit("put_data", (("k", i), block, i))
                    for i in range(count)
                ]
                await asyncio.sleep(0.2)
                conn = transport._conn
                assert not conn.writable and transport._backlog
                assert transport.frames_sent < count
                high_water = conn.transport.get_write_buffer_limits()[1]
                assert conn.transport.get_write_buffer_size() <= high_water + block.nbytes + 1024
                futures[-1].cancel()  # still in the backlog: dropped, not sent
                connections[0].transport.resume_reading()
                await asyncio.wait_for(asyncio.gather(*futures[:-1]), 30)
                assert transport.frames_sent == count - 1 and not transport._backlog
            finally:
                await transport.aclose()
                await stop(server, connections)

        run(go())
        assert len(node._data) == count - 1 and ("k", count - 1) not in node._data

    def test_client_that_stops_reading_pauses_the_serving_end(self):
        node = StorageNode(0)
        node.put_data("k", np.zeros(256 * 1024, dtype=np.uint8), 1)
        group = ServiceGroup([node], kind="tcp")
        codec = Codec()
        count = 128  # 32 MiB of replies nobody reads

        async def go():
            await group.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", group.ports[0], limit=2**16
            )
            try:
                for i in range(count):
                    writer.write(
                        frame(codec.encode({"id": i, "method": "read_data", "args": ["k"]}))
                    )
                await asyncio.sleep(0.3)
                (conn,) = group.connections
                assert not conn.writable and not conn.transport.is_reading()
                assert 0 < group.services[0].served < count
                high_water = conn.transport.get_write_buffer_limits()[1]
                assert conn.transport.get_write_buffer_size() <= high_water + 300 * 1024
                for i in range(count):  # the client catches up: all arrive, in order
                    (length,) = struct.unpack(">I", await reader.readexactly(4))
                    reply = codec.decode(await reader.readexactly(length))
                    assert reply["id"] == i and reply["ok"]
                assert group.services[0].served == count
            finally:
                writer.close()
                await writer.wait_closed()
                await group.aclose()

        run(go())

    def test_lost_connection_reconnects_then_fails_fast(self):
        node = StorageNode(0)
        group = ServiceGroup([node], kind="tcp")

        async def go():
            await group.start()
            transport = group.make_transports()[0]
            assert await transport.call("ping") == 0
            # a severed connection reconnects transparently while the
            # service still listens...
            transport._drop_connection()
            assert await transport.call("ping") == 0
            # ...and once the fleet is gone, reconnection is refused:
            # the dead-node fast-fail, not a timeout
            await group.aclose()
            transport._drop_connection()
            with pytest.raises(NodeUnavailableError):
                await transport.call("ping")
            await transport.aclose()

        run(go())

    def test_connect_transports_layout(self):
        transports = connect_transports(3, port_base=9400)
        assert sorted(transports) == [0, 1, 2]
        assert transports[2].port == 9402
        assert transports[2].node_id == 2


class TestServiceGroupAndMirror:
    def test_inproc_group_serves_cluster_nodes(self):
        from repro.api import SystemSpec, build_system

        built = build_system(SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, seed=3))
        built.initialize()
        group = ServiceGroup.for_cluster(built.cluster)
        transports = group.make_transports()
        assert len(transports) == 9

        async def go():
            # services wrap the very node objects initialize() seeded
            value, version = await transports[0].call(
                "read_data", (("erc-data", "api-stripe", 0),)
            )
            for transport in transports.values():
                await transport.aclose()
            return version

        assert run(go()) == 0

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceGroup([StorageNode(0)], kind="carrier-pigeon")

    def test_tcp_transports_require_start(self):
        group = ServiceGroup([StorageNode(0)], kind="tcp")
        with pytest.raises(ConfigurationError):
            group.make_transports()

    def test_mirror_state_replays_local_records(self):
        from repro.api import SystemSpec, build_system

        built = build_system(SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, seed=3))
        built.initialize()
        fleet = [StorageNode(i) for i in range(9)]  # fresh and empty
        group = ServiceGroup(fleet, kind="tcp")

        async def go():
            await group.start()
            transports = group.make_transports()
            try:
                return await mirror_state(transports, built.cluster)
            finally:
                for transport in transports.values():
                    await transport.aclose()
                await group.aclose()

        pushed = run(go())
        assert pushed > 0
        for local, remote in zip(built.cluster.nodes, fleet):
            assert set(local._data) == set(remote._data)
            assert set(local._parity) == set(remote._parity)
