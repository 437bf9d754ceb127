"""Client transports: in-process queue pairs and real TCP.

A transport is one client's channel to one node service; the
:class:`~repro.runtime.async_coord.AsyncCoordinator` holds one per node
and duck-types against ``submit(method, args, kwargs) -> Future`` /
``await aclose()``. ``submit`` never raises and never blocks: the future
resolves to the decoded value or fails with the rebuilt remote error
(``await call(...)`` is the coroutine form of the same thing), and a
future the caller cancels — its deadline passed — is simply dropped; a
reply that still arrives for it is ignored. Both transports speak the
full wire protocol — every call is encoded and decoded even in-process,
so the zero-latency path exercises exactly the bytes the TCP path ships
— and count them (``frames_sent``, ``bytes_sent``, ``frames_received``,
``bytes_received``; TCP counts include the length prefix).

Unreachability is normalized to :class:`~repro.errors.
NodeUnavailableError`: a closed transport, a refused TCP connection or
a connection lost mid-call all fail the future with it, mirroring the
dead-node RST fast-fail of the simulated paths.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from collections import deque

from repro.errors import NodeUnavailableError

from .wire import Codec, FrameProtocol, WireError, decode_error, frame

__all__ = ["InprocTransport", "TcpTransport", "connect_transports"]


class _TransportBase:
    """Shared bookkeeping: message ids, counters, settling a future."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.codec = Codec()
        self.calls = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0
        self.closed = False
        self._ids = itertools.count()

    def submit(self, method: str, args=(), kwargs=None) -> asyncio.Future:
        """Issue one RPC; the future resolves to its value or its error."""
        future = asyncio.get_running_loop().create_future()
        if self.closed:
            future.set_exception(NodeUnavailableError(self.node_id))
            return future
        self.calls += 1
        msg_id = next(self._ids)
        message = {"id": msg_id, "method": method, "args": list(args)}
        if kwargs:
            message["kwargs"] = dict(kwargs)
        try:
            body = self.codec.encode(message)
        except WireError as exc:
            future.set_exception(exc)
        else:
            self._send(msg_id, body, future)
        return future

    async def call(self, method: str, args=(), kwargs=None):
        """Issue one RPC; returns the decoded value or raises the error."""
        return await self.submit(method, args, kwargs)

    def _sent(self, nbytes: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += nbytes

    def _received(self, nbytes: int) -> None:
        self.frames_received += 1
        self.bytes_received += nbytes

    def _settle(self, future: asyncio.Future | None, reply) -> None:
        """Resolve a request's future from its decoded reply."""
        if future is None or future.done():
            return  # nobody waits any more: a late reply is ignored
        if not isinstance(reply, dict) or "ok" not in reply:
            future.set_exception(WireError(f"malformed reply: {reply!r}"))
        elif reply["ok"]:
            future.set_result(reply.get("value"))
        else:
            future.set_exception(decode_error(reply.get("error")))


class InprocTransport(_TransportBase):
    """Zero-latency transport over an in-process ``asyncio.Queue``.

    One lazily-started worker task drains the queue FIFO, so requests to
    one node resolve in issue order — the deterministic ordering the
    instant-path equivalence suite relies on. A call abandoned by a
    client timeout is still executed by the worker (at-least-once, like
    an event-path delivery after the sender gave up); the node's version
    guards make that safe.
    """

    def __init__(self, service) -> None:
        super().__init__(service.node_id)
        self.service = service
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None

    def _send(self, msg_id: int, body: bytes, future: asyncio.Future) -> None:
        if self._queue is None:
            self._queue = asyncio.Queue()
        if self._worker is None or self._worker.done():
            self._worker = asyncio.get_running_loop().create_task(self._run())
        self._sent(len(body))
        self._queue.put_nowait((body, future))

    async def _run(self) -> None:
        while True:
            body, future = await self._queue.get()
            reply = self.service.handle_frame(body)
            self._received(len(reply))
            self._settle(future, self.codec.decode(reply))

    async def aclose(self) -> None:
        self.closed = True
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await worker


class TcpTransport(_TransportBase):
    """One multiplexed TCP connection to a node service.

    Requests carry ids; replies resolve the pending future of their id as
    ``data_received`` completes their frame, so concurrent calls share
    the connection. Frames wait in a backlog while there is nothing to
    write them to — the first call connects, and a connection whose peer
    stopped reading (``pause_writing``) holds further frames until it
    resumes — so a stalled peer makes callers wait instead of growing
    the socket buffer; a request cancelled meanwhile is never sent. A
    refused connection or a connection lost mid-call fails every waiting
    request with :class:`NodeUnavailableError` (the RST path) and the
    next call reconnects.
    """

    def __init__(self, node_id: int, host: str, port: int) -> None:
        super().__init__(node_id)
        self.host = host
        self.port = port
        self.refusals = 0
        self._conn: FrameProtocol | None = None
        self._connecting: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._backlog: deque = deque()

    def _send(self, msg_id: int, body: bytes, future: asyncio.Future) -> None:
        self._pending[msg_id] = future
        future.add_done_callback(lambda _: self._pending.pop(msg_id, None))
        self._backlog.append((future, frame(body)))
        if self._conn is not None:
            self._flush()
        elif self._connecting is None:
            self._connecting = asyncio.get_running_loop().create_task(
                self._connect()
            )

    def _flush(self) -> None:
        conn, backlog = self._conn, self._backlog
        while backlog and conn is not None and conn.writable:
            future, data = backlog.popleft()
            if not future.done():
                conn.transport.write(data)
                self._sent(len(data))

    async def _connect(self) -> None:
        try:
            _, self._conn = await asyncio.get_running_loop().create_connection(
                self._protocol, self.host, self.port
            )
        except OSError:
            self.refusals += 1
            self._drop_connection()
        finally:
            self._connecting = None
        self._flush()

    def _protocol(self) -> FrameProtocol:
        return FrameProtocol(
            self._on_reply, on_resume=self._flush, on_lost=self._connection_lost
        )

    def _connection_lost(self, conn: FrameProtocol) -> None:
        if self._conn is conn:
            self._drop_connection()

    def _on_reply(self, body: bytes) -> None:
        self._received(len(body) + 4)  # + the frame's length prefix
        try:
            reply = self.codec.decode(body)
        except WireError:
            return  # an undecodable reply is dropped; the connection lives
        msg_id = reply.get("id") if isinstance(reply, dict) else None
        future = self._pending.get(msg_id) if type(msg_id) is int else None
        self._settle(future, reply)

    def _drop_connection(self) -> None:
        """Sever the connection and fail every request waiting on it."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.transport.abort()
        self._backlog.clear()
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(NodeUnavailableError(self.node_id))
        self._pending.clear()

    async def aclose(self) -> None:
        self.closed = True
        task = self._connecting
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._drop_connection()
        await asyncio.sleep(0)  # the aborted socket closes on the next turn


def connect_transports(
    num_nodes: int,
    host: str = "127.0.0.1",
    port_base: int = 9300,
) -> dict[int, TcpTransport]:
    """Transports to a running ``repro serve`` fleet (port_base + id)."""
    return {
        node_id: TcpTransport(node_id, host, port_base + node_id)
        for node_id in range(num_nodes)
    }
