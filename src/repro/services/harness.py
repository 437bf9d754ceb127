"""Service-fleet lifecycle: start/stop groups of node services.

:class:`ServiceGroup` owns one :class:`~repro.services.service.
StorageNodeService` per node. For the ``inproc`` kind there is nothing
to start — transports call the services through queue pairs on the
current loop. For the ``tcp`` kind :meth:`start` brings up one
``loop.create_server`` per node; ``port_base=0`` asks the OS for
ephemeral ports (read back from the listening sockets, so parallel CI
runs never collide), a non-zero base assigns ``port_base + node_id`` —
the fixed layout ``repro serve`` / :func:`connect_transports` agree on.

When the group wraps the nodes of a *built* cluster (``for_cluster``),
the services serve the very objects the instant-path ``initialize()``
seeded — data and metadata tier alike — so no state copy is needed.
:func:`mirror_state` covers the remote case instead: it replays a local
cluster's records into a separately-running fleet over the wire.
"""

from __future__ import annotations

import asyncio
import contextlib
from functools import partial

from repro.cluster.node import StorageNode
from repro.errors import ConfigurationError

from .service import StorageNodeService
from .transport import InprocTransport, TcpTransport
from .wire import FrameProtocol

__all__ = ["ServiceGroup", "mirror_state", "serve_forever"]


class ServiceGroup:
    """N node services plus matching client transports, one event loop."""

    def __init__(
        self,
        nodes,
        *,
        kind: str = "inproc",
        host: str = "127.0.0.1",
        port_base: int = 0,
    ) -> None:
        if kind not in ("inproc", "tcp"):
            raise ConfigurationError(
                f"transport kind must be 'inproc' or 'tcp', got {kind!r}"
            )
        self.kind = kind
        self.host = host
        self.port_base = port_base
        self.services = {node.node_id: StorageNodeService(node) for node in nodes}
        self.servers: dict[int, asyncio.base_events.Server] = {}
        #: accepted TCP connections still open (severed by :meth:`aclose`)
        self.connections: set[FrameProtocol] = set()
        self.ports: dict[int, int] = {}

    @classmethod
    def for_cluster(cls, cluster, spec=None, **overrides) -> "ServiceGroup":
        """Group over every node of a built cluster (data + metadata)."""
        kwargs = {}
        if spec is not None:
            kwargs = dict(kind=spec.kind, host=spec.host, port_base=spec.port_base)
        kwargs.update(overrides)
        return cls(list(cluster.nodes), **kwargs)

    # ------------------------------------------------------------------ #

    async def start(self) -> "ServiceGroup":
        """Bring up the TCP servers (no-op for the inproc kind)."""
        if self.kind != "tcp":
            return self
        loop = asyncio.get_running_loop()
        for node_id, service in self.services.items():
            port = 0 if self.port_base == 0 else self.port_base + node_id
            server = await loop.create_server(
                partial(self._accept, service), self.host, port
            )
            self.servers[node_id] = server
            self.ports[node_id] = server.sockets[0].getsockname()[1]
        return self

    def _accept(self, service: StorageNodeService) -> FrameProtocol:
        connection = FrameProtocol(
            service.handle_frame, serving=True, on_lost=self.connections.discard
        )
        self.connections.add(connection)
        return connection

    def make_transports(self) -> dict[int, object]:
        """One fresh client transport per service."""
        if self.kind == "inproc":
            return {
                node_id: InprocTransport(service)
                for node_id, service in self.services.items()
            }
        if not self.ports:
            raise ConfigurationError(
                "tcp ServiceGroup not started; call start() first"
            )
        return {
            node_id: TcpTransport(node_id, self.host, self.ports[node_id])
            for node_id in self.services
        }

    async def aclose(self) -> None:
        """Stop every TCP server, sever its connections, forget the ports."""
        servers, self.servers = list(self.servers.values()), {}
        for server in servers:
            server.close()
        for connection in list(self.connections):
            if connection.transport is not None:
                connection.transport.abort()
        for server in servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        await asyncio.sleep(0)  # aborted sockets close on the next turn
        self.ports.clear()


async def mirror_state(transports: dict[int, object], cluster) -> int:
    """Replay a local cluster's node state into remote services.

    Pushes every data record via ``put_data`` and every parity record
    via ``put_parity`` — the same unconditional stores an engine's
    ``initialize`` uses — so a fleet started by ``repro serve`` (fresh,
    empty nodes) ends up serving exactly the state a local
    ``initialize()`` produced.
    Returns the number of records pushed.
    """
    pushed = 0
    for node in cluster.nodes:
        transport = transports.get(node.node_id)
        if transport is None:
            continue
        data, parity = node.snapshot()
        for key, record in data.items():
            await transport.call("put_data", (key, record.payload, record.version))
            pushed += 1
        for key, record in parity.items():
            await transport.call(
                "put_parity", (key, record.payload, record.versions)
            )
            pushed += 1
    return pushed


def serve_forever(
    num_nodes: int,
    *,
    host: str = "127.0.0.1",
    port_base: int = 9300,
    max_seconds: float | None = None,
    announce=None,
) -> None:
    """Run ``num_nodes`` TCP node services until interrupted.

    The ``repro serve`` entry point: fresh empty nodes on
    ``port_base + node_id`` (clients seed them via :func:`mirror_state`).
    ``max_seconds`` bounds the lifetime for scripted smoke tests; Ctrl-C
    always stops cleanly.
    """
    nodes = [StorageNode(i) for i in range(num_nodes)]
    group = ServiceGroup(nodes, kind="tcp", host=host, port_base=port_base)
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(group.start())
        if announce is not None:
            ports = sorted(group.ports.values())
            announce(
                f"serving {num_nodes} node services on {host} "
                f"ports {ports[0]}-{ports[-1]} (json)"
            )
        if max_seconds is not None:
            loop.run_until_complete(asyncio.sleep(max_seconds))
        else:
            loop.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        with contextlib.suppress(Exception):
            loop.run_until_complete(group.aclose())
        loop.close()
