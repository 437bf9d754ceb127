"""Storage-node RPC service: real block state behind the wire protocol.

A :class:`StorageNodeService` owns one :class:`~repro.cluster.node.
StorageNode` — the *same* versioned data/parity stores the simulators
use — and exposes its RPC surface (the eight methods the protocol
engines issue, plus ``ping``) through :mod:`repro.services.wire`
messages. The service is transport-agnostic: the in-process transport
and a TCP connection's :class:`~repro.services.wire.FrameProtocol`
both hand :meth:`~StorageNodeService.handle_frame` the bodies.

Failure semantics mirror the simulated paths: a dead node's
``NodeUnavailableError`` (and any other :class:`~repro.errors.
ReproError` or ``KeyError`` the node raises) travels back as an error
reply the client rebuilds and the round plans catch; anything else is a
server-side programming error and is surfaced as an uncatchable
:class:`~repro.services.wire.RemoteCallError` on the client. Requests
are answered by :func:`~repro.cluster.node.serve`, the entry point
``Network.rpc`` and the event runtime share, so a node armed with a
:class:`~repro.cluster.node.ByzantineBehavior` lies here exactly as it
does there.
"""

from __future__ import annotations

from repro.cluster.node import StorageNode, serve

from .wire import Codec, WireError, encode_error

__all__ = ["RPC_METHODS", "StorageNodeService"]

#: the node methods a service will dispatch — the engines' RPC surface
RPC_METHODS = frozenset(
    {
        "put_data",
        "write_data",
        "read_data",
        "data_version",
        "put_parity",
        "apply_delta",
        "read_parity",
        "parity_versions",
    }
)


class StorageNodeService:
    """One storage node's RPC surface behind the wire protocol."""

    def __init__(self, node: StorageNode) -> None:
        self.node = node
        self.codec = Codec()
        #: replies sent, split by outcome
        self.served = 0
        self.faults = 0

    @property
    def node_id(self) -> int:
        return self.node.node_id

    # ------------------------------------------------------------------ #

    def dispatch(self, message: dict) -> dict:
        """Execute one decoded request message; returns the reply dict."""
        if not isinstance(message, dict):
            message = {}
        msg_id = message.get("id")
        method = message.get("method")
        if method == "ping":
            self.served += 1
            return {"id": msg_id, "ok": True, "value": self.node.node_id}
        if not isinstance(method, str) or method not in RPC_METHODS:
            self.faults += 1
            return {
                "id": msg_id,
                "ok": False,
                "error": {
                    "type": "ConfigurationError",
                    "message": f"unknown RPC method {method!r}",
                },
            }
        args = message.get("args") or []
        kwargs = message.get("kwargs") or {}
        try:
            value = serve(self.node, method, tuple(args), kwargs)
        except Exception as exc:
            # a ReproError/KeyError is rebuilt and caught by the client's
            # plan; anything else is a server-side bug and surfaces there
            # as an uncatchable RemoteCallError
            self.faults += 1
            return {"id": msg_id, "ok": False, "error": encode_error(exc)}
        self.served += 1
        return {"id": msg_id, "ok": True, "value": value}

    def handle_frame(self, body: bytes) -> bytes:
        """Decode → dispatch → encode one frame body."""
        try:
            message = self.codec.decode(body)
        except WireError as exc:
            self.faults += 1
            return self.codec.encode(
                {"id": None, "ok": False, "error": encode_error(exc)}
            )
        return self.codec.encode(self.dispatch(message))
